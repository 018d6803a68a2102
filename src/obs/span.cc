#include "obs/span.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace crowdtruth::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

// One monotonic epoch for every span in the process, captured at the
// first armed span so early spans do not start at huge offsets.
SteadyClock::time_point ProcessEpoch() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return epoch;
}

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint64_t> g_next_trace_id{1};

}  // namespace

struct Span::Active {
  FlightRecorder* recorder = nullptr;
  Active* parent = nullptr;  // the span below this one on the thread stack
  SpanRecord record;
};

namespace {
// The innermost open armed span on this thread; new spans link to it
// unless given an explicit parent.
thread_local Span::Active* t_current_span = nullptr;
// Open UnrecordedScopes on this thread.
thread_local int t_unrecorded_depth = 0;
}  // namespace

UnrecordedScope::UnrecordedScope() { ++t_unrecorded_depth; }
UnrecordedScope::~UnrecordedScope() { --t_unrecorded_depth; }

Span::Span(const char* name) : Span(name, SpanContext()) {}

Span::Span(const char* name, const SpanContext& parent) {
  FlightRecorder* recorder = ProcessFlightRecorder();
  if (recorder != nullptr && t_unrecorded_depth > 0) recorder = nullptr;
  if (recorder == nullptr) {
    start_ = SteadyClock::now();
    return;
  }
  record_ = new Active();
  record_->recorder = recorder;
  record_->parent = t_current_span;
  record_->record.name = name;
  record_->record.span_id =
      g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (parent.span_id != 0) {
    record_->record.trace_id = parent.trace_id;
    record_->record.parent_id = parent.span_id;
  } else if (t_current_span != nullptr) {
    record_->record.trace_id = t_current_span->record.trace_id;
    record_->record.parent_id = t_current_span->record.span_id;
  } else {
    record_->record.trace_id =
        g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  }
  t_current_span = record_;
  const SteadyClock::time_point epoch = ProcessEpoch();
  start_ = SteadyClock::now();
  record_->record.start_seconds =
      std::chrono::duration<double>(start_ - epoch).count();
}

Span::~Span() {
  if (record_ == nullptr) return;
  // Same reading as ElapsedSeconds(), so the recorded duration bounds
  // every elapsed time read inside the span.
  record_->record.duration_seconds = ElapsedSeconds();
  // Pop even if an uninstall raced the span: the stack must stay balanced.
  if (t_current_span == record_) t_current_span = record_->parent;
  record_->recorder->Record(std::move(record_->record));
  delete record_;
}

void Span::Annotate(const char* key, const std::string& value) {
  if (record_ == nullptr) return;
  record_->record.annotations.emplace_back(key, value);
}

void Span::Annotate(const char* key, int64_t value) {
  if (record_ == nullptr) return;
  record_->record.annotations.emplace_back(key, std::to_string(value));
}

void Span::Annotate(const char* key, double value) {
  if (record_ == nullptr) return;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  record_->record.annotations.emplace_back(key, buffer);
}

SpanContext Span::context() const {
  SpanContext context;
  if (record_ == nullptr) return context;
  context.trace_id = record_->record.trace_id;
  context.span_id = record_->record.span_id;
  context.parent_id = record_->record.parent_id;
  return context;
}

}  // namespace crowdtruth::obs
