// Span tracing: RAII scopes that record causally-linked timing into the
// process-wide flight recorder (obs/flight_recorder.h).
//
//   obs::Span span("tenant_ingest");
//   span.Annotate("tenant", name);
//   ...                       // nested Spans become children automatically
//                             // ~Span records {name, start, duration,
//                             //  parent, annotations}
//
// Parent/child links come from a thread-local span stack: a Span's parent
// is whichever Span was open on the same thread when it was constructed,
// so one ingest request produces one coherent tree — server http_request
// -> tenant_ingest -> validate_records / engine_observe -> engine_resync
// -> em_run -> em_truth_step / em_quality_step — with no context threading
// through call signatures. Work that crosses to another thread passes its
// parent's SpanContext explicitly (shard_barrier -> engine_resync on the
// worker pool). Roots mint a fresh trace_id; children inherit.
//
// Cost discipline mirrors the metric registry: with no recorder installed
// a Span is one relaxed atomic load and a branch (no clock reads, no
// allocation), and recording never steers — spans observe the run, they
// never change what it computes (pinned bit-identical by
// method_threading_test).
//
// Timing uses the same steady_clock as util::Stopwatch, zeroed at the
// first armed span, so all spans share one monotonic timeline.
#ifndef CROWDTRUTH_OBS_SPAN_H_
#define CROWDTRUTH_OBS_SPAN_H_

#include <cstdint>
#include <string>

#include "obs/flight_recorder.h"

namespace crowdtruth::obs {

// The identity of a span, for callers that need to link work across an
// explicit boundary instead of the implicit thread-local stack.
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

class Span {
 public:
  // `name` must outlive the span (string literals at every call site); a
  // disarmed span never copies it.
  explicit Span(const char* name);
  // Links to `parent` instead of the span open on this thread, for work
  // handed to another thread (a shard barrier's per-shard resync on a pool
  // worker). Spans opened inside it on this thread are still its children.
  // A zero `parent` (a disarmed span's context) falls back to the thread's
  // open span, exactly like Span(name).
  Span(const char* name, const SpanContext& parent);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  // Attaches a key:value annotation; no-ops when disarmed.
  void Annotate(const char* key, const std::string& value);
  void Annotate(const char* key, int64_t value);
  void Annotate(const char* key, double value);

  // True when a recorder was installed at construction.
  bool armed() const { return record_ != nullptr; }
  SpanContext context() const;

  // Implementation detail, public only so span.cc can keep the
  // thread-local stack of open spans at namespace scope.
  struct Active;

 private:
  // Heap-allocated only when armed, so the disarmed Span is a pointer and
  // a branch on the stack.
  Active* record_ = nullptr;
};

}  // namespace crowdtruth::obs

#endif  // CROWDTRUTH_OBS_SPAN_H_
