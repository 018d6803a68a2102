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
// Every span is also the clock of the event it names: it stamps its start
// whether or not it is armed, and ElapsedSeconds() reads the time since.
// Callers that export an event's cost (engine Observe/Resync latency,
// request duration, shard barrier waits, EM phase times) read it there
// instead of running a second stopwatch beside the span.
//
// Cost discipline: with no recorder installed a Span is one relaxed atomic
// load, a branch and one steady_clock read (no allocation). An armed span
// adds its record and the closing clock read. Recording never steers —
// spans observe the run, they never change what it computes (pinned
// bit-identical by method_threading_test).
//
// Recorded times are steady_clock seconds since the first armed span, so
// all spans share one monotonic timeline.
#ifndef CROWDTRUTH_OBS_SPAN_H_
#define CROWDTRUTH_OBS_SPAN_H_

#include <chrono>
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

  // Seconds since the span opened, armed or not. Reads only the start
  // stamp, so pool tasks may call it on their parent's span.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  // Implementation detail, public only so span.cc can keep the
  // thread-local stack of open spans at namespace scope.
  struct Active;

 private:
  // Heap-allocated only when armed, so the disarmed Span is a pointer and
  // a start stamp on the stack.
  Active* record_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

// While one lives, the spans opened on its thread record nothing: they
// still time their events, like disarmed spans. For work whose span-by-span
// detail would fill a flight-recorder ring of its own while its enclosing
// span and the metrics already summarize it — the background solver
// records one engine_resync_solve span per solve, not its EM iterations.
class UnrecordedScope {
 public:
  UnrecordedScope();
  UnrecordedScope(const UnrecordedScope&) = delete;
  UnrecordedScope& operator=(const UnrecordedScope&) = delete;
  ~UnrecordedScope();
};

}  // namespace crowdtruth::obs

#endif  // CROWDTRUTH_OBS_SPAN_H_
