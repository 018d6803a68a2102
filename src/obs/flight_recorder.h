// The flight recorder: an always-on, bounded-memory store of recently
// finished spans (obs/span.h), one ring buffer per recording thread.
//
// The design target is "black box", not "log": recording must be cheap
// enough to leave armed in production, and memory must stay bounded no
// matter how long the process runs — so each thread writes into a
// fixed-capacity ring that overwrites its oldest span, and Dump() stitches
// the rings into one start-time-ordered view of the recent past (on
// demand, at exit, or from the server's /debug/trace endpoint).
//
// Concurrency: a thread records only into its own ring, guarded by a
// per-ring mutex that is uncontended except while a dump is in progress —
// the hot path is one lock of a never-shared mutex plus a slot write, and
// the whole structure is TSan-clean without atomics trickery.
//
// Like the metric registry, the recorder is installed process-wide
// (InstallFlightRecorder); when none is installed — the default — every
// span site reduces to one relaxed atomic pointer load, a branch and the
// span's start stamp (the one clock read its event is timed by), and
// recording never steers: results are bit-identical with the recorder
// armed (pinned by method_threading_test).
#ifndef CROWDTRUTH_OBS_FLIGHT_RECORDER_H_
#define CROWDTRUTH_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace crowdtruth::obs {

// One finished span. Times are seconds on the process-wide monotonic
// clock (steady_clock, zeroed at the first armed span), so spans from
// different threads share one timeline.
struct SpanRecord {
  uint64_t trace_id = 0;   // shared by every span of one causal tree
  uint64_t span_id = 0;    // unique per span, process-wide
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  uint32_t thread_index = 0;  // recorder-assigned dense thread number
  std::vector<std::pair<std::string, std::string>> annotations;
};

struct FlightRecorderConfig {
  // Spans retained per recording thread; older spans are overwritten.
  // 8192 spans x ~200 bytes is ~1.6 MB per thread, a few minutes of
  // serving-plane history at typical ingest rates.
  size_t capacity_per_thread = 8192;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  // Appends one finished span to the calling thread's ring, overwriting
  // the oldest span when full.
  void Record(SpanRecord&& record);

  // Every retained span across all rings, sorted by (start, span_id).
  std::vector<SpanRecord> Dump() const;

  // Lifetime spans recorded / overwritten before they were dumped.
  int64_t recorded() const;
  int64_t dropped() const;

  const FlightRecorderConfig& config() const { return config_; }

 private:
  // Slots are reserved up front but filled on demand, so a thread that
  // records few spans (the background solver) keeps only those resident.
  struct Ring {
    explicit Ring(size_t capacity) : capacity(capacity) {
      slots.reserve(capacity);
    }
    mutable std::mutex mutex;
    const size_t capacity;
    std::vector<SpanRecord> slots;
    size_t next = 0;      // ring write position
    int64_t written = 0;  // lifetime records into this ring
  };

  Ring* RingForThisThread();

  FlightRecorderConfig config_;
  // Process-unique instance id: threads key their cached ring on this, not
  // the recorder's address, so a new recorder allocated where a destroyed
  // one lived can never serve a stale ring pointer.
  uint64_t instance_id_ = 0;
  mutable std::mutex rings_mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

// The recorder span sites report to; nullptr (the default) disables
// recording everywhere. Not owned; must outlive its installation. Swap
// only between runs, not while instrumented code is executing.
FlightRecorder* ProcessFlightRecorder();
void InstallFlightRecorder(FlightRecorder* recorder);

}  // namespace crowdtruth::obs

#endif  // CROWDTRUTH_OBS_FLIGHT_RECORDER_H_
