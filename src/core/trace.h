// Inference tracing: per-iteration observability for Algorithm 1.
//
// Every iterative method alternates two phases — inferring the truth from
// the current worker qualities ("truth step", step 1 of Algorithm 1) and
// re-estimating worker qualities from the current truth ("quality step",
// step 2). A TraceSink installed in InferenceOptions::trace receives one
// IterationEvent per outer iteration with the convergence delta and the
// wall-clock spent in each phase, letting callers watch convergence live,
// persist run trajectories, and attribute time to the phase that consumed
// it.
//
// Sinks are not synchronized by default: share a sink across concurrent
// Infer calls only if the sink itself is thread-safe. The bundled
// CollectingTraceSink / StreamTraceSink are not (the experiment runner
// creates one per run); wrap any sink in SynchronizedTraceSink to share it
// across threads.
#ifndef CROWDTRUTH_CORE_TRACE_H_
#define CROWDTRUTH_CORE_TRACE_H_

#include <iosfwd>
#include <mutex>
#include <vector>

namespace crowdtruth::core {

// The two phases of the unified framework's iteration. Methods whose
// quality model is fit by gradient ascent or Gibbs sampling count that
// parameter fit as the quality step.
enum class TracePhase { kTruthStep, kQualityStep };

struct IterationEvent {
  // 1-based outer-iteration index (matches CategoricalResult::iterations).
  int iteration = 0;
  // Parameter change this iteration — the same value the method appends to
  // convergence_trace and compares against options.tolerance.
  double delta = 0.0;
  // Wall-clock seconds spent in each phase this iteration.
  double truth_seconds = 0.0;
  double quality_seconds = 0.0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnIteration(const IterationEvent& event) = 0;
};

// Buffers events in memory; used by the experiment runner to assemble
// RunReports and by tests. Optionally forwards each event to `forward`
// so a caller-installed sink keeps observing a run the runner instruments.
class CollectingTraceSink : public TraceSink {
 public:
  explicit CollectingTraceSink(TraceSink* forward = nullptr)
      : forward_(forward) {}

  void OnIteration(const IterationEvent& event) override {
    events_.push_back(event);
    if (forward_ != nullptr) forward_->OnIteration(event);
  }

  const std::vector<IterationEvent>& events() const { return events_; }
  std::vector<IterationEvent> TakeEvents() { return std::move(events_); }

 private:
  std::vector<IterationEvent> events_;
  TraceSink* forward_;
};

// Serializes OnIteration calls onto a wrapped sink, making any sink safe
// to share across concurrent Infer calls (e.g. one CollectingTraceSink
// observing several methods running in parallel threads). Events from
// different runs interleave in lock-acquisition order; events from one run
// keep their order.
class SynchronizedTraceSink : public TraceSink {
 public:
  explicit SynchronizedTraceSink(TraceSink* wrapped) : wrapped_(wrapped) {}

  void OnIteration(const IterationEvent& event) override {
    if (wrapped_ == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex_);
    wrapped_->OnIteration(event);
  }

 private:
  TraceSink* wrapped_;
  std::mutex mutex_;
};

// Prints one human-readable line per iteration; used by
// `crowdtruth_infer --trace`.
class StreamTraceSink : public TraceSink {
 public:
  explicit StreamTraceSink(std::ostream& out) : out_(out) {}
  void OnIteration(const IterationEvent& event) override;

 private:
  std::ostream& out_;
};

}  // namespace crowdtruth::core

#endif  // CROWDTRUTH_CORE_TRACE_H_
