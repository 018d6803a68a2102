// Streaming numeric baselines.
//
//   * StreamingMean — per-task running sum; each answer updates its task's
//     mean in O(1). Accumulation happens in arrival order, the same order
//     the batch MeanBaseline sums the materialized dataset, so the
//     incremental means are bit-identical to batch even between resyncs.
//   * StreamingMedian — per-task sorted answer buffer; each answer is a
//     binary-search insert and a O(1) median read.
//
// Worker quality is the batch methods' negative RMS deviation from the
// current estimates, computed on demand.
#ifndef CROWDTRUTH_STREAMING_INCREMENTAL_NUMERIC_H_
#define CROWDTRUTH_STREAMING_INCREMENTAL_NUMERIC_H_

#include <memory>
#include <string>
#include <vector>

#include "streaming/incremental.h"

namespace crowdtruth::streaming {

// Shared scaffolding: the values_ cache, on-demand worker quality, and the
// values-only snapshot (per-task buffers are rebuilt from the adjacency).
class IncrementalNumericBaseline : public IncrementalNumericMethod {
 public:
  explicit IncrementalNumericBaseline(StreamingOptions options)
      : IncrementalNumericMethod(/*num_choices=*/0, std::move(options)) {}

  double Estimate(data::TaskId task) const override {
    return values_[task];
  }
  double WorkerQuality(data::WorkerId worker) const override;

 protected:
  void AdoptBatch(const core::NumericResult& result) override {
    values_ = result.values;
    RebuildBuffers();
  }
  void SnapshotState(util::JsonValue* state) const override;
  util::Status RestoreState(const util::JsonValue& state) override;
  // Rebuilds per-task accumulators from the adjacency (after a Restore or
  // an adoption), bit-identical to the ones Observe accumulates.
  virtual void RebuildBuffers() = 0;

  std::vector<double> values_;
};

class StreamingMean : public IncrementalNumericBaseline {
 public:
  explicit StreamingMean(StreamingOptions options)
      : IncrementalNumericBaseline(std::move(options)) {}

  std::string name() const override { return "Mean"; }

 protected:
  void OnGrow() override;
  void OnObserve(const NumericAnswer& answer) override;
  void RebuildBuffers() override;

 private:
  std::vector<double> sums_;
};

class StreamingMedian : public IncrementalNumericBaseline {
 public:
  explicit StreamingMedian(StreamingOptions options)
      : IncrementalNumericBaseline(std::move(options)) {}

  std::string name() const override { return "Median"; }

 protected:
  void OnGrow() override;
  void OnObserve(const NumericAnswer& answer) override;
  void RebuildBuffers() override;

 private:
  static double MedianOf(const std::vector<double>& sorted);

  // sorted_[t]: task t's answers in ascending order.
  std::vector<std::vector<double>> sorted_;
};

}  // namespace crowdtruth::streaming

#endif  // CROWDTRUTH_STREAMING_INCREMENTAL_NUMERIC_H_
