// Streaming Majority Voting. Per-task vote counts are updated in O(1) per
// answer; the estimate for the answered task moves only when the new count
// strictly beats the incumbent label's count (ties keep the incumbent, a
// deterministic stand-in for batch MV's seeded random tie-break — Resync
// adopts the batch tie-breaks verbatim).
#ifndef CROWDTRUTH_STREAMING_INCREMENTAL_MV_H_
#define CROWDTRUTH_STREAMING_INCREMENTAL_MV_H_

#include <memory>
#include <string>
#include <vector>

#include "streaming/incremental.h"

namespace crowdtruth::streaming {

class StreamingMajorityVote : public IncrementalCategoricalMethod {
 public:
  StreamingMajorityVote(int num_choices, StreamingOptions options)
      : IncrementalCategoricalMethod(num_choices, std::move(options)) {}

  std::string name() const override { return "MV"; }
  data::LabelId Estimate(data::TaskId task) const override {
    return labels_[task];
  }
  // Agreement fraction with the current estimates, computed on demand.
  double WorkerQuality(data::WorkerId worker) const override;

 protected:
  void OnGrow() override;
  void OnObserve(const CategoricalAnswer& answer) override;
  void AdoptBatch(const core::CategoricalResult& result) override;
  void SnapshotState(util::JsonValue* state) const override;
  util::Status RestoreState(const util::JsonValue& state) override;

 private:
  // Counts are raw data: rebuilt from the adjacency.
  void RebuildCounts();

  // counts_[t][z]: votes task t received for choice z.
  std::vector<std::vector<int>> counts_;
  std::vector<data::LabelId> labels_;
};

}  // namespace crowdtruth::streaming

#endif  // CROWDTRUTH_STREAMING_INCREMENTAL_MV_H_
