// Streaming ZenCrowd. Maintains the batch method's two parameter sets — the
// per-task posterior and the per-worker correctness probability — and after
// each answer re-solves only the answered task's neighborhood:
//
//   sweep 0: recompute the answered task's posterior (the batch E-step
//            restricted to that task), delta-update its voters' expected-
//            correct sums and re-clamp their qualities (the batch M-step
//            restricted to those workers);
//   sweep k: tasks of any worker whose quality moved by more than
//            options.propagation_threshold are re-solved the same way.
//
// options.local_sweeps bounds the propagation depth, so each Observe costs
// O(neighborhood) instead of O(answers x iterations).
#ifndef CROWDTRUTH_STREAMING_INCREMENTAL_ZC_H_
#define CROWDTRUTH_STREAMING_INCREMENTAL_ZC_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "streaming/incremental.h"

namespace crowdtruth::streaming {

class StreamingZc : public IncrementalCategoricalMethod {
 public:
  StreamingZc(int num_choices, StreamingOptions options)
      : IncrementalCategoricalMethod(num_choices, std::move(options)) {}

  std::string name() const override { return "ZC"; }
  data::LabelId Estimate(data::TaskId task) const override {
    return labels_[task];
  }
  std::vector<double> TaskPosterior(data::TaskId task) const override {
    return posterior_[task];
  }
  double WorkerQuality(data::WorkerId worker) const override {
    return quality_[worker];
  }

  // Cross-shard sufficient statistic: the M-step numerator agree_sum_[w].
  // Adopting shard-merged stats re-derives the quality with the batch
  // clamp, so a shard's serving quality reflects the worker's answers on
  // every shard, not just the local slice.
  std::vector<double> ExportWorkerStats(
      data::WorkerId worker) const override {
    return {agree_sum_[worker]};
  }
  void AdoptWorkerStats(data::WorkerId worker, int64_t answer_count,
                        const std::vector<double>& stats) override;

 protected:
  void OnGrow() override;
  void OnObserve(const CategoricalAnswer& answer) override;
  void AdoptBatch(const core::CategoricalResult& result) override;
  void SnapshotState(util::JsonValue* state) const override;
  util::Status RestoreState(const util::JsonValue& state) override;

 private:
  // Batch E-step restricted to `task`; delta-updates the voters' agree
  // sums and collects them into `touched`.
  void RefreshTask(data::TaskId task, std::set<data::WorkerId>* touched);
  // Sets quality_[worker] and refreshes its cached log terms.
  void SetQuality(data::WorkerId worker, double quality);

  std::vector<std::vector<double>> posterior_;
  std::vector<data::LabelId> labels_;
  std::vector<double> quality_;
  // log(q_w) and log((1-q_w)/(l-1)), cached so RefreshTask pays no
  // transcendental per vote. Kept in lockstep with quality_ via
  // SetQuality.
  std::vector<double> log_right_;
  std::vector<double> log_wrong_;
  // agree_sum_[w]: sum of posterior_[task][label] over w's votes — the
  // numerator of the batch M-step, maintained incrementally.
  std::vector<double> agree_sum_;
};

}  // namespace crowdtruth::streaming

#endif  // CROWDTRUTH_STREAMING_INCREMENTAL_ZC_H_
