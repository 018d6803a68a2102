// Streaming Dawid & Skene. Maintains the confusion-matrix EM state as
// running sufficient statistics:
//
//   * counts_[w][j*l+k]  — expected co-occurrence counts: sum over w's
//                          votes of posterior[task][j] where the vote was k
//                          (the batch M-step's accumulator, kept
//                          incrementally via delta updates);
//   * class_sum_[j]      — sum of posterior[t][j] over answered tasks;
//   * matrices_[w]       — the normalized confusion matrix derived from
//                          counts_ exactly as the batch M-step does
//                          (smoothing + priors, then row-normalize);
//   * class_prior_, posterior_, labels_, quality_.
//
// Each Observe adds the new vote's contribution, then runs the same bounded
// dirty-task sweeps as StreamingZc: re-solve the answered task's posterior
// (batch E-step restricted to one task), delta-update its voters' counts
// and renormalize their matrices, and propagate to workers whose scalar
// quality moved by more than the threshold.
#ifndef CROWDTRUTH_STREAMING_INCREMENTAL_DS_H_
#define CROWDTRUTH_STREAMING_INCREMENTAL_DS_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "streaming/incremental.h"

namespace crowdtruth::streaming {

class StreamingDs : public IncrementalCategoricalMethod {
 public:
  StreamingDs(int num_choices, StreamingOptions options)
      : IncrementalCategoricalMethod(num_choices, std::move(options)) {}

  std::string name() const override { return "D&S"; }
  data::LabelId Estimate(data::TaskId task) const override {
    return labels_[task];
  }
  std::vector<double> TaskPosterior(data::TaskId task) const override {
    return posterior_[task];
  }
  double WorkerQuality(data::WorkerId worker) const override {
    return quality_[worker];
  }
  // The worker's current confusion matrix (flattened l x l).
  const std::vector<double>& WorkerConfusion(data::WorkerId worker) const {
    return matrices_[worker];
  }

  // Cross-shard sufficient statistic: the flattened l*l expected-count
  // matrix (the batch M-step's accumulator). Adopting shard-merged counts
  // renormalizes them into the serving confusion matrix exactly like the
  // batch M-step; the local counts_ stay untouched so local delta updates
  // remain consistent.
  std::vector<double> ExportWorkerStats(
      data::WorkerId worker) const override {
    return counts_[worker];
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
  void RefreshClassPrior();
  // Rebuilds matrices_[worker] from counts_[worker] (the batch M-step's
  // normalization) and refreshes the cached scalar quality.
  void RenormalizeWorker(data::WorkerId worker);
  // Same normalization from an arbitrary count matrix (shard-merged
  // statistics).
  void RenormalizeWorkerFrom(data::WorkerId worker,
                             const std::vector<double>& counts);
  // Batch E-step restricted to `task`; delta-updates voters' counts_ and
  // class_sum_, collecting the voters into `touched`.
  void RefreshTask(data::TaskId task, std::set<data::WorkerId>* touched);

  std::vector<std::vector<double>> posterior_;
  std::vector<data::LabelId> labels_;
  std::vector<std::vector<double>> counts_;
  std::vector<std::vector<double>> matrices_;
  std::vector<double> class_sum_;
  std::vector<double> class_prior_;
  std::vector<double> quality_;
};

}  // namespace crowdtruth::streaming

#endif  // CROWDTRUTH_STREAMING_INCREMENTAL_DS_H_
