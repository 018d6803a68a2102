#include "streaming/incremental_zc.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "streaming/snapshot_util.h"
#include "util/special_functions.h"

namespace crowdtruth::streaming {

using util::JsonValue;
using util::Status;

namespace {

// Matches the batch method's clamp (zc.cc).
constexpr double kQualityFloor = 1e-3;
constexpr double kInitialQuality = 0.7;

data::LabelId ArgmaxLowestIndex(const std::vector<double>& belief) {
  data::LabelId best = 0;
  for (int z = 1; z < static_cast<int>(belief.size()); ++z) {
    if (belief[z] > belief[best]) best = z;
  }
  return best;
}

}  // namespace

void StreamingZc::OnGrow() {
  const int l = num_choices_;
  posterior_.resize(num_tasks(), std::vector<double>(l, 1.0 / l));
  labels_.resize(num_tasks(), 0);
  quality_.resize(num_workers(), kInitialQuality);
  log_right_.resize(num_workers(), std::log(kInitialQuality));
  log_wrong_.resize(num_workers(),
                    std::log((1.0 - kInitialQuality) / (l - 1)));
  agree_sum_.resize(num_workers(), 0.0);
}

void StreamingZc::SetQuality(data::WorkerId worker, double quality) {
  quality_[worker] = quality;
  log_right_[worker] = std::log(quality);
  log_wrong_[worker] = std::log((1.0 - quality) / (num_choices_ - 1));
}

void StreamingZc::RefreshTask(data::TaskId task,
                              std::set<data::WorkerId>* touched) {
  const int l = num_choices_;
  std::vector<double> log_belief(l, 0.0);
  const auto& votes = by_task_[task];
  for (const data::TaskVote& vote : votes) {
    const double log_right = log_right_[vote.worker];
    const double log_wrong = log_wrong_[vote.worker];
    for (int z = 0; z < l; ++z) {
      log_belief[z] += vote.label == z ? log_right : log_wrong;
    }
  }
  util::SoftmaxInPlace(log_belief);
  for (const data::TaskVote& vote : votes) {
    agree_sum_[vote.worker] +=
        log_belief[vote.label] - posterior_[task][vote.label];
    touched->insert(vote.worker);
  }
  posterior_[task] = log_belief;
  labels_[task] = ArgmaxLowestIndex(log_belief);
}

void StreamingZc::OnObserve(const CategoricalAnswer& answer) {
  // The new vote's contribution at the current belief.
  agree_sum_[answer.worker] += posterior_[answer.task][answer.label];

  std::set<data::TaskId> dirty = {answer.task};
  internal::DrainBacklog(options_.max_dirty_tasks, &backlog_, &dirty);
  for (int sweep = 0; sweep < options_.local_sweeps && !dirty.empty();
       ++sweep) {
    std::set<data::WorkerId> touched;
    for (data::TaskId task : dirty) RefreshTask(task, &touched);
    last_swept_ += static_cast<int>(dirty.size());
    std::set<data::TaskId> next;
    for (data::WorkerId worker : touched) {
      const double old_quality = quality_[worker];
      SetQuality(worker,
                 std::clamp(agree_sum_[worker] / by_worker_[worker].size(),
                            kQualityFloor, 1.0 - kQualityFloor));
      if (std::fabs(quality_[worker] - old_quality) >
          options_.propagation_threshold) {
        for (const data::WorkerVote& vote : by_worker_[worker]) {
          next.insert(vote.task);
        }
      }
    }
    dirty = std::move(next);
    internal::SpillDirtySet(options_.max_dirty_tasks, &dirty, &backlog_);
  }
}

void StreamingZc::AdoptWorkerStats(data::WorkerId worker,
                                   int64_t answer_count,
                                   const std::vector<double>& stats) {
  if (answer_count <= 0 || stats.size() != 1) return;
  // The batch M-step over the merged statistics: quality is the clamped
  // expected-correct fraction across every shard's answers.
  SetQuality(worker,
             std::clamp(stats[0] / static_cast<double>(answer_count),
                        kQualityFloor, 1.0 - kQualityFloor));
}

void StreamingZc::AdoptBatch(const core::CategoricalResult& result) {
  posterior_ = result.posterior;
  labels_ = result.labels;
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    SetQuality(w, result.worker_quality[w]);
  }
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    double sum = 0.0;
    for (const data::WorkerVote& vote : by_worker_[w]) {
      sum += posterior_[vote.task][vote.label];
    }
    agree_sum_[w] = sum;
  }
}

void StreamingZc::SnapshotState(JsonValue* state) const {
  state->Set("posterior", internal::ToJson(posterior_));
  state->Set("labels", internal::ToJson(labels_));
  state->Set("quality", internal::ToJson(quality_));
  state->Set("agree_sum", internal::ToJson(agree_sum_));
}

Status StreamingZc::RestoreState(const JsonValue& state) {
  Status status = internal::FromJson(state.Find("posterior"), "posterior",
                                     num_tasks(), num_choices_, &posterior_);
  if (!status.ok()) return status;
  status = internal::FromJson(state.Find("labels"), "labels", num_tasks(),
                              &labels_);
  if (!status.ok()) return status;
  std::vector<double> quality;
  status = internal::FromJson(state.Find("quality"), "quality",
                              num_workers(), &quality);
  if (!status.ok()) return status;
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    SetQuality(w, quality[w]);
  }
  return internal::FromJson(state.Find("agree_sum"), "agree_sum",
                            num_workers(), &agree_sum_);
}

}  // namespace crowdtruth::streaming
