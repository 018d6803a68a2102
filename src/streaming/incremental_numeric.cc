#include "streaming/incremental_numeric.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "streaming/snapshot_util.h"

namespace crowdtruth::streaming {

using util::JsonValue;
using util::Status;

double IncrementalNumericBaseline::WorkerQuality(
    data::WorkerId worker) const {
  const auto& votes = by_worker_[worker];
  if (votes.empty()) return 0.0;
  double sum_sq = 0.0;
  for (const data::NumericWorkerVote& vote : votes) {
    const double err = vote.value - values_[vote.task];
    sum_sq += err * err;
  }
  return -std::sqrt(sum_sq / votes.size());
}

void IncrementalNumericBaseline::SnapshotState(JsonValue* state) const {
  state->Set("values", internal::ToJson(values_));
}

Status IncrementalNumericBaseline::RestoreState(const JsonValue& state) {
  Status status = internal::FromJson(state.Find("values"), "values",
                                     num_tasks(), &values_);
  if (!status.ok()) return status;
  RebuildBuffers();
  return Status::Ok();
}

void StreamingMean::OnGrow() {
  values_.resize(num_tasks(), 0.0);
  sums_.resize(num_tasks(), 0.0);
}

void StreamingMean::OnObserve(const NumericAnswer& answer) {
  sums_[answer.task] += answer.value;
  values_[answer.task] = sums_[answer.task] / by_task_[answer.task].size();
}

void StreamingMean::RebuildBuffers() {
  sums_.assign(num_tasks(), 0.0);
  for (data::TaskId t = 0; t < num_tasks(); ++t) {
    // Arrival order, matching the incremental accumulation exactly.
    for (const data::NumericTaskVote& vote : by_task_[t]) {
      sums_[t] += vote.value;
    }
  }
}

double StreamingMedian::MedianOf(const std::vector<double>& sorted) {
  const size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

void StreamingMedian::OnGrow() {
  values_.resize(num_tasks(), 0.0);
  sorted_.resize(num_tasks());
}

void StreamingMedian::OnObserve(const NumericAnswer& answer) {
  std::vector<double>& sorted = sorted_[answer.task];
  sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), answer.value),
                answer.value);
  values_[answer.task] = MedianOf(sorted);
}

void StreamingMedian::RebuildBuffers() {
  sorted_.assign(num_tasks(), {});
  for (data::TaskId t = 0; t < num_tasks(); ++t) {
    for (const data::NumericTaskVote& vote : by_task_[t]) {
      sorted_[t].push_back(vote.value);
    }
    // Stable, like OnObserve's insert after equal values: 0.0 and -0.0
    // keep their arrival order.
    std::stable_sort(sorted_[t].begin(), sorted_[t].end());
  }
}

}  // namespace crowdtruth::streaming
