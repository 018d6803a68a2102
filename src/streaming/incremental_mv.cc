#include "streaming/incremental_mv.h"

#include <utility>

#include "streaming/snapshot_util.h"

namespace crowdtruth::streaming {

using util::JsonValue;
using util::Status;

double StreamingMajorityVote::WorkerQuality(data::WorkerId worker) const {
  const auto& votes = by_worker_[worker];
  if (votes.empty()) return 0.0;
  int agree = 0;
  for (const data::WorkerVote& vote : votes) {
    if (vote.label == labels_[vote.task]) ++agree;
  }
  return static_cast<double>(agree) / votes.size();
}

void StreamingMajorityVote::OnGrow() {
  counts_.resize(num_tasks(), std::vector<int>(num_choices_, 0));
  labels_.resize(num_tasks(), 0);
}

void StreamingMajorityVote::OnObserve(const CategoricalAnswer& answer) {
  std::vector<int>& counts = counts_[answer.task];
  ++counts[answer.label];
  if (counts[answer.label] > counts[labels_[answer.task]]) {
    labels_[answer.task] = answer.label;
  }
}

void StreamingMajorityVote::AdoptBatch(
    const core::CategoricalResult& result) {
  labels_ = result.labels;
  RebuildCounts();
}

void StreamingMajorityVote::RebuildCounts() {
  counts_.assign(num_tasks(), std::vector<int>(num_choices_, 0));
  for (data::TaskId t = 0; t < num_tasks(); ++t) {
    for (const data::TaskVote& vote : by_task_[t]) {
      ++counts_[t][vote.label];
    }
  }
}

void StreamingMajorityVote::SnapshotState(JsonValue* state) const {
  state->Set("labels", internal::ToJson(labels_));
}

Status StreamingMajorityVote::RestoreState(const JsonValue& state) {
  Status status = internal::FromJson(state.Find("labels"), "labels",
                                     num_tasks(), &labels_);
  if (!status.ok()) return status;
  RebuildCounts();
  return Status::Ok();
}

}  // namespace crowdtruth::streaming
