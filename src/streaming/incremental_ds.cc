#include "streaming/incremental_ds.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "streaming/snapshot_util.h"
#include "util/special_functions.h"

namespace crowdtruth::streaming {

using util::JsonValue;
using util::Status;

namespace {

// The batch D&S configuration (ds.cc uses ConfusionEmConfig defaults): no
// informative priors, tiny smoothing keeping estimates strictly positive.
constexpr double kSmoothing = 1e-6;
constexpr double kPriorClass = 1e-6;

data::LabelId ArgmaxLowestIndex(const std::vector<double>& belief) {
  data::LabelId best = 0;
  for (int z = 1; z < static_cast<int>(belief.size()); ++z) {
    if (belief[z] > belief[best]) best = z;
  }
  return best;
}

}  // namespace

void StreamingDs::OnGrow() {
  const int l = num_choices_;
  if (class_sum_.empty()) {
    class_sum_.assign(l, 0.0);
    class_prior_.assign(l, 1.0 / l);
  }
  posterior_.resize(num_tasks(), std::vector<double>(l, 1.0 / l));
  labels_.resize(num_tasks(), 0);
  counts_.resize(num_workers(), std::vector<double>(l * l, 0.0));
  matrices_.resize(num_workers(), std::vector<double>(l * l, 1.0 / l));
  quality_.resize(num_workers(), 1.0 / l);
}

void StreamingDs::RefreshClassPrior() {
  double total = 0.0;
  for (int j = 0; j < num_choices_; ++j) {
    class_prior_[j] = kPriorClass + class_sum_[j];
    total += class_prior_[j];
  }
  for (double& p : class_prior_) p /= total;
}

void StreamingDs::RenormalizeWorker(data::WorkerId worker) {
  RenormalizeWorkerFrom(worker, counts_[worker]);
}

void StreamingDs::RenormalizeWorkerFrom(data::WorkerId worker,
                                        const std::vector<double>& counts) {
  const int l = num_choices_;
  std::vector<double>& matrix = matrices_[worker];
  for (int j = 0; j < l; ++j) {
    double row_total = 0.0;
    for (int k = 0; k < l; ++k) row_total += kSmoothing + counts[j * l + k];
    for (int k = 0; k < l; ++k) {
      matrix[j * l + k] = (kSmoothing + counts[j * l + k]) / row_total;
    }
  }
  double expected_correct = 0.0;
  for (int j = 0; j < l; ++j) {
    expected_correct += class_prior_[j] * matrix[j * l + j];
  }
  quality_[worker] = expected_correct;
}

void StreamingDs::RefreshTask(data::TaskId task,
                              std::set<data::WorkerId>* touched) {
  const int l = num_choices_;
  std::vector<double> log_belief(l);
  const auto& votes = by_task_[task];
  for (int j = 0; j < l; ++j) log_belief[j] = std::log(class_prior_[j]);
  for (const data::TaskVote& vote : votes) {
    const std::vector<double>& matrix = matrices_[vote.worker];
    for (int j = 0; j < l; ++j) {
      log_belief[j] += std::log(matrix[j * l + vote.label]);
    }
  }
  util::SoftmaxInPlace(log_belief);
  for (const data::TaskVote& vote : votes) {
    std::vector<double>& counts = counts_[vote.worker];
    for (int j = 0; j < l; ++j) {
      counts[j * l + vote.label] += log_belief[j] - posterior_[task][j];
    }
    touched->insert(vote.worker);
  }
  for (int j = 0; j < l; ++j) {
    class_sum_[j] += log_belief[j] - posterior_[task][j];
  }
  posterior_[task] = log_belief;
  labels_[task] = ArgmaxLowestIndex(log_belief);
}

void StreamingDs::OnObserve(const CategoricalAnswer& answer) {
  const int l = num_choices_;
  // A task's posterior joins the class-prior pool with its first answer
  // (the batch M-step skips unanswered tasks).
  if (by_task_[answer.task].size() == 1) {
    for (int j = 0; j < l; ++j) {
      class_sum_[j] += posterior_[answer.task][j];
    }
  }
  // The new vote's contribution to its worker's expected counts.
  std::vector<double>& counts = counts_[answer.worker];
  for (int j = 0; j < l; ++j) {
    counts[j * l + answer.label] += posterior_[answer.task][j];
  }
  RefreshClassPrior();
  RenormalizeWorker(answer.worker);

  std::set<data::TaskId> dirty = {answer.task};
  internal::DrainBacklog(options_.max_dirty_tasks, &backlog_, &dirty);
  for (int sweep = 0; sweep < options_.local_sweeps && !dirty.empty();
       ++sweep) {
    std::set<data::WorkerId> touched;
    for (data::TaskId task : dirty) RefreshTask(task, &touched);
    last_swept_ += static_cast<int>(dirty.size());
    RefreshClassPrior();
    std::set<data::TaskId> next;
    for (data::WorkerId worker : touched) {
      const double old_quality = quality_[worker];
      RenormalizeWorker(worker);
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

void StreamingDs::AdoptWorkerStats(data::WorkerId worker,
                                   int64_t answer_count,
                                   const std::vector<double>& stats) {
  if (answer_count <= 0 ||
      stats.size() != static_cast<size_t>(num_choices_ * num_choices_)) {
    return;
  }
  RenormalizeWorkerFrom(worker, stats);
}

void StreamingDs::AdoptBatch(const core::CategoricalResult& result) {
  const int l = num_choices_;
  posterior_ = result.posterior;
  labels_ = result.labels;
  matrices_ = result.worker_confusion;
  quality_ = result.worker_quality;
  // Rebuild the running sufficient statistics from the adopted posterior;
  // future Observes continue from the batch solution.
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    std::vector<double>& counts = counts_[w];
    std::fill(counts.begin(), counts.end(), 0.0);
    for (const data::WorkerVote& vote : by_worker_[w]) {
      for (int j = 0; j < l; ++j) {
        counts[j * l + vote.label] += posterior_[vote.task][j];
      }
    }
  }
  std::fill(class_sum_.begin(), class_sum_.end(), 0.0);
  for (data::TaskId t = 0; t < num_tasks(); ++t) {
    if (by_task_[t].empty()) continue;
    for (int j = 0; j < l; ++j) class_sum_[j] += posterior_[t][j];
  }
  RefreshClassPrior();
}

void StreamingDs::SnapshotState(JsonValue* state) const {
  state->Set("posterior", internal::ToJson(posterior_));
  state->Set("labels", internal::ToJson(labels_));
  state->Set("quality", internal::ToJson(quality_));
  state->Set("counts", internal::ToJson(counts_));
  state->Set("matrices", internal::ToJson(matrices_));
  state->Set("class_sum", internal::ToJson(class_sum_));
  state->Set("class_prior", internal::ToJson(class_prior_));
}

Status StreamingDs::RestoreState(const JsonValue& state) {
  const int l = num_choices_;
  Status status = internal::FromJson(state.Find("posterior"), "posterior",
                                     num_tasks(), l, &posterior_);
  if (!status.ok()) return status;
  status = internal::FromJson(state.Find("labels"), "labels", num_tasks(),
                              &labels_);
  if (!status.ok()) return status;
  status = internal::FromJson(state.Find("quality"), "quality",
                              num_workers(), &quality_);
  if (!status.ok()) return status;
  status = internal::FromJson(state.Find("counts"), "counts", num_workers(),
                              l * l, &counts_);
  if (!status.ok()) return status;
  status = internal::FromJson(state.Find("matrices"), "matrices",
                              num_workers(), l * l, &matrices_);
  if (!status.ok()) return status;
  // A method that never grew (e.g. an empty shard in a coordinator
  // checkpoint) snapshots class_sum/class_prior before their lazy OnGrow
  // initialization; restore that state verbatim.
  const JsonValue* class_sum = state.Find("class_sum");
  if (class_sum != nullptr &&
      class_sum->kind() == JsonValue::Kind::kArray &&
      class_sum->items().empty()) {
    class_sum_.clear();
    class_prior_.clear();
    return Status::Ok();
  }
  status = internal::FromJson(state.Find("class_sum"), "class_sum", l,
                              &class_sum_);
  if (!status.ok()) return status;
  return internal::FromJson(state.Find("class_prior"), "class_prior", l,
                            &class_prior_);
}

}  // namespace crowdtruth::streaming
