// Incremental (streaming) truth inference.
//
// The batch framework (core/inference.h) recomputes everything from the full
// answer matrix. A deployed collection pipeline instead sees answers one at
// a time and wants fresh estimates after each one without paying a full
// re-run per answer. IncrementalMethod<Domain> is the streaming counterpart
// of CategoricalMethod / NumericMethod, written once for both answer types:
//
//   * Observe(answer)     — ingest one answer, growing the task/worker
//                           spaces on demand, and run a bounded localized
//                           re-estimation (dirty-task sweeps) around it;
//   * Estimate(task)      — current truth estimate for one task;
//   * WorkerQuality(w)    — current scalar quality for one worker;
//   * Resync()            — run the batch counterpart over every answer seen
//                           so far and adopt its state verbatim, so the
//                           streamed estimates provably coincide with the
//                           batch result at that point. Its two halves also
//                           run apart: PrefixSolve() is the batch solve of a
//                           prefix as a job for any thread, AdoptPrefix()
//                           adopts it later as if Resync() had run at the
//                           end of that prefix;
//   * Snapshot()/Restore()— serialize the full state (answers + derived
//                           estimates, verbatim doubles) to JSON, so a
//                           restored method continues bit-identically.
//
// What differs between the answer types is decided once, in two stateless
// traits: CategoricalDomain (labels in [0, num_choices); MV, ZC, D&S) and
// NumericDomain (finite values; Mean, Median). Everything else — the answer
// store, resync, lagged adoption, snapshots, and the engine, shard
// coordinator and tools above them — is written once over the trait, and
// each method's estimates and sweeps live in its subclass.
//
// Between resyncs the incremental estimates are an approximation: each
// Observe recomputes only the answered task's posterior and its local
// neighborhood (StreamingOptions::local_sweeps rounds of propagation to
// workers whose quality moved more than propagation_threshold). Resync
// resets the approximation error to zero by adopting the batch solution,
// which is why a replay with a final Resync matches the batch run exactly.
#ifndef CROWDTRUTH_STREAMING_INCREMENTAL_H_
#define CROWDTRUTH_STREAMING_INCREMENTAL_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/inference.h"
#include "core/registry.h"
#include "data/dataset.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace crowdtruth::streaming {

struct StreamingOptions {
  // Rounds of dirty-task propagation per Observe. 0 disables localized
  // re-estimation entirely (estimates then only move at resyncs).
  int local_sweeps = 2;
  // A worker whose quality moves by more than this during a sweep marks all
  // their tasks dirty for the next sweep.
  double propagation_threshold = 1e-3;
  // Cap on how many dirty tasks one propagation sweep re-estimates — the
  // bound that keeps per-answer cost O(cap * redundancy) even when an
  // early-stream quality swing would otherwise mark a prolific worker's
  // whole task list dirty. Overflow is deferred to a backlog drained by
  // later Observe calls, not dropped, so global corrections (e.g. ZC
  // escaping an inverted label convention) still propagate — just
  // amortized. <= 0 removes the bound.
  int max_dirty_tasks = 32;
  // Options for the batch solver Resync() falls back to.
  core::InferenceOptions batch;
};

namespace internal {

// Tops a sweep's dirty set up to `cap` tasks from the deferred backlog
// (lowest task ids first). `cap` <= 0 drains the whole backlog.
inline void DrainBacklog(int cap, std::set<data::TaskId>* backlog,
                         std::set<data::TaskId>* dirty) {
  while (!backlog->empty() &&
         (cap <= 0 || static_cast<int>(dirty->size()) < cap)) {
    dirty->insert(*backlog->begin());
    backlog->erase(backlog->begin());
  }
}

// Applies StreamingOptions::max_dirty_tasks to a sweep's dirty set: the
// `cap` lowest-indexed tasks stay, the rest move to the backlog for later
// Observe calls to drain.
inline void SpillDirtySet(int cap, std::set<data::TaskId>* dirty,
                          std::set<data::TaskId>* backlog) {
  if (cap <= 0) return;
  while (static_cast<int>(dirty->size()) > cap) {
    auto last = std::prev(dirty->end());
    backlog->insert(*last);
    dirty->erase(last);
  }
}

// values[ids[0]], values[ids[1]], ...; empty when `values` is (a batch
// result field the method does not fill).
template <typename T>
std::vector<T> Gather(const std::vector<T>& values,
                      const std::vector<int>& ids) {
  std::vector<T> out;
  if (values.empty()) return out;
  out.reserve(ids.size());
  for (const int id : ids) out.push_back(values[id]);
  return out;
}

}  // namespace internal

struct CategoricalAnswer {
  data::TaskId task = 0;
  data::WorkerId worker = 0;
  data::LabelId label = 0;
};

struct NumericAnswer {
  data::TaskId task = 0;
  data::WorkerId worker = 0;
  double value = 0.0;
};

// Decision-making answers: a label in [0, num_choices).
struct CategoricalDomain {
  using Answer = CategoricalAnswer;
  using Payload = data::LabelId;
  using TaskVote = data::TaskVote;
  using WorkerVote = data::WorkerVote;
  using Dataset = data::CategoricalDataset;
  using DatasetBuilder = data::CategoricalDatasetBuilder;
  using BatchMethod = core::CategoricalMethod;
  using BatchResult = core::CategoricalResult;
  // Domain tag recorded in snapshots, checkpoints and worker summaries.
  static constexpr const char* kKind = "categorical";
  // The tools' method when --method is not given.
  static constexpr const char* kDefaultMethod = "ZC";
  // Answers range over num_choices labels: snapshots, checkpoints, worker
  // summaries and run reports carry num_choices, and method snapshots the
  // sweep backlog (numeric methods never defer a sweep).
  static constexpr bool kHasChoices = true;

  // The payload of an Answer or a data::AnswerLogRecord.
  template <typename Record>
  static Payload PayloadOf(const Record& record) {
    return record.label;
  }
  static void SetPayload(Answer& answer, Payload label) {
    answer.label = label;
  }
  static bool InDomain(Payload label, int num_choices) {
    return label >= 0 && label < num_choices;
  }
  // The rejection of a payload InDomain refused; `task` names its task.
  static util::Status OutOfDomain(Payload label, int num_choices,
                                  const std::string& /*task*/) {
    return util::Status::InvalidArgument(
        "label " + std::to_string(label) +
        " out of range for num_choices=" + std::to_string(num_choices));
  }
  static DatasetBuilder MakeBuilder(int tasks, int workers, int num_choices) {
    return DatasetBuilder(tasks, workers, num_choices);
  }
  static std::unique_ptr<BatchMethod> MakeBatchMethod(
      const std::string& name) {
    return core::MakeCategoricalMethod(name);
  }
  static const std::vector<Payload>& Estimates(const BatchResult& result) {
    return result.labels;
  }
  // `global` restricted to one shard's tasks and workers, listed by their
  // global ids in the shard's local order.
  static BatchResult Localize(const BatchResult& global,
                              const std::vector<int>& tasks,
                              const std::vector<int>& workers) {
    BatchResult local;
    local.labels = internal::Gather(global.labels, tasks);
    local.posterior = internal::Gather(global.posterior, tasks);
    local.worker_quality = internal::Gather(global.worker_quality, workers);
    local.worker_confusion =
        internal::Gather(global.worker_confusion, workers);
    local.iterations = global.iterations;
    local.converged = global.converged;
    return local;
  }
};

// Numeric answers: any finite value. `num_choices` is 0 and unused.
struct NumericDomain {
  using Answer = NumericAnswer;
  using Payload = double;
  using TaskVote = data::NumericTaskVote;
  using WorkerVote = data::NumericWorkerVote;
  using Dataset = data::NumericDataset;
  using DatasetBuilder = data::NumericDatasetBuilder;
  using BatchMethod = core::NumericMethod;
  using BatchResult = core::NumericResult;
  static constexpr const char* kKind = "numeric";
  static constexpr const char* kDefaultMethod = "Mean";
  static constexpr bool kHasChoices = false;

  template <typename Record>
  static Payload PayloadOf(const Record& record) {
    return record.value;
  }
  static void SetPayload(Answer& answer, Payload value) {
    answer.value = value;
  }
  static bool InDomain(Payload value, int /*num_choices*/) {
    return std::isfinite(value);
  }
  static util::Status OutOfDomain(Payload /*value*/, int /*num_choices*/,
                                  const std::string& task) {
    return util::Status::InvalidArgument(
        "non-finite answer value for task " + task);
  }
  static DatasetBuilder MakeBuilder(int tasks, int workers,
                                    int /*num_choices*/) {
    return DatasetBuilder(tasks, workers);
  }
  static std::unique_ptr<BatchMethod> MakeBatchMethod(
      const std::string& name) {
    return core::MakeNumericMethod(name);
  }
  static const std::vector<Payload>& Estimates(const BatchResult& result) {
    return result.values;
  }
  static BatchResult Localize(const BatchResult& global,
                              const std::vector<int>& tasks,
                              const std::vector<int>& workers) {
    BatchResult local;
    local.values = internal::Gather(global.values, tasks);
    local.worker_quality = internal::Gather(global.worker_quality, workers);
    local.iterations = global.iterations;
    local.converged = global.converged;
    return local;
  }
};

// Base of the incremental methods of one answer domain. Owns the growing
// answer store (arrival order plus both adjacency views, mirroring the
// batch dataset); subclasses own the derived estimates and their sweeps.
// Defined in incremental.cc, which instantiates it for both domains.
template <typename D>
class IncrementalMethod {
 public:
  using Domain = D;
  using Answer = typename Domain::Answer;
  using Payload = typename Domain::Payload;
  using BatchResult = typename Domain::BatchResult;
  static constexpr const char* kKind = Domain::kKind;

  // `num_choices` is the label-space size, 0 for numeric methods.
  IncrementalMethod(int num_choices, StreamingOptions options);
  virtual ~IncrementalMethod() = default;

  // Batch-registry name of the method this one streams ("MV", "ZC", "D&S",
  // "Mean", "Median").
  virtual std::string name() const = 0;

  // Ingests one answer. Task/worker ids are dense indices; ids beyond the
  // current spaces grow them (the engine's interner produces contiguous
  // ids). Rejects payloads outside the domain (out-of-range labels,
  // non-finite values) and duplicate (task, worker) pairs with
  // InvalidArgument, leaving the state untouched.
  util::Status Observe(const Answer& answer);

  int num_tasks() const { return static_cast<int>(by_task_.size()); }
  int num_workers() const { return static_cast<int>(by_worker_.size()); }
  int num_choices() const { return num_choices_; }
  int64_t num_answers() const {
    return static_cast<int64_t>(answers_.size());
  }
  const StreamingOptions& options() const { return options_; }

  // Runtime retune of the dirty-task spill bound (<= 0 removes it). Only
  // future sweeps are affected: the current backlog keeps draining under
  // the new cap, and the next Resync adopts the batch solution regardless
  // of sweep history, so retuning mid-stream never changes what a
  // resynced engine converges to. The numeric methods keep exact running
  // state and never defer work, so for them the cap bounds nothing.
  void set_max_dirty_tasks(int cap) { options_.max_dirty_tasks = cap; }

  // Dirty tasks deferred by max_dirty_tasks and still awaiting a sweep.
  int64_t backlog_size() const {
    return static_cast<int64_t>(backlog_.size());
  }
  // Tasks re-estimated by the most recent Observe's propagation sweeps
  // (0 for methods without localized re-estimation, e.g. MV, Mean).
  int last_observe_swept() const { return last_swept_; }

  // Current estimates. Estimate/TaskPosterior/WorkerQuality require a valid
  // index; Estimates()/WorkerQualities() gather all of them.
  virtual Payload Estimate(data::TaskId task) const = 0;
  // Per-task belief over choices; empty for hard-assignment methods (MV)
  // and numeric ones.
  virtual std::vector<double> TaskPosterior(data::TaskId /*task*/) const {
    return {};
  }
  virtual double WorkerQuality(data::WorkerId worker) const = 0;
  std::vector<Payload> Estimates() const;
  std::vector<double> WorkerQualities() const;

  // Runs the batch counterpart over all answers seen so far (on the exact
  // dataset MaterializeDataset() returns) and adopts labels, posterior and
  // worker qualities verbatim. Returns the batch result. No-op returning an
  // empty result before the first answer. Equivalent to
  // AdoptPrefix(num_answers(), PrefixSolve(num_answers())()).
  BatchResult Resync();

  // The batch solve of the first `answers` answers as a self-contained job:
  // it owns a copy of that arrival-order prefix (a copy of `answers`
  // triples) and its own batch solver, so it may run on any thread while
  // this method keeps observing.
  std::function<BatchResult()> PrefixSolve(int64_t answers) const;

  // Leaves the method exactly as Resync() right after its `answers`-th
  // answer would have, given that prefix's batch solution `result`, then
  // re-observes the answers that arrived since: they are popped off the
  // back of the store, the spaces shrink back to the prefix's, the result
  // is adopted and the popped answers are observed again in order.
  void AdoptPrefix(int64_t answers, const BatchResult& result);

  // Adopts an externally computed batch solution over the current answers
  // (the shard coordinator's global resync, restricted to this shard's
  // slice). Vectors must be sized to the current task/worker spaces; like
  // Resync, the adopted solution subsumes any deferred backlog.
  void AdoptResult(const BatchResult& result) {
    AdoptBatch(result);
    backlog_.clear();
  }

  // The batch solve of `answers` (arrival order, over `tasks` x `workers`)
  // by the batch method `method`: what Resync() runs over this method's
  // answers, and a shard coordinator's global resync over every shard's.
  static BatchResult Solve(std::span<const Answer> answers, int tasks,
                           int workers, int num_choices,
                           const std::string& method,
                           const core::InferenceOptions& options);

  // --- Cross-shard worker state (streaming/worker_summary.h) ---
  //
  // Worker quality is the only cross-task coupling in Algorithm 1, so it is
  // the only state task-partitioned shards exchange. ExportWorkerStats
  // returns the additive sufficient statistics one worker's quality is
  // derived from (empty for methods whose quality never feeds the truth,
  // such as MV and the numeric methods, whose quality is a local
  // diagnostic); AdoptWorkerStats re-derives the quality from shard-merged
  // statistics.
  int64_t WorkerAnswerCount(data::WorkerId worker) const {
    return static_cast<int64_t>(by_worker_[worker].size());
  }
  virtual std::vector<double> ExportWorkerStats(
      data::WorkerId /*worker*/) const {
    return {};
  }
  virtual void AdoptWorkerStats(data::WorkerId /*worker*/,
                                int64_t /*answer_count*/,
                                const std::vector<double>& /*stats*/) {}

  // The answers seen so far as a batch dataset, added in arrival order —
  // bit-identical to a dataset builder fed the same stream.
  typename Domain::Dataset MaterializeDataset() const;

  // Full-fidelity JSON state. Restore() accepts only a snapshot produced by
  // the same method (with the same num_choices) and resumes bit-identically.
  util::JsonValue Snapshot() const;
  util::Status Restore(const util::JsonValue& snapshot);

 protected:
  // Called after the task/worker spaces grew, or shrank (AdoptPrefix);
  // subclasses resize their per-task / per-worker state (new slots get
  // initial values).
  virtual void OnGrow() = 0;
  // Called after the answer was appended to the adjacency views; subclasses
  // run their localized update.
  virtual void OnObserve(const Answer& answer) = 0;
  // Adopts a batch result verbatim (sizes match the current spaces) and
  // rebuilds every other piece of subclass state from the answer store, so
  // the state afterwards depends on nothing but the store and `result`.
  virtual void AdoptBatch(const BatchResult& result) = 0;
  // Serializes / restores the subclass state. RestoreState runs after the
  // answer store and adjacency have been rebuilt and OnGrow() has sized the
  // subclass arrays.
  virtual void SnapshotState(util::JsonValue* state) const = 0;
  virtual util::Status RestoreState(const util::JsonValue& state) = 0;

  StreamingOptions options_;
  int num_choices_ = 0;
  // Arrival order; the replay log this method has consumed.
  std::vector<Answer> answers_;
  std::vector<std::vector<typename Domain::TaskVote>> by_task_;
  std::vector<std::vector<typename Domain::WorkerVote>> by_worker_;
  // Dirty tasks deferred by max_dirty_tasks; drained by later Observes,
  // cleared by Resync (the batch solution subsumes the pending work).
  std::set<data::TaskId> backlog_;
  // Tasks refreshed by the current Observe; reset by the base before
  // OnObserve, accumulated by subclass sweep loops.
  int last_swept_ = 0;
};

extern template class IncrementalMethod<CategoricalDomain>;
extern template class IncrementalMethod<NumericDomain>;

// Base of MV, ZC and D&S.
using IncrementalCategoricalMethod = IncrementalMethod<CategoricalDomain>;
// Base of Mean and Median.
using IncrementalNumericMethod = IncrementalMethod<NumericDomain>;

}  // namespace crowdtruth::streaming

#endif  // CROWDTRUTH_STREAMING_INCREMENTAL_H_
