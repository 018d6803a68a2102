// Incremental (streaming) truth inference.
//
// The batch framework (core/inference.h) recomputes everything from the full
// answer matrix. A deployed collection pipeline instead sees answers one at
// a time and wants fresh estimates after each one without paying a full
// re-run per answer. IncrementalCategoricalMethod / IncrementalNumericMethod
// are the streaming counterparts of CategoricalMethod / NumericMethod:
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
// Between resyncs the incremental estimates are an approximation: each
// Observe recomputes only the answered task's posterior and its local
// neighborhood (StreamingOptions::local_sweeps rounds of propagation to
// workers whose quality moved more than propagation_threshold). Resync
// resets the approximation error to zero by adopting the batch solution,
// which is why a replay with a final Resync matches the batch run exactly.
#ifndef CROWDTRUTH_STREAMING_INCREMENTAL_H_
#define CROWDTRUTH_STREAMING_INCREMENTAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/inference.h"
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

// Base of the categorical incremental methods (MV, ZC, D&S). Owns the
// growing answer store (arrival order plus both adjacency views, mirroring
// data::CategoricalDataset); subclasses own the derived estimates.
class IncrementalCategoricalMethod {
 public:
  using Answer = CategoricalAnswer;
  using BatchResult = core::CategoricalResult;
  // Domain tag recorded in snapshots and worker summaries.
  static constexpr const char* kKind = "categorical";

  IncrementalCategoricalMethod(int num_choices, StreamingOptions options);
  virtual ~IncrementalCategoricalMethod() = default;

  // Batch-registry name of the method this one streams ("MV", "ZC", "D&S").
  virtual std::string name() const = 0;

  // Ingests one answer. Task/worker ids are dense indices; ids beyond the
  // current spaces grow them (the engine's interner produces contiguous
  // ids). Rejects out-of-range labels and duplicate (task, worker) pairs
  // with InvalidArgument, leaving the state untouched.
  util::Status Observe(const CategoricalAnswer& answer);

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
  // resynced engine converges to.
  void set_max_dirty_tasks(int cap) { options_.max_dirty_tasks = cap; }

  // Dirty tasks deferred by max_dirty_tasks and still awaiting a sweep.
  int64_t backlog_size() const {
    return static_cast<int64_t>(backlog_.size());
  }
  // Tasks re-estimated by the most recent Observe's propagation sweeps
  // (0 for methods without localized re-estimation, e.g. MV).
  int last_observe_swept() const { return last_swept_; }

  // Current estimates. Estimate/TaskPosterior/WorkerQuality require a valid
  // index; Estimates()/WorkerQualities() gather all of them.
  virtual data::LabelId Estimate(data::TaskId task) const = 0;
  // Per-task belief over choices; empty for hard-assignment methods (MV).
  virtual std::vector<double> TaskPosterior(data::TaskId /*task*/) const {
    return {};
  }
  virtual double WorkerQuality(data::WorkerId worker) const = 0;
  std::vector<data::LabelId> Estimates() const;
  std::vector<double> WorkerQualities() const;

  // Runs the batch counterpart over all answers seen so far (on the exact
  // dataset MaterializeDataset() returns) and adopts labels, posterior and
  // worker qualities verbatim. Returns the batch result. No-op returning an
  // empty result before the first answer. Equivalent to
  // AdoptPrefix(num_answers(), PrefixSolve(num_answers())()).
  core::CategoricalResult Resync();

  // The batch solve of the first `answers` answers as a self-contained job:
  // it owns a copy of that arrival-order prefix (a copy of `answers`
  // triples) and its own batch solver, so it may run on any thread while
  // this method keeps observing.
  std::function<core::CategoricalResult()> PrefixSolve(int64_t answers) const;

  // Leaves the method exactly as Resync() right after its `answers`-th
  // answer would have, given that prefix's batch solution `result`, then
  // re-observes the answers that arrived since: they are popped off the
  // back of the store, the spaces shrink back to the prefix's, the result
  // is adopted and the popped answers are observed again in order.
  void AdoptPrefix(int64_t answers, const core::CategoricalResult& result);

  // Adopts an externally computed batch solution over the current answers
  // (the shard coordinator's global resync, restricted to this shard's
  // slice). Vectors must be sized to the current task/worker spaces; like
  // Resync, the adopted solution subsumes any deferred backlog.
  void AdoptResult(const core::CategoricalResult& result) {
    AdoptBatch(result);
    backlog_.clear();
  }

  // --- Cross-shard worker state (streaming/worker_summary.h) ---
  //
  // Worker quality is the only cross-task coupling in Algorithm 1, so it is
  // the only state task-partitioned shards exchange. ExportWorkerStats
  // returns the additive sufficient statistics one worker's quality is
  // derived from (empty for methods whose quality never feeds the truth);
  // AdoptWorkerStats re-derives the quality from shard-merged statistics.
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
  // bit-identical to a CategoricalDatasetBuilder fed the same stream.
  data::CategoricalDataset MaterializeDataset() const;

  // Full-fidelity JSON state. Restore() accepts only a snapshot produced by
  // the same method with the same num_choices and resumes bit-identically.
  util::JsonValue Snapshot() const;
  util::Status Restore(const util::JsonValue& snapshot);

 protected:
  // Called after the task/worker spaces grew, or shrank (AdoptPrefix);
  // subclasses resize their per-task / per-worker state (new slots get
  // initial values).
  virtual void OnGrow() = 0;
  // Called after the answer was appended to the adjacency views; subclasses
  // run their localized update.
  virtual void OnObserve(const CategoricalAnswer& answer) = 0;
  // Adopts a batch result verbatim (sizes match the current spaces) and
  // rebuilds every other piece of subclass state from the answer store, so
  // the state afterwards depends on nothing but the store and `result`.
  virtual void AdoptBatch(const core::CategoricalResult& result) = 0;
  virtual std::unique_ptr<core::CategoricalMethod> MakeBatchMethod()
      const = 0;
  // Serializes / restores the subclass state. RestoreState runs after the
  // answer store and adjacency have been rebuilt and OnGrow() has sized the
  // subclass arrays.
  virtual void SnapshotState(util::JsonValue* state) const = 0;
  virtual util::Status RestoreState(const util::JsonValue& state) = 0;

  StreamingOptions options_;
  int num_choices_ = 0;
  // Arrival order; the replay log this method has consumed.
  std::vector<CategoricalAnswer> answers_;
  std::vector<std::vector<data::TaskVote>> by_task_;
  std::vector<std::vector<data::WorkerVote>> by_worker_;
  // Dirty tasks deferred by max_dirty_tasks; drained by later Observes,
  // cleared by Resync (the batch solution subsumes the pending work).
  std::set<data::TaskId> backlog_;
  // Tasks refreshed by the current Observe; reset by the base before
  // OnObserve, accumulated by subclass sweep loops.
  int last_swept_ = 0;
};

// Base of the numeric incremental methods (Mean, Median).
class IncrementalNumericMethod {
 public:
  using Answer = NumericAnswer;
  using BatchResult = core::NumericResult;
  static constexpr const char* kKind = "numeric";

  explicit IncrementalNumericMethod(StreamingOptions options);
  virtual ~IncrementalNumericMethod() = default;

  virtual std::string name() const = 0;

  util::Status Observe(const NumericAnswer& answer);

  int num_tasks() const { return static_cast<int>(by_task_.size()); }
  int num_workers() const { return static_cast<int>(by_worker_.size()); }
  int64_t num_answers() const {
    return static_cast<int64_t>(answers_.size());
  }
  const StreamingOptions& options() const { return options_; }

  // Accepted for engine symmetry; the numeric methods keep exact running
  // state and never defer work, so the cap has nothing to bound.
  void set_max_dirty_tasks(int cap) { options_.max_dirty_tasks = cap; }

  // The numeric methods keep exact running state per task, so there is no
  // deferred work; the accessors exist for engine-metrics symmetry.
  int64_t backlog_size() const { return 0; }
  int last_observe_swept() const { return 0; }

  virtual double Estimate(data::TaskId task) const = 0;
  virtual double WorkerQuality(data::WorkerId worker) const = 0;
  std::vector<double> Estimates() const;
  std::vector<double> WorkerQualities() const;

  // See IncrementalCategoricalMethod::Resync, PrefixSolve and AdoptPrefix.
  core::NumericResult Resync();
  std::function<core::NumericResult()> PrefixSolve(int64_t answers) const;
  void AdoptPrefix(int64_t answers, const core::NumericResult& result);

  // See IncrementalCategoricalMethod::AdoptResult.
  void AdoptResult(const core::NumericResult& result) {
    AdoptBatch(result);
  }

  // See IncrementalCategoricalMethod — the numeric methods' worker quality
  // is a local diagnostic (negative RMS vs the estimates) that never feeds
  // the truth, so only the answer counts travel between shards.
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

  data::NumericDataset MaterializeDataset() const;
  util::JsonValue Snapshot() const;
  util::Status Restore(const util::JsonValue& snapshot);

 protected:
  // See the IncrementalCategoricalMethod hooks.
  virtual void OnGrow() = 0;
  virtual void OnObserve(const NumericAnswer& answer) = 0;
  virtual void AdoptBatch(const core::NumericResult& result) = 0;
  virtual std::unique_ptr<core::NumericMethod> MakeBatchMethod() const = 0;
  virtual void SnapshotState(util::JsonValue* state) const = 0;
  virtual util::Status RestoreState(const util::JsonValue& state) = 0;

  StreamingOptions options_;
  std::vector<NumericAnswer> answers_;
  std::vector<std::vector<data::NumericTaskVote>> by_task_;
  std::vector<std::vector<data::NumericWorkerVote>> by_worker_;
};

}  // namespace crowdtruth::streaming

#endif  // CROWDTRUTH_STREAMING_INCREMENTAL_H_
