// Partitioned streaming inference: one logical engine as N cooperating
// shards.
//
// Tasks are hash-partitioned across shards (data::ShardOfTask over the
// task's string id), so every answer of a task lands on one shard and the
// only state that couples shards is per-worker quality. The coordinator
// drives the shards through the round structure
//
//   observe*  ->  barrier  ->  observe*  ->  barrier  ->  ...  -> resync
//
// where a barrier is: every shard runs a local batch resync over its own
// slice, exports its per-worker sufficient statistics (WorkerSummary),
// the summaries are all-reduced in shard order, and every shard adopts the
// merged result — between barriers a shard serves approximate but
// *globally informed* estimates.
//
// Determinism contract (pinned by tests/shard_test.cc and
// tools/shard_e2e.sh): the final truth is produced by GlobalResync(),
// which materializes every accepted answer in global arrival order with
// global first-appearance interning — exactly the dataset a single-process
// replay's final resync solves — and runs the batch method once. The final
// output is therefore bit-identical for any shard count and for any
// kill-and-restart from a checkpoint; see docs/sharding.md for why the
// exchange of intermediate summaries cannot (and need not) carry that
// guarantee.
//
// Checkpoint/restart: MakeCheckpoint() emits a shard/checkpoint.h document
// holding every shard's engine snapshot plus the consumed-record count.
// Restore() loads the engines; the caller then replays the already-
// consumed input prefix through ReplayRouting() (routing is deterministic,
// so the rebuilt global state matches the run that wrote the checkpoint)
// and resumes Observe() at next_sequence().
#ifndef CROWDTRUTH_SHARD_COORDINATOR_H_
#define CROWDTRUTH_SHARD_COORDINATOR_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "scenario/buggify.h"
#include "data/answer_log.h"
#include "data/dataset.h"
#include "shard/checkpoint.h"
#include "shard/metrics.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/status.h"

namespace crowdtruth::shard {

struct CoordinatorConfig {
  int shard_count = 1;
  // Batch-registry method name ("MV", "ZC", "D&S" / "Mean", "Median").
  std::string method;
  int num_choices = 0;  // categorical only
  streaming::StreamingOptions options;
  // Run a cross-shard barrier every this many consumed records; 0 leaves
  // barriers to explicit RunBarrier()/GlobalResync() calls.
  int64_t barrier_interval = 0;
  // Metric label for server-owned coordinators ("" elsewhere).
  std::string tenant;
};

template <typename Method>
class ShardCoordinator {
 public:
  using Domain = typename Method::Domain;
  using Engine = streaming::StreamEngine<Method>;
  using BatchResult = typename Method::BatchResult;
  using Payload = typename Domain::Payload;

  static util::Status Create(const CoordinatorConfig& config,
                             std::unique_ptr<ShardCoordinator>* out) {
    if (config.shard_count < 1) {
      return util::Status::InvalidArgument(
          "shard_count must be >= 1, got " +
          std::to_string(config.shard_count));
    }
    auto coordinator =
        std::unique_ptr<ShardCoordinator>(new ShardCoordinator(config));
    for (int s = 0; s < config.shard_count; ++s) {
      std::unique_ptr<Method> method = streaming::MakeIncremental<Method>(
          config.method, config.num_choices, config.options);
      if (method == nullptr) {
        return util::Status::InvalidArgument(
            "no incremental implementation for method \"" + config.method +
            "\"");
      }
      streaming::EngineConfig engine_config;
      // The coordinator owns resync scheduling; engines never self-resync.
      engine_config.resync_interval = 0;
      engine_config.tenant = config.tenant;
      coordinator->engines_.push_back(
          std::make_unique<Engine>(std::move(method), engine_config));
      coordinator->shard_tasks_.emplace_back();
      coordinator->shard_workers_.emplace_back();
      coordinator->worker_local_.emplace_back();
    }
    *out = std::move(coordinator);
    return util::Status::Ok();
  }

  // Consumes one record (one global sequence slot) and routes it to the
  // owning shard. Rejected records — out-of-range labels, non-finite
  // values, duplicate (task, worker) pairs — still consume their slot and
  // still intern their ids (mirroring StreamEngine::Observe); the caller
  // applies its bad-record policy to the returned status. A barrier due at
  // this position fires after the record is consumed, whether or not it
  // was accepted.
  util::Status Observe(const std::string& task, const std::string& worker,
                       Payload payload) {
    const util::Status status =
        Route(task, worker, payload, /*drive_engine=*/true);
    ++consumed_;
    util::Status barrier_status = util::Status::Ok();
    if (config_.barrier_interval > 0 &&
        consumed_ % config_.barrier_interval == 0) {
      barrier_status = RunBarrier();
    }
    return status.ok() ? barrier_status : status;
  }

  // Barrier: local resync per shard, worker-summary all-reduce in shard
  // order, merged summary adopted everywhere. The per-shard work — resync,
  // summary export and its sizing — runs as one task per shard on the
  // shared worker pool (util::ParallelForSlotted, at most
  // util::DefaultThreads() wide, this thread as slot 0). Each task touches
  // only its own engine and output slot, and the merge runs here in shard
  // order, so every shard ends the barrier in the same state at any pool
  // width. The pool's threads are long-lived, so a long-running sharded
  // server keeps a fixed set of flight-recorder rings.
  util::Status RunBarrier() {
    obs::Span span("shard_barrier");
    if (span.armed()) {
      span.Annotate("barrier_index", static_cast<int64_t>(barriers_));
      span.Annotate("shards", static_cast<int64_t>(engines_.size()));
    }
    // Buggify "barrier_wait": one straggler pause per barrier — planted
    // here, never inside a poll loop, because poll iteration counts are
    // wall-clock-dependent and would break fault-log determinism. Timing
    // shifts; the all-reduce result cannot.
    if (CROWDTRUTH_BUGGIFY("barrier_wait")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const int shards = static_cast<int>(engines_.size());
    // Resolved before the region: Metrics() fills metric_sets_ lazily.
    const bool size_summaries = Metrics(0) != nullptr;
    const obs::SpanContext parent = span.context();
    std::vector<streaming::WorkerSummary> summaries(shards);
    std::vector<double> summary_bytes(shards, 0.0);
    std::vector<double> done_seconds(shards, 0.0);
    util::ParallelForSlotted(
        shards, std::min(shards, util::DefaultThreads()),
        [&](int s, int /*slot*/) {
          engines_[s]->Resync(parent);
          summaries[s] = engines_[s]->ExportWorkerSummary();
          if (size_summaries) {
            summary_bytes[s] =
                static_cast<double>(summaries[s].ToJson().Dump().size());
          }
          done_seconds[s] = span.ElapsedSeconds();
        });
    const double all_done = span.ElapsedSeconds();
    for (int s = 0; s < shards; ++s) {
      if (ShardMetricSet* m = Metrics(s)) {
        m->summary_bytes->Increment(summary_bytes[s]);
      }
    }
    streaming::WorkerSummary merged = std::move(summaries[0]);
    for (int s = 1; s < shards; ++s) {
      util::Status status = merged.Merge(summaries[s]);
      if (!status.ok()) return status;
    }
    for (auto& engine : engines_) {
      util::Status status = engine->AdoptWorkerSummary(merged);
      if (!status.ok()) return status;
    }
    ++barriers_;
    for (int s = 0; s < shards; ++s) {
      if (ShardMetricSet* m = Metrics(s)) {
        m->barriers->Increment();
        // In-process shards run concurrently; a shard's "wait" is how long
        // its finished local work waited for the slowest peer's.
        m->barrier_wait->Observe(all_done - done_seconds[s]);
      }
    }
    return util::Status::Ok();
  }

  // The deterministic global solve (see the header comment): batch-solves
  // the global arrival-order dataset once, hands every shard its slice of
  // the solution, and returns the global result (task/worker indices are
  // the coordinator's global interners).
  util::Status GlobalResync(BatchResult* out = nullptr) {
    obs::Span span("shard_global_resync");
    if (span.armed()) {
      span.Annotate("answers", static_cast<int64_t>(global_answers_.size()));
    }
    BatchResult global;
    if (!global_answers_.empty()) {
      global = Solve();
      for (size_t s = 0; s < engines_.size(); ++s) {
        engines_[s]->AdoptResult(Domain::Localize(global, shard_tasks_[s],
                                                  shard_workers_[s]));
      }
    }
    if (out != nullptr) *out = std::move(global);
    return util::Status::Ok();
  }

  // One document carrying every shard's engine snapshot; see
  // shard/checkpoint.h.
  util::JsonValue MakeCheckpoint() const {
    obs::Span span("shard_checkpoint");
    if (span.armed()) {
      span.Annotate("next_sequence", static_cast<int64_t>(consumed_));
    }
    CheckpointMeta meta;
    meta.shard_count = config_.shard_count;
    meta.shard_index = -1;
    meta.next_sequence = consumed_;
    meta.method = config_.method;
    meta.kind = Method::kKind;
    meta.num_choices = config_.num_choices;
    std::vector<util::JsonValue> snapshots;
    snapshots.reserve(engines_.size());
    for (const auto& engine : engines_) {
      snapshots.push_back(engine->Snapshot());
    }
    return MakeCheckpointDoc(meta, std::move(snapshots));
  }

  // Records checkpoint cost in the per-shard metric families (the caller
  // owns the file write and times it).
  void NoteCheckpoint(double seconds) {
    for (int s = 0; s < config_.shard_count; ++s) {
      if (ShardMetricSet* m = Metrics(s)) {
        m->checkpoints->Increment();
        m->checkpoint_seconds->Observe(seconds);
      }
    }
  }

  // Restores the engines and counters from a coordinator checkpoint. The
  // caller must then feed every already-consumed input record (sequence <
  // next_sequence()) through ReplayRouting(), call FinishReplay(), and
  // resume Observe() with the rest of the input.
  util::Status Restore(const util::JsonValue& doc) {
    CheckpointMeta meta;
    const util::JsonValue* shards = nullptr;
    util::Status status = ParseCheckpointDoc(doc, &meta, &shards);
    if (!status.ok()) return status;
    if (meta.shard_index != -1) {
      return util::Status::InvalidArgument(
          "checkpoint carries a single shard, not a coordinator document");
    }
    if (meta.shard_count != config_.shard_count) {
      return util::Status::InvalidArgument(
          "checkpoint was taken with shard_count=" +
          std::to_string(meta.shard_count) + ", this coordinator runs " +
          std::to_string(config_.shard_count));
    }
    if (meta.kind != Method::kKind || meta.method != config_.method ||
        (Domain::kHasChoices && meta.num_choices != config_.num_choices)) {
      return util::Status::InvalidArgument(
          "checkpoint method " + meta.kind + "/" + meta.method + "/" +
          std::to_string(meta.num_choices) + " does not match this "
          "coordinator");
    }
    for (size_t s = 0; s < engines_.size(); ++s) {
      status = engines_[s]->Restore(shards->items()[s]);
      if (!status.ok()) return status;
    }
    consumed_ = meta.next_sequence;
    barriers_ = 0;
    tasks_ = streaming::StreamIdInterner();
    workers_ = streaming::StreamIdInterner();
    global_answers_.clear();
    seen_pairs_.clear();
    task_owner_.clear();
    task_local_.clear();
    global_num_tasks_ = 0;
    global_num_workers_ = 0;
    for (int s = 0; s < config_.shard_count; ++s) {
      shard_tasks_[s].clear();
      shard_workers_[s].clear();
      worker_local_[s].clear();
      if (ShardMetricSet* m = Metrics(s)) m->restarts->Increment();
    }
    return util::Status::Ok();
  }

  // Rebuilds the routing/global state for one already-consumed record
  // without re-driving the (already restored) engines. Deterministic
  // rejections are re-derived, not errors; the status is returned so
  // merge tooling can tell accepted from rejected records, and callers
  // replaying a checkpointed prefix simply ignore it.
  util::Status ReplayRouting(const std::string& task,
                             const std::string& worker, Payload payload) {
    return Route(task, worker, payload, /*drive_engine=*/false);
  }

  // The batch solve of GlobalResync() without adopting the result into
  // the engines (merge tooling solves over routing state alone): the
  // dataset a single engine's Resync() would build over the same answers.
  BatchResult Solve() const {
    return Method::Solve(global_answers_, global_num_tasks_,
                         global_num_workers_, config_.num_choices,
                         config_.method, config_.options.batch);
  }

  // Verifies the replayed prefix actually matches the restored engines:
  // every shard's rebuilt task/worker membership must agree with its
  // engine's interners, id by id.
  util::Status FinishReplay() const {
    for (size_t s = 0; s < engines_.size(); ++s) {
      const streaming::StreamIdInterner& tasks = engines_[s]->tasks();
      const streaming::StreamIdInterner& workers = engines_[s]->workers();
      if (static_cast<int>(shard_tasks_[s].size()) != tasks.size() ||
          static_cast<int>(shard_workers_[s].size()) != workers.size()) {
        return util::Status::InvalidArgument(
            "shard " + std::to_string(s) + ": replayed input prefix does "
            "not match the checkpoint (task/worker counts differ)");
      }
      for (int lid = 0; lid < tasks.size(); ++lid) {
        if (tasks.Name(lid) != tasks_.Name(shard_tasks_[s][lid])) {
          return util::Status::InvalidArgument(
              "shard " + std::to_string(s) + ": replayed task order does "
              "not match the checkpoint");
        }
      }
      for (int lid = 0; lid < workers.size(); ++lid) {
        if (workers.Name(lid) != workers_.Name(shard_workers_[s][lid])) {
          return util::Status::InvalidArgument(
              "shard " + std::to_string(s) + ": replayed worker order does "
              "not match the checkpoint");
        }
      }
    }
    return util::Status::Ok();
  }

  // --- Accessors ---

  int shard_count() const { return config_.shard_count; }
  const CoordinatorConfig& config() const { return config_; }
  // Live retuning knob (the server's adaptive controller): how often
  // Observe() runs a cross-shard barrier. 0 stops periodic barriers.
  void set_barrier_interval(int64_t interval) {
    config_.barrier_interval = interval;
  }
  Engine& engine(int s) { return *engines_[s]; }
  const Engine& engine(int s) const { return *engines_[s]; }
  // Records consumed == the global sequence number of the next record.
  int64_t next_sequence() const { return consumed_; }
  int64_t answers_accepted() const {
    return static_cast<int64_t>(global_answers_.size());
  }
  int64_t barriers_run() const { return barriers_; }
  // Global first-appearance interners (include ids seen only in rejected
  // records, mirroring a single engine's interner).
  const streaming::StreamIdInterner& tasks() const { return tasks_; }
  const streaming::StreamIdInterner& workers() const { return workers_; }
  // Global dense bounds of *accepted* answers (the solve's matrix sizes).
  int global_num_tasks() const { return global_num_tasks_; }
  int global_num_workers() const { return global_num_workers_; }
  // Owning shard / local dense id of a global task (-1 when the task has
  // no accepted answers).
  int TaskOwner(int task_gid) const {
    return task_gid < static_cast<int>(task_owner_.size())
               ? task_owner_[task_gid]
               : -1;
  }
  int TaskLocal(int task_gid) const {
    return task_gid < static_cast<int>(task_local_.size())
               ? task_local_[task_gid]
               : -1;
  }

 private:
  explicit ShardCoordinator(CoordinatorConfig config)
      : config_(std::move(config)) {}

  static uint64_t PairKey(int task_gid, int worker_gid) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(task_gid)) << 32) |
           static_cast<uint32_t>(worker_gid);
  }

  util::Status Route(const std::string& task, const std::string& worker,
                     Payload payload, bool drive_engine) {
    const int task_gid = tasks_.Intern(task);
    const int worker_gid = workers_.Intern(worker);
    if (!Domain::InDomain(payload, config_.num_choices)) {
      return Domain::OutOfDomain(payload, config_.num_choices,
                                 "\"" + task + "\"");
    }
    // Buggify "validator_accept": paranoid re-validation of a record the
    // checks above just accepted — crash loudly if the validators drift.
    // Never mutates state, so accepted streams are unchanged.
    if (CROWDTRUTH_BUGGIFY("validator_accept")) {
      CROWDTRUTH_CHECK(Domain::InDomain(payload, config_.num_choices));
      CROWDTRUTH_CHECK(seen_pairs_.count(PairKey(task_gid, worker_gid)) ==
                       0);
    }
    if (!seen_pairs_.insert(PairKey(task_gid, worker_gid)).second) {
      return util::Status::InvalidArgument(
          "duplicate answer: worker \"" + worker +
          "\" already answered task \"" + task + "\"");
    }

    if (static_cast<int>(task_owner_.size()) <= task_gid) {
      task_owner_.resize(task_gid + 1, -1);
      task_local_.resize(task_gid + 1, -1);
    }
    if (task_owner_[task_gid] < 0) {
      const int owner = data::ShardOfTask(task, config_.shard_count);
      task_owner_[task_gid] = owner;
      task_local_[task_gid] = static_cast<int>(shard_tasks_[owner].size());
      shard_tasks_[owner].push_back(task_gid);
    }
    const int owner = task_owner_[task_gid];
    const bool new_worker =
        worker_local_[owner]
            .emplace(worker_gid,
                     static_cast<int>(shard_workers_[owner].size()))
            .second;
    if (new_worker) shard_workers_[owner].push_back(worker_gid);

    typename Method::Answer answer;
    answer.task = task_gid;
    answer.worker = worker_gid;
    Domain::SetPayload(answer, payload);
    global_answers_.push_back(answer);
    global_num_tasks_ = std::max(global_num_tasks_, task_gid + 1);
    global_num_workers_ = std::max(global_num_workers_, worker_gid + 1);

    if (drive_engine) {
      // Pre-validated above, so the engine accepts; a failure here means
      // the coordinator's checks drifted from the method's.
      util::Status status = engines_[owner]->Observe(task, worker, payload);
      if (!status.ok()) return status;
    }
    return util::Status::Ok();
  }

  ShardMetricSet* Metrics(int s) {
    obs::MetricRegistry* const registry = obs::ProcessMetrics();
    if (registry == nullptr) return nullptr;
    if (metrics_registry_ != registry) {
      metric_sets_.clear();
      metric_sets_.reserve(config_.shard_count);
      for (int i = 0; i < config_.shard_count; ++i) {
        metric_sets_.push_back(
            ResolveShardMetricSet(registry, std::to_string(i)));
      }
      metrics_registry_ = registry;
    }
    return &metric_sets_[s];
  }

  CoordinatorConfig config_;
  std::vector<std::unique_ptr<Engine>> engines_;

  // Global first-appearance interners over every consumed record.
  streaming::StreamIdInterner tasks_;
  streaming::StreamIdInterner workers_;
  // Accepted answers in global arrival order, keyed by global dense ids —
  // the replay log GlobalResync solves.
  std::vector<typename Method::Answer> global_answers_;
  std::unordered_set<uint64_t> seen_pairs_;
  int global_num_tasks_ = 0;
  int global_num_workers_ = 0;

  // Routing: global task gid -> owning shard and local dense id;
  // per-shard local order -> gid (tasks exactly once; workers per shard).
  std::vector<int> task_owner_;
  std::vector<int> task_local_;
  std::vector<std::vector<int>> shard_tasks_;
  std::vector<std::vector<int>> shard_workers_;
  std::vector<std::unordered_map<int, int>> worker_local_;

  int64_t consumed_ = 0;
  int64_t barriers_ = 0;

  std::vector<ShardMetricSet> metric_sets_;
  obs::MetricRegistry* metrics_registry_ = nullptr;
};

using CategoricalShardCoordinator =
    ShardCoordinator<streaming::IncrementalCategoricalMethod>;
using NumericShardCoordinator =
    ShardCoordinator<streaming::IncrementalNumericMethod>;

}  // namespace crowdtruth::shard

#endif  // CROWDTRUTH_SHARD_COORDINATOR_H_
