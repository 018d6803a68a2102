// The streaming engine: wraps an incremental method with the plumbing a
// replay needs — string-id interning (first-appearance order, matching the
// batch CSV loaders), per-answer latency accounting, periodic full resyncs,
// and engine-level snapshots that also capture the id tables.
//
// Header-only template over either incremental base (IncrementalMethod of
// a categorical or numeric domain, streaming/incremental.h):
//
//   CategoricalStreamEngine engine(
//       MakeIncrementalCategorical("ZC", 2, {}), {.resync_interval = 1000});
//   engine.Observe("t17", "w3", 1);
//   ...
//   engine.Resync();  // final resync: estimates now equal the batch run
//
// A periodic resync does not stall Observe. At answer S (a multiple of
// resync_interval) the engine launches it: it copies the first S answers
// and hands their batch solve to the background solver
// (util::SubmitBackground), then keeps observing on its incremental
// estimates. At answer S + L, with the lag L = resync_interval / 10, it
// adopts the result — waiting only if the solve has not finished — exactly
// as a resync run at S would have, and re-applies answers S+1..S+L on top
// (IncrementalMethod::AdoptPrefix). So the estimates after every
// answer stay a pure function of the answer prefix and the config, and
// outside the windows [S, S+L) they equal those of an engine that resyncs
// synchronously at every S. Intervals below 10 (L = 0) and every explicit
// Resync()/AdoptResult() run synchronously; an explicit call, a Restore or
// the destructor first withdraws a pending solve.
//
// When a core::TraceSink is installed, every resync emits one
// IterationEvent: `iteration` is the resync ordinal, `delta` the estimate
// change the resync caused, `truth_seconds` the observe time accumulated
// since the previous resync and `quality_seconds` the resync's own cost —
// reusing the PR-1 trace machinery so `crowdtruth_stream --trace` and run
// reports work unchanged.
#ifndef CROWDTRUTH_STREAMING_ENGINE_H_
#define CROWDTRUTH_STREAMING_ENGINE_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/tdigest.h"
#include "scenario/buggify.h"
#include "streaming/incremental.h"
#include "streaming/worker_summary.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/status.h"

namespace crowdtruth::streaming {

// Interns arbitrary string ids into dense [0, n) indices in
// first-appearance order, keeping the reverse mapping for output.
class StreamIdInterner {
 public:
  int Intern(const std::string& id) {
    auto it = index_.find(id);
    if (it != index_.end()) return it->second;
    const int dense = static_cast<int>(ids_.size());
    index_.emplace(id, dense);
    ids_.push_back(id);
    return dense;
  }

  // Dense id for `id`, or -1 when it has not been interned.
  int Find(const std::string& id) const {
    auto it = index_.find(id);
    return it == index_.end() ? -1 : it->second;
  }

  int size() const { return static_cast<int>(ids_.size()); }
  const std::string& Name(int dense) const { return ids_[dense]; }
  const std::vector<std::string>& ids() const { return ids_; }

  util::JsonValue ToJson() const {
    util::JsonValue array = util::JsonValue::Array();
    for (const std::string& id : ids_) array.Append(id);
    return array;
  }

  util::Status Restore(const util::JsonValue* array,
                       const std::string& field) {
    if (array == nullptr ||
        array->kind() != util::JsonValue::Kind::kArray) {
      return util::Status::InvalidArgument("snapshot field \"" + field +
                                           "\" missing or not an array");
    }
    ids_.clear();
    index_.clear();
    for (const util::JsonValue& item : array->items()) {
      if (item.kind() != util::JsonValue::Kind::kString) {
        return util::Status::InvalidArgument(
            "snapshot field \"" + field + "\" has a non-string entry");
      }
      if (index_.count(item.string()) > 0) {
        return util::Status::InvalidArgument(
            "snapshot field \"" + field + "\" has a duplicate id \"" +
            item.string() + "\"");
      }
      index_.emplace(item.string(), static_cast<int>(ids_.size()));
      ids_.push_back(item.string());
    }
    return util::Status::Ok();
  }

 private:
  std::vector<std::string> ids_;
  std::unordered_map<std::string, int> index_;
};

struct EngineConfig {
  // Run a full batch resync every this many answers; 0 disables periodic
  // resyncs (the caller may still Resync() explicitly, e.g. once at the end
  // of a replay). The resync launched at answer S is solved off the
  // calling thread and adopted at answer S + resync_interval / 10, the lag
  // fixed at launch; below 10 it runs synchronously at S.
  int resync_interval = 1000;
  // Extra metric label for multi-tenant serving (src/server/): every stream
  // metric series carries {method, tenant}. Empty outside the server.
  std::string tenant;
};

struct EngineStats {
  int64_t answers = 0;
  int resyncs = 0;
  // Per-answer Observe cost (interning + incremental update) as a t-digest:
  // count, sum, max and quantiles in O(compression) memory however long
  // the stream runs.
  obs::TDigest observe_latency;
  // Total wall-clock spent inside resyncs: for a periodic one, its launch,
  // solve and adoption.
  double resync_seconds = 0.0;
  // Periodic resyncs whose adoption had to wait for the background solve.
  int resync_waits = 0;
};

namespace internal_engine {

// Estimate change caused by a resync: fraction of labels that flipped
// (categorical) or max absolute value change (numeric).
inline double EstimateDelta(const std::vector<data::LabelId>& before,
                            const std::vector<data::LabelId>& after) {
  if (after.empty()) return 0.0;
  int changed = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    if (i >= before.size() || before[i] != after[i]) ++changed;
  }
  return static_cast<double>(changed) / after.size();
}

inline double EstimateDelta(const std::vector<double>& before,
                            const std::vector<double>& after) {
  double max_diff = 0.0;
  for (size_t i = 0; i < after.size(); ++i) {
    const double prev = i < before.size() ? before[i] : 0.0;
    max_diff = std::max(max_diff, std::fabs(after[i] - prev));
  }
  return max_diff;
}

}  // namespace internal_engine

template <typename Method>
class StreamEngine {
 public:
  using Domain = typename Method::Domain;
  using BatchResult = typename Method::BatchResult;

  StreamEngine(std::unique_ptr<Method> method, EngineConfig config)
      : method_(std::move(method)), config_(config) {
    CROWDTRUTH_CHECK(method_ != nullptr);
  }

  // Ingests one answer keyed by string ids. `payload` is a LabelId for
  // categorical engines, a double for numeric ones. Runs a periodic resync
  // when the configured interval elapses.
  template <typename Payload>
  util::Status Observe(const std::string& task, const std::string& worker,
                       Payload payload) {
    obs::Span span("engine_observe");
    typename Method::Answer answer;
    answer.task = tasks_.Intern(task);
    answer.worker = workers_.Intern(worker);
    Domain::SetPayload(answer, payload);
    util::Status status = method_->Observe(answer);
    if (!status.ok()) return status;
    const double seconds = span.ElapsedSeconds();
    stats_.observe_latency.Add(seconds);
    ++stats_.answers;
    if (EngineMetricSet* m = Metrics()) {
      m->answers->Increment();
      m->observe_latency->Observe(seconds);
      m->sweep_depth->Observe(method_->last_observe_swept());
      ReportBacklog(m);
    }
    if (span.armed()) {
      span.Annotate("method", method_->name());
      span.Annotate("swept",
                    static_cast<int64_t>(method_->last_observe_swept()));
    }
    if (pending_ != nullptr && stats_.answers == pending_->adopt_at) {
      AdoptPending();
    }
    if (config_.resync_interval > 0 &&
        stats_.answers % config_.resync_interval == 0) {
      const int lag = config_.resync_interval / kResyncLagDivisor;
      if (lag == 0) {
        Resync();
      } else {
        LaunchResync(stats_.answers, stats_.answers + lag);
      }
    }
    return util::Status::Ok();
  }

  // Full batch resync of every answer seen so far, solved and adopted now
  // on this thread (see IncrementalMethod::Resync); a pending
  // periodic solve is withdrawn first. The engine_resync span nests under
  // `parent` when given (a shard barrier running this resync on a pool
  // worker), else under this thread's span.
  BatchResult Resync(const obs::SpanContext& parent = obs::SpanContext()) {
    pending_.reset();
    obs::Span span("engine_resync", parent);
    BatchResult result;
    CountResync(span, [&] { result = method_->Resync(); });
    if (span.armed()) {
      span.Annotate("method", method_->name());
      span.Annotate("resync_index", static_cast<int64_t>(stats_.resyncs));
    }
    return result;
  }

  // Adopts an externally computed batch solution (a shard coordinator's
  // global resync) exactly like Resync() adopts its own, withdrawing a
  // pending periodic solve; counts as a resync in stats, metrics and the
  // trace.
  void AdoptResult(const BatchResult& result) {
    pending_.reset();
    obs::Span span("engine_adopt_result");
    CountResync(span, [&] { method_->AdoptResult(result); });
  }

  // --- Cross-shard summary exchange ---
  //
  // At a shard barrier every shard exports its per-worker sufficient
  // statistics keyed by worker *string* id (dense ids differ across
  // shards), the coordinator merges them element-wise, and each shard
  // adopts the merged summary so its serving estimates reflect workers'
  // answers on every shard, not just the local slice.
  WorkerSummary ExportWorkerSummary() const {
    WorkerSummary summary;
    summary.method = method_->name();
    summary.kind = Method::kKind;
    summary.num_choices = method_->num_choices();
    for (int w = 0; w < workers_.size(); ++w) {
      WorkerSummaryEntry entry;
      entry.answer_count = method_->WorkerAnswerCount(w);
      entry.stats = method_->ExportWorkerStats(w);
      summary.workers.emplace(workers_.Name(w), std::move(entry));
    }
    return summary;
  }

  // Adopts a (merged) summary: workers unknown to this shard are ignored,
  // known workers get their parameters re-derived from the global
  // statistics via the method's AdoptWorkerStats.
  util::Status AdoptWorkerSummary(const WorkerSummary& summary) {
    if (summary.kind != Method::kKind ||
        summary.method != method_->name()) {
      return util::Status::InvalidArgument(
          "worker summary is for " + summary.kind + " method \"" +
          summary.method + "\"; engine runs \"" + method_->name() + "\"");
    }
    if (Domain::kHasChoices &&
        summary.num_choices != method_->num_choices()) {
      return util::Status::InvalidArgument(
          "worker summary num_choices " +
          std::to_string(summary.num_choices) + " != engine's " +
          std::to_string(method_->num_choices()));
    }
    for (int w = 0; w < workers_.size(); ++w) {
      auto it = summary.workers.find(workers_.Name(w));
      if (it == summary.workers.end()) continue;
      method_->AdoptWorkerStats(w, it->second.answer_count,
                                it->second.stats);
    }
    return util::Status::Ok();
  }

  // Version 2 snapshots are self-describing: they carry the method kind
  // ("categorical"/"numeric"), the method name, the label-space size and
  // the resync interval, so a restorer (or a shard coordinator reading a
  // checkpoint) can validate compatibility before touching state. Version 1
  // documents (no descriptor fields) restore unchanged.
  util::JsonValue Snapshot() const {
    util::JsonValue root = util::JsonValue::Object();
    root.Set("format", "crowdtruth_stream_snapshot");
    root.Set("version", 2);
    root.Set("kind", Method::kKind);
    root.Set("method_name", method_->name());
    if (Domain::kHasChoices) root.Set("num_choices", method_->num_choices());
    root.Set("resync_interval", config_.resync_interval);
    root.Set("task_ids", tasks_.ToJson());
    root.Set("worker_ids", workers_.ToJson());
    root.Set("answers_seen", static_cast<int64_t>(stats_.answers));
    root.Set("resyncs", stats_.resyncs);
    root.Set("method", method_->Snapshot());
    if (pending_ != nullptr) {
      // A periodic resync between launch and adoption: Restore relaunches
      // its solve, so the restored engine adopts the same result at the
      // same answer.
      util::JsonValue pending = util::JsonValue::Object();
      pending.Set("launch_at", pending_->launch_at);
      pending.Set("adopt_at", pending_->adopt_at);
      root.Set("pending_resync", std::move(pending));
    }
    return root;
  }

  // Restores id tables, counters and the method state. Latency samples are
  // not carried across snapshots (they describe a process, not the state).
  // Unknown snapshot versions are a typed kValidationError so callers can
  // distinguish "from a newer build" from plain corruption.
  util::Status Restore(const util::JsonValue& snapshot) {
    pending_.reset();
    const util::JsonValue* format = snapshot.Find("format");
    if (format == nullptr ||
        format->kind() != util::JsonValue::Kind::kString ||
        format->string() != "crowdtruth_stream_snapshot") {
      return util::Status::InvalidArgument(
          "not a crowdtruth_stream_snapshot document");
    }
    const util::JsonValue* version = snapshot.Find("version");
    if (version == nullptr ||
        version->kind() != util::JsonValue::Kind::kNumber) {
      return util::Status::InvalidArgument(
          "snapshot field \"version\" missing or not a number");
    }
    const int snapshot_version = static_cast<int>(version->number());
    if (snapshot_version != 1 && snapshot_version != 2) {
      return util::Status::ValidationError(
          "unsupported stream snapshot version " +
          std::to_string(snapshot_version));
    }
    if (snapshot_version >= 2) {
      const util::JsonValue* kind = snapshot.Find("kind");
      if (kind == nullptr ||
          kind->kind() != util::JsonValue::Kind::kString ||
          kind->string() != Method::kKind) {
        return util::Status::InvalidArgument(
            std::string("snapshot kind does not match this engine (want ") +
            Method::kKind + ")");
      }
      const util::JsonValue* method_name = snapshot.Find("method_name");
      if (method_name == nullptr ||
          method_name->kind() != util::JsonValue::Kind::kString ||
          method_name->string() != method_->name()) {
        return util::Status::InvalidArgument(
            "snapshot method_name does not match \"" + method_->name() +
            "\"");
      }
    }
    util::Status status = tasks_.Restore(snapshot.Find("task_ids"),
                                         "task_ids");
    if (!status.ok()) return status;
    status = workers_.Restore(snapshot.Find("worker_ids"), "worker_ids");
    if (!status.ok()) return status;
    const util::JsonValue* answers_seen = snapshot.Find("answers_seen");
    const util::JsonValue* resyncs = snapshot.Find("resyncs");
    if (answers_seen == nullptr ||
        answers_seen->kind() != util::JsonValue::Kind::kNumber ||
        resyncs == nullptr ||
        resyncs->kind() != util::JsonValue::Kind::kNumber) {
      return util::Status::InvalidArgument(
          "snapshot counters missing or not numbers");
    }
    const util::JsonValue* method = snapshot.Find("method");
    if (method == nullptr) {
      return util::Status::InvalidArgument(
          "snapshot field \"method\" missing");
    }
    status = method_->Restore(*method);
    if (!status.ok()) return status;
    stats_ = EngineStats();
    stats_.answers = static_cast<int64_t>(answers_seen->number());
    stats_.resyncs = static_cast<int>(resyncs->number());
    observe_seconds_traced_ = 0.0;
    if (const util::JsonValue* pending = snapshot.Find("pending_resync")) {
      const util::JsonValue* launch_at = pending->Find("launch_at");
      const util::JsonValue* adopt_at = pending->Find("adopt_at");
      if (launch_at == nullptr ||
          launch_at->kind() != util::JsonValue::Kind::kNumber ||
          adopt_at == nullptr ||
          adopt_at->kind() != util::JsonValue::Kind::kNumber ||
          launch_at->number() < 1 ||
          launch_at->number() > method_->num_answers() ||
          adopt_at->number() <= stats_.answers) {
        return util::Status::InvalidArgument(
            "snapshot field \"pending_resync\" malformed");
      }
      LaunchResync(static_cast<int64_t>(launch_at->number()),
                   static_cast<int64_t>(adopt_at->number()));
    }
    return util::Status::Ok();
  }

  Method& method() { return *method_; }
  const Method& method() const { return *method_; }
  const EngineStats& stats() const { return stats_; }
  // True between a periodic resync's launch and its adoption.
  bool resync_pending() const { return pending_ != nullptr; }
  const EngineConfig& config() const { return config_; }
  const StreamIdInterner& tasks() const { return tasks_; }
  const StreamIdInterner& workers() const { return workers_; }
  void set_trace(core::TraceSink* trace) { trace_ = trace; }

  // --- Runtime retuning (the server's adaptive controller) ---
  //
  // Both knobs are safe to change mid-stream: they only steer *future*
  // periodic-resync scheduling and dirty-task spills, never recorded
  // answers or adopted batch state. Because Resync() adopts the batch
  // solution verbatim, a retuned engine and a fresh engine replaying the
  // same log are bit-identical again after their next resync
  // (tests/streaming_test.cc pins this). A new interval also sets the lag
  // of the resyncs launched from then on (halving one halves the other);
  // a pending resync keeps the lag it was launched with.
  void set_resync_interval(int interval) {
    config_.resync_interval = interval;
  }
  void set_max_dirty_tasks(int cap) { method_->set_max_dirty_tasks(cap); }

  // Relabels the engine's metric series (new tenant label children are
  // resolved lazily on the next Observe/Resync). The engine's share of the
  // old backlog child leaves it now, while the registry holding it is the
  // installed one.
  void set_tenant_label(const std::string& tenant) {
    config_.tenant = tenant;
    if (metrics_registry_ != nullptr &&
        metrics_registry_ == obs::ProcessMetrics()) {
      metric_set_.backlog->Add(-backlog_share_);
    }
    metrics_registry_ = nullptr;
  }

  // The registry children this engine feeds its Observe-latency summary
  // and backlog gauge through, as resolved in `registry`; nullptr until it
  // has resolved them there (on its first Observe or resync under that
  // registry). Past the registry's tenant-label cap they are the
  // tenant="other" children every such engine shares.
  const obs::Digest* observe_latency_series(
      const obs::MetricRegistry* registry) const {
    return registry != nullptr && registry == metrics_registry_
               ? metric_set_.observe_latency
               : nullptr;
  }
  const obs::Gauge* backlog_series(const obs::MetricRegistry* registry) const {
    return registry != nullptr && registry == metrics_registry_
               ? metric_set_.backlog
               : nullptr;
  }

 private:
  // The lag of a periodic resync is its interval over this.
  static constexpr int kResyncLagDivisor = 10;

  // A periodic resync between its launch at answer `launch_at` (S) and its
  // adoption at `adopt_at` (S + L). The solver thread writes `solved`
  // before its job finishes; the engine reads it only after
  // WaitBackground. Destroying a PendingResync withdraws its solve, so no
  // solve outlives its engine.
  struct PendingResync {
    struct Solved {
      BatchResult result;
      double seconds = 0.0;
    };
    PendingResync() = default;
    PendingResync(const PendingResync&) = delete;
    PendingResync& operator=(const PendingResync&) = delete;
    ~PendingResync() {
      if (job != nullptr) util::WithdrawBackground(*job);
    }

    int64_t launch_at = 0;
    int64_t adopt_at = 0;
    double launch_seconds = 0.0;
    std::shared_ptr<Solved> solved = std::make_shared<Solved>();
    std::shared_ptr<util::BackgroundJob> job;
  };

  // Launches the periodic resync of the first `launch_at` answers, to be
  // adopted at answer `adopt_at`: a newer launch supersedes a pending one,
  // and the solve runs on the background solver against its own copy of
  // the prefix. The engine_resync_solve span there links to this one; the
  // solve's EM spans are not recorded (see obs::UnrecordedScope).
  void LaunchResync(int64_t launch_at, int64_t adopt_at) {
    obs::Span span("engine_resync_launch");
    pending_.reset();
    auto pending = std::make_unique<PendingResync>();
    pending->launch_at = launch_at;
    pending->adopt_at = adopt_at;
    // Buggify "resync_solve_delay": decided here, on the engine's thread,
    // so the schedule follows the answer order. The late solve makes its
    // adoption wait; the adopted result cannot change.
    const bool delay = CROWDTRUTH_BUGGIFY("resync_solve_delay");
    pending->job = util::SubmitBackground(
        [solved = pending->solved, solve = method_->PrefixSolve(launch_at),
         parent = span.context(), delay] {
          obs::Span solve_span("engine_resync_solve", parent);
          if (delay) std::this_thread::sleep_for(std::chrono::milliseconds(20));
          {
            const obs::UnrecordedScope em_steps;
            solved->result = solve();
          }
          solved->seconds = solve_span.ElapsedSeconds();
        });
    if (span.armed()) {
      span.Annotate("method", method_->name());
      span.Annotate("launch_at", launch_at);
      span.Annotate("adopt_at", adopt_at);
    }
    pending->launch_seconds = span.ElapsedSeconds();
    pending_ = std::move(pending);
  }

  // Adopts the pending resync at its answer, waiting only if its solve has
  // not finished. Its cost is its launch, solve and adoption, not the wait.
  void AdoptPending() {
    obs::Span span("engine_resync_adopt");
    const std::unique_ptr<PendingResync> pending = std::move(pending_);
    const bool waited = util::WaitBackground(*pending->job);
    const double wait_seconds = span.ElapsedSeconds();
    if (waited) {
      ++stats_.resync_waits;
      if (EngineMetricSet* m = Metrics()) m->resync_waits->Increment();
    }
    CountResync(
        span,
        [&] {
          method_->AdoptPrefix(pending->launch_at, pending->solved->result);
        },
        pending->launch_seconds + pending->solved->seconds - wait_seconds);
    if (span.armed()) {
      span.Annotate("method", method_->name());
      span.Annotate("resync_index", static_cast<int64_t>(stats_.resyncs));
      span.Annotate("waited", static_cast<int64_t>(waited));
    }
  }

  // Cached children of the process-wide stream metric families, labeled by
  // the wrapped method's name and the owning tenant ("" outside the
  // server). Resolved once per installed registry so the per-answer cost is
  // a relaxed pointer load, atomic bumps and one digest add. Each latency
  // is one t-digest summary: its _sum/_count give the mean the adaptive
  // controller probes on, its quantiles the tail it vetoes on.
  struct EngineMetricSet {
    obs::Counter* answers = nullptr;
    obs::Digest* observe_latency = nullptr;
    obs::Histogram* sweep_depth = nullptr;
    obs::Gauge* backlog = nullptr;
    obs::Counter* resyncs = nullptr;
    obs::Digest* resync_duration = nullptr;
    obs::Counter* resync_waits = nullptr;
  };

  // Runs `adopt` (which replaces the method's state with a batch solution)
  // timed by `span`, then books it as one resync costing the span's time
  // plus `other_seconds`: stats, metrics and, with a trace sink set, the
  // resync's IterationEvent. Only a traced resync copies the estimates
  // beforehand, for the event's delta.
  template <typename Adopt>
  void CountResync(const obs::Span& span, Adopt&& adopt,
                   double other_seconds = 0.0) {
    decltype(method_->Estimates()) before;
    if (trace_ != nullptr) before = method_->Estimates();
    adopt();
    const double seconds = span.ElapsedSeconds() + other_seconds;
    stats_.resync_seconds += seconds;
    ++stats_.resyncs;
    if (EngineMetricSet* m = Metrics()) {
      m->resyncs->Increment();
      m->resync_duration->Observe(seconds);
      ReportBacklog(m);
    }
    if (trace_ != nullptr) {
      core::IterationEvent event;
      event.iteration = stats_.resyncs;
      event.delta =
          internal_engine::EstimateDelta(before, method_->Estimates());
      event.truth_seconds =
          stats_.observe_latency.sum() - observe_seconds_traced_;
      event.quality_seconds = seconds;
      trace_->OnIteration(event);
    }
    observe_seconds_traced_ = stats_.observe_latency.sum();
  }

  // Engines whose metric labels agree share one backlog gauge child: the
  // shards of a sharded tenant, and tenants past the registry's tenant-
  // label cap. Each adds the change in its own backlog since its last
  // report, so the child reads the sum over its engines.
  void ReportBacklog(EngineMetricSet* m) {
    const double backlog = static_cast<double>(method_->backlog_size());
    if (backlog == backlog_share_) return;
    m->backlog->Add(backlog - backlog_share_);
    backlog_share_ = backlog;
  }

  EngineMetricSet* Metrics() {
    obs::MetricRegistry* const registry = obs::ProcessMetrics();
    if (registry == nullptr) return nullptr;
    if (metrics_registry_ != registry) {
      const std::vector<std::string> names = {"method", "tenant"};
      const std::vector<std::string> label = {method_->name(),
                                              config_.tenant};
      metric_set_.answers =
          &registry
               ->AddCounterFamily("crowdtruth_stream_answers_total",
                                  "Answers ingested by the stream engine.",
                                  names)
               .WithLabels(label);
      metric_set_.observe_latency =
          &registry
               ->AddDigestFamily(
                   "crowdtruth_stream_observe_latency_seconds",
                   "Per-answer Observe cost (interning + incremental "
                   "update).",
                   names, obs::DigestOptions())
               .WithLabels(label);
      metric_set_.sweep_depth =
          &registry
               ->AddHistogramFamily(
                   "crowdtruth_stream_sweep_depth_tasks",
                   "Tasks re-estimated by one Observe's dirty-task sweeps.",
                   names, obs::HistogramBuckets::PowersOfTwo(13))
               .WithLabels(label);
      metric_set_.backlog =
          &registry
               ->AddGaugeFamily(
                   "crowdtruth_stream_backlog_tasks",
                   "Dirty tasks deferred by max_dirty_tasks, awaiting a "
                   "sweep.",
                   names)
               .WithLabels(label);
      metric_set_.resyncs =
          &registry
               ->AddCounterFamily("crowdtruth_stream_resyncs_total",
                                  "Full batch resyncs run by the engine.",
                                  names)
               .WithLabels(label);
      metric_set_.resync_duration =
          &registry
               ->AddDigestFamily(
                   "crowdtruth_stream_resync_duration_seconds",
                   "Wall-clock cost of individual resyncs.", names,
                   obs::DigestOptions())
               .WithLabels(label);
      metric_set_.resync_waits =
          &registry
               ->AddCounterFamily(
                   "crowdtruth_stream_resync_waits_total",
                   "Periodic resyncs whose adoption waited for the "
                   "background solve.",
                   names)
               .WithLabels(label);
      metrics_registry_ = registry;
      // A newly resolved child holds none of this engine's backlog yet.
      backlog_share_ = 0.0;
    }
    return &metric_set_;
  }

  std::unique_ptr<Method> method_;
  EngineConfig config_;
  StreamIdInterner tasks_;
  StreamIdInterner workers_;
  EngineStats stats_;
  core::TraceSink* trace_ = nullptr;
  // Observe seconds already attributed to an emitted trace event.
  double observe_seconds_traced_ = 0.0;
  EngineMetricSet metric_set_;
  obs::MetricRegistry* metrics_registry_ = nullptr;
  // This engine's backlog as last added into metric_set_.backlog.
  double backlog_share_ = 0.0;
  // The periodic resync launched and not yet adopted, if any.
  std::unique_ptr<PendingResync> pending_;
};

using CategoricalStreamEngine = StreamEngine<IncrementalCategoricalMethod>;
using NumericStreamEngine = StreamEngine<IncrementalNumericMethod>;

}  // namespace crowdtruth::streaming

#endif  // CROWDTRUTH_STREAMING_ENGINE_H_
