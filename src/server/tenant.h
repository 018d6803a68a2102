// One tenant of the streaming server: a categorical StreamEngine plus the
// durable and protective plumbing around it.
//
//   * ingestion — newline-delimited `worker,task,label` records are parsed,
//     routed through the PR-4 record validators (data/validate.h) under the
//     tenant's BadRecordPolicy, then Observe()d one at a time. Only answers
//     the engine actually accepted are appended to the tenant's append-only
//     answer log, so replaying that log offline reproduces the tenant's
//     estimates bit-identically (the e2e test and CI pin this).
//   * admission — the adaptive controller grants each tenant a ticket
//     budget per control interval; an ingest larger than the remaining
//     budget is shed whole (HTTP 429 upstream) instead of half-applied.
//   * retuning — the controller adjusts resync_interval / max_dirty_tasks
//     live through Retune(); both knobs only steer future scheduling, so
//     correctness (batch equivalence at resync) is untouched.
#ifndef CROWDTRUTH_SERVER_TENANT_H_
#define CROWDTRUTH_SERVER_TENANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/answer_log.h"
#include "data/validate.h"
#include "shard/coordinator.h"
#include "streaming/engine.h"
#include "util/status.h"

namespace crowdtruth::server {

struct TenantOptions {
  std::string method = "ZC";
  int num_choices = 2;
  // > 1 runs the tenant as a task-partitioned shard coordinator
  // (src/shard/) instead of a single engine: resync_interval becomes the
  // cross-shard barrier interval and ?resync=1 triggers the global solve.
  int shards = 1;
  // Forwarded to streaming::EngineConfig / StreamingOptions.
  int resync_interval = 1000;
  int local_sweeps = 2;
  int max_dirty_tasks = 32;
  int seed = 42;
  // What a malformed ingest record does: kReject fails the whole request,
  // the repair policies drop the offending rows and ingest the rest.
  data::BadRecordPolicy bad_record_policy = data::BadRecordPolicy::kReject;
  // Directory for the tenant's append-only answer log; empty disables
  // durability (the engine still serves, nothing is logged).
  std::string data_dir;
};

// Outcome of one ingest request (all counters per-request).
struct IngestResult {
  int64_t accepted = 0;
  // Rows a repair policy removed: validator findings plus engine-level
  // duplicate rejections.
  int64_t dropped = 0;
  int64_t duplicates = 0;
  int64_t out_of_range = 0;
  int64_t parse_errors = 0;
  std::string ToJson() const;
};

class Tenant {
 public:
  // Builds the engine (streaming registry lookup) and, when
  // options.data_dir is set, creates `<data_dir>/<name>.log`. Fails with
  // InvalidArgument for unknown methods / bad num_choices.
  static util::Status Create(const std::string& name,
                             const TenantOptions& options,
                             std::unique_ptr<Tenant>* out);

  // Wraps an existing engine (crowdtruth_stream --serve adopts the engine
  // it just replayed as a tenant). No answer log is attached.
  static std::unique_ptr<Tenant> Adopt(
      const std::string& name, const TenantOptions& options,
      std::unique_ptr<streaming::CategoricalStreamEngine> engine);

  const std::string& name() const { return name_; }
  const TenantOptions& options() const { return options_; }
  // Single-shard tenants only (sharded tenants have no single engine;
  // check sharded() first).
  streaming::CategoricalStreamEngine& engine() { return *engine_; }
  const streaming::CategoricalStreamEngine& engine() const {
    return *engine_;
  }
  bool sharded() const { return coordinator_ != nullptr; }
  shard::CategoricalShardCoordinator& coordinator() { return *coordinator_; }

  // Engine-or-coordinator-agnostic facts the HTTP layer reports.
  std::string method_name() const;
  int num_choices() const;
  int64_t answers_seen() const;

  // Ingests a newline-delimited `worker,task,label` body. Typed failures:
  // ParseError (malformed row, or a label outside int, under kReject),
  // ValidationError (validator finding under kReject), InvalidArgument
  // (engine rejection under kReject), IoError (answer log write). Repair
  // policies degrade these to dropped-row counts and keep going. The rows
  // the engine accepted reach the log in one commit per request, also
  // when an engine rejection fails a kReject request part-way.
  util::Status Ingest(const std::string& body, IngestResult* result);

  // Current estimates as `task,truth` CSV (the exact format
  // `crowdtruth_stream --output` writes, enabling bit-identical diffs
  // against an offline replay of the tenant's log).
  std::string TruthCsv() const;
  // The same estimates plus engine counters as a JSON document.
  std::string TruthJson() const;

  // Forces a full batch resync now (e.g. `POST ...?resync=1` before a
  // bit-identical comparison against a finally-resynced offline replay).
  // Synchronous: it withdraws a periodic resync still solving in the
  // background and solves the whole log on the calling thread.
  void ForceResync();

  // Engine snapshot as pretty-printed JSON (crowdtruth_stream
  // --snapshot_in accepts it).
  std::string SnapshotJson() const;

  const std::string& log_path() const { return log_path_; }

  // --- Admission tickets (owned by the adaptive controller) ---
  // A request with more records than the remaining budget is shed whole.
  // A negative budget means "unlimited" (controller disabled).
  void GrantTickets(int64_t budget) { tickets_ = budget; }
  int64_t tickets() const { return tickets_; }
  bool Admit(int64_t records);

  // --- Live retuning (owned by the adaptive controller) ---
  void Retune(int resync_interval, int max_dirty_tasks);
  int resync_interval() const { return resync_interval_; }
  int max_dirty_tasks() const { return max_dirty_tasks_; }

  // The engine whose series in `registry` the adaptive controller steers
  // on (streaming::StreamEngine::observe_latency_series, backlog_series):
  // the tenant's engine, or the first shard engine that has resolved them
  // (a sharded tenant's shard engines share one child of each); nullptr
  // before the tenant's first answer.
  const streaming::CategoricalStreamEngine* SeriesEngine(
      const obs::MetricRegistry* registry) const;

  int64_t total_accepted() const { return total_accepted_; }
  int64_t total_dropped() const { return total_dropped_; }
  int64_t total_shed() const { return total_shed_; }
  void CountShed(int64_t records) { total_shed_ += records; }

 private:
  Tenant(std::string name, TenantOptions options,
         std::unique_ptr<streaming::CategoricalStreamEngine> engine);
  Tenant(std::string name, TenantOptions options,
         std::unique_ptr<shard::CategoricalShardCoordinator> coordinator);

  // One accepted answer into whichever backend this tenant runs.
  util::Status ObserveAnswer(const std::string& task,
                             const std::string& worker, data::LabelId label);

  std::string name_;
  TenantOptions options_;
  // Exactly one of these is set: engine_ for shards == 1, coordinator_
  // for a task-partitioned tenant.
  std::unique_ptr<streaming::CategoricalStreamEngine> engine_;
  std::unique_ptr<shard::CategoricalShardCoordinator> coordinator_;
  std::unique_ptr<data::AnswerLogWriter> log_;
  std::string log_path_;

  int64_t tickets_ = -1;  // unlimited until the controller speaks
  int resync_interval_ = 0;
  int max_dirty_tasks_ = 0;
  int64_t total_accepted_ = 0;
  int64_t total_dropped_ = 0;
  int64_t total_shed_ = 0;
};

}  // namespace crowdtruth::server

#endif  // CROWDTRUTH_SERVER_TENANT_H_
