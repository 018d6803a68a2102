// crowdtruth_shard: partitioned streaming inference over an answer log
// (src/shard/), as one process or as N cooperating worker processes.
//
// Drive mode (default) runs every shard in this process:
//
//   crowdtruth_shard --log=answers.log --shards=4 [--method=ZC]
//       [--num_choices=0] [--barrier_interval=1000]
//       [--checkpoint_every=0 --checkpoint_dir=DIR] [--resume]
//       [--resume_from=FILE] [--output=truth.csv]
//       [--workers_output=workers.csv] [--json_out=report.json]
//
// Worker mode runs ONE shard over its hash-partitioned slice of the log
// and all-reduces worker summaries with its peers through files in a
// shared --workdir (write own summary atomically, poll for the others):
//
//   crowdtruth_shard --mode=worker --log=answers.log --shards=4
//       --shard_index=1 --workdir=DIR [--barrier_interval=1000]
//       [--checkpoint_every=0] [--resume] [--barrier_timeout=60]
//
// A worker writes periodic checkpoints (worker<i>_<seq>.json) into the
// workdir and its final engine snapshot (worker<i>_final.json) at end of
// slice. A worker killed mid-run and restarted with --resume picks up its
// latest checkpoint and catches back up (its peers keep polling at the
// barrier until it does). Merge mode then verifies every
// worker's final state against a deterministic replay of its slice and
// produces the global truth — bit-identical to a single-process replay of
// the same log:
//
//   crowdtruth_shard --mode=merge --log=answers.log --shards=4
//       --workdir=DIR --output=truth.csv [--workers_output=workers.csv]
//       [--json_out=report.json]
//
// Drive mode runs on the shared shard replay driver (shard/replay.h), the
// same loop as crowdtruth_stream --shards.
//
// Event semantics shared by every mode: a barrier due at global sequence
// position E runs after all records with sequence < E are consumed, and a
// checkpoint due at E is taken after a coinciding barrier — so equal
// positions describe identical states no matter how the log is sharded.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/answer_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "scenario/buggify.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "shard/metrics.h"
#include "shard/replay.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "streaming/worker_summary.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"

namespace {

namespace data = crowdtruth::data;
namespace scenario = crowdtruth::scenario;
namespace shard = crowdtruth::shard;
namespace streaming = crowdtruth::streaming;
using crowdtruth::util::Flags;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;

int FailStatus(const Status& status) {
  std::cerr << "error: " << status.ToString() << '\n';
  return status.code() == crowdtruth::util::StatusCode::kInvalidArgument
             ? 2
             : 1;
}

// Emits the truth/worker CSVs and the JSON report shared by drive and
// merge mode. The estimate rows come straight from the coordinator's
// global solve, so they are byte-identical to crowdtruth_stream's output
// over the same log.
template <typename Method>
int FinishGlobal(const Flags& flags, const std::string& mode,
                 const shard::ShardCoordinator<Method>& coordinator,
                 const typename Method::BatchResult& global,
                 int64_t skipped) {
  using Domain = typename Method::Domain;
  shard::CsvPairs estimates;
  for (int gid = 0; gid < coordinator.global_num_tasks(); ++gid) {
    estimates.emplace_back(coordinator.tasks().Name(gid),
                           std::to_string(Domain::Estimates(global)[gid]));
  }
  shard::CsvPairs workers;
  for (int gid = 0; gid < coordinator.global_num_workers(); ++gid) {
    workers.emplace_back(coordinator.workers().Name(gid),
                         std::to_string(global.worker_quality[gid]));
  }

  Status status;
  if (!flags.Get("output").empty()) {
    status = shard::WriteCsvPairs(flags.Get("output"), "task", "truth",
                                  estimates);
    if (!status.ok()) return FailStatus(status);
    std::cout << "wrote inferred truth to " << flags.Get("output") << '\n';
  }
  if (!flags.Get("workers_output").empty()) {
    status = shard::WriteCsvPairs(flags.Get("workers_output"), "worker",
                                  "quality", workers);
    if (!status.ok()) return FailStatus(status);
    std::cout << "wrote worker qualities to " << flags.Get("workers_output")
              << '\n';
  }
  if (!flags.Get("json_out").empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("tool", "crowdtruth_shard");
    report.Set("mode", mode);
    report.Set("type", Method::kKind);
    report.Set("method", coordinator.config().method);
    report.Set("shards", coordinator.shard_count());
    report.Set("answers", coordinator.answers_accepted());
    report.Set("skipped", skipped);
    report.Set("num_tasks", coordinator.global_num_tasks());
    report.Set("num_workers", coordinator.global_num_workers());
    report.Set("barriers", coordinator.barriers_run());
    if (Domain::kHasChoices) {
      report.Set("num_choices", coordinator.config().num_choices);
    }
    status = crowdtruth::util::WriteJsonFile(flags.Get("json_out"), report);
    if (!status.ok()) return FailStatus(status);
    std::cout << "wrote run summary to " << flags.Get("json_out") << '\n';
  }
  return 0;
}

// --- Drive mode: every shard in this process ------------------------------

template <typename Method>
int RunDrive(const Flags& flags, const shard::LoadedLog& log,
             int num_choices) {
  // The default repair policy skips malformed records (and re-read
  // duplicates): a drive run and a worker/merge run over the same log
  // consume exactly the same answers.
  shard::ReplayConfig config;
  config.coordinator.shard_count = flags.GetInt("shards");
  config.coordinator.method = flags.Get("method").empty()
                                  ? Method::Domain::kDefaultMethod
                                  : flags.Get("method");
  config.coordinator.num_choices = num_choices;
  config.coordinator.options = shard::StreamingOptionsFromFlags(flags);
  config.coordinator.barrier_interval = flags.GetInt("barrier_interval");
  config.checkpoint_every = flags.GetInt("checkpoint_every");
  config.checkpoint_dir = flags.Get("checkpoint_dir");
  std::unique_ptr<shard::ShardReplay<Method>> replay;
  Status status =
      shard::ShardReplay<Method>::Create(config, log.records, &replay);
  if (!status.ok()) return FailStatus(status);
  if (config.checkpoint_every > 0 && config.checkpoint_dir.empty()) {
    std::cerr << "error: --checkpoint_every requires --checkpoint_dir\n";
    return 2;
  }

  std::string resume_from = flags.Get("resume_from");
  if (!resume_from.empty()) {
    status = replay->Resume(resume_from);
  } else if (flags.GetBool("resume")) {
    if (config.checkpoint_dir.empty()) {
      std::cerr << "error: --resume needs --checkpoint_dir (or use "
                   "--resume_from)\n";
      return 2;
    }
    status = replay->ResumeLatest(config.checkpoint_dir, &resume_from);
    if (status.code() == crowdtruth::util::StatusCode::kNotFound) {
      std::cout << "no checkpoint in " << config.checkpoint_dir
                << ", starting from the beginning\n";
      resume_from.clear();
      status = Status::Ok();
    }
  }
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  shard::ShardCoordinator<Method>& coordinator = replay->coordinator();
  if (!resume_from.empty()) {
    std::cout << "restored " << resume_from << ": "
              << coordinator.next_sequence()
              << " answers already consumed\n";
  }

  status = replay->Run(static_cast<int64_t>(log.records.size()));
  if (!status.ok()) return FailStatus(status);
  typename Method::BatchResult global;
  status = coordinator.GlobalResync(&global);
  if (!status.ok()) return FailStatus(status);

  std::cout << "drive: " << coordinator.answers_accepted() << " answers ("
            << replay->skipped() << " skipped), "
            << coordinator.global_num_tasks() << " tasks, "
            << coordinator.global_num_workers() << " workers across "
            << coordinator.shard_count() << " shards, "
            << coordinator.barriers_run() << " barriers\n";
  for (int s = 0; s < coordinator.shard_count(); ++s) {
    std::cout << "  shard " << s << ": "
              << coordinator.engine(s).method().num_tasks() << " tasks, "
              << coordinator.engine(s).method().num_workers()
              << " workers\n";
  }
  return FinishGlobal(flags, "drive", coordinator, global,
                      replay->skipped());
}

// --- Worker mode: one shard of a multi-process deployment -----------------

std::string SummaryFileName(int64_t position, int shard_index) {
  return "summary_" + std::to_string(position) + "_s" +
         std::to_string(shard_index) + ".json";
}

template <typename Method>
int RunWorker(const Flags& flags, int num_choices) {
  using Domain = typename Method::Domain;
  const int shards = flags.GetInt("shards");
  const int index = flags.GetInt("shard_index");
  const std::string workdir = flags.Get("workdir");
  if (index < 0 || index >= shards) {
    std::cerr << "error: --shard_index must be in [0, " << shards << ")\n";
    return 2;
  }
  if (workdir.empty()) {
    std::cerr << "error: worker mode requires --workdir\n";
    return 2;
  }
  const std::string method_name = flags.Get("method").empty()
                                      ? Domain::kDefaultMethod
                                      : flags.Get("method");

  data::AnswerLogReader reader;
  Status status = reader.Open(flags.Get("log"));
  if (!status.ok()) return FailStatus(status);
  status = reader.SetShardSlice(index, shards);
  if (!status.ok()) return FailStatus(status);

  std::unique_ptr<Method> method = streaming::MakeIncremental<Method>(
      method_name, num_choices, shard::StreamingOptionsFromFlags(flags));
  if (method == nullptr) {
    std::cerr << "error: no streaming implementation of \"" << method_name
              << "\"\n";
    return 2;
  }
  streaming::EngineConfig engine_config;
  engine_config.resync_interval = 0;  // barriers own the resync schedule
  streaming::StreamEngine<Method> engine(std::move(method), engine_config);

  shard::ShardMetricSet metrics;
  if (crowdtruth::obs::ProcessMetrics() != nullptr) {
    metrics = shard::ResolveShardMetricSet(crowdtruth::obs::ProcessMetrics(),
                                           std::to_string(index));
  }

  const int64_t barrier_interval = flags.GetInt("barrier_interval");
  const int64_t checkpoint_every = flags.GetInt("checkpoint_every");
  const double barrier_timeout = flags.GetDouble("barrier_timeout");
  const std::string worker_prefix = "worker" + std::to_string(index);

  // Restart: load the newest checkpoint; records already folded into it
  // (sequence < resumed_from) are skipped below, barrier/checkpoint events
  // at positions <= resumed_from already ran in the previous incarnation.
  int64_t resumed_from = 0;
  if (flags.GetBool("resume")) {
    std::string path;
    int64_t sequence = 0;
    status =
        shard::FindLatestCheckpoint(workdir, worker_prefix, &path, &sequence);
    if (status.ok()) {
      JsonValue doc;
      status = shard::ReadJsonFile(path, &doc);
      if (!status.ok()) return FailStatus(status);
      shard::CheckpointMeta meta;
      const JsonValue* snapshots = nullptr;
      status = shard::ParseCheckpointDoc(doc, &meta, &snapshots);
      if (!status.ok()) return FailStatus(status);
      if (meta.shard_count != shards || meta.shard_index != index ||
          meta.kind != Method::kKind || meta.method != method_name ||
          (Domain::kHasChoices && meta.num_choices != num_choices)) {
        std::cerr << "error: " << path
                  << " was written by a different shard layout or method\n";
        return 1;
      }
      status = engine.Restore(snapshots->items()[0]);
      if (!status.ok()) return FailStatus(status);
      resumed_from = meta.next_sequence;
      if (metrics.restarts != nullptr) metrics.restarts->Increment();
      std::cout << "worker " << index << ": restored " << path
                << " (sequence " << resumed_from << ")\n";
    } else if (status.code() == crowdtruth::util::StatusCode::kNotFound) {
      std::cout << "worker " << index
                << ": no checkpoint, starting from the beginning\n";
    } else {
      return FailStatus(status);
    }
  }

  // Barrier at position E: local resync, publish own summary atomically,
  // poll for every peer's, merge in shard order, adopt the merged result.
  const auto do_barrier = [&](int64_t position) -> Status {
    // Buggify "barrier_wait": straggle once before publishing this
    // barrier's summary. Planted per barrier, never inside the poll loop
    // below — poll iteration counts are wall-clock-nondeterministic and
    // would wreck fault-log determinism. Peers just poll a little longer.
    if (CROWDTRUTH_BUGGIFY("barrier_wait")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    engine.Resync();
    const streaming::WorkerSummary own = engine.ExportWorkerSummary();
    const JsonValue own_doc = own.ToJson();
    Status barrier_status = shard::WriteJsonFileAtomic(
        workdir + "/" + SummaryFileName(position, index), own_doc);
    if (!barrier_status.ok()) return barrier_status;
    if (metrics.summary_bytes != nullptr) {
      metrics.summary_bytes->Increment(
          static_cast<double>(own_doc.Dump().size()));
    }
    crowdtruth::util::Stopwatch wait;
    streaming::WorkerSummary merged;
    for (int peer = 0; peer < shards; ++peer) {
      streaming::WorkerSummary summary;
      if (peer == index) {
        summary = own;
      } else {
        const std::string peer_path =
            workdir + "/" + SummaryFileName(position, peer);
        while (true) {
          JsonValue doc;
          barrier_status = shard::ReadJsonFile(peer_path, &doc);
          if (barrier_status.ok()) {
            barrier_status = streaming::WorkerSummary::FromJson(doc, &summary);
            if (!barrier_status.ok()) return barrier_status;
            break;
          }
          if (barrier_status.code() !=
              crowdtruth::util::StatusCode::kNotFound) {
            return barrier_status;
          }
          if (wait.ElapsedSeconds() > barrier_timeout) {
            return Status::IoError(
                "barrier " + std::to_string(position) + ": timed out after " +
                std::to_string(barrier_timeout) + "s waiting for shard " +
                std::to_string(peer));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      if (peer == 0) {
        merged = std::move(summary);
      } else {
        barrier_status = merged.Merge(summary);
        if (!barrier_status.ok()) return barrier_status;
      }
    }
    if (metrics.barrier_wait != nullptr) {
      metrics.barrier_wait->Observe(wait.ElapsedSeconds());
    }
    if (metrics.barriers != nullptr) metrics.barriers->Increment();
    return engine.AdoptWorkerSummary(merged);
  };

  // Writes the engine's state at `position` as a single-shard checkpoint
  // document named `file` in the workdir.
  const auto write_state = [&](int64_t position, const std::string& file) {
    shard::CheckpointMeta meta;
    meta.shard_count = shards;
    meta.shard_index = index;
    meta.next_sequence = position;
    meta.method = method_name;
    meta.kind = Method::kKind;
    meta.num_choices = num_choices;
    std::vector<JsonValue> snapshots;
    snapshots.push_back(engine.Snapshot());
    return shard::WriteJsonFileAtomic(
        workdir + "/" + file,
        shard::MakeCheckpointDoc(meta, std::move(snapshots)));
  };

  const auto do_checkpoint = [&](int64_t position) -> Status {
    crowdtruth::util::Stopwatch watch;
    Status checkpoint_status = write_state(
        position, shard::CheckpointFileName(worker_prefix, position));
    if (!checkpoint_status.ok()) return checkpoint_status;
    if (metrics.checkpoints != nullptr) {
      metrics.checkpoints->Increment();
      metrics.checkpoint_seconds->Observe(watch.ElapsedSeconds());
    }
    return Status::Ok();
  };

  // Positions of the next pending events; both start at the first multiple
  // strictly past the restored checkpoint (everything at or before it ran
  // in the incarnation that wrote it). Barrier wins a tie.
  int64_t next_barrier =
      barrier_interval > 0
          ? (resumed_from / barrier_interval + 1) * barrier_interval
          : -1;
  int64_t next_checkpoint =
      checkpoint_every > 0
          ? (resumed_from / checkpoint_every + 1) * checkpoint_every
          : -1;
  const auto fire_events_through = [&](int64_t position) -> Status {
    while (true) {
      const bool barrier_next =
          next_barrier > 0 &&
          (next_checkpoint < 0 || next_barrier <= next_checkpoint);
      const int64_t next_event = barrier_next ? next_barrier : next_checkpoint;
      if (next_event < 0 || next_event > position) return Status::Ok();
      Status event_status =
          barrier_next ? do_barrier(next_event) : do_checkpoint(next_event);
      if (!event_status.ok()) return event_status;
      if (barrier_next) {
        next_barrier += barrier_interval;
      } else {
        next_checkpoint += checkpoint_every;
      }
    }
  };

  // Accepted (task, worker) pairs, rebuilt over the skipped prefix so a
  // duplicate spanning the checkpoint is still rejected before it can
  // touch the engine (whose interners must stay accepted-only, matching
  // the in-process coordinator's shard state). Keyed on the pair itself:
  // ids are arbitrary strings, so no separator is safe to join them with.
  std::set<std::pair<std::string, std::string>> seen_pairs;
  int64_t accepted = 0;
  int64_t skipped = 0;
  data::AnswerLogRecord record;
  bool eof = false;
  while (true) {
    status = reader.Next(&record, &eof);
    if (!status.ok()) return FailStatus(status);
    if (eof) break;
    status = fire_events_through(record.sequence);
    if (!status.ok()) return FailStatus(status);
    const typename Domain::Payload payload = Domain::PayloadOf(record);
    const bool ok_record =
        Domain::InDomain(payload, num_choices) &&
        seen_pairs.emplace(record.task, record.worker).second;
    if (record.sequence < resumed_from) continue;  // already checkpointed
    if (!ok_record) {
      ++skipped;
      continue;
    }
    status = engine.Observe(record.task, record.worker, payload);
    // Pre-validated above; a failure means the checks drifted apart.
    if (!status.ok()) return FailStatus(status);
    ++accepted;
  }

  const int64_t total = reader.next_sequence();
  status = fire_events_through(total);
  if (!status.ok()) return FailStatus(status);

  if (engine.stats().answers > 0) engine.Resync();
  status = write_state(total, worker_prefix + "_final.json");
  if (!status.ok()) return FailStatus(status);

  std::cout << "worker " << index << ": " << accepted << " answers ("
            << skipped << " skipped), " << engine.method().num_tasks()
            << " tasks, " << engine.method().num_workers()
            << " workers, wrote " << worker_prefix << "_final.json\n";
  return 0;
}

// --- Merge mode: verify the workers, solve the global dataset -------------

template <typename Method>
int RunMerge(const Flags& flags, const shard::LoadedLog& log,
             int num_choices) {
  using Coordinator = shard::ShardCoordinator<Method>;
  using Domain = typename Method::Domain;
  const int shards = flags.GetInt("shards");
  const std::string workdir = flags.Get("workdir");
  if (workdir.empty()) {
    std::cerr << "error: merge mode requires --workdir\n";
    return 2;
  }
  shard::CoordinatorConfig config;
  config.shard_count = shards;
  config.method = flags.Get("method").empty() ? Domain::kDefaultMethod
                                               : flags.Get("method");
  config.num_choices = num_choices;
  config.options = shard::StreamingOptionsFromFlags(flags);
  std::unique_ptr<Coordinator> coordinator;
  Status status = Coordinator::Create(config, &coordinator);
  if (!status.ok()) return FailStatus(status);

  // Routing-only replay of the full log: rebuilds the global dataset and,
  // per shard, the accepted task/worker order and answer count every
  // honest worker must have ended up with.
  std::vector<std::vector<std::string>> expected_tasks(shards);
  std::vector<std::vector<std::string>> expected_workers(shards);
  std::vector<std::unordered_set<std::string>> seen_tasks(shards);
  std::vector<std::unordered_set<std::string>> seen_workers(shards);
  std::vector<int64_t> expected_answers(shards, 0);
  int64_t skipped = 0;
  for (const data::AnswerLogRecord& record : log.records) {
    status = coordinator->ReplayRouting(record.task, record.worker,
                                        Domain::PayloadOf(record));
    if (!status.ok()) {
      ++skipped;
      continue;
    }
    const int owner = data::ShardOfTask(record.task, shards);
    if (seen_tasks[owner].insert(record.task).second) {
      expected_tasks[owner].push_back(record.task);
    }
    if (seen_workers[owner].insert(record.worker).second) {
      expected_workers[owner].push_back(record.worker);
    }
    ++expected_answers[owner];
  }

  const int64_t total = static_cast<int64_t>(log.records.size());
  for (int s = 0; s < shards; ++s) {
    const std::string path =
        workdir + "/worker" + std::to_string(s) + "_final.json";
    JsonValue doc;
    status = shard::ReadJsonFile(path, &doc);
    if (!status.ok()) return FailStatus(status);
    shard::CheckpointMeta meta;
    const JsonValue* snapshots = nullptr;
    status = shard::ParseCheckpointDoc(doc, &meta, &snapshots);
    if (!status.ok()) return FailStatus(status);
    if (meta.shard_count != shards || meta.shard_index != s ||
        meta.kind != Method::kKind || meta.method != config.method ||
        (Domain::kHasChoices && meta.num_choices != num_choices)) {
      std::cerr << "error: " << path
                << " was written by a different shard layout or method\n";
      return 1;
    }
    if (meta.next_sequence != total) {
      std::cerr << "error: " << path << " stopped at sequence "
                << meta.next_sequence << " of " << total
                << " — the worker did not finish its slice\n";
      return 1;
    }
    streaming::StreamEngine<Method> engine(
        streaming::MakeIncremental<Method>(config.method, num_choices,
                                           config.options),
        streaming::EngineConfig{});
    status = engine.Restore(snapshots->items()[0]);
    if (!status.ok()) return FailStatus(status);
    const auto mismatch = [&](const std::string& what) {
      std::cerr << "error: " << path << ": " << what
                << " does not match a deterministic replay of slice " << s
                << '\n';
      return 1;
    };
    if (engine.tasks().size() !=
            static_cast<int>(expected_tasks[s].size()) ||
        engine.workers().size() !=
            static_cast<int>(expected_workers[s].size())) {
      return mismatch("task/worker count");
    }
    for (int lid = 0; lid < engine.tasks().size(); ++lid) {
      if (engine.tasks().Name(lid) != expected_tasks[s][lid]) {
        return mismatch("task order");
      }
    }
    for (int lid = 0; lid < engine.workers().size(); ++lid) {
      if (engine.workers().Name(lid) != expected_workers[s][lid]) {
        return mismatch("worker order");
      }
    }
    int64_t answers = 0;
    for (int w = 0; w < engine.method().num_workers(); ++w) {
      answers += engine.method().WorkerAnswerCount(w);
    }
    if (answers != expected_answers[s]) return mismatch("answer count");
    std::cout << "verified shard " << s << ": " << engine.tasks().size()
              << " tasks, " << engine.workers().size() << " workers, "
              << answers << " answers\n";
  }

  typename Coordinator::BatchResult global;
  if (coordinator->answers_accepted() > 0) {
    global = coordinator->Solve();
  }
  std::cout << "merge: " << coordinator->answers_accepted() << " answers ("
            << skipped << " skipped), " << coordinator->global_num_tasks()
            << " tasks, " << coordinator->global_num_workers()
            << " workers across " << shards << " shards\n";
  return FinishGlobal(flags, "merge", *coordinator, global, skipped);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {{"log", ""},
                     {"mode", "drive"},
                     {"shards", "1"},
                     {"shard_index", "-1"},
                     {"method", ""},
                     {"num_choices", "0"},
                     {"barrier_interval", "1000"},
                     {"checkpoint_every", "0"},
                     {"checkpoint_dir", ""},
                     {"resume", "false"},
                     {"resume_from", ""},
                     {"workdir", ""},
                     {"barrier_timeout", "60"},
                     {"local_sweeps", "2"},
                     {"max_dirty_tasks", "32"},
                     {"seed", "42"},
                     {"threads", "1"},
                     {"output", ""},
                     {"workers_output", ""},
                     {"json_out", ""},
                     {"metrics_out", ""},
                     {"trace_out", ""},
                     {"buggify_seed", ""},
                     {"buggify_activate", "25"},
                     {"buggify_fire", "25"},
                     {"buggify_log", ""}});
  if (flags.Get("log").empty()) {
    std::cerr << "error: --log is required\n";
    return 2;
  }
  const std::string mode = flags.Get("mode");
  if (mode != "drive" && mode != "worker" && mode != "merge") {
    std::cerr << "error: --mode must be drive, worker or merge\n";
    return 2;
  }
  if (flags.GetInt("shards") < 1) {
    std::cerr << "error: --shards must be >= 1\n";
    return 2;
  }

  const Status armed = scenario::ArmBuggifyFromFlags(flags);
  if (!armed.ok()) {
    std::cerr << "error: " << armed.message() << '\n';
    return 2;
  }
  if (scenario::BuggifyEnabled()) {
    std::cout << "buggify: "
              << (scenario::kBuggifyCompiledIn ? "enabled" : "compiled out")
              << '\n';
  }

  crowdtruth::obs::MetricRegistry registry;
  const std::string metrics_out = flags.Get("metrics_out");
  if (!metrics_out.empty()) {
    crowdtruth::obs::InstallProcessMetrics(&registry);
  }
  // Span tracing: armed only when --trace_out asks for a dump.
  crowdtruth::obs::FlightRecorder recorder;
  const std::string trace_out = flags.Get("trace_out");
  if (!trace_out.empty()) crowdtruth::obs::InstallFlightRecorder(&recorder);

  int code;
  if (mode == "worker") {
    // A worker only sees its slice, so the label space cannot be inferred
    // from the data — it must come from the flag or the log header.
    data::AnswerLogReader reader;
    const Status status = reader.Open(flags.Get("log"));
    if (!status.ok()) return FailStatus(status);
    const bool categorical =
        reader.header().type == data::AnswerLogType::kCategorical;
    int num_choices = 0;
    if (categorical) {
      num_choices = flags.GetInt("num_choices") > 0
                        ? flags.GetInt("num_choices")
                        : reader.header().num_choices;
      if (num_choices < 2) {
        std::cerr << "error: worker mode needs --num_choices (the log "
                     "header carries none)\n";
        return 2;
      }
    }
    code = categorical
               ? RunWorker<streaming::IncrementalCategoricalMethod>(
                     flags, num_choices)
               : RunWorker<streaming::IncrementalNumericMethod>(flags, 0);
  } else {
    using Categorical = streaming::IncrementalCategoricalMethod;
    using Numeric = streaming::IncrementalNumericMethod;
    shard::LoadedLog log;
    const Status status = shard::LoadLog(flags.Get("log"), &log);
    if (!status.ok()) return FailStatus(status);
    const bool categorical =
        log.header.type == data::AnswerLogType::kCategorical;
    const int num_choices =
        categorical
            ? shard::ResolveNumChoices(flags.GetInt("num_choices"), log)
            : 0;
    if (mode == "drive") {
      code = categorical ? RunDrive<Categorical>(flags, log, num_choices)
                         : RunDrive<Numeric>(flags, log, 0);
    } else {
      code = categorical ? RunMerge<Categorical>(flags, log, num_choices)
                         : RunMerge<Numeric>(flags, log, 0);
    }
  }

  if (!metrics_out.empty()) {
    crowdtruth::obs::InstallProcessMetrics(nullptr);
    const Status dump =
        crowdtruth::obs::WriteMetricsFile(metrics_out, registry);
    if (!dump.ok()) {
      std::cerr << "error: " << dump.ToString() << '\n';
      if (code == 0) code = 1;
    } else {
      std::cout << "wrote metrics to " << metrics_out << '\n';
    }
  }
  if (!trace_out.empty()) {
    crowdtruth::obs::InstallFlightRecorder(nullptr);
    const Status dump = crowdtruth::obs::WriteTraceFile(trace_out, recorder);
    if (!dump.ok()) {
      std::cerr << "error: " << dump.ToString() << '\n';
      if (code == 0) code = 1;
    } else {
      std::cout << "wrote trace to " << trace_out << '\n';
    }
  }
  // Written even when buggify is off or compiled out (an empty log plus
  // "total 0"), so harnesses can diff fault logs unconditionally.
  if (!flags.Get("buggify_log").empty()) {
    const Status log_status =
        scenario::WriteBuggifyLog(flags.Get("buggify_log"));
    if (!log_status.ok()) {
      std::cerr << "error: " << log_status.ToString() << '\n';
      if (code == 0) code = 1;
    }
  }
  return code;
}
