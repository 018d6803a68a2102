// replay_shard4: an in-process 4-shard D&S coordinator replaying a seeded
// drifting_quality answer log. A cross-shard barrier runs every N records,
// a checkpoint (MakeCheckpoint + WriteJsonFileAtomic) every M records, and
// at fixed positions the coordinator is dropped and recovered from its
// latest checkpoint (ReadJsonFile -> Restore -> ReplayRouting ->
// FinishReplay). The run ends with GlobalResync. Shards run in-process so
// no barrier wait is rounded to a worker process's file-poll step.
#include <sys/stat.h>

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/answer_log.h"
#include "data/dataset.h"
#include "harness.h"
#include "plan.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "util/csv.h"

namespace perfbench {

namespace {

namespace data = crowdtruth::data;
namespace shard = crowdtruth::shard;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;
using Coordinator = shard::CategoricalShardCoordinator;

constexpr int kRecoveries = 3;  // recoveries per restart
constexpr int kPasses = 2;      // replays of the log in the measured phase

struct Record {
  std::string task;
  std::string worker;
  data::LabelId label = 0;
};

Status ReadLog(const std::string& path, std::vector<Record>* out) {
  data::AnswerLogReader reader;
  Status status = reader.Open(path);
  if (!status.ok()) return status;
  out->clear();
  for (;;) {
    data::AnswerLogRecord record;
    bool eof = false;
    status = reader.Next(&record, &eof);
    if (!status.ok()) return status;
    if (eof) break;
    out->push_back({std::move(record.task), std::move(record.worker),
                    record.label});
  }
  return Status::Ok();
}

shard::CoordinatorConfig MakeConfig(const Plan& plan) {
  shard::CoordinatorConfig config;
  config.shard_count = plan.shards;
  config.method = "D&S";
  config.num_choices = plan.drift_choices;
  // Barriers are driven explicitly below (RunBarrier after every N-th
  // record, exactly where Observe would run them) so they get their own
  // span.
  config.barrier_interval = 0;
  return config;
}

std::unique_ptr<Coordinator> Create(const Plan& plan) {
  std::unique_ptr<Coordinator> coordinator;
  const Status status = Coordinator::Create(MakeConfig(plan), &coordinator);
  if (!status.ok()) {
    std::cerr << "perfbench: " << status.ToString() << "\n";
    return nullptr;
  }
  return coordinator;
}

// Reads the truth the shards serve right now: each task's owning shard's
// current estimate, rendered as the `task,truth` CSV a sharded server
// tenant answers GET /truth with, into `*csv`. Returns the labels by
// global task id.
std::vector<int> ServedTruth(const Coordinator& coordinator, SpanLog& spans,
                             std::string* csv) {
  Scoped span(spans, "streaming.Estimates");
  std::vector<std::vector<data::LabelId>> local(coordinator.shard_count());
  for (int s = 0; s < coordinator.shard_count(); ++s) {
    local[s] = coordinator.engine(s).method().Estimates();
  }
  std::vector<int> labels(coordinator.global_num_tasks(), 0);
  *csv = crowdtruth::util::FormatCsvLine({"task", "truth"}) + "\n";
  for (int gid = 0; gid < coordinator.global_num_tasks(); ++gid) {
    const int owner = coordinator.TaskOwner(gid);
    if (owner >= 0) labels[gid] = local[owner][coordinator.TaskLocal(gid)];
    *csv += crowdtruth::util::FormatCsvLine(
        {coordinator.tasks().Name(gid), std::to_string(labels[gid])});
    *csv += '\n';
  }
  return labels;
}

struct Replay {
  double wall_s = 0.0;      // measured time, restarts excluded
  double restart_s = 0.0;   // drop + recovery windows, and traced-only
                            // summary sizing
  int64_t consumed = 0;     // Observe calls, re-observed records included
  std::vector<double> ack_s;
  std::vector<double> read_s;
  std::vector<double> served_accuracy;
  std::vector<double> checkpoint_s;
  std::vector<double> checkpoint_mb;
  std::vector<double> recovery_s;  // kRecoveries per restart
  std::vector<double> replay_routing_s;
  std::vector<double> summary_bytes;
  std::vector<int> labels;  // final GlobalResync labels, global order
  std::vector<std::string> task_names;
  bool ok = true;
};

Replay RunReplay(const Plan& plan, const std::vector<Record>& records,
                 const std::map<std::string, int>& truth,
                 const std::string& dir, SpanLog& spans) {
  Replay out;
  std::unique_ptr<Coordinator> coordinator = Create(plan);
  if (coordinator == nullptr) {
    out.ok = false;
    return out;
  }
  std::vector<int> truth_by_gid;
  std::string csv;  // the latest served truth
  std::string checkpoint_path;
  size_t next_restart = 0;
  const int64_t n = static_cast<int64_t>(records.size());
  const int64_t start = NowNs();
  for (int64_t i = 0; i < n; ++i) {
    const Record& r = records[i];
    const int64_t t0 = NowNs();
    {
      Scoped span(spans, "shard.Observe");
      if (!coordinator->Observe(r.task, r.worker, r.label).ok()) {
        out.ok = false;
      }
    }
    const int64_t consumed = coordinator->next_sequence();
    if (consumed % plan.barrier_every == 0) {
      Scoped span(spans, "shard.RunBarrier");
      if (!coordinator->RunBarrier().ok()) out.ok = false;
    }
    out.ack_s.push_back(SecondsSince(t0));
    ++out.consumed;
    if (spans.enabled() && consumed % plan.barrier_every == 0) {
      // Size of the all-reduce message: every shard's worker summary.
      // Measured outside the timed replay.
      const int64_t x0 = NowNs();
      double bytes = 0.0;
      for (int s = 0; s < coordinator->shard_count(); ++s) {
        const auto summary = coordinator->engine(s).ExportWorkerSummary();
        bytes += static_cast<double>(summary.ToJson().Dump().size());
      }
      out.summary_bytes.push_back(bytes);
      out.restart_s += SecondsSince(x0);
    }
    if (consumed % plan.read_every == 0) {
      const int64_t r0 = NowNs();
      const std::vector<int> served = ServedTruth(*coordinator, spans, &csv);
      out.read_s.push_back(SecondsSince(r0));
      while (truth_by_gid.size() < served.size()) {
        const auto it =
            truth.find(coordinator->tasks().Name(truth_by_gid.size()));
        truth_by_gid.push_back(it == truth.end() ? -1 : it->second);
      }
      out.served_accuracy.push_back(Accuracy(served, truth_by_gid));
    }
    if (consumed % plan.checkpoint_every == 0) {
      const int64_t c0 = NowNs();
      JsonValue doc;
      {
        Scoped span(spans, "shard.MakeCheckpoint");
        doc = coordinator->MakeCheckpoint();
      }
      checkpoint_path =
          dir + "/" + shard::CheckpointFileName("replay", consumed);
      {
        Scoped span(spans, "data.WriteJsonFileAtomic");
        if (!shard::WriteJsonFileAtomic(checkpoint_path, doc).ok()) {
          out.ok = false;
        }
      }
      out.checkpoint_s.push_back(SecondsSince(c0));
      struct stat st {};
      if (stat(checkpoint_path.c_str(), &st) == 0) {
        out.checkpoint_mb.push_back(st.st_size / (1024.0 * 1024.0));
      }
    }
    if (next_restart < plan.restart_at.size() &&
        consumed == plan.restart_at[next_restart] &&
        !checkpoint_path.empty()) {
      ++next_restart;
      // Restart: drop the coordinator, recover from the latest checkpoint,
      // and resume at its sequence (re-observing the records after it).
      // Each restart recovers kRecoveries times over (a recovery is a pure
      // function of the checkpoint and the log), so recovery_s is a median
      // of several samples rather than one 0.1 s measurement.
      const int64_t d0 = NowNs();
      Status status;
      for (int k = 0; k < kRecoveries && status.ok(); ++k) {
        coordinator.reset();
        const int64_t r0 = NowNs();
        JsonValue doc;
        {
          Scoped span(spans, "data.ReadJsonFile");
          status = shard::ReadJsonFile(checkpoint_path, &doc);
        }
        coordinator = Create(plan);
        if (coordinator == nullptr) {
          out.ok = false;
          return out;
        }
        if (status.ok()) {
          Scoped span(spans, "shard.Restore");
          status = coordinator->Restore(doc);
        }
        const int64_t resume = coordinator->next_sequence();
        const int64_t p0 = NowNs();
        for (int64_t j = 0; j < resume && status.ok(); ++j) {
          Scoped span(spans, "shard.ReplayRouting");
          (void)coordinator->ReplayRouting(records[j].task, records[j].worker,
                                           records[j].label);
        }
        out.replay_routing_s.push_back(SecondsSince(p0));
        if (status.ok()) {
          Scoped span(spans, "shard.FinishReplay");
          status = coordinator->FinishReplay();
        }
        out.recovery_s.push_back(SecondsSince(r0));
      }
      if (!status.ok()) {
        std::cerr << "perfbench: recovery failed: " << status.ToString()
                  << "\n";
        out.ok = false;
        return out;
      }
      out.restart_s += SecondsSince(d0);
      i = coordinator->next_sequence() - 1;
    }
  }
  {
    crowdtruth::core::CategoricalResult global;
    {
      Scoped span(spans, "shard.GlobalResync");
      if (!coordinator->GlobalResync(&global).ok()) out.ok = false;
    }
    out.labels.assign(global.labels.begin(), global.labels.end());
  }
  out.wall_s = SecondsSince(start) - out.restart_s;
  for (int gid = 0; gid < coordinator->tasks().size(); ++gid) {
    out.task_names.push_back(coordinator->tasks().Name(gid));
  }
  return out;
}

// Reference without restarts or barriers: only routing and the final
// global solve, which the determinism contract says must agree.
std::vector<int> ReferenceWithoutRestarts(const Plan& plan,
                                          const std::vector<Record>& records) {
  std::unique_ptr<Coordinator> coordinator = Create(plan);
  if (coordinator == nullptr) return {};
  for (const Record& r : records) {
    (void)coordinator->Observe(r.task, r.worker, r.label);
  }
  crowdtruth::core::CategoricalResult global;
  (void)coordinator->GlobalResync(&global);
  return std::vector<int>(global.labels.begin(), global.labels.end());
}

int CountDiffs(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.size() != b.size()) {
    return static_cast<int>(std::max(a.size(), b.size()));
  }
  int diffs = 0;
  for (size_t i = 0; i < a.size(); ++i) diffs += a[i] != b[i] ? 1 : 0;
  return diffs;
}

}  // namespace

int RunReplayShard4(const RunOptions& options, Result* result) {
  const Plan plan = MakePlan(options);
  SpanLog spans(options.trace);
  const std::string log = DriftLogPath(options.dir);

  // Set-up, repeated: read the answer log and create the coordinator.
  std::vector<Record> records;
  std::vector<double> setup_s;
  for (int k = 0; k < plan.setup_repeats; ++k) {
    const int64_t t0 = NowNs();
    const Status status = ReadLog(log, &records);
    if (!status.ok() || Create(plan) == nullptr) {
      std::cerr << "perfbench: " << status.ToString() << "\n";
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  const std::map<std::string, int> truth =
      ReadTruthCsv(DriftTruthPath(options.dir));

  // The measured phase: kPasses replays of the log, each with a fresh
  // coordinator, pooled — twice the measured time for the same per-pass
  // work, which halves how much one phase of host drift can move a run.
  SpanLog untraced(false);
  Replay replay = RunReplay(plan, records, truth, options.dir, untraced);
  for (int pass = 1; pass < kPasses; ++pass) {
    const Replay more = RunReplay(plan, records, truth, options.dir, untraced);
    if (more.labels != replay.labels) {
      result->Fail("replay passes over the same log disagree");
    }
    replay.ok = replay.ok && more.ok;
    replay.wall_s += more.wall_s;
    replay.consumed += more.consumed;
    for (auto [to, from] :
         {std::pair{&replay.ack_s, &more.ack_s},
          std::pair{&replay.read_s, &more.read_s},
          std::pair{&replay.served_accuracy, &more.served_accuracy},
          std::pair{&replay.recovery_s, &more.recovery_s}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  if (!replay.ok) {
    result->Fail("the replay reported an error");
  }

  // Oracle 1: the final global labels equal a single-process batch solve
  // of the same log (LoadCategoricalLog + the registry method).
  data::CategoricalDataset dataset;
  Status status = data::LoadCategoricalLog(log, "", plan.drift_choices,
                                           &dataset);
  if (!status.ok()) {
    std::cerr << "perfbench: " << status.ToString() << "\n";
    return 1;
  }
  crowdtruth::core::CategoricalResult batch;
  const int64_t b0 = NowNs();
  {
    Scoped span(spans, "core.Infer");
    batch = crowdtruth::core::MakeCategoricalMethod("D&S")->Infer(
        dataset, crowdtruth::core::InferenceOptions());
  }
  const double batch_s = SecondsSince(b0);
  std::vector<int> batch_labels(batch.labels.begin(), batch.labels.end());
  if (options.flip == "batch" && !batch_labels.empty()) {
    batch_labels[0] = (batch_labels[0] + 1) % plan.drift_choices;
  }
  // Oracle 2: a run with restarts equals one without.
  std::vector<int> reference = ReferenceWithoutRestarts(plan, records);
  if (options.flip == "restart" && !reference.empty()) {
    reference[0] = (reference[0] + 1) % plan.drift_choices;
  }
  result->Attempt(replay.consumed + 2);
  const int batch_diffs = CountDiffs(replay.labels, batch_labels);
  if (batch_diffs != 0) {
    result->Fail(std::to_string(batch_diffs) +
                 " GlobalResync labels differ from the batch solve of the log");
  }
  const int restart_diffs = CountDiffs(replay.labels, reference);
  if (restart_diffs != 0) {
    result->Fail(std::to_string(restart_diffs) +
                 " labels differ between the run with restarts and one "
                 "without");
  }
  std::vector<int> truth_by_gid;
  for (const std::string& name : replay.task_names) {
    const auto it = truth.find(name);
    truth_by_gid.push_back(it == truth.end() ? -1 : it->second);
  }

  result->Detail("records", static_cast<int64_t>(records.size()));
  result->Detail("consumed", replay.consumed);
  result->Detail("recoveries",
                 static_cast<int64_t>(replay.recovery_s.size()));
  result->Detail("measured_s", replay.wall_s);
  result->Detail("reads", static_cast<int64_t>(replay.read_s.size()));

  if (!options.trace) {
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("throughput_aps", replay.consumed / replay.wall_s,
                   "answers/s");
    result->Metric("ack_p50_ms", RunQuantile(replay.ack_s, 0.5) * 1e3, "ms");
    result->Metric("ack_p99_ms", RunQuantile(replay.ack_s, 0.99) * 1e3,
                   "ms");
    result->Metric("read_p50_ms", RunQuantile(replay.read_s, 0.5) * 1e3, "ms");
    result->Metric("read_p90_ms", RunQuantile(replay.read_s, 0.9) * 1e3,
                   "ms");
    result->Metric("accuracy", Accuracy(replay.labels, truth_by_gid),
                   "ratio");
    result->Metric("served_accuracy", Mean(replay.served_accuracy), "ratio");
    result->Metric("peak_rss_mb", SelfPeakRssMb(), "MiB");
    result->Metric("recovery_s", Median(replay.recovery_s), "s");
    return 0;
  }

  // Traced run: the same replay with the benchmark's spans on.
  const Replay traced = RunReplay(plan, records, truth, options.dir, spans);
  // Untraced again after the traced replay: the overhead compares against
  // the mean per-pass time of the untraced replays on either side, so host
  // drift cancels.
  const double untraced_s =
      (replay.wall_s / kPasses +
       RunReplay(plan, records, truth, options.dir, untraced).wall_s) /
      2;
  double covered = 0.0;
  for (const char* name :
       {"shard.Observe", "shard.RunBarrier", "streaming.Estimates",
        "shard.MakeCheckpoint", "data.WriteJsonFileAtomic",
        "shard.GlobalResync"}) {
    covered += spans.Get(name).self_s;
  }
  for (int k = 0; k < plan.setup_repeats; ++k) {
    Scoped span(spans, "data.AnswerLogReader");
    (void)ReadLog(log, &records);
  }
  {
    data::CategoricalDatasetBuilder builder(
        dataset.num_tasks(), dataset.num_workers(), dataset.num_choices());
    for (int t = 0; t < dataset.num_tasks(); ++t) {
      for (const auto& vote : dataset.AnswersForTask(t)) {
        builder.AddAnswer(t, vote.worker, vote.label);
      }
    }
    data::CategoricalDataset built;
    Scoped span(spans, "data.TryBuild");
    (void)std::move(builder).TryBuild(&built);
  }
  const auto& barrier = spans.Get("shard.RunBarrier");
  result->Metric("core.infer_s", batch_s, "s");
  result->Metric("core.ns_per_answer_iter",
                 batch_s * 1e9 /
                     (static_cast<double>(dataset.num_answers()) *
                      std::max(1, batch.iterations)),
                 "ns");
  result->Metric("core.iterations", batch.iterations, "count");
  result->Metric("data.load_s",
                 Median(spans.Get("data.AnswerLogReader").durations_s), "s");
  result->Metric("data.build_s", spans.Get("data.TryBuild").total_s, "s");
  result->Metric("shard.observe_us",
                 Mean(spans.Get("shard.Observe").durations_s) * 1e6, "us");
  result->Metric("shard.barrier_ms_p50", Median(barrier.durations_s) * 1e3,
                 "ms");
  result->Metric("shard.barriers", static_cast<double>(barrier.count),
                 "count");
  result->Metric("shard.summary_bytes", Mean(traced.summary_bytes), "bytes");
  result->Metric("shard.global_resync_s",
                 spans.Get("shard.GlobalResync").total_s, "s");
  result->Metric("shard.checkpoint_ms_p50", Median(traced.checkpoint_s) * 1e3,
                 "ms");
  result->Metric("shard.checkpoint_mb", Mean(traced.checkpoint_mb), "MiB");
  result->Metric("shard.restore_ms_p50",
                 Median(spans.Get("shard.Restore").durations_s) * 1e3, "ms");
  result->Metric("shard.replay_routing_ms_p50",
                 Median(traced.replay_routing_s) * 1e3, "ms");
  result->Metric("obs.trace_overhead_pct",
                 (traced.wall_s - untraced_s) / untraced_s * 100.0, "%");
  result->Metric("obs.coverage_pct", covered / traced.wall_s * 100.0, "%");
  if (!options.spans.empty()) spans.WriteChromeTrace(options.spans);
  return 0;
}

}  // namespace perfbench
