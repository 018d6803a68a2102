// crowdtruth_stream: streaming truth inference over append-only answer
// logs (src/streaming/).
//
// Replay a recorded log:
//
//   crowdtruth_stream --log=answers.log [--truth=truth.csv] [--method=ZC]
//       [--num_choices=0] [--resync_interval=1000] [--final_resync=true]
//       [--local_sweeps=2] [--max_dirty_tasks=32] [--report_interval=0]
//       [--snapshot_in=s.json] [--snapshot_out=s.json]
//       [--output=inferred.csv] [--workers_output=workers.csv]
//       [--json_out=report.json] [--trace] [--seed=42]
//       [--on-bad-record=reject|dedupe|drop]
//       [--metrics_port=-1] [--metrics_linger=0] [--metrics_out=FILE]
//
// Or generate the stream live with the online-assignment simulator
// (categorical profiles only):
//
//   crowdtruth_stream --simulate=D_Product [--strategy=uncertainty]
//       [--budget=0] [--scale=0.1] [--seed=42] [--log_out=answers.log]
//       [--truth_out=truth.csv] ...
//
// The engine ingests one answer at a time (bounded localized
// re-estimation), resyncs against the batch solver every
// --resync_interval answers (0 = never), and runs one final resync at end
// of stream unless --final_resync=false — after which the streamed
// estimates equal the batch run over the same answers exactly. --trace
// emits one line per resync via the PR-1 trace machinery;
// --report_interval=N prints a rolling status line every N answers;
// --json_out writes the machine-readable run summary including per-answer
// observe latency percentiles. Snapshots capture the full engine state:
// restoring one and replaying the same log resumes where it left off
// (already-seen answers are skipped as duplicates). --on-bad-record picks
// what a malformed record does to the replay: reject (default) fails it,
// the repair policies skip the record and keep streaming.
//
// --metrics_port=N (>= 0; 0 picks an ephemeral port, printed on startup)
// installs the process-wide metric registry and serves it on 127.0.0.1:N
// during the replay from a tenant-less StreamingServer (src/server/):
// GET /metrics (text), /metrics.json, /healthz. The replay loop pumps the
// server's event loop between answers, so scraping never introduces
// concurrency into the engine. --metrics_linger=SECONDS keeps serving
// after the stream ends (so a scraper can collect the final state of a
// fast replay); --metrics_out dumps the registry to a file on exit
// (Prometheus text, or JSON when the path ends in ".json").
//
// --shards=N (> 1), --checkpoint_every=N or --resume_from=FILE switch the
// replay onto the shared shard replay driver (shard/replay.h): tasks are
// hash-partitioned across N engines, a cross-shard worker-summary barrier
// runs every --resync_interval answers, and the final resync is one global
// batch solve — so the inferred truth is bit-identical to the single-
// engine replay for any shard count. --checkpoint_every=N (requires
// --checkpoint_dir) writes an atomic, versioned checkpoint document every
// N consumed answers; --resume_from=FILE restores one and continues the
// replay where it left off. Sharded replay cannot be combined with
// --snapshot_in/--snapshot_out (use checkpoints), --serve_port or --trace.
//
// --serve_port=N (>= 0; 0 = ephemeral) promotes the replayed categorical
// engine into tenant "default" of the epoll streaming server
// (src/server/) after the replay finishes: POST more answers to
// /v1/tenants/default/answers, read /v1/tenants/default/truth, scrape
// /metrics — all on one loop, with the adaptive controller driving the
// resync/admission knobs. --serve_seconds bounds the serving phase (0 =
// until SIGINT/SIGTERM).
//
// Streaming methods: MV, ZC, D&S (categorical); Mean, Median (numeric).
// The log type (header line) selects the domain.
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "data/answer_log.h"
#include "scenario/buggify.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace_export.h"
#include "server/server.h"
#include "shard/coordinator.h"
#include "shard/replay.h"
#include "simulation/online_assignment.h"
#include "simulation/profiles.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

namespace data = crowdtruth::data;
namespace shard = crowdtruth::shard;
namespace sim = crowdtruth::sim;
namespace streaming = crowdtruth::streaming;
using crowdtruth::util::Flags;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;
using crowdtruth::util::TablePrinter;

// The tenant-less metrics server, when --metrics_port enabled one. Pumped
// by the replay loop and the post-stream linger loop; null otherwise.
crowdtruth::server::StreamingServer* g_metrics_server = nullptr;

// The epoll server, when --serve_port promoted the replay into a live
// tenant; set only while Run() is blocking, for the signal handler.
crowdtruth::server::StreamingServer* g_serve_server = nullptr;

void HandleServeSignal(int /*sig*/) {
  if (g_serve_server != nullptr) g_serve_server->RequestStop();
}

struct StreamInput {
  data::AnswerLogType type = data::AnswerLogType::kCategorical;
  int num_choices = 0;
  // `label` is used for categorical streams, `value` for numeric ones.
  std::vector<data::AnswerLogRecord> records;
  std::unordered_map<std::string, data::LabelId> truth_labels;
  std::unordered_map<std::string, double> truth_values;
};

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return Status::Ok();
}

Status LoadTruthCsv(const std::string& path, StreamInput* input) {
  std::vector<std::vector<std::string>> rows;
  Status status = crowdtruth::util::ReadCsvFile(path, &rows);
  if (!status.ok()) return status;
  if (rows.empty() || rows[0] != std::vector<std::string>{"task", "truth"}) {
    return Status::ParseError(path + ": expected header \"task,truth\"");
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != 2) {
      return Status::ParseError(path + ": row has " +
                                std::to_string(rows[i].size()) + " fields");
    }
    char* end = nullptr;
    if (input->type == data::AnswerLogType::kCategorical) {
      const long label = std::strtol(rows[i][1].c_str(), &end, 10);
      if (end == rows[i][1].c_str() || *end != '\0' || label < 0) {
        return Status::ParseError(path + ": bad truth \"" + rows[i][1] +
                                  "\"");
      }
      input->truth_labels[rows[i][0]] = static_cast<data::LabelId>(label);
    } else {
      const double value = std::strtod(rows[i][1].c_str(), &end);
      if (end == rows[i][1].c_str() || *end != '\0') {
        return Status::ParseError(path + ": bad truth \"" + rows[i][1] +
                                  "\"");
      }
      input->truth_values[rows[i][0]] = value;
    }
  }
  return Status::Ok();
}

Status LoadLogInput(const Flags& flags, StreamInput* input) {
  shard::LoadedLog log;
  Status status = shard::LoadLog(flags.Get("log"), &log);
  if (!status.ok()) return status;
  input->type = log.header.type;
  if (input->type == data::AnswerLogType::kCategorical) {
    input->num_choices =
        shard::ResolveNumChoices(flags.GetInt("num_choices"), log);
  }
  input->records = std::move(log.records);
  if (!flags.Get("truth").empty()) {
    return LoadTruthCsv(flags.Get("truth"), input);
  }
  return Status::Ok();
}

Status ParseStrategy(const std::string& name,
                     sim::AssignmentStrategy* strategy) {
  if (name == "random") {
    *strategy = sim::AssignmentStrategy::kRandom;
  } else if (name == "round_robin") {
    *strategy = sim::AssignmentStrategy::kRoundRobin;
  } else if (name == "uncertainty") {
    *strategy = sim::AssignmentStrategy::kUncertainty;
  } else {
    return Status::InvalidArgument(
        "--strategy must be random, round_robin or uncertainty");
  }
  return Status::Ok();
}

Status SimulateInput(const Flags& flags, StreamInput* input) {
  const std::string profile = flags.Get("simulate");
  if (profile == "N_Emotion") {
    return Status::InvalidArgument(
        "--simulate supports the categorical profiles only; stream numeric "
        "answers from a log instead");
  }
  sim::CategoricalSimSpec spec = sim::ScaleSpec(
      sim::CategoricalProfileSpec(profile), flags.GetDouble("scale"));
  sim::OnlineAssignmentConfig config;
  Status status = ParseStrategy(flags.Get("strategy"), &config.strategy);
  if (!status.ok()) return status;
  config.total_budget = flags.GetInt("budget");
  if (config.total_budget <= 0) {
    config.total_budget = spec.num_tasks * spec.assignment.redundancy;
  }
  std::vector<sim::OnlineAnswerEvent> events;
  const data::CategoricalDataset dataset = sim::SimulateOnlineCollection(
      spec, config, flags.GetInt("seed"), &events);

  input->type = data::AnswerLogType::kCategorical;
  input->num_choices = spec.num_choices;
  input->records.reserve(events.size());
  for (const sim::OnlineAnswerEvent& event : events) {
    data::AnswerLogRecord record;
    record.task = std::to_string(event.task);
    record.worker = std::to_string(event.worker);
    record.label = event.label;
    input->records.push_back(std::move(record));
  }
  for (data::TaskId t = 0; t < dataset.num_tasks(); ++t) {
    if (dataset.HasTruth(t)) {
      input->truth_labels[std::to_string(t)] = dataset.Truth(t);
    }
  }

  if (!flags.Get("log_out").empty()) {
    data::AnswerLogHeader header;
    header.type = data::AnswerLogType::kCategorical;
    header.num_choices = spec.num_choices;
    data::AnswerLogWriter writer;
    status = data::AnswerLogWriter::Create(flags.Get("log_out"), header,
                                           &writer);
    if (!status.ok()) return status;
    for (const data::AnswerLogRecord& record : input->records) {
      status = writer.Append(record.task, record.worker, record.label);
      if (!status.ok()) return status;
    }
    std::cout << "wrote answer log to " << flags.Get("log_out") << '\n';
  }
  if (!flags.Get("truth_out").empty()) {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"task", "truth"});
    for (data::TaskId t = 0; t < dataset.num_tasks(); ++t) {
      if (dataset.HasTruth(t)) {
        rows.push_back(
            {std::to_string(t), std::to_string(dataset.Truth(t))});
      }
    }
    status = crowdtruth::util::WriteCsvFile(flags.Get("truth_out"), rows);
    if (!status.ok()) return status;
    std::cout << "wrote truth to " << flags.Get("truth_out") << '\n';
  }
  return Status::Ok();
}

// Quality of a set of estimates against the known truth: accuracy for
// categorical streams, MAE/RMSE for numeric ones.
struct Quality {
  int labeled = 0;
  double accuracy = 0.0;
  double mae = 0.0;
  double rmse = 0.0;
};

// Scores estimate(t) for the tasks named name(t), t in [0, num_tasks).
template <typename NameFn, typename EstimateFn>
Quality Score(const StreamInput& input, int num_tasks, NameFn name,
              EstimateFn estimate) {
  Quality quality;
  int correct = 0;
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  for (int t = 0; t < num_tasks; ++t) {
    if (input.type == data::AnswerLogType::kCategorical) {
      const auto it = input.truth_labels.find(name(t));
      if (it == input.truth_labels.end()) continue;
      ++quality.labeled;
      if (estimate(t) == it->second) ++correct;
    } else {
      const auto it = input.truth_values.find(name(t));
      if (it == input.truth_values.end()) continue;
      ++quality.labeled;
      const double err = estimate(t) - it->second;
      abs_sum += std::fabs(err);
      sq_sum += err * err;
    }
  }
  if (quality.labeled > 0) {
    quality.accuracy = static_cast<double>(correct) / quality.labeled;
    quality.mae = abs_sum / quality.labeled;
    quality.rmse = std::sqrt(sq_sum / quality.labeled);
  }
  return quality;
}

template <typename Engine>
Quality ScoreEngine(const StreamInput& input, const Engine& engine) {
  return Score(
      input, engine.method().num_tasks(),
      [&engine](int t) { return engine.tasks().Name(t); },
      [&engine](int t) { return engine.method().Estimate(t); });
}

// " accuracy=97.50% (40 labeled)" or " mae=0.125 rmse=0.250 (40 labeled)".
std::string QualityLine(const StreamInput& input, const Quality& quality) {
  const bool categorical = input.type == data::AnswerLogType::kCategorical;
  if (quality.labeled == 0) return categorical ? " accuracy=n/a" : " mae=n/a";
  const std::string labeled =
      " (" + std::to_string(quality.labeled) + " labeled)";
  if (categorical) {
    return " accuracy=" + TablePrinter::Percent(quality.accuracy, 2) +
           labeled;
  }
  return " mae=" + TablePrinter::Fixed(quality.mae, 3) +
         " rmse=" + TablePrinter::Fixed(quality.rmse, 3) + labeled;
}

// The run report's "final" object.
JsonValue QualityJson(const StreamInput& input, const Quality& quality) {
  JsonValue final = JsonValue::Object();
  final.Set("labeled_tasks", quality.labeled);
  if (quality.labeled > 0) {
    if (input.type == data::AnswerLogType::kCategorical) {
      final.Set("accuracy", quality.accuracy);
    } else {
      final.Set("mae", quality.mae);
      final.Set("rmse", quality.rmse);
    }
  }
  return final;
}

int FinishWithOutputs(const Flags& flags, const JsonValue& report,
                      const shard::CsvPairs& estimates,
                      const shard::CsvPairs& workers) {
  Status status;
  if (!flags.Get("output").empty()) {
    status =
        shard::WriteCsvPairs(flags.Get("output"), "task", "truth", estimates);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote inferred truth to " << flags.Get("output") << '\n';
  }
  if (!flags.Get("workers_output").empty()) {
    status = shard::WriteCsvPairs(flags.Get("workers_output"), "worker",
                                  "quality", workers);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote worker qualities to " << flags.Get("workers_output")
              << '\n';
  }
  if (!flags.Get("json_out").empty()) {
    status = crowdtruth::util::WriteJsonFile(flags.Get("json_out"), report);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote run summary to " << flags.Get("json_out") << '\n';
  }
  return 0;
}

// --serve_port: promote the just-replayed engine into tenant "default" of
// an epoll StreamingServer (src/server/) and keep serving — ingest appends
// to the same engine, /truth serves its estimates, the adaptive controller
// takes over the resync/admission knobs. Serves until SIGINT/SIGTERM, or
// for --serve_seconds when positive.
int ServeAdopted(
    const Flags& flags,
    std::unique_ptr<streaming::CategoricalStreamEngine> engine) {
  namespace server = crowdtruth::server;
  server::ServerConfig config;
  config.port = flags.GetInt("serve_port");
  config.tenant_defaults.method = engine->method().name();
  config.tenant_defaults.num_choices = engine->method().num_choices();
  config.tenant_defaults.resync_interval = flags.GetInt("resync_interval");
  config.tenant_defaults.local_sweeps = flags.GetInt("local_sweeps");
  config.tenant_defaults.max_dirty_tasks = flags.GetInt("max_dirty_tasks");
  config.tenant_defaults.seed = flags.GetInt("seed");

  server::TenantOptions options = config.tenant_defaults;
  const Status policy_status = crowdtruth::data::ParseBadRecordPolicy(
      flags.Get("on-bad-record"), &options.bad_record_policy);
  if (!policy_status.ok()) {
    std::cerr << "error: " << policy_status.ToString() << '\n';
    return 2;
  }

  server::StreamingServer serve(config, crowdtruth::obs::ProcessMetrics());
  Status status = serve.Start();
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  status = serve.AddTenant(
      server::Tenant::Adopt("default", options, std::move(engine)));
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  const int serve_seconds = flags.GetInt("serve_seconds");
  if (serve_seconds > 0) {
    serve.loop().AddTimer(static_cast<int64_t>(serve_seconds) * 1000, 0,
                          [&serve]() { serve.RequestStop(); });
  }
  g_serve_server = &serve;
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  std::cout << "serving replayed engine as tenant \"default\" on "
            << "http://127.0.0.1:" << serve.port() << std::endl;
  serve.Run();
  g_serve_server = nullptr;
  serve.Stop();
  return 0;
}

// The single-engine replay, for either engine flavour. `serve` hands the
// replayed engine to --serve_port; it is null for engines the server
// cannot host (numeric ones).
template <typename Method>
int RunSingle(
    const Flags& flags, const StreamInput& input, const std::string& mode,
    int (*serve)(const Flags&,
                 std::unique_ptr<streaming::StreamEngine<Method>>)) {
  using Domain = typename Method::Domain;
  if (serve == nullptr && flags.GetInt("serve_port") >= 0) {
    std::cerr << "error: --serve_port supports categorical streams only\n";
    return 2;
  }
  std::string method_name = flags.Get("method");
  if (method_name.empty()) method_name = Domain::kDefaultMethod;
  std::unique_ptr<Method> method = streaming::MakeIncremental<Method>(
      method_name, input.num_choices, shard::StreamingOptionsFromFlags(flags));
  if (method == nullptr) {
    std::string list;
    for (const std::string& name : streaming::IncrementalNames<Method>()) {
      list += (list.empty() ? "" : ", ") + name;
    }
    std::cerr << "error: no streaming implementation of \"" << method_name
              << "\" (" << Method::kKind << " streaming methods: " << list
              << ")\n";
    return 2;
  }
  streaming::EngineConfig config;
  config.resync_interval = flags.GetInt("resync_interval");
  auto engine = std::make_unique<streaming::StreamEngine<Method>>(
      std::move(method), config);
  crowdtruth::core::StreamTraceSink trace(std::cerr);
  if (flags.GetBool("trace")) engine->set_trace(&trace);

  if (!flags.Get("snapshot_in").empty()) {
    std::string text;
    Status status = ReadFileToString(flags.Get("snapshot_in"), &text);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    JsonValue snapshot;
    status = crowdtruth::util::ParseJson(text, &snapshot);
    if (!status.ok()) {
      std::cerr << "error: " << flags.Get("snapshot_in") << ": "
                << status.ToString() << '\n';
      return 1;
    }
    status = engine->Restore(snapshot);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "restored snapshot: " << engine->stats().answers
              << " answers already ingested\n";
  }

  crowdtruth::data::BadRecordPolicy policy;
  {
    const Status status = crowdtruth::data::ParseBadRecordPolicy(
        flags.Get("on-bad-record"), &policy);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 2;
    }
  }

  const int report_interval = flags.GetInt("report_interval");
  int64_t skipped = 0;
  int64_t replayed = 0;
  for (const data::AnswerLogRecord& record : input.records) {
    const Status status = engine->Observe(record.task, record.worker,
                                          Domain::PayloadOf(record));
    if (!status.ok()) {
      // A resumed replay re-reads answers the snapshot already contains.
      if (status.message().find("duplicate") != std::string::npos) {
        ++skipped;
        continue;
      }
      // Repair policies skip any other bad record (out-of-range label,
      // non-finite value) and keep streaming; reject fails the replay.
      if (policy != crowdtruth::data::BadRecordPolicy::kReject) {
        ++skipped;
        continue;
      }
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    ++replayed;
    if (g_metrics_server != nullptr) g_metrics_server->RunOnce(0);
    if (report_interval > 0 && replayed % report_interval == 0) {
      std::cout << "[stream] answers=" << engine->stats().answers
                << QualityLine(input, ScoreEngine(input, *engine))
                << " p50_observe="
                << TablePrinter::Fixed(
                       engine->stats().observe_latency.Quantile(0.5) * 1e6,
                       1)
                << "us resyncs=" << engine->stats().resyncs << '\n';
    }
  }
  if (flags.GetBool("final_resync") && engine->stats().answers > 0) {
    engine->Resync();
  }

  const streaming::EngineStats& stats = engine->stats();
  const Quality quality = ScoreEngine(input, *engine);
  std::cout << "stream: " << stats.answers << " answers (" << replayed
            << " replayed, " << skipped << " skipped), "
            << engine->method().num_tasks() << " tasks, "
            << engine->method().num_workers() << " workers\n"
            << "engine: " << stats.resyncs << " resyncs, "
            << TablePrinter::Fixed(stats.resync_seconds, 3)
            << "s resync time, mean observe "
            << TablePrinter::Fixed(stats.observe_latency.mean() * 1e6, 1)
            << "us\n"
            << "final:" << QualityLine(input, quality) << '\n';

  if (!flags.Get("snapshot_out").empty()) {
    const Status status = crowdtruth::util::WriteJsonFile(
        flags.Get("snapshot_out"), engine->Snapshot());
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote snapshot to " << flags.Get("snapshot_out") << '\n';
  }

  JsonValue report = JsonValue::Object();
  report.Set("tool", "crowdtruth_stream");
  report.Set("mode", mode);
  report.Set("type", Method::kKind);
  report.Set("method", engine->method().name());
  report.Set("answers", static_cast<int64_t>(stats.answers));
  report.Set("num_tasks", engine->method().num_tasks());
  report.Set("num_workers", engine->method().num_workers());
  report.Set("resync_interval", flags.GetInt("resync_interval"));
  report.Set("resyncs", stats.resyncs);
  report.Set("resync_seconds", stats.resync_seconds);
  JsonValue observe = JsonValue::Object();
  observe.Set("count", stats.observe_latency.count());
  observe.Set("total_seconds", stats.observe_latency.sum());
  observe.Set("mean_seconds", stats.observe_latency.mean());
  observe.Set("p50_seconds", stats.observe_latency.Quantile(0.5));
  observe.Set("p99_seconds", stats.observe_latency.Quantile(0.99));
  observe.Set("max_seconds", stats.observe_latency.max());
  report.Set("observe_latency", std::move(observe));
  if (Domain::kHasChoices) report.Set("num_choices", input.num_choices);
  report.Set("final", QualityJson(input, quality));

  shard::CsvPairs estimates;
  const Method& method_ref = engine->method();
  for (int t = 0; t < method_ref.num_tasks(); ++t) {
    estimates.emplace_back(engine->tasks().Name(t),
                           std::to_string(method_ref.Estimate(t)));
  }
  shard::CsvPairs workers;
  for (int w = 0; w < method_ref.num_workers(); ++w) {
    workers.emplace_back(engine->workers().Name(w),
                         std::to_string(method_ref.WorkerQuality(w)));
  }
  const int outputs_code =
      FinishWithOutputs(flags, report, estimates, workers);
  if (outputs_code != 0 || flags.GetInt("serve_port") < 0) {
    return outputs_code;
  }
  return serve(flags, std::move(engine));
}

// --shards / --checkpoint_every / --resume_from: drive the replay through
// the shared shard replay driver (shard/replay.h) instead of a single
// engine. The final estimates come from the coordinator's global resync,
// which solves the same arrival-order dataset a single-engine replay's
// final resync does — the truth CSV is bit-identical for any shard count.
template <typename Method>
int RunSharded(const Flags& flags, const StreamInput& input,
               const std::string& mode) {
  using Domain = typename Method::Domain;
  if (!flags.Get("snapshot_in").empty() ||
      !flags.Get("snapshot_out").empty() ||
      flags.GetInt("serve_port") >= 0 || flags.GetBool("trace")) {
    std::cerr << "error: sharded replay (--shards/--checkpoint_every/"
                 "--resume_from) cannot be combined with --snapshot_in, "
                 "--snapshot_out, --serve_port or --trace\n";
    return 2;
  }
  shard::ReplayConfig config;
  config.checkpoint_every = flags.GetInt("checkpoint_every");
  config.checkpoint_dir = flags.Get("checkpoint_dir");
  if (config.checkpoint_every > 0 && config.checkpoint_dir.empty()) {
    std::cerr << "error: --checkpoint_every requires --checkpoint_dir\n";
    return 2;
  }
  std::string method_name = flags.Get("method");
  if (method_name.empty()) method_name = Domain::kDefaultMethod;
  config.coordinator.shard_count = flags.GetInt("shards");
  config.coordinator.method = method_name;
  config.coordinator.num_choices = input.num_choices;
  config.coordinator.options = shard::StreamingOptionsFromFlags(flags);
  config.coordinator.barrier_interval = flags.GetInt("resync_interval");
  Status status = crowdtruth::data::ParseBadRecordPolicy(
      flags.Get("on-bad-record"), &config.on_bad_record);
  std::unique_ptr<shard::ShardReplay<Method>> replay;
  if (status.ok()) {
    status = shard::ShardReplay<Method>::Create(config, input.records,
                                                &replay);
  }
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 2;
  }
  shard::ShardCoordinator<Method>& coordinator = replay->coordinator();
  if (!flags.Get("resume_from").empty()) {
    status = replay->Resume(flags.Get("resume_from"));
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "restored checkpoint: " << coordinator.next_sequence()
              << " answers already consumed\n";
  }

  const int report_interval = flags.GetInt("report_interval");
  status = replay->Run(
      static_cast<int64_t>(input.records.size()), [&](bool accepted) {
        if (accepted && report_interval > 0 &&
            replay->replayed() % report_interval == 0) {
          std::cout << "[stream] answers=" << coordinator.answers_accepted()
                    << " barriers=" << coordinator.barriers_run() << '\n';
        }
        if (g_metrics_server != nullptr) g_metrics_server->RunOnce(0);
      });
  typename Method::BatchResult global;
  const bool final_resync = flags.GetBool("final_resync");
  if (status.ok() && final_resync) status = coordinator.GlobalResync(&global);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }

  std::cout << "stream: " << coordinator.answers_accepted() << " answers ("
            << replay->replayed() << " replayed, " << replay->skipped()
            << " skipped), " << coordinator.global_num_tasks() << " tasks, "
            << coordinator.global_num_workers() << " workers across "
            << coordinator.shard_count() << " shards\n"
            << "shard: " << coordinator.barriers_run()
            << " barriers, final global resync "
            << (final_resync ? "done" : "skipped") << '\n';

  // Without the global solve, each task serves its owning shard's
  // (approximate, globally informed) estimate.
  using Payload = typename Domain::Payload;
  const auto estimate = [&](int gid) -> Payload {
    if (final_resync) return Domain::Estimates(global)[gid];
    const int owner = coordinator.TaskOwner(gid);
    return owner < 0 ? Payload{}
                     : coordinator.engine(owner).method().Estimate(
                           coordinator.TaskLocal(gid));
  };
  shard::CsvPairs estimates;
  for (int gid = 0; gid < coordinator.global_num_tasks(); ++gid) {
    estimates.emplace_back(coordinator.tasks().Name(gid),
                           std::to_string(estimate(gid)));
  }
  std::vector<double> quality(coordinator.global_num_workers(), 0.0);
  if (final_resync) {
    quality = global.worker_quality;
  } else {
    for (int s = 0; s < coordinator.shard_count(); ++s) {
      const auto& engine = coordinator.engine(s);
      for (int lid = 0; lid < engine.workers().size(); ++lid) {
        const int gid =
            coordinator.workers().Find(engine.workers().Name(lid));
        if (gid >= 0 && gid < coordinator.global_num_workers()) {
          quality[gid] = engine.method().WorkerQuality(lid);
        }
      }
    }
  }
  shard::CsvPairs workers;
  for (int gid = 0; gid < coordinator.global_num_workers(); ++gid) {
    workers.emplace_back(coordinator.workers().Name(gid),
                         std::to_string(quality[gid]));
  }
  const Quality scored = Score(
      input, coordinator.global_num_tasks(),
      [&coordinator](int gid) { return coordinator.tasks().Name(gid); },
      estimate);
  std::cout << "final:" << QualityLine(input, scored) << '\n';

  JsonValue report = JsonValue::Object();
  report.Set("tool", "crowdtruth_stream");
  report.Set("mode", mode);
  report.Set("type", Method::kKind);
  report.Set("method", method_name);
  report.Set("shards", coordinator.shard_count());
  report.Set("answers", coordinator.answers_accepted());
  report.Set("num_tasks", coordinator.global_num_tasks());
  report.Set("num_workers", coordinator.global_num_workers());
  report.Set("barrier_interval",
             static_cast<int64_t>(config.coordinator.barrier_interval));
  report.Set("barriers", coordinator.barriers_run());
  report.Set("checkpoint_every", config.checkpoint_every);
  if (Domain::kHasChoices) report.Set("num_choices", input.num_choices);
  report.Set("final", QualityJson(input, scored));
  return FinishWithOutputs(flags, report, estimates, workers);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {{"log", ""},
                     {"truth", ""},
                     {"method", ""},
                     {"num_choices", "0"},
                     {"resync_interval", "1000"},
                     {"final_resync", "true"},
                     {"local_sweeps", "2"},
                     {"max_dirty_tasks", "32"},
                     {"report_interval", "0"},
                     {"simulate", ""},
                     {"strategy", "uncertainty"},
                     {"budget", "0"},
                     {"scale", "0.1"},
                     {"seed", "42"},
                     {"threads", "1"},
                     {"log_out", ""},
                     {"truth_out", ""},
                     {"snapshot_in", ""},
                     {"snapshot_out", ""},
                     {"shards", "1"},
                     {"checkpoint_every", "0"},
                     {"checkpoint_dir", ""},
                     {"resume_from", ""},
                     {"output", ""},
                     {"workers_output", ""},
                     {"json_out", ""},
                     {"trace", "false"},
                     {"on-bad-record", "reject"},
                     {"metrics_port", "-1"},
                     {"metrics_linger", "0"},
                     {"metrics_out", ""},
                     {"trace_out", ""},
                     {"serve_port", "-1"},
                     {"serve_seconds", "0"}});
  const bool simulate = !flags.Get("simulate").empty();
  if (simulate == !flags.Get("log").empty()) {
    std::cerr << "error: exactly one of --log or --simulate is required\n";
    return 2;
  }
  // Arm fault injection from CROWDTRUTH_BUGGIFY_SEED (a no-op unless the
  // build compiled the sites in) before any answer-log read can happen.
  crowdtruth::scenario::BuggifyInitFromEnv();
  if (crowdtruth::scenario::BuggifyEnabled()) {
    std::cout << "buggify: "
              << (crowdtruth::scenario::kBuggifyCompiledIn ? "enabled"
                                                           : "compiled out")
              << '\n';
  }
  StreamInput input;
  const Status status =
      simulate ? SimulateInput(flags, &input) : LoadLogInput(flags, &input);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return status.code() == crowdtruth::util::StatusCode::kInvalidArgument
               ? 2
               : 1;
  }

  // Metrics: install the process-wide registry when any metrics surface is
  // requested, and serve it when --metrics_port >= 0.
  crowdtruth::obs::MetricRegistry registry;
  const int metrics_port = flags.GetInt("metrics_port");
  crowdtruth::server::ServerConfig metrics_config;
  metrics_config.port = metrics_port;
  metrics_config.controller_enabled = false;  // no tenants to steer
  crowdtruth::server::StreamingServer server(metrics_config, &registry);
  const std::string metrics_out = flags.Get("metrics_out");
  if (metrics_port >= 0 || !metrics_out.empty() ||
      flags.GetInt("serve_port") >= 0) {
    crowdtruth::obs::RegisterProcessCollectors(&registry);
    crowdtruth::obs::InstallProcessMetrics(&registry);
  }
  // Span tracing: armed only when --trace_out asks for a dump.
  crowdtruth::obs::FlightRecorder recorder;
  const std::string trace_out = flags.Get("trace_out");
  if (!trace_out.empty()) crowdtruth::obs::InstallFlightRecorder(&recorder);
  if (metrics_port >= 0) {
    const Status started = server.Start();
    if (!started.ok()) {
      std::cerr << "error: " << started.ToString() << '\n';
      return 1;
    }
    g_metrics_server = &server;
    std::cout << "metrics: serving http://127.0.0.1:" << server.port()
              << "/metrics\n";
  }

  const std::string mode = simulate ? "simulate" : "replay";
  const bool sharded = flags.GetInt("shards") != 1 ||
                       flags.GetInt("checkpoint_every") > 0 ||
                       !flags.Get("resume_from").empty();
  using Categorical = streaming::IncrementalCategoricalMethod;
  using Numeric = streaming::IncrementalNumericMethod;
  const bool categorical = input.type == data::AnswerLogType::kCategorical;
  int code;
  if (sharded) {
    code = categorical ? RunSharded<Categorical>(flags, input, mode)
                       : RunSharded<Numeric>(flags, input, mode);
  } else {
    code = categorical
               ? RunSingle<Categorical>(flags, input, mode, ServeAdopted)
               : RunSingle<Numeric>(flags, input, mode, nullptr);
  }

  const double linger = flags.GetDouble("metrics_linger");
  if (g_metrics_server != nullptr && linger > 0) {
    std::cout << "metrics: lingering "
              << TablePrinter::Fixed(linger, 1) << "s on port "
              << server.port() << '\n';
    crowdtruth::util::Stopwatch stopwatch;
    while (stopwatch.ElapsedSeconds() < linger) {
      server.RunOnce(/*max_wait_ms=*/50);
    }
  }
  g_metrics_server = nullptr;
  server.Stop();
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
  return code;
}
