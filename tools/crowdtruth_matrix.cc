// crowdtruth_matrix: igt_runner-style sweep over scenarios × methods ×
// policies (docs/scenarios.md), with one resumable JSON result per cell.
//
//   crowdtruth_matrix --out=DIR
//       [--scenarios=drifting_quality,adversary_burst,flash_crowd,long_tail]
//       [--methods=MV,ZC,D&S] [--policies=batch,stream,shard4,crash_restart]
//       [--seed=42] [--scale=1] [--num_tasks=240] [--num_workers=24]
//       [--num_choices=3] [--redundancy=7] [--barrier_interval=500]
//       [--max_cells=0] [--buggify_seed=N] [--buggify_activate=25]
//       [--buggify_fire=25] [--list]
//
// Each cell materializes the scenario (src/scenario/workload.h) as an
// answer log, runs the method under one execution policy, and writes
// out/cell_<scenario>__<method>__<policy>.json atomically — no timestamps,
// so a cell's bytes are a pure function of its configuration. A rerun
// skips every cell whose file already exists with a matching config_hash:
// kill the sweep anywhere (or bound it with --max_cells) and rerunning
// completes the identical result set. Every policy runs on the shared
// shard replay driver (shard/replay.h); crash_restart is just one policy
// column.
//
// Policies (all four must agree bit-for-bit — the PR8 determinism
// contract, which the summary enforces):
//   batch         — single coordinator, no barriers, one global solve
//   stream        — single shard driven incrementally with barriers
//   shard4        — four hash-partitioned shards with barriers
//   crash_restart — four shards, checkpoint mid-stream, discard the
//                   coordinator, restore from the latest checkpoint,
//                   replay and finish
//
// Exit codes: 0 sweep complete and consistent; 1 failure or fingerprint
// mismatch; 2 bad flags; 3 stopped early by --max_cells.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/answer_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace_export.h"
#include "scenario/buggify.h"
#include "scenario/workload.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "shard/replay.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace {

namespace data = crowdtruth::data;
namespace scenario = crowdtruth::scenario;
namespace shard = crowdtruth::shard;
using crowdtruth::util::Flags;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;

constexpr char kCellFormat[] = "crowdtruth_matrix_cell";
constexpr int kCellVersion = 1;
constexpr int kStoppedExitCode = 3;

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) items.push_back(text.substr(start, end - start));
    if (end == text.size()) break;
    start = end + 1;
  }
  return items;
}

// Filesystem-safe cell-name fragment ("D&S" -> "D_S").
std::string Sanitize(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

// FNV-1a, printed as 16 hex digits — used for both the configuration hash
// and the truth fingerprint, stable across platforms like data::ShardOfTask.
uint64_t Fnv1a(const std::string& text, uint64_t hash = 1469598103934665603ull) {
  for (const char c : text) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string HashHex(uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

struct CellResult {
  int64_t answers = 0;
  int64_t skipped = 0;
  int tasks = 0;
  int workers = 0;
  double accuracy = 0.0;
  std::string fingerprint;
};

using Coordinator = shard::CategoricalShardCoordinator;
using Replay = shard::CategoricalShardReplay;

// Fingerprint + accuracy from the coordinator's global solve. The
// fingerprint hashes "task=label" lines in global intern order, so two
// policies agree iff their final truth agrees task-for-task.
void Summarize(const Coordinator& coordinator,
               const Coordinator::BatchResult& global,
               const std::map<std::string, int>& truth, CellResult* cell) {
  uint64_t hash = 1469598103934665603ull;
  int graded = 0;
  int correct = 0;
  for (int gid = 0; gid < coordinator.global_num_tasks(); ++gid) {
    const std::string& name = coordinator.tasks().Name(gid);
    hash = Fnv1a(name + "=" + std::to_string(global.labels[gid]) + "\n",
                 hash);
    const auto it = truth.find(name);
    if (it != truth.end()) {
      ++graded;
      if (it->second == global.labels[gid]) ++correct;
    }
  }
  cell->answers = coordinator.answers_accepted();
  cell->tasks = coordinator.global_num_tasks();
  cell->workers = coordinator.global_num_workers();
  cell->accuracy = graded > 0 ? static_cast<double>(correct) / graded : 0.0;
  cell->fingerprint = HashHex(hash);
}

// Runs one cell. batch is one shard without barriers, stream one shard
// with them, shard4 and crash_restart four. crash_restart consumes to the
// midpoint writing periodic checkpoints, throws the coordinator away (the
// "crash"), restores a fresh one from the newest checkpoint on disk,
// replays the consumed prefix and finishes the stream. With Buggify
// enabled, the checkpoint_write and snapshot_restore sites fire right on
// this path.
Status RunCell(const std::string& policy, const std::string& method,
               int num_choices, int64_t barrier_interval, uint64_t seed,
               const shard::LoadedLog& log,
               const std::map<std::string, int>& truth,
               const std::string& checkpoint_dir, CellResult* cell) {
  shard::ReplayConfig config;
  config.coordinator.shard_count =
      policy == "batch" || policy == "stream" ? 1 : 4;
  config.coordinator.method = method;
  config.coordinator.num_choices = num_choices;
  config.coordinator.barrier_interval =
      policy == "batch" ? 0 : barrier_interval;
  config.coordinator.options.batch.seed = static_cast<int>(seed);
  const int64_t total = static_cast<int64_t>(log.records.size());
  std::unique_ptr<Replay> replay;
  Status status;
  if (policy == "crash_restart") {
    std::error_code fs_error;
    std::filesystem::remove_all(checkpoint_dir, fs_error);
    std::filesystem::create_directories(checkpoint_dir, fs_error);
    if (fs_error) {
      return Status::IoError("cannot create " + checkpoint_dir + ": " +
                             fs_error.message());
    }
    shard::ReplayConfig before_crash = config;
    before_crash.checkpoint_every = std::max<int64_t>(1, total / 2 / 2);
    before_crash.checkpoint_dir = checkpoint_dir;
    status = Replay::Create(before_crash, log.records, &replay);
    if (!status.ok()) return status;
    status = replay->Run(total / 2);
    if (!status.ok()) return status;
    replay.reset();  // the crash: all in-memory state is gone
    status = Replay::Create(config, log.records, &replay);
    if (!status.ok()) return status;
    std::string latest;
    status = replay->ResumeLatest(checkpoint_dir, &latest);
  } else {
    status = Replay::Create(config, log.records, &replay);
  }
  if (!status.ok()) return status;
  status = replay->Run(total);
  if (!status.ok()) return status;
  Coordinator::BatchResult global;
  status = replay->coordinator().GlobalResync(&global);
  if (!status.ok()) return status;
  cell->skipped = replay->skipped();
  Summarize(replay->coordinator(), global, truth, cell);
  return Status::Ok();
}

Status ReadTruthCsv(const std::string& path,
                    std::map<std::string, int>* truth) {
  std::vector<std::vector<std::string>> rows;
  Status status = crowdtruth::util::ReadCsvFile(path, &rows);
  if (!status.ok()) return status;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != 2) {
      return Status::ParseError(path + ": truth row has " +
                                std::to_string(rows[i].size()) + " fields");
    }
    (*truth)[rows[i][0]] = std::atoi(rows[i][1].c_str());
  }
  return Status::Ok();
}

JsonValue CellToJson(const std::string& scenario_name,
                     const std::string& method, const std::string& policy,
                     const std::string& config_hash, const CellResult& cell) {
  JsonValue doc = JsonValue::Object();
  doc.Set("format", kCellFormat);
  doc.Set("version", kCellVersion);
  doc.Set("scenario", scenario_name);
  doc.Set("method", method);
  doc.Set("policy", policy);
  doc.Set("config_hash", config_hash);
  doc.Set("answers", cell.answers);
  doc.Set("skipped", cell.skipped);
  doc.Set("tasks", cell.tasks);
  doc.Set("workers", cell.workers);
  doc.Set("accuracy", cell.accuracy);
  doc.Set("fingerprint", cell.fingerprint);
  return doc;
}

// A cached cell is reused only when it is a well-formed cell document for
// this exact configuration; anything else is recomputed.
bool LoadCachedCell(const std::string& path, const std::string& config_hash,
                    CellResult* cell) {
  JsonValue doc;
  if (!shard::ReadJsonFile(path, &doc).ok()) return false;
  const JsonValue* format = doc.Find("format");
  const JsonValue* hash = doc.Find("config_hash");
  const JsonValue* fingerprint = doc.Find("fingerprint");
  const JsonValue* accuracy = doc.Find("accuracy");
  const JsonValue* answers = doc.Find("answers");
  const JsonValue* skipped = doc.Find("skipped");
  const JsonValue* tasks = doc.Find("tasks");
  const JsonValue* workers = doc.Find("workers");
  if (format == nullptr || format->kind() != JsonValue::Kind::kString ||
      format->string() != kCellFormat || hash == nullptr ||
      hash->kind() != JsonValue::Kind::kString ||
      hash->string() != config_hash || fingerprint == nullptr ||
      fingerprint->kind() != JsonValue::Kind::kString ||
      accuracy == nullptr ||
      accuracy->kind() != JsonValue::Kind::kNumber || answers == nullptr ||
      skipped == nullptr || tasks == nullptr || workers == nullptr) {
    return false;
  }
  cell->answers = static_cast<int64_t>(answers->number());
  cell->skipped = static_cast<int64_t>(skipped->number());
  cell->tasks = static_cast<int>(tasks->number());
  cell->workers = static_cast<int>(workers->number());
  cell->accuracy = accuracy->number();
  cell->fingerprint = fingerprint->string();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {{"out", ""},
       {"scenarios", "drifting_quality,adversary_burst,flash_crowd,long_tail"},
       {"methods", "MV,ZC,D&S"},
       {"policies", "batch,stream,shard4,crash_restart"},
       {"seed", "42"},
       {"scale", "1"},
       {"num_tasks", "240"},
       {"num_workers", "24"},
       {"num_choices", "3"},
       {"redundancy", "7"},
       {"barrier_interval", "500"},
       {"max_cells", "0"},
       {"buggify_seed", ""},
       {"buggify_activate", "25"},
       {"buggify_fire", "25"},
       {"metrics_out", ""},
       {"trace_out", ""},
       {"list", "false"}});
  if (flags.GetBool("list")) {
    for (const std::string& name : scenario::RegisteredScenarios()) {
      std::cout << name << '\n';
    }
    return 0;
  }
  const std::string out_dir = flags.Get("out");
  if (out_dir.empty()) {
    std::cerr << "error: --out is required\n";
    return 2;
  }
  std::error_code fs_error;
  std::filesystem::create_directories(out_dir, fs_error);
  if (fs_error) {
    std::cerr << "error: cannot create " << out_dir << ": "
              << fs_error.message() << '\n';
    return 1;
  }
  const std::vector<std::string> scenarios =
      SplitList(flags.Get("scenarios"));
  const std::vector<std::string> methods = SplitList(flags.Get("methods"));
  const std::vector<std::string> policies = SplitList(flags.Get("policies"));
  if (scenarios.empty() || methods.empty() || policies.empty()) {
    std::cerr << "error: --scenarios, --methods and --policies must be "
                 "non-empty\n";
    return 2;
  }
  for (const std::string& policy : policies) {
    if (policy != "batch" && policy != "stream" && policy != "shard4" &&
        policy != "crash_restart") {
      std::cerr << "error: unknown policy \"" << policy << "\"\n";
      return 2;
    }
  }

  // Same buggify arming as crowdtruth_shard: flag beats environment.
  std::string buggify_tag = "-";
  const Status armed = scenario::ArmBuggifyFromFlags(flags);
  if (!armed.ok()) {
    std::cerr << "error: " << armed.message() << '\n';
    return 2;
  }
  if (scenario::BuggifyEnabled()) {
    std::cout << "buggify: "
              << (scenario::kBuggifyCompiledIn ? "enabled" : "compiled out")
              << '\n';
    buggify_tag = std::to_string(flags.GetInt("buggify_seed"));
  }

  // Observability surfaces, armed per flag: the registry feeds
  // --metrics_out (matrix cells drive the full EM + shard instrumentation),
  // the flight recorder feeds --trace_out.
  crowdtruth::obs::MetricRegistry registry;
  const std::string metrics_out = flags.Get("metrics_out");
  if (!metrics_out.empty()) {
    crowdtruth::obs::RegisterProcessCollectors(&registry);
    crowdtruth::obs::InstallProcessMetrics(&registry);
  }
  crowdtruth::obs::FlightRecorder recorder;
  const std::string trace_out = flags.Get("trace_out");
  if (!trace_out.empty()) crowdtruth::obs::InstallFlightRecorder(&recorder);

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const int64_t barrier_interval = flags.GetInt("barrier_interval");
  const int64_t max_cells = flags.GetInt("max_cells");

  // The shared shape every scenario is generated with; part of the config
  // hash so a cached cell from a different sweep shape is never reused.
  const std::string shape =
      std::to_string(seed) + "|" + flags.Get("scale") + "|" +
      flags.Get("num_tasks") + "|" + flags.Get("num_workers") + "|" +
      flags.Get("num_choices") + "|" + flags.Get("redundancy") + "|" +
      std::to_string(barrier_interval) + "|" + buggify_tag;

  int64_t processed = 0;
  int64_t computed = 0;
  int64_t cached = 0;
  JsonValue summary_cells = JsonValue::Array();
  // scenario__method -> (first policy fingerprint, policy it came from).
  std::map<std::string, std::pair<std::string, std::string>> fingerprints;
  bool consistent = true;

  for (const std::string& scenario_name : scenarios) {
    scenario::ScenarioSpec spec;
    spec.name = scenario_name;
    spec.seed = seed;
    spec.scale = flags.GetDouble("scale");
    spec.num_tasks = flags.GetInt("num_tasks");
    spec.num_workers = flags.GetInt("num_workers");
    spec.num_choices = flags.GetInt("num_choices");
    spec.redundancy = flags.GetInt("redundancy");
    auto generator = scenario::MakeGenerator(spec);
    if (generator == nullptr) {
      std::cerr << "error: unknown scenario \"" << scenario_name
                << "\" (try --list) or degenerate shape\n";
      return 2;
    }
    // Regenerated every run: bytes are deterministic, and regeneration
    // heals a log torn by a mid-sweep kill.
    const std::string log_path =
        out_dir + "/" + Sanitize(scenario_name) + "_answers.log";
    const std::string truth_path =
        out_dir + "/" + Sanitize(scenario_name) + "_truth.csv";
    scenario::ScenarioFileStats stats;
    Status status =
        scenario::WriteScenarioFiles(*generator, log_path, truth_path, &stats);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    shard::LoadedLog log;
    status = shard::LoadLog(log_path, &log);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::map<std::string, int> truth;
    status = ReadTruthCsv(truth_path, &truth);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }

    for (const std::string& method : methods) {
      for (const std::string& policy : policies) {
        if (max_cells > 0 && processed >= max_cells) {
          std::cout << "stopped after " << processed
                    << " cells (--max_cells); rerun to resume\n";
          return kStoppedExitCode;
        }
        ++processed;
        const std::string cell_name = Sanitize(scenario_name) + "__" +
                                      Sanitize(method) + "__" +
                                      Sanitize(policy);
        const std::string cell_path =
            out_dir + "/cell_" + cell_name + ".json";
        const std::string config_hash = HashHex(Fnv1a(
            scenario_name + "|" + method + "|" + policy + "|" + shape));
        CellResult cell;
        if (LoadCachedCell(cell_path, config_hash, &cell)) {
          ++cached;
          std::cout << "cell " << cell_name << ": cached (fingerprint "
                    << cell.fingerprint << ")\n";
        } else {
          status = RunCell(policy, method, spec.num_choices,
                           barrier_interval, seed, log, truth,
                           out_dir + "/ckpt_" + cell_name, &cell);
          if (!status.ok()) {
            std::cerr << "error: cell " << cell_name << ": "
                      << status.ToString() << '\n';
            return 1;
          }
          status = shard::WriteJsonFileAtomic(
              cell_path,
              CellToJson(scenario_name, method, policy, config_hash, cell));
          if (!status.ok()) {
            std::cerr << "error: " << status.ToString() << '\n';
            return 1;
          }
          ++computed;
          std::cout << "cell " << cell_name << ": accuracy " << cell.accuracy
                    << ", fingerprint " << cell.fingerprint << "\n";
        }
        summary_cells.Append(
            CellToJson(scenario_name, method, policy, config_hash, cell));
        const std::string key = scenario_name + "__" + method;
        const auto [it, inserted] = fingerprints.emplace(
            key, std::make_pair(cell.fingerprint, policy));
        if (!inserted && it->second.first != cell.fingerprint) {
          consistent = false;
          std::cerr << "INCONSISTENT: " << key << " policy " << policy
                    << " fingerprint " << cell.fingerprint
                    << " != " << it->second.second << " fingerprint "
                    << it->second.first << '\n';
        }
      }
    }
  }

  JsonValue summary = JsonValue::Object();
  summary.Set("format", "crowdtruth_matrix_summary");
  summary.Set("version", kCellVersion);
  summary.Set("cells", std::move(summary_cells));
  summary.Set("consistent", consistent);
  const Status status =
      shard::WriteJsonFileAtomic(out_dir + "/matrix_summary.json", summary);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  std::cout << "matrix: " << processed << " cells (" << computed
            << " computed, " << cached << " cached), "
            << (consistent ? "all policies consistent"
                           : "POLICY FINGERPRINTS DISAGREE")
            << "; summary in " << out_dir << "/matrix_summary.json\n";
  int code = consistent ? 0 : 1;
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
    const Status dump =
        crowdtruth::obs::WriteTraceFile(trace_out, recorder);
    if (!dump.ok()) {
      std::cerr << "error: " << dump.ToString() << '\n';
      if (code == 0) code = 1;
    } else {
      std::cout << "wrote trace to " << trace_out << '\n';
    }
  }
  return code;
}
