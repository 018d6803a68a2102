// perfbench_driver: the compiled half of the benchmark (perfbench/run.py
// is the entry point and documents the whole flow).
//
//   perfbench_driver gen --workload=W --seed=N --seconds=S --dir=D [--smoke]
//       writes the workload's generated inputs into D (nothing is timed);
//   perfbench_driver run --workload=W --seed=N --seconds=S --trace=0|1
//       --dir=D --server=PATH [--spans=FILE] [--smoke] [--flip=ORACLE]
//       runs the workload on those inputs and prints one JSON line:
//       {"correct", "attempted", "failed", "metrics", "details"}.
//
// An untraced run reports the end-to-end metrics; a traced run (--trace=1)
// reports the per-layer metrics, with 0 for layers the workload does not
// enter.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "util/flags.h"

namespace {

// Per-layer metric names and units, reported by every traced run.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"core.infer_s", "s"},
    {"core.ns_per_answer_iter", "ns"},
    {"core.iterations", "count"},
    {"data.load_s", "s"},
    {"data.build_s", "s"},
    {"data.validate_us_per_row", "us"},
    {"data.log_append_us_per_row", "us"},
    {"streaming.observe_us", "us"},
    {"streaming.observe_p99_us", "us"},
    {"streaming.swept_tasks_per_answer", "tasks"},
    {"streaming.backlog_tasks", "tasks"},
    {"streaming.resync_ms_p50", "ms"},
    {"streaming.resyncs", "count"},
    {"streaming.live_observe_us", "us"},
    {"streaming.live_observes", "count"},
    {"shard.observe_us", "us"},
    {"shard.barrier_ms_p50", "ms"},
    {"shard.barriers", "count"},
    {"shard.summary_bytes", "bytes"},
    {"shard.global_resync_s", "s"},
    {"shard.checkpoint_ms_p50", "ms"},
    {"shard.checkpoint_mb", "MiB"},
    {"shard.restore_ms_p50", "ms"},
    {"shard.replay_routing_ms_p50", "ms"},
    {"server.http_parse_us", "us"},
    {"server.handle_ingest_us_p50", "us"},
    {"server.ingest_us_per_row", "us"},
    {"server.ingest_self_us_per_row", "us"},
    {"server.transport_us", "us"},
    {"server.handle_truth_ms_p50", "ms"},
    {"server.truth_csv_ms", "ms"},
    {"server.metrics_render_ms", "ms"},
    {"server.live_ingest_us_p50", "us"},
    {"server.live_truth_ms_p50", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.coverage_pct", "%"},
    {"gen.lateness_ms_p99", "ms"},
};

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to run a build without NDEBUG; build "
               "with CMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver gen|run --workload=... (see "
                 "perfbench/README.md)\n";
    return 2;
  }
  const std::string mode = argv[1];
  const crowdtruth::util::Flags flags(argc - 1, argv + 1,
                                      {{"workload", ""},
                                       {"seed", "1"},
                                       {"seconds", "10"},
                                       {"trace", "0"},
                                       {"smoke", "false"},
                                       {"dir", ""},
                                       {"server", ""},
                                       {"spans", ""},
                                       {"flip", ""}});
  perfbench::RunOptions options;
  options.workload = flags.Get("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = flags.GetInt("seconds");
  options.trace = flags.GetInt("trace") != 0;
  options.smoke = flags.GetBool("smoke");
  options.dir = flags.Get("dir");
  options.server = flags.Get("server");
  options.spans = flags.Get("spans");
  options.flip = flags.Get("flip");
  if (options.dir.empty()) {
    std::cerr << "perfbench: --dir is required\n";
    return 2;
  }
  if (mode == "gen") return perfbench::GenerateInputs(options);
  if (mode != "run") {
    std::cerr << "perfbench: unknown mode " << mode << "\n";
    return 2;
  }

  perfbench::Result result;
  int code = 2;
  if (options.workload == "batch_srel") {
    code = perfbench::RunBatchSrel(options, &result);
  } else if (options.workload == "replay_shard4") {
    code = perfbench::RunReplayShard4(options, &result);
  } else if (options.workload == "serve_ingest" ||
             options.workload == "serve_mixed") {
    code = perfbench::RunServe(options, &result);
  } else {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
  }
  if (code != 0) return code;
  if (options.trace) result.FillMissing(kLayerMetrics);
  std::cout << result.ToJsonLine() << std::endl;
  return 0;
}
