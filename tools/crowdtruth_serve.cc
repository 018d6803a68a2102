// crowdtruth_serve: the multi-tenant streaming truth-inference server
// (src/server/).
//
//   crowdtruth_serve [--port=8080] [--data_dir=DIR]
//       [--method=ZC] [--num_choices=2] [--shards=1]
//       [--resync_interval=1000]
//       [--local_sweeps=2] [--max_dirty_tasks=32] [--seed=42]
//       [--on-bad-record=reject|dedupe|drop]
//       [--controller=true] [--controller_interval_ms=500]
//       [--target_latency_us=200] [--initial_tickets=2000]
//       [--tenant_label_cap=64] [--max_body_mb=8]
//       [--duration=0] [--metrics_out=FILE] [--trace_out=FILE]
//
// One epoll event loop serves both planes on 127.0.0.1:
//
//   GET  /metrics, /metrics.json, /healthz      observability
//   GET  /debug/trace                           flight-recorder dump
//   GET  /v1/tenants                            tenant listing
//   POST /v1/tenants/<id>/answers               ingest newline-delimited
//                                               `worker,task,label` records
//   GET  /v1/tenants/<id>/truth[?format=json][&resync=1]
//   POST /v1/tenants/<id>/snapshot              engine snapshot (JSON)
//
// Tenants are auto-created on first ingest (creation-time overrides:
// ?method=, ?num_choices=, ?shards=, ?on_bad_record=). --shards=N (or
// ?shards=N at creation) runs a tenant as N task-partitioned shards of one
// logical engine (src/shard/): ingest is routed by task hash,
// resync_interval becomes the cross-shard barrier interval, and
// /truth?resync=1 forces the deterministic global solve. With --data_dir
// each tenant
// appends its accepted answers to DIR/<tenant>.log — a crowdtruth_log,v1
// file that `crowdtruth_stream --log` replays to the same estimates
// bit-for-bit. The adaptive controller probes per-tenant admission budgets
// and retunes resync_interval / max_dirty_tasks from the live metric
// registry; watch it act on /metrics (crowdtruth_server_* gauges).
//
// --port=0 picks an ephemeral port (printed on startup). --duration=N
// exits cleanly after N seconds (CI); 0 serves until SIGINT/SIGTERM.
//
// A flight recorder is always installed, so GET /debug/trace serves the
// live span ring as Chrome trace_event JSON. On clean shutdown (SIGTERM,
// SIGINT or --duration) --metrics_out=FILE dumps the final registry
// (.json suffix = JSON exposition, else Prometheus text) and
// --trace_out=FILE dumps the recorder one last time.
#include <csignal>
#include <iostream>
#include <string>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace_export.h"
#include "server/server.h"
#include "util/flags.h"

namespace {

crowdtruth::server::StreamingServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  // Async-signal-safe: one atomic store; epoll_wait's EINTR wakes the loop.
  if (g_server != nullptr) g_server->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // One malloc arena for the loop and the background solver: with an arena
  // per thread, the solver's arena keeps a whole solve's freed working set
  // resident beside the loop's heap, instead of the two reusing one heap.
  mallopt(M_ARENA_MAX, 1);
#endif
  using crowdtruth::util::Flags;
  const Flags flags(argc, argv,
                    {{"port", "8080"},
                     {"data_dir", ""},
                     {"method", "ZC"},
                     {"num_choices", "2"},
                     {"shards", "1"},
                     {"resync_interval", "1000"},
                     {"local_sweeps", "2"},
                     {"max_dirty_tasks", "32"},
                     {"seed", "42"},
                     {"on-bad-record", "reject"},
                     {"controller", "true"},
                     {"controller_interval_ms", "500"},
                     {"target_latency_us", "200"},
                     {"initial_tickets", "2000"},
                     {"tenant_label_cap", "64"},
                     {"max_body_mb", "8"},
                     {"duration", "0"},
                     {"metrics_out", ""},
                     {"trace_out", ""}});

  crowdtruth::server::ServerConfig config;
  config.port = flags.GetInt("port");
  config.max_body_bytes =
      static_cast<size_t>(flags.GetInt("max_body_mb")) * 1024 * 1024;
  config.tenant_label_cap = flags.GetInt("tenant_label_cap");
  config.controller_enabled = flags.GetBool("controller");
  config.controller.interval_ms = flags.GetInt("controller_interval_ms");
  config.controller.target_latency_seconds =
      flags.GetDouble("target_latency_us") * 1e-6;
  config.controller.initial_tickets = flags.GetInt("initial_tickets");
  config.tenant_defaults.method = flags.Get("method");
  config.tenant_defaults.num_choices = flags.GetInt("num_choices");
  config.tenant_defaults.shards = flags.GetInt("shards");
  config.tenant_defaults.resync_interval = flags.GetInt("resync_interval");
  config.tenant_defaults.local_sweeps = flags.GetInt("local_sweeps");
  config.tenant_defaults.max_dirty_tasks = flags.GetInt("max_dirty_tasks");
  config.tenant_defaults.seed = flags.GetInt("seed");
  config.tenant_defaults.data_dir = flags.Get("data_dir");
  {
    const crowdtruth::util::Status status =
        crowdtruth::data::ParseBadRecordPolicy(
            flags.Get("on-bad-record"),
            &config.tenant_defaults.bad_record_policy);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 2;
    }
  }

  crowdtruth::obs::MetricRegistry registry;
  crowdtruth::obs::RegisterProcessCollectors(&registry);
  crowdtruth::obs::InstallProcessMetrics(&registry);
  // Always-on flight recorder: bounded per-thread rings, so the cost is a
  // fixed memory budget and GET /debug/trace works out of the box.
  crowdtruth::obs::FlightRecorder recorder;
  crowdtruth::obs::InstallFlightRecorder(&recorder);

  crowdtruth::server::StreamingServer server(config, &registry);
  const crowdtruth::util::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started.ToString() << '\n';
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const int duration = flags.GetInt("duration");
  if (duration > 0) {
    server.loop().AddTimer(static_cast<int64_t>(duration) * 1000, 0,
                           [&server]() { server.RequestStop(); });
  }
  std::cout << "serving http://127.0.0.1:" << server.port()
            << " (tenants: POST /v1/tenants/<id>/answers)" << std::endl;
  server.Run();

  std::cout << "shutting down after "
            << (server.controller().ticks()) << " controller ticks\n";
  g_server = nullptr;
  server.Stop();

  // Clean-shutdown artifacts (SIGTERM/SIGINT/--duration all land here).
  int exit_code = 0;
  if (!flags.Get("metrics_out").empty()) {
    const crowdtruth::util::Status status = crowdtruth::obs::WriteMetricsFile(
        flags.Get("metrics_out"), registry);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      exit_code = 1;
    } else {
      std::cout << "wrote metrics to " << flags.Get("metrics_out") << '\n';
    }
  }
  if (!flags.Get("trace_out").empty()) {
    const crowdtruth::util::Status status =
        crowdtruth::obs::WriteTraceFile(flags.Get("trace_out"), recorder);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      exit_code = 1;
    } else {
      std::cout << "wrote trace to " << flags.Get("trace_out") << '\n';
    }
  }
  crowdtruth::obs::InstallFlightRecorder(nullptr);
  crowdtruth::obs::InstallProcessMetrics(nullptr);
  return exit_code;
}
