// serve_ingest and serve_mixed: the shipped crowdtruth_serve binary driven
// over loopback, plus (traced runs) the same request sequence replayed
// in-process through StreamingServer::Handle, with the nested layers
// (Tenant::Ingest, the record validator, StreamEngine::Observe/Resync,
// AnswerLogWriter::Append, truth rendering, metric exposition) driven
// directly on the same inputs so each layer's self time is a difference
// of measured calls.
#include <sys/stat.h>

#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client.h"
#include "core/registry.h"
#include "data/answer_log.h"
#include "data/validate.h"
#include "harness.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "plan.h"
#include "server/http.h"
#include "server/server.h"
#include "server/tenant.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "util/csv.h"

namespace perfbench {

namespace {

namespace data = crowdtruth::data;
namespace server = crowdtruth::server;
namespace obs = crowdtruth::obs;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;

struct Row {
  std::string task;
  std::string worker;
  data::LabelId label = 0;
};

struct Workload {
  bool mixed = false;
  std::string method;
  int resync_interval = 0;
  int tenants = 0;
  std::vector<std::string> names;
  std::vector<std::map<std::string, int>> truth;
  std::vector<std::vector<Row>> rows;
  // The whole request sequence in canonical order: the first op is the
  // set-up ack, then the preload, the measured phase, the post-phase
  // /metrics scrape, and the read-back reads.
  std::vector<Op> ops;
  size_t preload_end = 0;   // ops [1, preload_end) are preload
  size_t measured_end = 0;  // ops [preload_end, measured_end) are measured
};

std::string Body(const std::vector<Row>& rows, size_t begin, size_t end) {
  std::string body;
  for (size_t i = begin; i < end; ++i) {
    body += rows[i].worker + "," + rows[i].task + "," +
            std::to_string(rows[i].label) + "\n";
  }
  return body;
}

Op IngestOp(const Workload& w, int tenant, size_t begin, size_t end) {
  Op op;
  op.kind = Op::Kind::kIngest;
  op.tenant = tenant;
  op.rows = static_cast<int>(end - begin);
  op.request =
      IngestRequest(w.names[tenant], Body(w.rows[tenant], begin, end));
  return op;
}

Op ReadOp(const Workload& w, int tenant, bool json) {
  Op op;
  op.kind = json ? Op::Kind::kTruthJson : Op::Kind::kTruthCsv;
  op.tenant = tenant;
  op.request = GetRequest("/v1/tenants/" + w.names[tenant] + "/truth" +
                          (json ? "?format=json" : ""));
  return op;
}

// Every tenant's reads cycle CSV, CSV, CSV, JSON. JSON rendering costs
// several times CSV, so with a quarter of the reads in JSON the read p50
// sits inside the CSV mode and the p90 inside the JSON mode, never on the
// edge between them.
bool JsonRead(int64_t k, int tenants) { return (k / tenants) % 4 == 3; }

Op ScrapeOp() {
  Op op;
  op.kind = Op::Kind::kMetrics;
  op.request = GetRequest("/metrics");
  return op;
}

bool LoadWorkload(const RunOptions& options, const Plan& plan, Workload* w) {
  w->mixed = options.workload == "serve_mixed";
  w->method = w->mixed ? "ZC" : "D&S";
  w->resync_interval = w->mixed ? 1000 : 0;
  w->tenants = w->mixed ? plan.mixed_tenants : plan.ingest_tenants;
  for (int i = 0; i < w->tenants; ++i) {
    w->names.push_back("tenant" + std::to_string(i));
    w->truth.push_back(ReadTruthCsv(TenantTruthPath(options.dir, i)));
    data::AnswerLogReader reader;
    if (!reader.Open(TenantLogPath(options.dir, i)).ok()) return false;
    std::vector<Row> rows;
    for (;;) {
      data::AnswerLogRecord record;
      bool eof = false;
      if (!reader.Next(&record, &eof).ok()) return false;
      if (eof) break;
      rows.push_back({record.task, record.worker, record.label});
    }
    w->rows.push_back(std::move(rows));
  }

  std::vector<std::vector<Op>> per_tenant(w->tenants);
  std::vector<size_t> cursor(w->tenants, 0);
  // Closed-loop POSTs of `size` rows covering rows [cursor, limit).
  auto chunk = [&](int tenant, size_t limit, int size) {
    for (size_t& at = cursor[tenant]; at < limit;) {
      const size_t end = std::min(limit, at + size);
      per_tenant[tenant].push_back(IngestOp(*w, tenant, at, end));
      at = end;
    }
  };
  auto interleave = [&]() {
    for (size_t k = 0;; ++k) {
      bool any = false;
      for (int t = 0; t < w->tenants; ++t) {
        if (k < per_tenant[t].size()) {
          w->ops.push_back(std::move(per_tenant[t][k]));
          any = true;
        }
      }
      if (!any) break;
    }
    for (auto& list : per_tenant) list.clear();
  };

  if (!w->mixed) {
    for (int t = 0; t < w->tenants; ++t) {
      chunk(t, w->rows[t].size(), plan.ingest_rows_per_post);
    }
    interleave();
    w->preload_end = 1;
    w->measured_end = w->ops.size();
    w->ops.push_back(ScrapeOp());
    for (int k = 0; k < plan.read_back; ++k) {
      w->ops.push_back(ReadOp(*w, k % w->tenants, /*json=*/false));
    }
    return true;
  }

  for (int t = 0; t < w->tenants; ++t) {
    // Staggered preloads put the tenants' periodic resyncs half an
    // interval apart, so they never stall the loop back to back.
    const size_t limit = std::min<size_t>(
        plan.preload_per_tenant + t * (w->resync_interval / 2),
        w->rows[t].size());
    chunk(t, limit, 16);
  }
  interleave();
  w->preload_end = w->ops.size();
  // The open-loop schedule: POSTs, truth reads and scrapes at fixed,
  // evenly spaced due times, merged in due-time order.
  std::vector<Op> schedule;
  const int64_t posts = std::llround(plan.post_rate * plan.mixed_seconds);
  for (int64_t k = 0; k < posts; ++k) {
    const int t = static_cast<int>(k % w->tenants);
    const size_t begin = cursor[t];
    const size_t end =
        std::min(w->rows[t].size(), begin + plan.mixed_rows_per_post);
    if (begin >= end) break;
    cursor[t] = end;
    Op op = IngestOp(*w, t, begin, end);
    op.due_s = k / plan.post_rate;
    schedule.push_back(std::move(op));
  }
  const int64_t reads = std::llround(plan.read_rate * plan.mixed_seconds);
  for (int64_t k = 0; k < reads; ++k) {
    Op op = ReadOp(*w, static_cast<int>(k % w->tenants),
                   JsonRead(k, w->tenants));
    op.due_s = (k + 0.5) / plan.read_rate;
    schedule.push_back(std::move(op));
  }
  for (double at = plan.scrape_period_s / 4; at < plan.mixed_seconds;
       at += plan.scrape_period_s) {
    Op op = ScrapeOp();
    op.due_s = at;
    schedule.push_back(std::move(op));
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Op& a, const Op& b) { return a.due_s < b.due_s; });
  for (Op& op : schedule) w->ops.push_back(std::move(op));
  w->measured_end = w->ops.size();
  w->ops.push_back(ScrapeOp());
  return true;
}

std::vector<std::string> ServerArgs(const Workload& w,
                                    const std::string& data_dir) {
  return {"--port=0",
          "--controller=false",
          "--method=" + w.method,
          "--num_choices=4",
          "--resync_interval=" + std::to_string(w.resync_interval),
          "--data_dir=" + data_dir};
}

// The server config crowdtruth_serve builds from the same flags.
server::ServerConfig ServerConfigFor(const Workload& w,
                                     const std::string& data_dir) {
  server::ServerConfig config;
  config.controller_enabled = false;
  config.tenant_defaults.method = w.method;
  config.tenant_defaults.num_choices = 4;
  config.tenant_defaults.resync_interval = w.resync_interval;
  config.tenant_defaults.data_dir = data_dir;
  return config;
}

std::string MakeDir(const std::string& path) {
  mkdir(path.c_str(), 0755);
  return path;
}

// Sum (over label sets) of a Prometheus sample family, or the first value
// of a series whose labels contain every string in `match`.
double Scrape(const std::string& text, const std::string& name,
              const std::vector<std::string>& match, bool sum) {
  std::istringstream in(text);
  std::string line;
  double total = 0.0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t end = line.find_first_of("{ ");
    if (end == std::string::npos || line.compare(0, end, name) != 0 ||
        end != name.size()) {
      continue;
    }
    bool hit = true;
    for (const std::string& m : match) {
      hit = hit && line.find(m) != std::string::npos;
    }
    if (!hit) continue;
    const double value = std::atof(line.c_str() + line.rfind(' ') + 1);
    if (!sum) return value;
    total += value;
  }
  return total;
}

// Accuracy of a truth response (CSV or JSON) against a tenant's truth.
double ReadAccuracy(const Op& op, const std::map<std::string, int>& truth) {
  int64_t labeled = 0;
  int64_t right = 0;
  auto score = [&](const std::string& task, int label) {
    const auto it = truth.find(task);
    if (it == truth.end()) return;
    ++labeled;
    right += it->second == label ? 1 : 0;
  };
  if (op.kind == Op::Kind::kTruthJson) {
    JsonValue doc;
    if (!crowdtruth::util::ParseJson(op.body, &doc).ok()) return 0.0;
    const JsonValue* tasks = doc.Find("tasks");
    if (tasks == nullptr) return 0.0;
    for (const JsonValue& entry : tasks->items()) {
      const JsonValue* task = entry.Find("task");
      const JsonValue* label = entry.Find("truth");
      if (task == nullptr || label == nullptr) return 0.0;
      score(task->string(), static_cast<int>(label->number()));
    }
  } else {
    std::istringstream in(op.body);
    std::string line;
    std::getline(in, line);
    while (std::getline(in, line)) {
      const size_t comma = line.find(',');
      if (comma == std::string::npos) continue;
      score(line.substr(0, comma), std::atoi(line.c_str() + comma + 1));
    }
  }
  return labeled == 0 ? 0.0 : static_cast<double>(right) / labeled;
}

// The offline reference for one tenant: its answer log loaded with
// LoadCategoricalLog and solved by the registry method, rendered exactly
// as the served `task,truth` CSV.
struct Offline {
  std::string csv;
  double seconds = 0.0;
  bool ok = false;
};

Offline SolveOffline(const std::string& log, const std::string& method,
                     bool flip) {
  Offline out;
  const int64_t t0 = NowNs();
  data::CategoricalDataset dataset;
  if (!data::LoadCategoricalLog(log, "", 4, &dataset).ok()) return out;
  crowdtruth::core::CategoricalResult result =
      crowdtruth::core::MakeCategoricalMethod(method)->Infer(
          dataset, crowdtruth::core::InferenceOptions());
  out.seconds = SecondsSince(t0);
  // Task names in first-appearance order, the order both sides intern.
  std::vector<std::string> names;
  std::map<std::string, int> seen;
  data::AnswerLogReader reader;
  if (!reader.Open(log).ok()) return out;
  for (;;) {
    data::AnswerLogRecord record;
    bool eof = false;
    if (!reader.Next(&record, &eof).ok()) return out;
    if (eof) break;
    if (seen.emplace(record.task, 0).second) names.push_back(record.task);
  }
  if (flip && !result.labels.empty()) {
    result.labels[0] = (result.labels[0] + 1) % 4;
  }
  out.csv = crowdtruth::util::FormatCsvLine({"task", "truth"}) + "\n";
  for (size_t t = 0; t < names.size() && t < result.labels.size(); ++t) {
    out.csv += crowdtruth::util::FormatCsvLine(
                   {names[t], std::to_string(result.labels[t])}) +
               "\n";
  }
  out.ok = names.size() == result.labels.size();
  return out;
}

struct Live {
  double setup_s = 0.0;
  double measured_s = 0.0;
  int64_t acked = 0;           // answers acked with a 200, whole run
  int64_t measured_acked = 0;  // in the measured phase
  std::vector<double> ack_s;
  std::vector<double> read_s;
  std::vector<double> lateness_s;
  std::vector<double> served_accuracy;
  std::vector<double> accuracy;
  std::vector<double> recovery_s;
  double peak_rss_mb = 0.0;
  std::string scrape;
};

bool IsRead(const Op& op) {
  return op.kind == Op::Kind::kTruthCsv || op.kind == Op::Kind::kTruthJson;
}

// Counts non-200 responses as failed operations. Tenants run the reject
// policy, so a 200 acks every row of its request.
void Account(const std::vector<Op>& ops, size_t begin, size_t end,
             Result* result, Live* live) {
  for (size_t i = begin; i < end; ++i) {
    const Op& op = ops[i];
    result->Attempt(1);
    if (op.status != 200) {
      result->CountFailed(1);
      continue;
    }
    if (op.kind == Op::Kind::kIngest) live->acked += op.rows;
  }
}

bool RunLive(const RunOptions& options, const Plan& plan, Workload& w,
             Result* result, Live* live) {
  std::vector<Op>& ops = w.ops;
  // Set-up, repeated: server start to the first ack. The last server
  // started is the one measured.
  ServerProcess server;
  std::vector<double> start_s;
  std::string data_dir;
  for (int k = 0; k < plan.setup_repeats; ++k) {
    server.Stop();
    data_dir = MakeDir(options.dir + "/serve_data" + std::to_string(k));
    std::vector<Op> first = {ops[0]};
    const int64_t t0 = NowNs();
    if (!server.Start(options.server, ServerArgs(w, data_dir)) ||
        !RunOps(server.port(), 1, false, &first)) {
      return false;
    }
    start_s.push_back(SecondsSince(t0));
    ops[0] = std::move(first[0]);
  }
  live->setup_s = Median(start_s);
  Account(ops, 0, 1, result, live);

  // Preload (serve_mixed), counted in set-up.
  std::vector<Op> phase(ops.begin() + 1, ops.begin() + w.preload_end);
  const int64_t p0 = NowNs();
  if (!RunOps(server.port(), plan.connections, false, &phase)) {
    return false;
  }
  live->setup_s += SecondsSince(p0);
  std::move(phase.begin(), phase.end(), ops.begin() + 1);
  Account(ops, 1, w.preload_end, result, live);

  // The measured phase.
  phase.assign(ops.begin() + w.preload_end, ops.begin() + w.measured_end);
  const int64_t m0 = NowNs();
  if (!RunOps(server.port(), plan.connections, w.mixed, &phase)) {
    return false;
  }
  live->measured_s = SecondsSince(m0);
  std::move(phase.begin(), phase.end(), ops.begin() + w.preload_end);
  const int64_t before = live->acked;
  Account(ops, w.preload_end, w.measured_end, result, live);
  live->measured_acked = live->acked - before;

  // One /metrics scrape after the measured phase, then the read-back, one
  // request at a time so a read's latency never includes another's render.
  phase.assign(ops.begin() + w.measured_end, ops.end());
  if (!RunOps(server.port(), 1, false, &phase)) {
    return false;
  }
  std::move(phase.begin(), phase.end(), ops.begin() + w.measured_end);
  Account(ops, w.measured_end, ops.size(), result, live);
  live->scrape = ops[w.measured_end].body;

  for (size_t i = w.preload_end; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const bool measured = i < w.measured_end;
    if (op.kind == Op::Kind::kIngest && measured) {
      live->ack_s.push_back(op.latency_s);
    }
    if (IsRead(op) && (w.mixed ? measured : !measured)) {
      live->read_s.push_back(op.latency_s);
      live->served_accuracy.push_back(ReadAccuracy(op, w.truth[op.tenant]));
    }
    if (measured && w.mixed) live->lateness_s.push_back(op.lateness_s);
  }

  // Oracle: each tenant's resynced truth equals the batch solve of its own
  // answer log, bit for bit; the server counted every acked answer.
  std::vector<Op> resync;
  for (int t = 0; t < w.tenants; ++t) {
    Op op = ReadOp(w, t, false);
    op.request = GetRequest("/v1/tenants/" + w.names[t] + "/truth?resync=1");
    resync.push_back(std::move(op));
  }
  if (!RunOps(server.port(), 1, false, &resync)) return false;
  live->peak_rss_mb = server.PeakRssMb();
  server.Stop();

  result->Attempt(w.tenants + 1);
  for (int t = 0; t < w.tenants; ++t) {
    const Offline offline =
        SolveOffline(data_dir + "/" + w.names[t] + ".log", w.method,
                     options.flip == "truth" && t == 0);
    live->recovery_s.push_back(offline.seconds);
    live->accuracy.push_back(ReadAccuracy(resync[t], w.truth[t]));
    if (resync[t].status != 200 || !offline.ok ||
        resync[t].body != offline.csv) {
      result->Fail(w.names[t] +
                   ": served truth after resync differs from the offline "
                   "batch solve of its answer log");
    }
  }
  double counted = Scrape(live->scrape, "crowdtruth_stream_answers_total",
                          {}, true);
  if (options.flip == "answers") counted += 1;
  if (static_cast<int64_t>(counted) != live->acked) {
    result->Fail("server counted " + std::to_string(counted) +
                 " answers, the client saw " + std::to_string(live->acked) +
                 " acked");
  }
  if (w.mixed && !live->lateness_s.empty() &&
      live->lateness_s.back() > 2.0) {
    result->Fail("the open loop fell behind its schedule by " +
                 std::to_string(live->lateness_s.back()) + " s");
  }
  return true;
}

// Installs the obs set-up crowdtruth_serve always runs with: a process
// metric registry with the process collectors and a flight recorder.
class ServeObs {
 public:
  ServeObs(const ServeObs&) = delete;
  ServeObs& operator=(const ServeObs&) = delete;
  ServeObs() {
    obs::RegisterProcessCollectors(&registry_);
    obs::InstallProcessMetrics(&registry_);
    obs::InstallFlightRecorder(&recorder_);
  }
  ~ServeObs() {
    obs::InstallFlightRecorder(nullptr);
    obs::InstallProcessMetrics(nullptr);
  }
  obs::MetricRegistry& registry() { return registry_; }

 private:
  obs::MetricRegistry registry_;
  obs::FlightRecorder recorder_;
};

const char* HandleSpan(Op::Kind kind) {
  switch (kind) {
    case Op::Kind::kIngest:
      return "server.Handle.ingest";
    case Op::Kind::kMetrics:
      return "server.Handle.metrics";
    default:
      return "server.Handle.truth";
  }
}

// Replays the request sequence through HttpRequestParser and
// StreamingServer::Handle in-process. Returns the wall time.
double ReplayHandle(const Workload& w, const std::string& data_dir,
                    SpanLog& spans) {
  ServeObs obs_setup;
  server::StreamingServer srv(ServerConfigFor(w, data_dir),
                              &obs_setup.registry());
  const int64_t t0 = NowNs();
  for (const Op& op : w.ops) {
    server::HttpRequestParser parser(8 * 1024 * 1024);
    {
      Scoped span(spans, "server.HttpRequestParser");
      parser.Feed(op.request.data(), op.request.size());
    }
    server::HttpResponse response;
    {
      Scoped span(spans, HandleSpan(op.kind));
      response = srv.Handle(parser.request());
    }
    const std::string wire = server::SerializeHttpResponse(response);
    (void)wire;
  }
  return SecondsSince(t0);
}

struct Shadow {
  std::vector<double> swept;
  std::vector<double> backlog;
  int64_t rows = 0;
};

// Drives the layers nested under Handle directly, on the same inputs.
Shadow DriveNested(const Workload& w, const std::string& dir,
                   SpanLog& spans) {
  ServeObs obs_setup;
  Shadow out;
  const server::ServerConfig config =
      ServerConfigFor(w, MakeDir(dir + "/shadow_tenant"));
  const std::string log_dir = MakeDir(dir + "/shadow_log");
  std::vector<std::unique_ptr<server::Tenant>> tenants(w.tenants);
  std::vector<std::unique_ptr<crowdtruth::streaming::CategoricalStreamEngine>>
      engines(w.tenants);
  std::vector<data::AnswerLogWriter> writers(w.tenants);
  std::vector<int64_t> observed(w.tenants, 0);
  for (int t = 0; t < w.tenants; ++t) {
    (void)server::Tenant::Create(w.names[t], config.tenant_defaults,
                                 &tenants[t]);
    crowdtruth::streaming::StreamingOptions streaming;
    streaming.local_sweeps = config.tenant_defaults.local_sweeps;
    streaming.max_dirty_tasks = config.tenant_defaults.max_dirty_tasks;
    streaming.batch.seed = config.tenant_defaults.seed;
    crowdtruth::streaming::EngineConfig engine_config;
    // Resyncs are driven below at the same cadence, with their own span.
    engine_config.resync_interval = 0;
    engine_config.tenant = w.names[t];
    engines[t] = std::make_unique<
        crowdtruth::streaming::CategoricalStreamEngine>(
        crowdtruth::streaming::MakeIncrementalCategorical(w.method, 4,
                                                          streaming),
        engine_config);
    data::AnswerLogHeader header;
    header.num_choices = 4;
    (void)data::AnswerLogWriter::Create(log_dir + "/" + w.names[t] + ".log",
                                        header, &writers[t]);
  }
  // Row offsets per tenant, to recover each POST's rows.
  std::vector<size_t> cursor(w.tenants, 0);
  for (const Op& op : w.ops) {
    const int t = op.tenant;
    if (op.kind == Op::Kind::kMetrics) {
      Scoped span(spans, "obs.PrometheusText");
      (void)obs_setup.registry().PrometheusText();
      continue;
    }
    if (op.kind == Op::Kind::kTruthCsv) {
      Scoped span(spans, "server.TruthCsv");
      (void)tenants[t]->TruthCsv();
      continue;
    }
    if (op.kind == Op::Kind::kTruthJson) {
      Scoped span(spans, "server.TruthJson");
      (void)tenants[t]->TruthJson();
      continue;
    }
    const size_t begin = cursor[t];
    const size_t end = begin + op.rows;
    cursor[t] = end;
    out.rows += op.rows;
    const std::string body = Body(w.rows[t], begin, end);
    server::IngestResult ingest;
    {
      Scoped span(spans, "server.Tenant::Ingest");
      (void)tenants[t]->Ingest(body, &ingest);
    }
    // The tenant validates rows keyed by a per-request (worker, task) pair
    // id; every row of a POST is a distinct pair.
    std::vector<data::RawCategoricalAnswer> records;
    for (int i = 0; i < op.rows; ++i) {
      records.push_back({i, i, w.rows[t][begin + i].label, i + 1});
    }
    data::ValidationReport report;
    {
      Scoped span(spans, "data.ValidateCategoricalRecords");
      (void)data::ValidateCategoricalRecords("ingest", 4, {}, &records,
                                             &report);
    }
    for (size_t i = begin; i < end; ++i) {
      const Row& row = w.rows[t][i];
      {
        Scoped span(spans, "streaming.Observe");
        (void)engines[t]->Observe(row.task, row.worker, row.label);
      }
      out.swept.push_back(engines[t]->method().last_observe_swept());
      out.backlog.push_back(
          static_cast<double>(engines[t]->method().backlog_size()));
      if (w.resync_interval > 0 && ++observed[t] % w.resync_interval == 0) {
        Scoped span(spans, "streaming.Resync");
        engines[t]->Resync();
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const Row& row = w.rows[t][i];
      Scoped span(spans, "data.AnswerLogWriter::Append");
      (void)writers[t].Append(row.task, row.worker, row.label);
    }
  }
  return out;
}

void ReportTraced(const Workload& w, const Live& live,
                  const RunOptions& options, Result* result) {
  // Untraced, traced, untraced: the overhead compares against the mean of
  // the replays on either side, so host drift cancels.
  SpanLog untraced(false);
  SpanLog spans(true);
  double wall_u =
      ReplayHandle(w, MakeDir(options.dir + "/replay_untraced"), untraced);
  const double wall_t =
      ReplayHandle(w, MakeDir(options.dir + "/replay_traced"), spans);
  wall_u = (wall_u + ReplayHandle(w, MakeDir(options.dir + "/replay_after"),
                                  untraced)) /
           2;
  const Shadow shadow = DriveNested(w, options.dir, spans);

  const auto& parse = spans.Get("server.HttpRequestParser");
  const auto& handle_ingest = spans.Get("server.Handle.ingest");
  const auto& handle_truth = spans.Get("server.Handle.truth");
  const auto& handle_metrics = spans.Get("server.Handle.metrics");
  const auto& ingest = spans.Get("server.Tenant::Ingest");
  const auto& validate = spans.Get("data.ValidateCategoricalRecords");
  const auto& observe = spans.Get("streaming.Observe");
  const auto& resync = spans.Get("streaming.Resync");
  const auto& append = spans.Get("data.AnswerLogWriter::Append");
  const auto& truth_csv = spans.Get("server.TruthCsv");
  const auto& truth_json = spans.Get("server.TruthJson");
  const auto& render = spans.Get("obs.PrometheusText");
  const double rows = static_cast<double>(std::max<int64_t>(1, shadow.rows));

  const double handle_ingest_p50_us = Median(handle_ingest.durations_s) * 1e6;
  const double ingest_self =
      ingest.total_s - validate.total_s - observe.total_s - resync.total_s -
      append.total_s;
  const double handle_self =
      handle_ingest.total_s + handle_truth.total_s + handle_metrics.total_s -
      ingest.total_s - truth_csv.total_s - truth_json.total_s -
      render.total_s;
  const double covered = parse.total_s + handle_self + ingest_self +
                         validate.total_s + observe.total_s + resync.total_s +
                         append.total_s + truth_csv.total_s +
                         truth_json.total_s + render.total_s;

  result->Metric("data.validate_us_per_row", validate.total_s * 1e6 / rows,
                 "us");
  result->Metric("data.log_append_us_per_row", append.total_s * 1e6 / rows,
                 "us");
  result->Metric("streaming.observe_us", Mean(observe.durations_s) * 1e6,
                 "us");
  result->Metric("streaming.observe_p99_us",
                 Quantile(observe.durations_s, 0.99) * 1e6, "us");
  result->Metric("streaming.swept_tasks_per_answer", Mean(shadow.swept),
                 "tasks");
  result->Metric("streaming.backlog_tasks", Mean(shadow.backlog), "tasks");
  result->Metric("streaming.resync_ms_p50", Median(resync.durations_s) * 1e3,
                 "ms");
  result->Metric("streaming.resyncs", static_cast<double>(resync.count),
                 "count");
  result->Metric("server.http_parse_us", Mean(parse.durations_s) * 1e6, "us");
  result->Metric("server.handle_ingest_us_p50", handle_ingest_p50_us, "us");
  result->Metric("server.ingest_us_per_row", ingest.total_s * 1e6 / rows, "us");
  result->Metric("server.ingest_self_us_per_row", ingest_self * 1e6 / rows,
                 "us");
  result->Metric("server.transport_us",
                 Median(live.ack_s) * 1e6 - handle_ingest_p50_us, "us");
  result->Metric("server.handle_truth_ms_p50",
                 Median(handle_truth.durations_s) * 1e3, "ms");
  result->Metric("server.truth_csv_ms", Mean(truth_csv.durations_s) * 1e3,
                 "ms");
  result->Metric("server.metrics_render_ms", Mean(render.durations_s) * 1e3,
                 "ms");
  result->Metric("obs.trace_overhead_pct", (wall_t - wall_u) / wall_u * 100.0,
                 "%");
  result->Metric("obs.coverage_pct", covered / wall_t * 100.0, "%");
  result->Metric("gen.lateness_ms_p99", Quantile(live.lateness_s, 0.99) * 1e3,
                 "ms");
  // The live server's own view, for comparison with the in-process
  // figures above.
  const double observe_count = Scrape(
      live.scrape, "crowdtruth_stream_observe_latency_seconds_count", {}, true);
  result->Metric("server.live_ingest_us_p50",
                 Scrape(live.scrape,
                        "crowdtruth_server_request_duration_seconds",
                        {"route=\"ingest\"", "quantile=\"0.5\""}, false) *
                     1e6,
                 "us");
  result->Metric("server.live_truth_ms_p50",
                 Scrape(live.scrape,
                        "crowdtruth_server_request_duration_seconds",
                        {"route=\"truth\"", "quantile=\"0.5\""}, false) *
                     1e3,
                 "ms");
  result->Metric(
      "streaming.live_observe_us",
      observe_count == 0
          ? 0.0
          : Scrape(live.scrape, "crowdtruth_stream_observe_latency_seconds_sum",
                   {}, true) /
                observe_count * 1e6,
      "us");
  result->Metric("streaming.live_observes", observe_count, "count");
  if (!options.spans.empty()) spans.WriteChromeTrace(options.spans);
}

}  // namespace

int RunServe(const RunOptions& options, Result* result) {
  const Plan plan = MakePlan(options);
  Workload w;
  if (!LoadWorkload(options, plan, &w)) {
    std::cerr << "perfbench: cannot read the tenant streams\n";
    return 1;
  }
  Live live;
  if (!RunLive(options, plan, w, result, &live)) {
    std::cerr << "perfbench: the live run failed\n";
    return 1;
  }
  result->Detail("requests", static_cast<int64_t>(w.ops.size()));
  result->Detail("measured_requests",
                 static_cast<int64_t>(w.measured_end - w.preload_end));
  result->Detail("answers_acked", live.acked);
  result->Detail("measured_s", live.measured_s);
  result->Detail("reads", static_cast<int64_t>(live.read_s.size()));
  {
    // Per-second view of the measured phase, for spotting host stalls.
    JsonValue windows = JsonValue::Array();
    std::vector<std::vector<double>> lat;
    std::vector<int64_t> rows;
    for (size_t i = w.preload_end; i < w.measured_end; ++i) {
      const Op& op = w.ops[i];
      if (op.kind != Op::Kind::kIngest) continue;
      const size_t s = static_cast<size_t>(op.done_s);
      if (lat.size() <= s) { lat.resize(s + 1); rows.resize(s + 1, 0); }
      lat[s].push_back(op.latency_s);
      rows[s] += op.rows;
    }
    for (size_t s = 0; s < lat.size(); ++s) {
      JsonValue win = JsonValue::Object();
      win.Set("aps", rows[s]);
      win.Set("p50_ms", Quantile(lat[s], 0.5) * 1e3);
      win.Set("p99_ms", Quantile(lat[s], 0.99) * 1e3);
      windows.Append(std::move(win));
    }
    result->Detail("windows", std::move(windows));
  }

  if (!options.trace) {
    result->Metric("setup_s", live.setup_s, "s");
    result->Metric("throughput_aps", live.measured_acked / live.measured_s,
                   "answers/s");
    result->Metric("ack_p50_ms", RunQuantile(live.ack_s, 0.5) * 1e3, "ms");
    result->Metric("ack_p99_ms", RunQuantile(live.ack_s, 0.99) * 1e3, "ms");
    result->Metric("read_p50_ms", RunQuantile(live.read_s, 0.5) * 1e3, "ms");
    result->Metric("read_p90_ms", RunQuantile(live.read_s, 0.9) * 1e3, "ms");
    result->Metric("accuracy", Mean(live.accuracy), "ratio");
    result->Metric("served_accuracy", Mean(live.served_accuracy), "ratio");
    result->Metric("peak_rss_mb", live.peak_rss_mb, "MiB");
    result->Metric("recovery_s", Median(live.recovery_s), "s");
    if (w.mixed) {
      result->Detail("lateness_ms_p99",
                     Quantile(live.lateness_s, 0.99) * 1e3);
    }
    return 0;
  }
  ReportTraced(w, live, options, result);
  return 0;
}

}  // namespace perfbench
