// Tests for the multi-tenant streaming server core (src/server/server.h),
// driven through the Handle() seam — no sockets, so every test is
// deterministic and sanitizer-friendly. The exceptions are the
// MetricsHttpServerTest round trips, which serve the tenant-less metrics
// server over loopback; the rest of the socket path is covered by
// event_loop_test.cc and the CI e2e script.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "data/answer_log.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "util/csv.h"
#include "util/json_writer.h"
#include "util/parallel.h"

namespace server = crowdtruth::server;
namespace data = crowdtruth::data;
namespace obs = crowdtruth::obs;
namespace streaming = crowdtruth::streaming;
namespace util = crowdtruth::util;

namespace {

server::HttpRequest Get(const std::string& path) {
  server::HttpRequest request;
  request.method = "GET";
  const size_t query = path.find('?');
  request.path = path.substr(0, query);
  if (query != std::string::npos) {
    // Handle() receives the query pre-parsed; split k=v pairs here.
    std::stringstream stream(path.substr(query + 1));
    std::string pair;
    while (std::getline(stream, pair, '&')) {
      const size_t eq = pair.find('=');
      if (eq != std::string::npos) {
        request.query[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
    }
  }
  return request;
}

server::HttpRequest Post(const std::string& path, const std::string& body) {
  server::HttpRequest request = Get(path);
  request.method = "POST";
  request.body = body;
  return request;
}

// A deterministic pseudo-random workload: up to `answers` rows over `tasks`
// tasks, `workers` workers and `choices` labels, seeded so two calls with
// the same arguments produce the same stream. (worker, task) pairs never
// repeat: duplicates would be engine-rejected and complicate the
// accounting the tests assert on.
std::string MakeWorkload(int answers, int tasks, int workers, int choices,
                         unsigned seed) {
  std::string body;
  unsigned state = seed * 2654435761u + 1u;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return state >> 8;
  };
  int made = 0;
  for (int w = 0; w < workers && made < answers; ++w) {
    for (int t = 0; t < tasks && made < answers; ++t) {
      if (next() % 3 == 0) continue;  // sparse coverage
      body += "w" + std::to_string(w) + ",t" + std::to_string(t) + "," +
              std::to_string(next() % static_cast<unsigned>(choices)) + "\n";
      ++made;
    }
  }
  return body;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::InstallProcessMetrics(&registry_); }
  void TearDown() override { obs::InstallProcessMetrics(nullptr); }

  server::ServerConfig Config() {
    server::ServerConfig config;
    config.tenant_defaults.method = "ZC";
    config.tenant_defaults.num_choices = 3;
    config.tenant_defaults.resync_interval = 50;
    return config;
  }

  obs::MetricRegistry registry_;
};

TEST_F(ServerTest, RoutesHealthzAndMetrics) {
  server::StreamingServer srv(Config(), &registry_);
  EXPECT_EQ(srv.Handle(Get("/healthz")).body, "ok\n");
  const server::HttpResponse metrics = srv.Handle(Get("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("crowdtruth_server_requests_total"),
            std::string::npos);
  const server::HttpResponse json = srv.Handle(Get("/metrics.json"));
  EXPECT_NE(json.body.find("crowdtruth_metrics"), std::string::npos);
  EXPECT_EQ(srv.Handle(Get("/nope")).status, 404);
  // The observability routes are read-only.
  const server::HttpResponse post = srv.Handle(Post("/metrics", ""));
  EXPECT_EQ(post.status, 405);
  EXPECT_NE(post.body.find("MethodNotAllowed"), std::string::npos);
  EXPECT_EQ(srv.Handle(Post("/healthz", "")).status, 405);
}

// Sends `request` to the server on 127.0.0.1:`port` and reads the whole
// close-terminated response, pumping the server with RunOnce(0) between
// non-blocking reads the way crowdtruth_stream pumps its metrics server
// from the replay loop. Gives up after five seconds.
std::string HttpRoundTrip(server::StreamingServer* srv, int port,
                          const std::string& request) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    srv->RunOnce(0);
    const ssize_t n = recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) {
      response.append(buffer, static_cast<size_t>(n));
    } else if (n == 0) {
      break;  // Server closed after the response: message complete.
    }
  }
  close(fd);
  return response;
}

// The tenant-less server crowdtruth_stream --metrics_port starts: the
// observability routes over a real socket, with no tenants and no
// controller.
TEST(MetricsHttpServerTest, ServesMetricsHealthzAnd404) {
  obs::MetricRegistry registry;
  registry.AddCounter("test_http_total", "Help.").Increment(5);
  server::ServerConfig config;
  config.port = 0;
  config.controller_enabled = false;
  server::StreamingServer srv(config, &registry);
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_GT(srv.port(), 0);

  const std::string metrics =
      HttpRoundTrip(&srv, srv.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("test_http_total 5\n"), std::string::npos);

  const std::string health =
      HttpRoundTrip(&srv, srv.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string json = HttpRoundTrip(
      &srv, srv.port(), "GET /metrics.json HTTP/1.0\r\n\r\n");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("crowdtruth_metrics"), std::string::npos);

  const std::string missing =
      HttpRoundTrip(&srv, srv.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const std::string post =
      HttpRoundTrip(&srv, srv.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);

  srv.Stop();
  EXPECT_EQ(srv.port(), 0);
}

TEST_F(ServerTest, IngestCreatesTenantAndServesTruth) {
  server::StreamingServer srv(Config(), &registry_);
  const server::HttpResponse ingest = srv.Handle(
      Post("/v1/tenants/alpha/answers", "w1,t1,1\nw2,t1,1\nw3,t1,0\n"));
  ASSERT_EQ(ingest.status, 200);
  EXPECT_NE(ingest.body.find("\"accepted\": 3"), std::string::npos);

  const server::HttpResponse truth =
      srv.Handle(Get("/v1/tenants/alpha/truth?resync=1"));
  ASSERT_EQ(truth.status, 200);
  EXPECT_EQ(truth.content_type, "text/csv");
  EXPECT_EQ(truth.body, "task,truth\nt1,1\n");

  const server::HttpResponse as_json =
      srv.Handle(Get("/v1/tenants/alpha/truth?format=json"));
  EXPECT_NE(as_json.body.find("\"tenant\": \"alpha\""), std::string::npos);

  const server::HttpResponse listing = srv.Handle(Get("/v1/tenants"));
  EXPECT_NE(listing.body.find("\"tenant\": \"alpha\""), std::string::npos);
  EXPECT_NE(listing.body.find("\"method\": \"ZC\""), std::string::npos);
}

TEST_F(ServerTest, TypedRoutingErrors) {
  server::StreamingServer srv(Config(), &registry_);
  // Unknown tenant: 404 NotFound.
  const server::HttpResponse missing =
      srv.Handle(Get("/v1/tenants/nosuch/truth"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("\"error\": \"NotFound\""), std::string::npos);
  // Wrong method on a known verb of an existing tenant: 405.
  ASSERT_EQ(srv.Handle(Post("/v1/tenants/alpha/answers", "w,t,0\n")).status,
            200);
  EXPECT_EQ(srv.Handle(Get("/v1/tenants/alpha/answers")).status, 405);
  EXPECT_EQ(srv.Handle(Post("/v1/tenants/alpha/truth", "")).status, 405);
  // Hostile tenant names: 400 before any filesystem path is formed.
  EXPECT_EQ(srv.Handle(Post("/v1/tenants/ev il/answers", "w,t,0\n")).status,
            400);
  EXPECT_EQ(srv.Handle(Post("/v1/tenants/.dot/answers", "w,t,0\n")).status,
            400);
  // Unknown creation parameters: typed 400s.
  EXPECT_EQ(
      srv.Handle(Post("/v1/tenants/x/answers?method=Nope", "w,t,0\n")).status,
      400);
  EXPECT_EQ(
      srv.Handle(Post("/v1/tenants/x/answers?num_choices=zzz", "w,t,0\n"))
          .status,
      400);
}

TEST_F(ServerTest, MalformedIngestIsTypedUnderReject) {
  server::StreamingServer srv(Config(), &registry_);
  // Parse failure: 400 ParseError.
  server::HttpResponse response =
      srv.Handle(Post("/v1/tenants/a/answers", "w1,t1\n"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("\"error\": \"ParseError\""),
            std::string::npos);
  // Validator finding (duplicate pair in one request): 422 ValidationError.
  response = srv.Handle(Post("/v1/tenants/a/answers", "w1,t1,0\nw1,t1,1\n"));
  EXPECT_EQ(response.status, 422);
  EXPECT_NE(response.body.find("\"error\": \"ValidationError\""),
            std::string::npos);
  // Out-of-range label: 422.
  response = srv.Handle(Post("/v1/tenants/a/answers", "w1,t1,99\n"));
  EXPECT_EQ(response.status, 422);
  // Nothing leaked into the engine across all those rejects.
  response = srv.Handle(Get("/v1/tenants/a/truth?format=json"));
  EXPECT_NE(response.body.find("\"answers\": 0"), std::string::npos);
}

TEST_F(ServerTest, RepairPoliciesDropAndKeepGoing) {
  server::ServerConfig config = Config();
  config.tenant_defaults.bad_record_policy = data::BadRecordPolicy::kDropRow;
  server::StreamingServer srv(config, &registry_);
  const server::HttpResponse response = srv.Handle(Post(
      "/v1/tenants/a/answers",
      "w1,t1,0\nw1,t1,2\nbroken line\nw2,t1,99\nw2,t2,1\nw3,t2,2\n"));
  ASSERT_EQ(response.status, 200);
  // Kept: w1,t1,0 (duplicate keeps the first), w2,t2,1, w3,t2,2.
  EXPECT_NE(response.body.find("\"accepted\": 3"), std::string::npos);
  EXPECT_NE(response.body.find("\"parse_errors\": 1"), std::string::npos);
  EXPECT_NE(response.body.find("\"duplicates\": 1"), std::string::npos);
  EXPECT_NE(response.body.find("\"out_of_range\": 1"), std::string::npos);
}

// The PR-4 corrupt corpus, POSTed raw at a kReject tenant: every file must
// produce a typed 4xx and leave the engine untouched — never a 500, never
// a crash, never a partial apply.
TEST_F(ServerTest, CorruptCorpusYieldsTypedErrorsNotCrashes) {
  const std::string corpus =
      std::string(CROWDTRUTH_SOURCE_DIR) + "/tests/testdata/corrupt";
  const std::vector<std::string> files = {
      "bad_header.csv",        "binary_garbage.csv",
      "blank_lines.csv",       "duplicate_answers.csv",
      "extra_field.csv",       "huge_label.csv",
      "missing_field.csv",     "negative_label.csv",
      "non_integer_label.csv", "unterminated_quote.csv",
      "utf8_bom.csv",          "log_truncated_row.log",
      "log_non_integer_label.log", "snapshot_garbage.json",
  };
  server::StreamingServer srv(Config(), &registry_);
  for (const std::string& file : files) {
    std::ifstream in(corpus + "/" + file, std::ios::binary);
    ASSERT_TRUE(in.good()) << file;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const server::HttpResponse response =
        srv.Handle(Post("/v1/tenants/hardened/answers", buffer.str()));
    EXPECT_GE(response.status, 400) << file;
    EXPECT_LT(response.status, 500) << file;
    EXPECT_NE(response.body.find("\"error\""), std::string::npos) << file;
  }
  // kReject semantics: every body above was refused whole.
  const server::HttpResponse truth =
      srv.Handle(Get("/v1/tenants/hardened/truth?format=json"));
  EXPECT_NE(truth.body.find("\"answers\": 0"), std::string::npos);
}

TEST_F(ServerTest, AdmissionBudgetSheds429WithRetryAfter) {
  server::StreamingServer srv(Config(), &registry_);
  ASSERT_EQ(srv.Handle(Post("/v1/tenants/a/answers", "w1,t1,0\n")).status,
            200);
  server::Tenant* tenant = srv.FindTenant("a");
  ASSERT_NE(tenant, nullptr);
  tenant->GrantTickets(2);

  const server::HttpResponse shed = srv.Handle(
      Post("/v1/tenants/a/answers", "w2,t1,0\nw3,t1,1\nw4,t1,1\n"));
  EXPECT_EQ(shed.status, 429);
  bool has_retry_after = false;
  for (const auto& [name, value] : shed.headers) {
    has_retry_after |= name == "Retry-After" && !value.empty();
  }
  EXPECT_TRUE(has_retry_after);
  EXPECT_EQ(tenant->total_shed(), 3);
  // Shed whole: none of the three answers landed.
  EXPECT_EQ(tenant->engine().stats().answers, 1);

  // A request inside the budget still lands and debits it.
  EXPECT_EQ(
      srv.Handle(Post("/v1/tenants/a/answers", "w2,t1,0\nw3,t1,1\n")).status,
      200);
  EXPECT_EQ(tenant->tickets(), 0);
  // Budget exhausted: even one answer sheds now.
  EXPECT_EQ(srv.Handle(Post("/v1/tenants/a/answers", "w4,t1,1\n")).status,
            429);
  EXPECT_NE(
      registry_.PrometheusText().find("crowdtruth_server_shed_answers_total"),
      std::string::npos);
}

// The headline guarantee: N tenants multiplexed on one server produce
// answer-for-answer the same truth as each tenant replayed alone.
TEST_F(ServerTest, MultiTenantTruthIsBitIdenticalToSoloReplay) {
  server::StreamingServer srv(Config(), &registry_);
  const std::string workload_a = MakeWorkload(120, 20, 12, 3, 7);
  const std::string workload_b = MakeWorkload(90, 15, 9, 3, 99);

  // Interleave the two tenants' traffic in small uneven batches.
  std::istringstream a_stream(workload_a);
  std::istringstream b_stream(workload_b);
  bool more = true;
  while (more) {
    more = false;
    std::string line;
    std::string batch_a;
    for (int i = 0; i < 7 && std::getline(a_stream, line); ++i) {
      batch_a += line + "\n";
    }
    std::string batch_b;
    for (int i = 0; i < 5 && std::getline(b_stream, line); ++i) {
      batch_b += line + "\n";
    }
    if (!batch_a.empty()) {
      ASSERT_EQ(srv.Handle(Post("/v1/tenants/alpha/answers", batch_a)).status,
                200);
      more = true;
    }
    if (!batch_b.empty()) {
      ASSERT_EQ(srv.Handle(Post("/v1/tenants/beta/answers", batch_b)).status,
                200);
      more = true;
    }
  }

  const std::string truth_a =
      srv.Handle(Get("/v1/tenants/alpha/truth?resync=1")).body;
  const std::string truth_b =
      srv.Handle(Get("/v1/tenants/beta/truth?resync=1")).body;

  // Solo replays: one tenant each, whole workload in one request.
  const std::vector<std::pair<std::string, std::string>> replays = {
      {workload_a, truth_a}, {workload_b, truth_b}};
  for (const auto& [workload, expected] : replays) {
    server::StreamingServer solo(Config(), &registry_);
    ASSERT_EQ(solo.Handle(Post("/v1/tenants/solo/answers", workload)).status,
              200);
    EXPECT_EQ(solo.Handle(Get("/v1/tenants/solo/truth?resync=1")).body,
              expected);
  }
}

// Durability: the tenant's answer log replayed through a fresh engine
// reproduces the tenant's served truth bit-identically.
TEST_F(ServerTest, AnswerLogReplayMatchesServedTruth) {
  server::ServerConfig config = Config();
  config.tenant_defaults.data_dir = ::testing::TempDir();
  server::StreamingServer srv(config, &registry_);
  const std::string workload = MakeWorkload(80, 12, 8, 3, 5);
  ASSERT_EQ(srv.Handle(Post("/v1/tenants/durable/answers", workload)).status,
            200);
  const std::string served =
      srv.Handle(Get("/v1/tenants/durable/truth?resync=1")).body;

  data::AnswerLogReader reader;
  ASSERT_TRUE(reader.Open(srv.FindTenant("durable")->log_path()).ok());
  // Mirror the tenant's engine construction (same solver seed and sweep
  // knobs) so the replay is the same computation.
  streaming::StreamingOptions streaming_options;
  streaming_options.batch.seed = config.tenant_defaults.seed;
  streaming::EngineConfig engine_config;
  engine_config.resync_interval = config.tenant_defaults.resync_interval;
  streaming::CategoricalStreamEngine replay(
      streaming::MakeIncrementalCategorical("ZC", 3, streaming_options),
      engine_config);
  data::AnswerLogRecord record;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(reader.Next(&record, &eof).ok());
    if (eof) break;
    ASSERT_TRUE(replay.Observe(record.task, record.worker, record.label).ok());
  }
  replay.Resync();
  std::string replayed = "task,truth\n";
  for (int t = 0; t < replay.method().num_tasks(); ++t) {
    replayed += replay.tasks().Name(t) + "," +
                std::to_string(replay.method().Estimate(t)) + "\n";
  }
  EXPECT_EQ(replayed, served);
}

TEST_F(ServerTest, SnapshotRestoresBitIdentically) {
  server::StreamingServer srv(Config(), &registry_);
  const std::string workload = MakeWorkload(60, 10, 6, 3, 11);
  ASSERT_EQ(srv.Handle(Post("/v1/tenants/snap/answers", workload)).status,
            200);
  const server::HttpResponse snapshot =
      srv.Handle(Post("/v1/tenants/snap/snapshot", ""));
  ASSERT_EQ(snapshot.status, 200);

  crowdtruth::util::JsonValue parsed;
  ASSERT_TRUE(crowdtruth::util::ParseJson(snapshot.body, &parsed).ok());
  streaming::CategoricalStreamEngine restored(
      streaming::MakeIncrementalCategorical("ZC", 3, {}), {});
  ASSERT_TRUE(restored.Restore(parsed).ok());

  server::Tenant* tenant = srv.FindTenant("snap");
  ASSERT_EQ(restored.stats().answers, tenant->engine().stats().answers);
  for (int t = 0; t < restored.method().num_tasks(); ++t) {
    EXPECT_EQ(restored.method().Estimate(t),
              tenant->engine().method().Estimate(t));
  }
}

TEST_F(ServerTest, TenantLabelCardinalityCapCollapsesToOther) {
  registry_.SetLabelCardinalityCap("tenant", 2);
  server::StreamingServer srv(Config(), &registry_);
  for (const std::string name : {"one", "two", "three", "four"}) {
    ASSERT_EQ(
        srv.Handle(Post("/v1/tenants/" + name + "/answers", "w1,t1,0\n"))
            .status,
        200);
  }
  const std::string text = registry_.PrometheusText();
  EXPECT_NE(text.find("tenant=\"one\""), std::string::npos);
  EXPECT_NE(text.find("tenant=\"two\""), std::string::npos);
  EXPECT_NE(text.find("tenant=\"other\""), std::string::npos);
  EXPECT_EQ(text.find("tenant=\"three\""), std::string::npos);
  EXPECT_EQ(text.find("tenant=\"four\""), std::string::npos);
  EXPECT_EQ(registry_.LabelCardinality("tenant"), 2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Replays a tenant's answer log through a fresh engine built the way
// Tenant::Create builds one from `options`, resyncs, and renders the
// `task,truth` CSV the server serves.
std::string ReplayLogTruth(const std::string& log_path,
                           const server::TenantOptions& options) {
  data::AnswerLogReader reader;
  EXPECT_TRUE(reader.Open(log_path).ok());
  streaming::StreamingOptions streaming_options;
  streaming_options.local_sweeps = options.local_sweeps;
  streaming_options.max_dirty_tasks = options.max_dirty_tasks;
  streaming_options.batch.seed = options.seed;
  streaming::EngineConfig engine_config;
  engine_config.resync_interval = options.resync_interval;
  streaming::CategoricalStreamEngine replay(
      streaming::MakeIncrementalCategorical(options.method,
                                            options.num_choices,
                                            streaming_options),
      engine_config);
  data::AnswerLogRecord record;
  bool eof = false;
  while (true) {
    EXPECT_TRUE(reader.Next(&record, &eof).ok());
    if (eof) break;
    EXPECT_TRUE(
        replay.Observe(record.task, record.worker, record.label).ok());
  }
  replay.Resync();
  std::string truth = "task,truth\n";
  for (int t = 0; t < replay.method().num_tasks(); ++t) {
    truth += util::FormatCsvLine(
                 {replay.tasks().Name(t),
                  std::to_string(replay.method().Estimate(t))}) +
             "\n";
  }
  return truth;
}

// Holds the process's background solver until destroyed, so a periodic
// resync launched meanwhile stays queued behind it.
class SolverBlocker {
 public:
  SolverBlocker()
      : released_(release_.get_future().share()),
        job_(util::SubmitBackground(
            [released = released_] { released.wait(); })) {}
  ~SolverBlocker() {
    release_.set_value();
    util::WaitBackground(*job_);
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> released_;
  std::shared_ptr<util::BackgroundJob> job_;
};

// ?resync=1 while a periodic resync is still solving in the background
// withdraws that solve and serves the batch truth of the whole log.
TEST_F(ServerTest, ForcedResyncWithdrawsAPendingSolve) {
  server::ServerConfig config = Config();  // resync_interval 50: lag 5
  config.tenant_defaults.data_dir = ::testing::TempDir();
  server::StreamingServer srv(config, &registry_);
  std::string served;
  {
    const SolverBlocker blocker;
    ASSERT_EQ(srv.Handle(Post("/v1/tenants/pending/answers",
                              MakeWorkload(52, 12, 8, 3, 9)))
                  .status,
              200);
    server::Tenant* tenant = srv.FindTenant("pending");
    ASSERT_EQ(tenant->engine().stats().answers, 52);
    ASSERT_TRUE(tenant->engine().resync_pending());
    served = srv.Handle(Get("/v1/tenants/pending/truth?resync=1")).body;
    EXPECT_FALSE(tenant->engine().resync_pending());
    EXPECT_EQ(tenant->engine().stats().resyncs, 1);
  }
  server::TenantOptions options = config.tenant_defaults;
  options.resync_interval = 0;
  EXPECT_EQ(served,
            ReplayLogTruth(srv.FindTenant("pending")->log_path(), options));
}

// Tearing a tenant down with a periodic solve pending withdraws the solve:
// a queued one never runs, a running one is waited for, and nothing the
// solve holds outlives the tenant.
TEST_F(ServerTest, TeardownWithAPendingSolveReturnsCleanly) {
  const std::string workload = MakeWorkload(52, 12, 8, 3, 13);
  {
    const SolverBlocker blocker;
    server::StreamingServer srv(Config(), &registry_);
    ASSERT_EQ(srv.Handle(Post("/v1/tenants/queued/answers", workload)).status,
              200);
    ASSERT_TRUE(srv.FindTenant("queued")->engine().resync_pending());
  }
  server::StreamingServer srv(Config(), &registry_);
  ASSERT_EQ(srv.Handle(Post("/v1/tenants/racing/answers", workload)).status,
            200);
  EXPECT_TRUE(srv.FindTenant("racing")->engine().resync_pending());
}

// A label outside int is a parse error: never wrapped into a valid label
// (4294967297 -> 1) nor saturated into an out-of-range finding.
TEST_F(ServerTest, OversizedLabelsAreParseErrorsNotWrapped) {
  server::ServerConfig config = Config();
  config.tenant_defaults.num_choices = 4;
  config.tenant_defaults.data_dir = ::testing::TempDir();
  server::StreamingServer srv(config, &registry_);
  const std::vector<std::string> oversized = {
      "4294967297", "-4294967295", "99999999999999999999"};
  for (const std::string& label : oversized) {
    const server::HttpResponse response =
        srv.Handle(Post("/v1/tenants/wide/answers", "w1,t1," + label + "\n"));
    EXPECT_EQ(response.status, 400) << label;
    EXPECT_NE(response.body.find("\"error\": \"ParseError\""),
              std::string::npos)
        << label << ": " << response.body;
  }
  server::Tenant* wide = srv.FindTenant("wide");
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->answers_seen(), 0);
  EXPECT_EQ(ReadFile(wide->log_path()), "crowdtruth_log,v1,categorical,4\n");

  // Under a repair policy each one is a parse_errors drop.
  const server::HttpResponse repaired = srv.Handle(Post(
      "/v1/tenants/wide_drop/answers?on_bad_record=drop",
      "w1,t1,4294967297\nw2,t2,-4294967295\nw3,t3,99999999999999999999\n"
      "w4,t4,1\n"));
  ASSERT_EQ(repaired.status, 200);
  EXPECT_NE(repaired.body.find("\"accepted\": 1"), std::string::npos);
  EXPECT_NE(repaired.body.find("\"dropped\": 3"), std::string::npos);
  EXPECT_NE(repaired.body.find("\"out_of_range\": 0"), std::string::npos);
  EXPECT_NE(repaired.body.find("\"parse_errors\": 3"), std::string::npos);
  EXPECT_EQ(ReadFile(srv.FindTenant("wide_drop")->log_path()),
            "crowdtruth_log,v1,categorical,4\nt4,w4,1\n");
}

// A reject-policy request that hits a duplicate of an earlier request's
// (worker, task) pair fails with 400 after its earlier rows were applied;
// the group commit still logs exactly those rows, so replaying the log
// keeps reproducing the served truth.
TEST_F(ServerTest, RejectedRequestLogsExactlyItsAppliedRows) {
  server::ServerConfig config = Config();
  config.tenant_defaults.data_dir = ::testing::TempDir();
  server::StreamingServer srv(config, &registry_);
  ASSERT_EQ(srv.Handle(Post("/v1/tenants/group/answers",
                            "w1,t1,0\nw2,t1,1\n"))
                .status,
            200);
  const std::string log_path = srv.FindTenant("group")->log_path();
  const std::string before = ReadFile(log_path);

  const server::HttpResponse response =
      srv.Handle(Post("/v1/tenants/group/answers",
                      "w3,t2,1\n\"w,4\",t2,2\nw1,t1,2\nw5,t3,0\n"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("\"error\": \"InvalidArgument\""),
            std::string::npos)
      << response.body;
  EXPECT_EQ(ReadFile(log_path), before + "t2,w3,1\nt2,\"w,4\",2\n");
  EXPECT_EQ(srv.FindTenant("group")->answers_seen(), 4);

  const std::string served =
      srv.Handle(Get("/v1/tenants/group/truth?resync=1")).body;
  EXPECT_EQ(ReplayLogTruth(log_path, config.tenant_defaults), served);
}

// --- Differential references -------------------------------------------
// Test-local copies of the row-table ingest and truth rendering that the
// one-pass Tenant code replaced. The tenant must match them byte for byte.

std::vector<std::string> ReferenceSplitLines(const std::string& body) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    std::string line = body.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(std::move(line));
    if (end == body.size()) break;
    start = end + 1;
  }
  return lines;
}

std::string ReferenceResultJson(const server::IngestResult& result) {
  util::JsonValue root = util::JsonValue::Object();
  root.Set("accepted", result.accepted);
  root.Set("dropped", result.dropped);
  root.Set("duplicates", result.duplicates);
  root.Set("out_of_range", result.out_of_range);
  root.Set("parse_errors", result.parse_errors);
  return root.Dump(0) + "\n";
}

// Lines owned by a vector, fields by ParseCsvLine, labels through an
// unchecked strtol cast, (worker, task) interned through a concatenated
// key, and one log Append per accepted row.
util::Status ReferenceIngest(const std::string& body,
                             data::BadRecordPolicy policy,
                             streaming::CategoricalStreamEngine* engine,
                             data::AnswerLogWriter* log,
                             server::IngestResult* result) {
  const bool reject = policy == data::BadRecordPolicy::kReject;
  const std::vector<std::string> lines = ReferenceSplitLines(body);
  std::vector<data::RawCategoricalAnswer> records;
  std::vector<std::pair<std::string, std::string>> id_strings;
  std::unordered_map<std::string, int> scratch;
  auto intern = [&](const std::string& worker, const std::string& task) {
    const std::string key = worker + "\x1f" + task;
    const auto it = scratch.find(key);
    if (it != scratch.end()) return it->second;
    const int id = static_cast<int>(id_strings.size());
    scratch.emplace(key, id);
    id_strings.emplace_back(worker, task);
    return id;
  };
  int64_t row_number = 0;
  for (const std::string& line : lines) {
    ++row_number;
    const std::vector<std::string> fields = util::ParseCsvLine(line);
    util::Status parse_error;
    if (fields.size() != 3) {
      parse_error = util::Status::ParseError(
          "ingest row " + std::to_string(row_number) + ": expected "
          "worker,task,label, got " + std::to_string(fields.size()) +
          " fields");
    } else if (fields[0].empty() || fields[1].empty()) {
      parse_error = util::Status::ParseError(
          "ingest row " + std::to_string(row_number) +
          ": empty worker or task id");
    }
    long label = 0;
    if (parse_error.ok()) {
      char* end = nullptr;
      label = std::strtol(fields[2].c_str(), &end, 10);
      if (end == fields[2].c_str() || *end != '\0') {
        parse_error = util::Status::ParseError(
            "ingest row " + std::to_string(row_number) + ": label \"" +
            fields[2] + "\" is not an integer");
      }
    }
    if (!parse_error.ok()) {
      if (reject) return parse_error;
      ++result->parse_errors;
      ++result->dropped;
      continue;
    }
    data::RawCategoricalAnswer record;
    record.row = row_number;
    const int pair_id = intern(fields[0], fields[1]);
    record.task = pair_id;
    record.worker = pair_id;
    record.label = static_cast<data::LabelId>(label);
    records.push_back(record);
  }
  data::ValidationOptions validation;
  validation.policy = policy;
  data::ValidationReport report;
  const size_t before_validation = records.size();
  util::Status status = data::ValidateCategoricalRecords(
      "ingest", engine->method().num_choices(), validation, &records,
      &report);
  if (!status.ok()) return status;
  result->duplicates += report.duplicate_answers;
  result->out_of_range += report.out_of_range_labels;
  result->dropped +=
      static_cast<int64_t>(before_validation - records.size());
  for (const data::RawCategoricalAnswer& record : records) {
    const auto& [worker, task] = id_strings[record.task];
    status = engine->Observe(task, worker, record.label);
    if (!status.ok()) {
      if (reject) return status;
      if (status.message().find("duplicate") != std::string::npos) {
        ++result->duplicates;
      }
      ++result->dropped;
      continue;
    }
    ++result->accepted;
    status = log->Append(task, worker, record.label);
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

data::LabelId ReferenceShardedEstimate(server::Tenant& tenant, int gid) {
  auto& coordinator = tenant.coordinator();
  const int owner = coordinator.TaskOwner(gid);
  if (owner < 0) return 0;
  return coordinator.engine(owner).method().Estimate(
      coordinator.TaskLocal(gid));
}

std::string ReferenceTruthCsv(server::Tenant& tenant) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"task", "truth"});
  if (tenant.sharded()) {
    auto& coordinator = tenant.coordinator();
    for (int gid = 0; gid < coordinator.global_num_tasks(); ++gid) {
      rows.push_back({coordinator.tasks().Name(gid),
                      std::to_string(ReferenceShardedEstimate(tenant, gid))});
    }
  } else {
    const auto& method = tenant.engine().method();
    for (int t = 0; t < method.num_tasks(); ++t) {
      rows.push_back({tenant.engine().tasks().Name(t),
                      std::to_string(method.Estimate(t))});
    }
  }
  std::string out;
  for (const auto& row : rows) out += util::FormatCsvLine(row) + "\n";
  return out;
}

std::string ReferenceTruthJson(server::Tenant& tenant) {
  util::JsonValue root = util::JsonValue::Object();
  root.Set("tenant", tenant.name());
  root.Set("method", tenant.method_name());
  root.Set("answers", tenant.answers_seen());
  util::JsonValue tasks = util::JsonValue::Array();
  if (tenant.sharded()) {
    auto& coordinator = tenant.coordinator();
    int64_t resyncs = 0;
    for (int s = 0; s < coordinator.shard_count(); ++s) {
      resyncs += coordinator.engine(s).stats().resyncs;
    }
    root.Set("resyncs", resyncs);
    root.Set("shards", coordinator.shard_count());
    root.Set("barriers", coordinator.barriers_run());
    root.Set("num_tasks", coordinator.global_num_tasks());
    root.Set("num_workers", coordinator.global_num_workers());
    for (int gid = 0; gid < coordinator.global_num_tasks(); ++gid) {
      util::JsonValue entry = util::JsonValue::Object();
      entry.Set("task", coordinator.tasks().Name(gid));
      entry.Set("truth", static_cast<int64_t>(
                             ReferenceShardedEstimate(tenant, gid)));
      tasks.Append(std::move(entry));
    }
  } else {
    const auto& method = tenant.engine().method();
    root.Set("resyncs", tenant.engine().stats().resyncs);
    root.Set("num_tasks", method.num_tasks());
    root.Set("num_workers", method.num_workers());
    for (int t = 0; t < method.num_tasks(); ++t) {
      util::JsonValue entry = util::JsonValue::Object();
      entry.Set("task", tenant.engine().tasks().Name(t));
      entry.Set("truth", static_cast<int64_t>(method.Estimate(t)));
      tasks.Append(std::move(entry));
    }
  }
  root.Set("tasks", std::move(tasks));
  return root.Dump(2) + "\n";
}

// A tenant (with an answer log) and the reference path (its own engine
// and log), fed the same request sequence.
class IngestDifferential {
 public:
  IngestDifferential(const std::string& name, data::BadRecordPolicy policy)
      : policy_(policy) {
    server::TenantOptions options;
    options.method = "ZC";
    options.num_choices = 3;
    options.resync_interval = 7;
    options.bad_record_policy = policy;
    options.data_dir = ::testing::TempDir();
    EXPECT_TRUE(server::Tenant::Create(name, options, &tenant_).ok());
    streaming::StreamingOptions streaming_options;
    streaming_options.local_sweeps = options.local_sweeps;
    streaming_options.max_dirty_tasks = options.max_dirty_tasks;
    streaming_options.batch.seed = options.seed;
    streaming::EngineConfig engine_config;
    engine_config.resync_interval = options.resync_interval;
    engine_ = std::make_unique<streaming::CategoricalStreamEngine>(
        streaming::MakeIncrementalCategorical("ZC", 3, streaming_options),
        engine_config);
    reference_log_path_ =
        ::testing::TempDir() + "/" + name + "_reference.log";
    data::AnswerLogHeader header;
    header.num_choices = 3;
    EXPECT_TRUE(data::AnswerLogWriter::Create(reference_log_path_, header,
                                              &reference_log_)
                    .ok());
  }

  // Sends `body` down both paths; the status, the response JSON and the
  // log bytes must agree.
  void Send(const std::string& body) {
    server::IngestResult got;
    server::IngestResult want;
    const util::Status got_status = tenant_->Ingest(body, &got);
    const util::Status want_status = ReferenceIngest(
        body, policy_, engine_.get(), &reference_log_, &want);
    const std::string context = ::testing::PrintToString(body);
    EXPECT_EQ(got_status.code(), want_status.code()) << context;
    EXPECT_EQ(got_status.message(), want_status.message()) << context;
    EXPECT_EQ(got.ToJson(), ReferenceResultJson(want)) << context;
    EXPECT_EQ(ReadFile(tenant_->log_path()), ReadFile(reference_log_path_))
        << context;
  }

  // Both engines observed the same answers, so they serve the same truth.
  void ExpectSameTruth() {
    std::string reference = "task,truth\n";
    for (int t = 0; t < engine_->method().num_tasks(); ++t) {
      reference += util::FormatCsvLine(
                       {engine_->tasks().Name(t),
                        std::to_string(engine_->method().Estimate(t))}) +
                   "\n";
    }
    EXPECT_EQ(tenant_->TruthCsv(), reference);
  }

 private:
  data::BadRecordPolicy policy_;
  std::unique_ptr<server::Tenant> tenant_;
  std::unique_ptr<streaming::CategoricalStreamEngine> engine_;
  std::string reference_log_path_;
  data::AnswerLogWriter reference_log_;
};

// Hand-picked bodies for the framing and label corners the one-pass
// parser special-cases, in an order that also produces cross-request
// duplicates. Labels outside int are left out: there the paths differ on
// purpose (OversizedLabelsAreParseErrorsNotWrapped).
const std::vector<std::string>& CornerBodies() {
  static const std::vector<std::string> bodies = {
      "w1,t1,1\r\nw2,t1,2\r\n",
      "w3,t\r2,1\n",
      "w3,\"t,3\",0\nw\"\"4,t3,1\n\"w\"\"5\",\"t,3\",2\n",
      "\n\nw6,t4,1\n\n\r\nw7,t4,0\n",
      "w8,t5,2",
      "w9,t6\nw9,t7,1\n",
      "w9,t6,1,extra\nw10,t7,1\n",
      ",t7,1\nw11,t7,1\n",
      "w12,,1\nw13,t7,1\n",
      ",,\n",
      "w14,t8, 2\nw15,t8,+2\n",
      "w16,t8,2 \n",
      "w17,t8,0x1\n",
      "w18,t8,\n",
      "w19,t8,-1\n",
      "w20,t9,1\nw1,t1,0\nw21,t9,2\n",
      "w22,t10,1\nw22,t10,2\n",
      "w23,t11,3\n",
      "\r\r\nw24,t12,1\r\r\n",
      "w25,\"t13\"x,1\n",
      "\"w26,t14,1\n",
      "w27,\"t\r15\",1\r\n",
      "w28,t16,1\r",
      std::string("w29,t17,2\0x\n", 12),
      "\r\n\r\n",
      "",
  };
  return bodies;
}

// Seeded random bodies: rows of ids that need quoting, labels in and out
// of strtol's accept set, and mutations (a field dropped or added, a
// stray \r or quote) on a small id space, so duplicates within and across
// requests are common.
std::string RandomBody(std::mt19937* rng) {
  auto pick = [rng](const std::vector<std::string>& options) {
    return options[(*rng)() % options.size()];
  };
  static const std::vector<std::string> workers = {
      "w1", "w2", "w3", "w\"4", "w,5", "w\\6", ""};
  static const std::vector<std::string> tasks = {
      "t1", "t2", "t,3", "t\x01", "t\xc3\xa9", "t\"6", ""};
  static const std::vector<std::string> labels = {
      "0", "1", "2", "3", "-1", " 2", "+2", "2 ", "0x1", "", "1\r", "02"};
  auto encode = [rng](const std::string& field) {
    if (field.find_first_of(",\"") == std::string::npos && (*rng)() % 4) {
      return field;
    }
    std::string quoted = "\"";
    for (const char c : field) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    return quoted + "\"";
  };
  std::string body;
  const int rows = static_cast<int>((*rng)() % 6);
  for (int r = 0; r < rows; ++r) {
    std::string row = encode(pick(workers)) + "," + encode(pick(tasks)) +
                      "," + encode(pick(labels));
    switch ((*rng)() % 12) {
      case 0:
        row.erase(row.rfind(','));
        break;
      case 1:
        row += ",x";
        break;
      case 2:
        row.insert((*rng)() % (row.size() + 1), "\r");
        break;
      case 3:
        row.insert((*rng)() % (row.size() + 1), "\"");
        break;
      case 4:
        body += "\n";
        break;
      default:
        break;
    }
    body += row;
    if (r + 1 < rows || (*rng)() % 3) body += (*rng)() % 2 ? "\n" : "\r\n";
  }
  return body;
}

TEST(IngestDifferentialTest, MatchesRowTableParseUnderEveryPolicy) {
  const std::vector<std::pair<std::string, data::BadRecordPolicy>> policies =
      {{"diff_reject", data::BadRecordPolicy::kReject},
       {"diff_drop", data::BadRecordPolicy::kDropRow},
       {"diff_dedupe", data::BadRecordPolicy::kDedupeKeepLast}};
  for (const auto& [name, policy] : policies) {
    SCOPED_TRACE(name);
    IngestDifferential differential(name, policy);
    for (const std::string& body : CornerBodies()) differential.Send(body);
    std::mt19937 rng(20260417);
    for (int i = 0; i < 400; ++i) differential.Send(RandomBody(&rng));
    differential.ExpectSameTruth();
  }
}

// TruthCsv / TruthJson against the row-table and DOM renderings, for a
// single-engine and a 4-shard tenant, with task ids that need CSV quoting
// and JSON escaping.
TEST(TruthBodyTest, MatchesRowTableAndDomReferences) {
  const std::string awkward_ids =
      "w1,\"t\"\"quote\",1\n"
      "w1,t\\back,2\n"
      "w1,t\x01" "ctl,0\n"
      "w1,t\ttab,1\n"
      "w1,t\xc3\xa9,1\n"
      "w2,\"t,comma\",2\n"
      "w2,\"t\rcr\",1\n"
      "w2,t\\back,0\n";
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    server::TenantOptions options;
    options.method = "ZC";
    options.num_choices = 3;
    options.shards = shards;
    options.resync_interval = 9;
    std::unique_ptr<server::Tenant> tenant;
    ASSERT_TRUE(server::Tenant::Create("reads", options, &tenant).ok());
    // An empty tenant renders an empty task list.
    EXPECT_EQ(tenant->TruthCsv(), ReferenceTruthCsv(*tenant));
    EXPECT_EQ(tenant->TruthJson(), ReferenceTruthJson(*tenant));

    server::IngestResult result;
    ASSERT_TRUE(tenant->Ingest(awkward_ids, &result).ok());
    ASSERT_TRUE(
        tenant->Ingest(MakeWorkload(150, 30, 10, 3, 17), &result).ok());
    EXPECT_EQ(tenant->TruthCsv(), ReferenceTruthCsv(*tenant));
    EXPECT_EQ(tenant->TruthJson(), ReferenceTruthJson(*tenant));
    EXPECT_NE(tenant->TruthCsv().find("\"t\"\"quote\",", 0),
              std::string::npos);
    EXPECT_NE(tenant->TruthJson().find("\"t\\u0001ctl\""),
              std::string::npos);

    tenant->ForceResync();
    EXPECT_EQ(tenant->TruthCsv(), ReferenceTruthCsv(*tenant));
    EXPECT_EQ(tenant->TruthJson(), ReferenceTruthJson(*tenant));
  }
}

TEST(ValidTenantNameTest, AcceptsSafeRejectsHostile) {
  EXPECT_TRUE(server::ValidTenantName("alpha"));
  EXPECT_TRUE(server::ValidTenantName("a-b_c.9"));
  EXPECT_FALSE(server::ValidTenantName(""));
  EXPECT_FALSE(server::ValidTenantName(".hidden"));
  EXPECT_FALSE(server::ValidTenantName("has space"));
  EXPECT_FALSE(server::ValidTenantName("slash/es"));
  EXPECT_FALSE(server::ValidTenantName(std::string(65, 'a')));
}

}  // namespace
