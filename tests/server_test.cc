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
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "data/answer_log.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "util/json_writer.h"

namespace server = crowdtruth::server;
namespace data = crowdtruth::data;
namespace obs = crowdtruth::obs;
namespace streaming = crowdtruth::streaming;

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
