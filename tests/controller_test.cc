// Tests for the adaptive controller: the pure probe / retune state
// machines, and the integrated Tick loop reading real engine metrics out
// of a registry.
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "server/controller.h"
#include "server/tenant.h"

namespace server = crowdtruth::server;
namespace obs = crowdtruth::obs;

namespace {

server::AdaptiveControllerConfig TestConfig() {
  server::AdaptiveControllerConfig config;
  config.target_latency_seconds = 100e-6;
  config.initial_tickets = 1000;
  config.min_tickets = 100;
  config.max_tickets = 10000;
  config.probe_factor = 2.0;
  config.backoff_factor = 0.5;
  config.backlog_high_watermark = 10;
  config.min_resync_interval = 25;
  config.max_dirty_tasks_limit = 128;
  return config;
}

server::TenantSignals Signals(double latency, int64_t backlog = 0) {
  server::TenantSignals signals;
  signals.mean_observe_latency_seconds = latency;
  signals.backlog_tasks = backlog;
  return signals;
}

// Signals with digest-derived tail quantiles attached. With TestConfig()
// (target 100us, p99_target_factor 5) the tail budget is 500us.
server::TenantSignals TailSignals(double latency, double p99,
                                  int64_t backlog = 0) {
  server::TenantSignals signals = Signals(latency, backlog);
  signals.p50_observe_latency_seconds = latency;
  signals.p90_observe_latency_seconds = (latency + p99) / 2.0;
  signals.p99_observe_latency_seconds = p99;
  return signals;
}

TEST(ProbeStepTest, HealthyLatencyProbesUp) {
  const auto config = TestConfig();
  const server::ProbeDecision decision = server::ProbeStep(
      server::ProbeState::kSteady, 1000, Signals(50e-6), config);
  EXPECT_EQ(decision.state, server::ProbeState::kProbing);
  EXPECT_EQ(decision.tickets, 2000);
}

TEST(ProbeStepTest, RegressionBacksOffMultiplicatively) {
  const auto config = TestConfig();
  const server::ProbeDecision decision = server::ProbeStep(
      server::ProbeState::kProbing, 2000, Signals(500e-6), config);
  EXPECT_EQ(decision.state, server::ProbeState::kBackoff);
  EXPECT_EQ(decision.tickets, 1000);
}

TEST(ProbeStepTest, BudgetClampsToConfiguredRange) {
  const auto config = TestConfig();
  const server::ProbeDecision ceiling = server::ProbeStep(
      server::ProbeState::kProbing, 9000, Signals(10e-6), config);
  EXPECT_EQ(ceiling.tickets, config.max_tickets);
  const server::ProbeDecision floor = server::ProbeStep(
      server::ProbeState::kBackoff, 150, Signals(900e-6), config);
  EXPECT_EQ(floor.tickets, config.min_tickets);
}

TEST(ProbeStepTest, IdleIntervalHoldsBudget) {
  const auto config = TestConfig();
  server::TenantSignals idle;  // mean latency < 0: no samples
  const server::ProbeDecision held = server::ProbeStep(
      server::ProbeState::kProbing, 1234, idle, config);
  EXPECT_EQ(held.tickets, 1234);
  EXPECT_EQ(held.state, server::ProbeState::kProbing);
  // An idle tenant in backoff has served its penalty; it returns to
  // steady so traffic resuming is probed afresh.
  const server::ProbeDecision recovered = server::ProbeStep(
      server::ProbeState::kBackoff, 500, idle, config);
  EXPECT_EQ(recovered.state, server::ProbeState::kSteady);
}

TEST(ProbeStepTest, FullCycleProbeRegressBackoffRecover) {
  const auto config = TestConfig();
  server::ProbeState state = server::ProbeState::kSteady;
  int64_t tickets = config.initial_tickets;
  // Two healthy intervals: 1000 -> 2000 -> 4000.
  for (int i = 0; i < 2; ++i) {
    const auto decision =
        server::ProbeStep(state, tickets, Signals(50e-6), config);
    state = decision.state;
    tickets = decision.tickets;
  }
  EXPECT_EQ(tickets, 4000);
  EXPECT_EQ(state, server::ProbeState::kProbing);
  // Regression: halve and mark backoff.
  auto decision = server::ProbeStep(state, tickets, Signals(1e-3), config);
  EXPECT_EQ(decision.state, server::ProbeState::kBackoff);
  EXPECT_EQ(decision.tickets, 2000);
  // Healthy again: probing resumes immediately from the reduced budget.
  decision = server::ProbeStep(decision.state, decision.tickets,
                               Signals(20e-6), config);
  EXPECT_EQ(decision.state, server::ProbeState::kProbing);
  EXPECT_EQ(decision.tickets, 4000);
}

TEST(ProbeStepTest, TailPressureVetoesProbeDespiteHealthyMean) {
  const auto config = TestConfig();
  // Mean well under target, but the digest p99 blows the 5x tail budget:
  // the probe is vetoed and the budget backs off.
  const server::ProbeDecision decision = server::ProbeStep(
      server::ProbeState::kSteady, 1000, TailSignals(50e-6, 1e-3), config);
  EXPECT_EQ(decision.state, server::ProbeState::kBackoff);
  EXPECT_EQ(decision.tickets, 500);
}

TEST(ProbeStepTest, TailWithinBudgetStillProbes) {
  const auto config = TestConfig();
  const server::ProbeDecision decision = server::ProbeStep(
      server::ProbeState::kSteady, 1000, TailSignals(50e-6, 400e-6), config);
  EXPECT_EQ(decision.state, server::ProbeState::kProbing);
  EXPECT_EQ(decision.tickets, 2000);
}

TEST(ProbeStepTest, MissingDigestReproducesPreDigestBehavior) {
  // p99 < 0 (no digest, or an empty one) must leave every decision exactly
  // as it was before tail steering existed.
  const auto config = TestConfig();
  server::TenantSignals signals = Signals(50e-6);
  ASSERT_LT(signals.p99_observe_latency_seconds, 0.0);
  const server::ProbeDecision decision = server::ProbeStep(
      server::ProbeState::kSteady, 1000, signals, config);
  EXPECT_EQ(decision.state, server::ProbeState::kProbing);
  EXPECT_EQ(decision.tickets, 2000);
}

TEST(ProbeStepTest, DisabledFactorIgnoresTail) {
  auto config = TestConfig();
  config.p99_target_factor = 0.0;
  const server::ProbeDecision decision = server::ProbeStep(
      server::ProbeState::kSteady, 1000, TailSignals(50e-6, 10.0), config);
  EXPECT_EQ(decision.state, server::ProbeState::kProbing);
}

TEST(RetuneStepTest, BacklogPressureTightensKnobs) {
  const auto config = TestConfig();
  const server::RetuneDecision decision = server::RetuneStep(
      /*resync_interval=*/1000, /*max_dirty_tasks=*/32,
      /*baseline_resync_interval=*/1000, /*baseline_max_dirty_tasks=*/32,
      Signals(50e-6, /*backlog=*/100), config);
  EXPECT_TRUE(decision.changed);
  EXPECT_EQ(decision.resync_interval, 500);
  EXPECT_EQ(decision.max_dirty_tasks, 64);
}

TEST(RetuneStepTest, KnobsClampAtConfiguredLimits) {
  const auto config = TestConfig();
  const server::RetuneDecision decision = server::RetuneStep(
      30, 100, 1000, 32, Signals(50e-6, 100), config);
  EXPECT_EQ(decision.resync_interval, config.min_resync_interval);
  EXPECT_EQ(decision.max_dirty_tasks, config.max_dirty_tasks_limit);
}

TEST(RetuneStepTest, DrainedBacklogRelaxesTowardBaseline) {
  const auto config = TestConfig();
  server::RetuneDecision decision = server::RetuneStep(
      250, 128, /*baseline_resync_interval=*/1000,
      /*baseline_max_dirty_tasks=*/32, Signals(50e-6, 0), config);
  EXPECT_TRUE(decision.changed);
  EXPECT_EQ(decision.resync_interval, 500);
  EXPECT_EQ(decision.max_dirty_tasks, 64);
  // Relaxation converges exactly onto the baseline, never past it.
  decision = server::RetuneStep(800, 40, 1000, 32, Signals(50e-6, 0),
                                config);
  EXPECT_EQ(decision.resync_interval, 1000);
  EXPECT_EQ(decision.max_dirty_tasks, 32);
}

TEST(RetuneStepTest, DrainedBacklogRestoresResyncsOff) {
  // resync_interval=0 is the operator turning periodic resyncs off.
  // Backlog pressure still forces a cadence on...
  const auto config = TestConfig();
  server::RetuneDecision decision = server::RetuneStep(
      0, 32, /*baseline_resync_interval=*/0, /*baseline_max_dirty_tasks=*/32,
      Signals(50e-6, /*backlog=*/100), config);
  EXPECT_EQ(decision.resync_interval, config.min_resync_interval);
  // ...a moderate backlog holds it...
  decision = server::RetuneStep(decision.resync_interval,
                                decision.max_dirty_tasks, 0, 32,
                                Signals(50e-6, /*backlog=*/5), config);
  EXPECT_FALSE(decision.changed);
  // ...a blown tail keeps it on even with the backlog drained...
  decision = server::RetuneStep(decision.resync_interval,
                                decision.max_dirty_tasks, 0, 32,
                                TailSignals(50e-6, 1e-3, /*backlog=*/0),
                                config);
  EXPECT_EQ(decision.resync_interval, config.min_resync_interval);
  // ...and once the backlog drains with a healthy tail, it is off again.
  decision = server::RetuneStep(decision.resync_interval,
                                decision.max_dirty_tasks, 0, 32,
                                TailSignals(50e-6, 200e-6, /*backlog=*/0),
                                config);
  EXPECT_TRUE(decision.changed);
  EXPECT_EQ(decision.resync_interval, 0);
  // Off and healthy stays off.
  decision = server::RetuneStep(0, 32, 0, 32, Signals(50e-6, 0), config);
  EXPECT_FALSE(decision.changed);
  EXPECT_EQ(decision.resync_interval, 0);
}

TEST(RetuneStepTest, ModerateBacklogHolds) {
  const auto config = TestConfig();
  const server::RetuneDecision decision = server::RetuneStep(
      500, 64, 1000, 32, Signals(50e-6, /*backlog=*/5), config);
  EXPECT_FALSE(decision.changed);
}

TEST(RetuneStepTest, TailPressureTightensWithZeroBacklog) {
  // The digest sees what the backlog gauge cannot: sweeps keep up on
  // average but individual Observes stall. Tail pressure alone tightens.
  const auto config = TestConfig();
  const server::RetuneDecision decision = server::RetuneStep(
      1000, 32, 1000, 32, TailSignals(50e-6, 1e-3, /*backlog=*/0), config);
  EXPECT_TRUE(decision.changed);
  EXPECT_EQ(decision.resync_interval, 500);
  EXPECT_EQ(decision.max_dirty_tasks, 64);
}

TEST(RetuneStepTest, TailPressureBlocksRelaxation) {
  // Drained backlog would normally relax toward the baseline; a blown p99
  // keeps the knobs tight instead.
  const auto config = TestConfig();
  const server::RetuneDecision decision = server::RetuneStep(
      250, 128, 1000, 32, TailSignals(50e-6, 1e-3, /*backlog=*/0), config);
  EXPECT_EQ(decision.resync_interval, 125);
  EXPECT_EQ(decision.max_dirty_tasks, 128);  // already at the limit

  // The moment the tail recovers, relaxation resumes.
  const server::RetuneDecision relaxed = server::RetuneStep(
      250, 128, 1000, 32, TailSignals(50e-6, 200e-6, /*backlog=*/0), config);
  EXPECT_EQ(relaxed.resync_interval, 500);
  EXPECT_EQ(relaxed.max_dirty_tasks, 64);
}

// Integration: a controller reading real engine series out of a registry
// and applying its decisions to a real tenant.
class ControllerIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::InstallProcessMetrics(&registry_);
    server::TenantOptions options;
    options.method = "MV";
    options.num_choices = 2;
    options.resync_interval = 1000;
    options.max_dirty_tasks = 32;
    ASSERT_TRUE(server::Tenant::Create("t0", options, &tenant_).ok());
  }
  void TearDown() override { obs::InstallProcessMetrics(nullptr); }

  obs::MetricRegistry registry_;
  std::unique_ptr<server::Tenant> tenant_;
};

TEST_F(ControllerIntegrationTest, TickGrantsTicketsAndExportsGauges) {
  auto config = TestConfig();
  // A target no real Observe approaches, so the probe direction is
  // deterministic even under sanitizer slowdowns.
  config.target_latency_seconds = 0.5;
  server::AdaptiveController controller(config, &registry_);
  // Give the engine observable traffic so its metric series exist.
  server::IngestResult result;
  ASSERT_TRUE(tenant_->Ingest("w1,t1,1\nw2,t1,0\nw1,t2,1\n", &result).ok());
  ASSERT_EQ(result.accepted, 3);

  controller.Tick({tenant_.get()});
  // Fast Observes (microseconds) on the first sampled interval: the
  // controller probes the budget above its seed.
  EXPECT_GT(tenant_->tickets(), 0);
  EXPECT_EQ(controller.probe_state("t0"), server::ProbeState::kProbing);

  const std::string text = registry_.PrometheusText();
  EXPECT_NE(text.find("crowdtruth_server_admission_tickets{tenant=\"t0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("crowdtruth_server_resync_interval{tenant=\"t0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("crowdtruth_server_controller_ticks_total 1"),
            std::string::npos);
}

TEST_F(ControllerIntegrationTest, RetunesEngineUnderSyntheticBacklog) {
  server::AdaptiveController controller(TestConfig(), &registry_);
  server::IngestResult result;
  ASSERT_TRUE(tenant_->Ingest("w1,t1,1\n", &result).ok());
  controller.Tick({tenant_.get()});  // seeds baselines
  const int before = tenant_->resync_interval();

  // Force the backlog gauge over the watermark: the controller reads the
  // registry, not the engine, so a synthetic value exercises the loop.
  registry_
      .FindGaugeFamily("crowdtruth_stream_backlog_tasks")
      ->WithLabels({"MV", "t0"})
      .Set(1000.0);
  controller.Tick({tenant_.get()});
  EXPECT_LT(tenant_->resync_interval(), before);
  EXPECT_GT(tenant_->max_dirty_tasks(), 32);

  // Backlog drained: knobs relax back toward the baseline over ticks.
  registry_
      .FindGaugeFamily("crowdtruth_stream_backlog_tasks")
      ->WithLabels({"MV", "t0"})
      .Set(0.0);
  for (int i = 0; i < 16; ++i) controller.Tick({tenant_.get()});
  EXPECT_EQ(tenant_->resync_interval(), before);
  EXPECT_EQ(tenant_->max_dirty_tasks(), 32);
}

TEST_F(ControllerIntegrationTest, DigestTailDrivesRetuneAndQuantileGauges) {
  auto config = TestConfig();
  config.target_latency_seconds = 0.5;  // keep the mean path healthy
  server::AdaptiveController controller(config, &registry_);
  server::IngestResult result;
  ASSERT_TRUE(tenant_->Ingest("w1,t1,1\n", &result).ok());
  controller.Tick({tenant_.get()});  // seeds baselines
  const int before = tenant_->resync_interval();

  // Poison the tenant's observe-latency summary with stalls far past the
  // 5 x 0.5s tail budget. The same summary also drives the mean, which
  // reads a regression too, but only the tail pressure can explain a
  // retune: the backlog gauge stays at zero.
  obs::Digest& digest =
      registry_
          .AddDigestFamily("crowdtruth_stream_observe_latency_seconds",
                           "", {"method", "tenant"}, obs::DigestOptions())
          .WithLabels({"MV", "t0"});
  for (int i = 0; i < 200; ++i) digest.Observe(10.0);
  controller.Tick({tenant_.get()});
  EXPECT_LT(tenant_->resync_interval(), before);

  // The quantiles the controller steered on are re-exported as gauges.
  const std::string text = registry_.PrometheusText();
  EXPECT_NE(
      text.find("crowdtruth_server_observe_latency_quantile_seconds{"
                "tenant=\"t0\",quantile=\"0.99\"}"),
      std::string::npos);
}

// A tenant admitted past the registry's tenant-label cap feeds the shared
// tenant="other" series. The controller steers it on those, instead of
// reading it as idle because no series carries its name.
TEST_F(ControllerIntegrationTest, TenantPastTheLabelCapSteersOnOther) {
  registry_.SetLabelCardinalityCap("tenant", 1);
  server::TenantOptions options;
  options.method = "MV";
  options.num_choices = 2;
  std::unique_ptr<server::Tenant> past_cap;
  ASSERT_TRUE(server::Tenant::Create("t1", options, &past_cap).ok());
  auto config = TestConfig();
  config.target_latency_seconds = 0.5;
  server::AdaptiveController controller(config, &registry_);
  server::IngestResult result;
  ASSERT_TRUE(tenant_->Ingest("w1,t1,1\nw2,t1,0\n", &result).ok());
  ASSERT_TRUE(past_cap->Ingest("w1,t1,1\nw2,t1,0\n", &result).ok());
  ASSERT_NE(registry_.PrometheusText().find("tenant=\"other\""),
            std::string::npos);

  controller.Tick({tenant_.get(), past_cap.get()});
  EXPECT_EQ(controller.probe_state("t0"), server::ProbeState::kProbing);
  EXPECT_EQ(controller.probe_state("t1"), server::ProbeState::kProbing);
  EXPECT_GT(past_cap->tickets(), config.initial_tickets);
}

TEST_F(ControllerIntegrationTest, NullRegistryStillGrantsTickets) {
  server::AdaptiveController controller(TestConfig(), nullptr);
  controller.Tick({tenant_.get()});
  EXPECT_EQ(tenant_->tickets(), TestConfig().initial_tickets);
}

}  // namespace
