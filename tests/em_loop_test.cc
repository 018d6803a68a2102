// Unit tests for the shared Algorithm-1 driver (core/em_loop.h): step
// ordering, the three convergence rules, min_iterations, trace recording,
// the delta_needed contract of the measure callback, and the phase clock
// shared by the trace sink and the phase-seconds metrics.
#include "core/em_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/trace.h"
#include "obs/metrics.h"
#include "util/parallel.h"

namespace crowdtruth::core {
namespace {

EmDriver BasicDriver() {
  EmDriver driver;
  driver.max_iterations = 10;
  driver.tolerance = 1e-4;
  driver.num_threads = 1;
  return driver;
}

TEST(RunEmLoopTest, RunsStepsInOrderEachIteration) {
  std::vector<int> calls;
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kQualityStep,
                   [&](const EmContext&) { calls.push_back(0); }});
  steps.push_back({TracePhase::kTruthStep,
                   [&](const EmContext&) { calls.push_back(1); }});

  int iterations = 0;
  const EmLoopStats stats =
      RunEmLoop(BasicDriver(), steps, [&](bool) {
        ++iterations;
        return iterations < 3 ? 1.0 : 0.0;  // Converge on iteration 3.
      });

  EXPECT_EQ(stats.iterations, 3);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(calls, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(RunEmLoopTest, DeltaBelowToleranceStopsTheLoop) {
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kTruthStep, [](const EmContext&) {}});

  double delta = 1.0;
  const EmLoopStats stats = RunEmLoop(BasicDriver(), steps, [&](bool) {
    delta /= 10.0;  // 0.1, 0.01, 0.001, 0.0001, 0.00001 < 1e-4.
    return delta;
  });

  EXPECT_EQ(stats.iterations, 5);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.convergence_trace.size(), 5u);
  EXPECT_DOUBLE_EQ(stats.convergence_trace.front(), 0.1);
}

TEST(RunEmLoopTest, HittingMaxIterationsIsNotConverged) {
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kTruthStep, [](const EmContext&) {}});

  const EmLoopStats stats =
      RunEmLoop(BasicDriver(), steps, [](bool) { return 1.0; });

  EXPECT_EQ(stats.iterations, 10);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.convergence_trace.size(), 10u);
}

TEST(RunEmLoopTest, DeltaIsZeroIgnoresTolerance) {
  EmDriver driver = BasicDriver();
  driver.convergence = EmConvergence::kDeltaIsZero;
  driver.tolerance = 100.0;  // Would stop immediately under the delta rule.
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kTruthStep, [](const EmContext&) {}});

  int iterations = 0;
  const EmLoopStats stats = RunEmLoop(driver, steps, [&](bool) {
    ++iterations;
    return iterations < 4 ? 2.0 : 0.0;
  });

  EXPECT_EQ(stats.iterations, 4);
  EXPECT_TRUE(stats.converged);
}

TEST(RunEmLoopTest, FixedIterationsRunsExactlyMaxIterations) {
  EmDriver driver = BasicDriver();
  driver.convergence = EmConvergence::kFixedIterations;
  driver.max_iterations = 7;
  driver.record_trace = false;
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kTruthStep, [](const EmContext&) {}});

  const EmLoopStats stats =
      RunEmLoop(driver, steps, [](bool) { return 0.0; });

  EXPECT_EQ(stats.iterations, 7);
  EXPECT_FALSE(stats.converged);
  EXPECT_TRUE(stats.convergence_trace.empty());
}

TEST(RunEmLoopTest, MinIterationsDefersConvergence) {
  EmDriver driver = BasicDriver();
  driver.min_iterations = 3;
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kTruthStep, [](const EmContext&) {}});

  const EmLoopStats stats =
      RunEmLoop(driver, steps, [](bool) { return 0.0; });

  EXPECT_EQ(stats.iterations, 3);
  EXPECT_TRUE(stats.converged);
}

TEST(RunEmLoopTest, DeltaNotNeededForUntracedFixedRounds) {
  EmDriver driver = BasicDriver();
  driver.convergence = EmConvergence::kFixedIterations;
  driver.max_iterations = 3;
  driver.record_trace = false;
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kTruthStep, [](const EmContext&) {}});

  RunEmLoop(driver, steps, [](bool delta_needed) {
    EXPECT_FALSE(delta_needed);
    return 0.0;
  });
}

TEST(RunEmLoopTest, DeltaNeededWhenTracing) {
  CollectingTraceSink sink;
  EmDriver driver = BasicDriver();
  driver.convergence = EmConvergence::kFixedIterations;
  driver.max_iterations = 3;
  driver.record_trace = false;
  driver.trace = &sink;
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kQualityStep, [](const EmContext&) {}});
  steps.push_back({TracePhase::kTruthStep, [](const EmContext&) {}});

  int measured = 0;
  RunEmLoop(driver, steps, [&](bool delta_needed) {
    EXPECT_TRUE(delta_needed);
    return 0.5 * ++measured;
  });

  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].iteration, 1);
  EXPECT_DOUBLE_EQ(sink.events()[0].delta, 0.5);
  EXPECT_EQ(sink.events()[2].iteration, 3);
  EXPECT_DOUBLE_EQ(sink.events()[2].delta, 1.5);
}

// One clock feeds both consumers: each phase's time lands in the event of
// the phase that spent it (repeated phases accumulate), and the per-run
// metrics totals are exactly the sums of the per-iteration event times.
TEST(RunEmLoopTest, PhaseClockFeedsTraceAndMetrics) {
  obs::MetricRegistry registry;
  obs::InstallProcessMetrics(&registry);
  CollectingTraceSink sink;
  EmDriver driver = BasicDriver();
  driver.method = "clock";
  driver.convergence = EmConvergence::kFixedIterations;
  driver.max_iterations = 2;
  driver.trace = &sink;
  const auto sleep = [](const EmContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kQualityStep, sleep});
  steps.push_back({TracePhase::kTruthStep, sleep});
  steps.push_back({TracePhase::kTruthStep, sleep});  // phases may repeat
  RunEmLoop(driver, steps, [](bool) { return 0.5; });
  obs::InstallProcessMetrics(nullptr);

  ASSERT_EQ(sink.events().size(), 2u);
  double truth_total = 0.0;
  double quality_total = 0.0;
  for (const IterationEvent& event : sink.events()) {
    EXPECT_GE(event.truth_seconds, 0.004);
    EXPECT_GE(event.quality_seconds, 0.002);
    truth_total += event.truth_seconds;
    quality_total += event.quality_seconds;
  }
  const auto total = [&registry](const char* name) {
    return registry.FindCounterFamily(name)->WithLabels({"clock"}).Value();
  };
  EXPECT_EQ(total("crowdtruth_em_truth_step_seconds_total"), truth_total);
  EXPECT_EQ(total("crowdtruth_em_quality_step_seconds_total"),
            quality_total);
}

TEST(RunEmLoopTest, ContextExposesIterationIndex) {
  std::vector<int> seen;
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kTruthStep, [&](const EmContext& context) {
    seen.push_back(context.iteration());
  }});

  EmDriver driver = BasicDriver();
  driver.convergence = EmConvergence::kFixedIterations;
  driver.max_iterations = 4;
  driver.record_trace = false;
  RunEmLoop(driver, steps, [](bool) { return 0.0; });

  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(RunEmLoopTest, ParallelShardsCoversAllShards) {
  EmDriver driver = BasicDriver();
  driver.num_threads = 4;
  driver.max_iterations = 1;
  driver.convergence = EmConvergence::kFixedIterations;
  driver.record_trace = false;

  std::vector<std::atomic<int>> visits(64);
  std::atomic<bool> bad_slot{false};
  std::vector<EmStep> steps;
  steps.push_back({TracePhase::kTruthStep, [&](const EmContext& context) {
    EXPECT_EQ(context.num_threads(), 4);
    context.ParallelShards(64, [&](int shard, int slot) {
      visits[shard].fetch_add(1);
      if (slot < 0 || slot >= context.num_threads()) bad_slot.store(true);
    });
  }});

  RunEmLoop(driver, steps, [](bool) { return 0.0; });

  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_FALSE(bad_slot.load());
}

TEST(EmDriverTest, FromOptionsCopiesAlgorithmControls) {
  InferenceOptions options;
  options.max_iterations = 42;
  options.tolerance = 0.5;
  options.num_threads = 3;
  CollectingTraceSink sink;
  options.trace = &sink;

  const EmDriver driver = EmDriver::FromOptions(options);
  EXPECT_EQ(driver.max_iterations, 42);
  EXPECT_DOUBLE_EQ(driver.tolerance, 0.5);
  // Explicit requests are honored up to the hardware width — oversubscribing
  // a CPU-bound shard loop only adds scheduler thrash, and results are
  // bit-identical at any width, so the clamp is unobservable in outputs.
  EXPECT_EQ(driver.num_threads, std::min(3, util::DefaultThreads()));
  EXPECT_EQ(driver.trace, &sink);
  EXPECT_EQ(driver.convergence, EmConvergence::kDeltaBelowTolerance);
  EXPECT_EQ(driver.min_iterations, 1);
  EXPECT_TRUE(driver.record_trace);
}

TEST(EmDriverTest, FromOptionsResolvesAutoThreads) {
  InferenceOptions options;
  options.num_threads = 0;  // Auto: DefaultThreads().
  const EmDriver driver = EmDriver::FromOptions(options);
  EXPECT_GE(driver.num_threads, 1);
}

TEST(EmDriverTest, FromOptionsClampsToHardwareWidth) {
  InferenceOptions options;
  options.num_threads = 1 << 20;  // Absurd request: capped, not honored.
  const EmDriver driver = EmDriver::FromOptions(options);
  EXPECT_EQ(driver.num_threads, util::DefaultThreads());
}

}  // namespace
}  // namespace crowdtruth::core
