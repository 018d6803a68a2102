// Tests for the inference trace layer (core/trace.h) and the RunReport
// plumbing in the experiment runner: traced methods must emit exactly one
// event per outer iteration with sane deltas and non-negative phase times,
// and tracing must not perturb the inference itself.
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/methods/catd.h"
#include "core/methods/ds.h"
#include "core/methods/glad.h"
#include "core/trace.h"
#include "experiments/runner.h"
#include "test_util.h"
#include "util/json_writer.h"

namespace crowdtruth::core {
namespace {

// Checks the invariants every traced run must satisfy: one event per
// iteration, 1-based monotone indices, non-negative phase timings, and
// deltas that mirror the result's convergence_trace.
template <typename Result>
void ExpectTraceMatchesResult(const std::vector<IterationEvent>& events,
                              const Result& result) {
  ASSERT_GT(result.iterations, 0);
  ASSERT_EQ(events.size(), static_cast<size_t>(result.iterations));
  ASSERT_EQ(result.convergence_trace.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].iteration, static_cast<int>(i) + 1);
    EXPECT_DOUBLE_EQ(events[i].delta, result.convergence_trace[i]);
    EXPECT_GE(events[i].truth_seconds, 0.0);
    EXPECT_GE(events[i].quality_seconds, 0.0);
  }
}

TEST(TraceTest, GladEmitsOneEventPerIteration) {
  const data::CategoricalDataset dataset =
      testing::PlantedDataset({.num_tasks = 80, .num_workers = 12}, 7);
  CollectingTraceSink sink;
  InferenceOptions options;
  options.trace = &sink;
  Glad glad;
  const CategoricalResult result = glad.Infer(dataset, options);
  ExpectTraceMatchesResult(sink.events(), result);
}

TEST(TraceTest, DawidSkeneEmitsOneEventPerIteration) {
  const data::CategoricalDataset dataset =
      testing::PlantedDataset({.num_tasks = 80, .num_workers = 12}, 7);
  CollectingTraceSink sink;
  InferenceOptions options;
  options.trace = &sink;
  DawidSkene ds;
  const CategoricalResult result = ds.Infer(dataset, options);
  ExpectTraceMatchesResult(sink.events(), result);
}

TEST(TraceTest, NumericMethodEmitsEvents) {
  const data::NumericDataset dataset =
      testing::PlantedNumericDataset(60, 10, 5, {2.0}, 11);
  CollectingTraceSink sink;
  InferenceOptions options;
  options.trace = &sink;
  CatdNumeric catd;
  const NumericResult result = catd.Infer(dataset, options);
  ExpectTraceMatchesResult(sink.events(), result);
}

TEST(TraceTest, TracingDoesNotChangeTheResult) {
  const data::CategoricalDataset dataset =
      testing::PlantedDataset({.num_tasks = 80, .num_workers = 12}, 7);
  DawidSkene ds;
  InferenceOptions options;
  const CategoricalResult untraced = ds.Infer(dataset, options);
  CollectingTraceSink sink;
  options.trace = &sink;
  const CategoricalResult traced = ds.Infer(dataset, options);
  EXPECT_EQ(traced.labels, untraced.labels);
  EXPECT_EQ(traced.iterations, untraced.iterations);
  EXPECT_EQ(traced.convergence_trace, untraced.convergence_trace);
}

TEST(TraceTest, CollectingSinkForwardsToChainedSink) {
  CollectingTraceSink downstream;
  CollectingTraceSink upstream(&downstream);
  IterationEvent event;
  event.iteration = 1;
  event.delta = 0.25;
  upstream.OnIteration(event);
  ASSERT_EQ(upstream.events().size(), 1u);
  ASSERT_EQ(downstream.events().size(), 1u);
  EXPECT_EQ(downstream.events()[0].delta, 0.25);
}

TEST(TraceTest, StreamSinkPrintsIterationAndDelta) {
  std::ostringstream out;
  StreamTraceSink sink(out);
  IterationEvent event;
  event.iteration = 3;
  event.delta = 0.125;
  sink.OnIteration(event);
  const std::string line = out.str();
  EXPECT_NE(line.find("iter 3"), std::string::npos) << line;
  EXPECT_NE(line.find("1.250e-01"), std::string::npos) << line;
}

TEST(RunReportTest, EvaluateCategoricalFillsReport) {
  const data::CategoricalDataset dataset =
      testing::PlantedDataset({.num_tasks = 80, .num_workers = 12}, 7);
  Glad glad;
  InferenceOptions options;
  experiments::RunReport report;
  const auto eval = experiments::EvaluateCategorical(
      glad, dataset, options, /*positive_label=*/0, /*evaluate=*/nullptr,
      &report);

  EXPECT_EQ(report.method, "GLAD");
  EXPECT_EQ(report.task_type, "categorical");
  EXPECT_EQ(report.num_tasks, dataset.num_tasks());
  EXPECT_EQ(report.num_workers, dataset.num_workers());
  EXPECT_EQ(report.num_answers, dataset.num_answers());
  EXPECT_DOUBLE_EQ(report.accuracy, eval.accuracy);
  EXPECT_DOUBLE_EQ(report.f1, eval.f1);
  EXPECT_EQ(report.iterations, eval.iterations);
  EXPECT_EQ(report.converged, eval.converged);
  EXPECT_GT(report.seconds, 0.0);
  ASSERT_EQ(report.events.size(), static_cast<size_t>(report.iterations));
  double truth_total = 0.0;
  double quality_total = 0.0;
  for (const IterationEvent& event : report.events) {
    truth_total += event.truth_seconds;
    quality_total += event.quality_seconds;
  }
  EXPECT_DOUBLE_EQ(report.truth_step_seconds, truth_total);
  EXPECT_DOUBLE_EQ(report.quality_step_seconds, quality_total);
  // Phase time is a subset of the end-to-end wall clock.
  EXPECT_LE(truth_total + quality_total, report.seconds * 1.5 + 0.1);
}

TEST(RunReportTest, RunnerChainsToCallerInstalledSink) {
  const data::CategoricalDataset dataset =
      testing::PlantedDataset({.num_tasks = 80, .num_workers = 12}, 7);
  DawidSkene ds;
  CollectingTraceSink mine;
  InferenceOptions options;
  options.trace = &mine;
  experiments::RunReport report;
  experiments::EvaluateCategorical(ds, dataset, options,
                                   /*positive_label=*/0,
                                   /*evaluate=*/nullptr, &report);
  // The runner's instrumentation must not eat the caller's events.
  ASSERT_FALSE(report.events.empty());
  ASSERT_EQ(mine.events().size(), report.events.size());
  EXPECT_EQ(mine.events().back().delta, report.events.back().delta);
}

TEST(RunReportTest, JsonCarriesMetricsAndTrace) {
  const data::CategoricalDataset dataset =
      testing::PlantedDataset({.num_tasks = 80, .num_workers = 12}, 7);
  DawidSkene ds;
  InferenceOptions options;
  experiments::RunReport report;
  experiments::EvaluateCategorical(ds, dataset, options, /*positive_label=*/0,
                                   /*evaluate=*/nullptr, &report);

  const util::JsonValue json = experiments::RunReportJson(report);
  ASSERT_NE(json.Find("method"), nullptr);
  EXPECT_EQ(json.Find("method")->string(), "D&S");
  EXPECT_EQ(json.Find("accuracy")->number(), report.accuracy);
  EXPECT_EQ(json.Find("iterations")->number(), report.iterations);
  ASSERT_NE(json.Find("truth_step_seconds"), nullptr);
  ASSERT_NE(json.Find("quality_step_seconds"), nullptr);
  ASSERT_NE(json.Find("iterations_trace"), nullptr);
  ASSERT_EQ(json.Find("iterations_trace")->items().size(),
            report.events.size());
  const util::JsonValue& first = json.Find("iterations_trace")->items()[0];
  EXPECT_EQ(first.Find("iteration")->number(), 1.0);
  EXPECT_EQ(first.Find("delta")->number(), report.events[0].delta);

  // The document must survive a serialize/parse round trip.
  util::JsonValue parsed;
  ASSERT_TRUE(util::ParseJson(json.Dump(2), &parsed).ok());
  EXPECT_EQ(parsed.Dump(), json.Dump());

  // Without events the trace array is omitted.
  const util::JsonValue compact =
      experiments::RunReportJson(report, /*include_events=*/false);
  EXPECT_EQ(compact.Find("iterations_trace"), nullptr);
}

TEST(RunReportTest, NumericReportUsesMaeRmse) {
  const data::NumericDataset dataset =
      testing::PlantedNumericDataset(60, 10, 5, {2.0}, 11);
  CatdNumeric catd;
  InferenceOptions options;
  experiments::RunReport report;
  const auto eval = experiments::EvaluateNumeric(
      catd, dataset, options, /*evaluate=*/nullptr, &report);
  EXPECT_EQ(report.task_type, "numeric");
  EXPECT_DOUBLE_EQ(report.mae, eval.mae);
  EXPECT_DOUBLE_EQ(report.rmse, eval.rmse);
  const util::JsonValue json = experiments::RunReportJson(report);
  ASSERT_NE(json.Find("mae"), nullptr);
  ASSERT_NE(json.Find("rmse"), nullptr);
  EXPECT_EQ(json.Find("task_type")->string(), "numeric");
}

TEST(SynchronizedTraceSinkTest, SerializesConcurrentEmitters) {
  CollectingTraceSink collector;
  SynchronizedTraceSink synchronized(&collector);
  constexpr int kThreads = 8;
  constexpr int kEvents = 500;
  std::vector<std::thread> emitters;
  emitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&synchronized, t] {
      for (int i = 0; i < kEvents; ++i) {
        IterationEvent event;
        event.iteration = i + 1;
        event.delta = static_cast<double>(t);
        synchronized.OnIteration(event);
      }
    });
  }
  for (std::thread& emitter : emitters) emitter.join();
  // Every event arrived exactly once; per-thread order is preserved.
  ASSERT_EQ(collector.events().size(),
            static_cast<size_t>(kThreads * kEvents));
  std::vector<int> next(kThreads, 1);
  for (const IterationEvent& event : collector.events()) {
    const int t = static_cast<int>(event.delta);
    EXPECT_EQ(event.iteration, next[t]);
    ++next[t];
  }
}

TEST(SynchronizedTraceSinkTest, NullWrappedSinkIsNoOp) {
  SynchronizedTraceSink synchronized(nullptr);
  IterationEvent event;
  event.iteration = 1;
  synchronized.OnIteration(event);  // Must not crash.
}

}  // namespace
}  // namespace crowdtruth::core
