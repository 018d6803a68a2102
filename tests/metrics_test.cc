// Tests for the metric implementations (paper §6.1.2 and §6.2): Accuracy,
// F1, MAE/RMSE, consistency, and worker statistics.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/classification.h"
#include "metrics/consistency.h"
#include "metrics/numeric.h"
#include "metrics/worker_stats.h"
#include "test_util.h"

namespace crowdtruth::metrics {
namespace {

using testing::kF;
using testing::kT;

TEST(AccuracyTest, PerfectPrediction) {
  const data::CategoricalDataset dataset = testing::Table2Dataset();
  const std::vector<data::LabelId> predicted = {kT, kF, kF, kF, kF, kT};
  EXPECT_DOUBLE_EQ(Accuracy(dataset, predicted), 1.0);
}

TEST(AccuracyTest, PartiallyCorrect) {
  const data::CategoricalDataset dataset = testing::Table2Dataset();
  // MV on Table 2 gets t6 wrong and (say) t1 wrong: 4/6.
  const std::vector<data::LabelId> predicted = {kF, kF, kF, kF, kF, kF};
  EXPECT_NEAR(Accuracy(dataset, predicted), 4.0 / 6.0, 1e-12);
}

TEST(AccuracyTest, IgnoresUnlabeledTasks) {
  data::CategoricalDatasetBuilder builder(3, 1, 2);
  builder.AddAnswer(0, 0, kT);
  builder.AddAnswer(1, 0, kT);
  builder.AddAnswer(2, 0, kT);
  builder.SetTruth(0, kT);
  const data::CategoricalDataset dataset = std::move(builder).Build();
  EXPECT_DOUBLE_EQ(Accuracy(dataset, {kT, kF, kF}), 1.0);
}

TEST(F1ScoreTest, HandComputedCase) {
  const data::CategoricalDataset dataset = testing::Table2Dataset();
  // Predict T for t1 and t2; truth has T for t1 and t6.
  const std::vector<data::LabelId> predicted = {kT, kT, kF, kF, kF, kF};
  const PrecisionRecallF1 result = F1Score(dataset, predicted, kT);
  EXPECT_DOUBLE_EQ(result.precision, 0.5);  // 1 of 2 predicted T correct.
  EXPECT_DOUBLE_EQ(result.recall, 0.5);     // 1 of 2 actual T found.
  EXPECT_DOUBLE_EQ(result.f1, 0.5);
}

TEST(F1ScoreTest, NoPositivePredictionsGivesZero) {
  const data::CategoricalDataset dataset = testing::Table2Dataset();
  const std::vector<data::LabelId> predicted(6, kF);
  const PrecisionRecallF1 result = F1Score(dataset, predicted, kT);
  EXPECT_DOUBLE_EQ(result.f1, 0.0);
}

TEST(F1ScoreTest, NaiveAllNegativeTrapFromPaper) {
  // §6.1.2: predicting everything as the majority class can score high
  // Accuracy but zero F1 — the reason the paper reports F1 on D_Product.
  data::CategoricalDatasetBuilder builder(10, 1, 2);
  for (int t = 0; t < 10; ++t) {
    builder.AddAnswer(t, 0, kF);
    builder.SetTruth(t, t == 0 ? kT : kF);
  }
  const data::CategoricalDataset dataset = std::move(builder).Build();
  const std::vector<data::LabelId> predicted(10, kF);
  EXPECT_DOUBLE_EQ(Accuracy(dataset, predicted), 0.9);
  EXPECT_DOUBLE_EQ(F1Score(dataset, predicted, kT).f1, 0.0);
}

TEST(NumericMetricsTest, HandComputedErrors) {
  data::NumericDatasetBuilder builder(2, 1);
  builder.AddAnswer(0, 0, 0.0);
  builder.AddAnswer(1, 0, 0.0);
  builder.SetTruth(0, 1.0);
  builder.SetTruth(1, -3.0);
  const data::NumericDataset dataset = std::move(builder).Build();
  const std::vector<double> predicted = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(dataset, predicted), 2.0);
  EXPECT_DOUBLE_EQ(RootMeanSquaredError(dataset, predicted),
                   std::sqrt(5.0));
}

TEST(NumericMetricsTest, RmseAtLeastMae) {
  const data::NumericDataset dataset =
      testing::PlantedNumericDataset(50, 8, 4, {10.0}, 3);
  std::vector<double> predicted(dataset.num_tasks(), 0.0);
  EXPECT_GE(RootMeanSquaredError(dataset, predicted),
            MeanAbsoluteError(dataset, predicted));
}

TEST(ConsistencyTest, UnanimousAnswersAreFullyConsistent) {
  data::CategoricalDatasetBuilder builder(5, 3, 2);
  for (int t = 0; t < 5; ++t) {
    for (int w = 0; w < 3; ++w) builder.AddAnswer(t, w, kT);
  }
  EXPECT_DOUBLE_EQ(CategoricalConsistency(std::move(builder).Build()), 0.0);
}

TEST(ConsistencyTest, MaximallySplitAnswersGiveOne) {
  data::CategoricalDatasetBuilder builder(4, 2, 2);
  for (int t = 0; t < 4; ++t) {
    builder.AddAnswer(t, 0, kT);
    builder.AddAnswer(t, 1, kF);
  }
  EXPECT_NEAR(CategoricalConsistency(std::move(builder).Build()), 1.0,
              1e-12);
}

TEST(ConsistencyTest, BaseIsNumberOfChoices) {
  // Uniform answers over 4 choices give entropy 1 in base 4.
  data::CategoricalDatasetBuilder builder(1, 4, 4);
  for (int w = 0; w < 4; ++w) builder.AddAnswer(0, w, w);
  EXPECT_NEAR(CategoricalConsistency(std::move(builder).Build()), 1.0,
              1e-12);
}

TEST(ConsistencyTest, Table2Value) {
  // Table 2: t1 is a 1-1 split (entropy 1); t2..t6 are 2-1 splits
  // (entropy ~0.9183); average = (1 + 5 * 0.91830) / 6.
  const double c = CategoricalConsistency(testing::Table2Dataset());
  EXPECT_NEAR(c, (1.0 + 5.0 * 0.9182958) / 6.0, 1e-6);
}

TEST(ConsistencyTest, NumericZeroWhenIdentical) {
  data::NumericDatasetBuilder builder(3, 2);
  for (int t = 0; t < 3; ++t) {
    builder.AddAnswer(t, 0, 7.0);
    builder.AddAnswer(t, 1, 7.0);
  }
  EXPECT_DOUBLE_EQ(NumericConsistency(std::move(builder).Build()), 0.0);
}

TEST(ConsistencyTest, NumericDeviationFromMedian) {
  data::NumericDatasetBuilder builder(1, 3);
  builder.AddAnswer(0, 0, 0.0);
  builder.AddAnswer(0, 1, 10.0);
  builder.AddAnswer(0, 2, 20.0);
  // Median 10; deviations {-10, 0, 10}; RMS = sqrt(200/3).
  EXPECT_NEAR(NumericConsistency(std::move(builder).Build()),
              std::sqrt(200.0 / 3.0), 1e-9);
}

TEST(WorkerStatsTest, RedundancyCounts) {
  const data::CategoricalDataset dataset = testing::Table2Dataset();
  const std::vector<int> redundancy = WorkerRedundancy(dataset);
  EXPECT_EQ(redundancy, (std::vector<int>{6, 5, 6}));
}

TEST(WorkerStatsTest, WorkerAccuracy) {
  const data::CategoricalDataset dataset = testing::Table2Dataset();
  const std::vector<double> accuracy = WorkerAccuracy(dataset);
  // w1: correct on t4, t5 => 2/6. w2: correct on t2, t3 => 2/5.
  // w3: correct on all six tasks.
  EXPECT_NEAR(accuracy[0], 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(accuracy[1], 2.0 / 5.0, 1e-12);
  EXPECT_NEAR(accuracy[2], 1.0, 1e-12);
}

TEST(WorkerStatsTest, WorkerRmseAndNanForUnlabeled) {
  data::NumericDatasetBuilder builder(2, 2);
  builder.AddAnswer(0, 0, 4.0);
  builder.AddAnswer(1, 1, 9.0);
  builder.SetTruth(0, 1.0);  // Task 1 unlabeled.
  const data::NumericDataset dataset = std::move(builder).Build();
  const std::vector<double> rmse = WorkerRmse(dataset);
  EXPECT_NEAR(rmse[0], 3.0, 1e-12);
  EXPECT_TRUE(std::isnan(rmse[1]));
  EXPECT_NEAR(FiniteMean(rmse), 3.0, 1e-12);
}

TEST(WorkerStatsTest, BucketValuesClampsAndCounts) {
  const Histogram histogram =
      BucketValues({0.05, 0.15, 0.95, 1.5, -0.3, std::nan("")}, 0.0, 1.0, 10);
  ASSERT_EQ(histogram.counts.size(), 10u);
  EXPECT_DOUBLE_EQ(histogram.counts[0], 2.0);  // 0.05 and clamped -0.3.
  EXPECT_DOUBLE_EQ(histogram.counts[1], 1.0);  // 0.15.
  EXPECT_DOUBLE_EQ(histogram.counts[9], 2.0);  // 0.95 and clamped 1.5.
  double total = 0.0;
  for (double c : histogram.counts) total += c;
  EXPECT_DOUBLE_EQ(total, 5.0);  // NaN skipped.
}

}  // namespace
}  // namespace crowdtruth::metrics

// ---------------------------------------------------------------------------
// Process-wide metric registry (src/obs): instruments, families, exposition
// formats, collection hooks and concurrency (run under TSan in CI).

#include <atomic>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/resource_sampler.h"

namespace crowdtruth::obs {
namespace {

TEST(MetricRegistryTest, CounterGaugeBasics) {
  MetricRegistry registry;
  Counter& counter = registry.AddCounter("test_events_total", "Events.");
  counter.Increment();
  counter.Increment(2.5);
  EXPECT_DOUBLE_EQ(counter.Value(), 3.5);
  counter.AdvanceTo(10.0);
  EXPECT_DOUBLE_EQ(counter.Value(), 10.0);
  counter.AdvanceTo(5.0);  // Never moves backwards.
  EXPECT_DOUBLE_EQ(counter.Value(), 10.0);

  Gauge& gauge = registry.AddGauge("test_depth", "Depth.");
  gauge.Set(7.0);
  gauge.Add(-2.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 5.0);
}

TEST(MetricRegistryTest, RegistrationIsIdempotent) {
  MetricRegistry registry;
  Counter& a = registry.AddCounter("test_total", "Help.");
  Counter& b = registry.AddCounter("test_total", "Help.");
  EXPECT_EQ(&a, &b);
  Family<Counter>& fa =
      registry.AddCounterFamily("test_labeled_total", "Help.", {"method"});
  Family<Counter>& fb =
      registry.AddCounterFamily("test_labeled_total", "Help.", {"method"});
  EXPECT_EQ(&fa, &fb);
  EXPECT_EQ(&fa.WithLabels({"ZC"}), &fb.WithLabels({"ZC"}));
  EXPECT_NE(&fa.WithLabels({"ZC"}), &fa.WithLabels({"D&S"}));
}

TEST(MetricRegistryTest, HistogramBucketsAndNonFiniteSamples) {
  MetricRegistry registry;
  Histogram& histogram = registry.AddHistogram(
      "test_hist", "Help.", HistogramBuckets::LogScale(1.0, 10.0, 3));
  // Bounds: 1, 10, 100. le is an inclusive upper bound.
  histogram.Observe(1.0);
  histogram.Observe(5.0);
  histogram.Observe(1000.0);
  histogram.Observe(std::nan(""));  // +Inf bucket, no sum contribution.
  const Histogram::Snapshot snap = histogram.Snap();
  ASSERT_EQ(snap.cumulative.size(), 4u);
  EXPECT_EQ(snap.cumulative[0], 1);  // le=1
  EXPECT_EQ(snap.cumulative[1], 2);  // le=10
  EXPECT_EQ(snap.cumulative[2], 2);  // le=100
  EXPECT_EQ(snap.cumulative[3], 4);  // +Inf
  EXPECT_EQ(snap.count, 4);
  EXPECT_DOUBLE_EQ(snap.sum, 1006.0);
}

TEST(MetricRegistryTest, PrometheusExpositionFormat) {
  MetricRegistry registry;
  registry.AddCounter("test_events_total", "Events observed.").Increment(3);
  registry.AddCounterFamily("test_runs_total", "Runs.", {"method"})
      .WithLabels({"D&S"})
      .Increment();
  registry
      .AddHistogram("test_latency_seconds", "Latency.",
                    HistogramBuckets::LogScale(0.1, 10.0, 2))
      .Observe(0.05);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP test_events_total Events observed.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_events_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("test_runs_total{method=\"D&S\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_count 1\n"), std::string::npos);
}

TEST(MetricRegistryTest, PrometheusEscapesLabelValues) {
  MetricRegistry registry;
  registry.AddCounterFamily("test_esc_total", "Help.", {"name"})
      .WithLabels({"a\"b\\c\nd"})
      .Increment();
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("test_esc_total{name=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(MetricRegistryTest, JsonExposition) {
  MetricRegistry registry;
  registry.AddCounter("test_total", "Help.").Increment(2);
  const util::JsonValue json = registry.ToJson();
  ASSERT_NE(json.Find("format"), nullptr);
  EXPECT_EQ(json.Find("format")->string(), "crowdtruth_metrics");
  ASSERT_NE(json.Find("metrics"), nullptr);
  ASSERT_EQ(json.Find("metrics")->items().size(), 1u);
  const util::JsonValue& metric = json.Find("metrics")->items()[0];
  EXPECT_EQ(metric.Find("name")->string(), "test_total");
  EXPECT_EQ(metric.Find("kind")->string(), "counter");
}

TEST(MetricRegistryTest, FamilyLookupByNameAndKind) {
  MetricRegistry registry;
  Family<Counter>& counters =
      registry.AddCounterFamily("test_lookup_total", "Help.", {"k"});
  registry.AddGaugeFamily("test_lookup_depth", "Help.", {"k"});
  EXPECT_EQ(registry.FindCounterFamily("test_lookup_total"), &counters);
  EXPECT_NE(registry.FindGaugeFamily("test_lookup_depth"), nullptr);
  // Wrong kind and unknown names both miss.
  EXPECT_EQ(registry.FindGaugeFamily("test_lookup_total"), nullptr);
  EXPECT_EQ(registry.FindCounterFamily("test_absent"), nullptr);
  EXPECT_EQ(registry.FindDigestFamily("test_lookup_total"), nullptr);
}

TEST(MetricRegistryTest, DigestPrometheusSummaryExposition) {
  MetricRegistry registry;
  DigestOptions options;  // defaults: quantiles {0.5, 0.9, 0.99}
  Digest& digest =
      registry.AddDigest("test_latency_digest_seconds", "Help.", options);
  for (int i = 1; i <= 100; ++i) digest.Observe(0.001 * i);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE test_latency_digest_seconds summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_digest_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_digest_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_digest_seconds_count 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_digest_seconds_sum"), std::string::npos);
  // The exported quantile values come off one snapshot and are monotone.
  const TDigest snap = digest.Snap();
  EXPECT_LE(snap.Quantile(0.5), snap.Quantile(0.9));
  EXPECT_LE(snap.Quantile(0.9), snap.Quantile(0.99));
  EXPECT_NEAR(snap.Quantile(0.5), 0.050, 0.005);
}

TEST(MetricRegistryTest, DigestFamilyChildrenAndLookup) {
  MetricRegistry registry;
  Family<Digest>& family = registry.AddDigestFamily(
      "test_digest_family_seconds", "Help.", {"shard"}, DigestOptions());
  EXPECT_EQ(registry.FindDigestFamily("test_digest_family_seconds"),
            &family);
  family.WithLabels({"0"}).Observe(1.0);
  family.WithLabels({"1"}).Observe(2.0);
  family.WithLabels({"1"}).Observe(4.0);
  EXPECT_EQ(family.WithLabels({"0"}).Snap().count(), 1);
  EXPECT_EQ(family.WithLabels({"1"}).Snap().count(), 2);
  EXPECT_DOUBLE_EQ(family.WithLabels({"1"}).Snap().sum(), 6.0);
  EXPECT_EQ(family.Children().size(), 2u);
}

TEST(MetricRegistryTest, DigestJsonExposition) {
  MetricRegistry registry;
  DigestOptions options;
  registry.AddDigest("test_digest_json_seconds", "Help.", options)
      .Observe(0.25);
  const util::JsonValue json = registry.ToJson();
  const util::JsonValue* metrics = json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const util::JsonValue* entry = nullptr;
  for (const util::JsonValue& metric : metrics->items()) {
    if (metric.Find("name")->string() == "test_digest_json_seconds") {
      entry = &metric;
    }
  }
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("kind")->string(), "summary");
  const util::JsonValue* series = entry->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items().size(), 1u);
  const util::JsonValue& point = series->items()[0];
  EXPECT_EQ(point.Find("count")->number(), 1.0);
  EXPECT_DOUBLE_EQ(point.Find("sum")->number(), 0.25);
  const util::JsonValue* quantiles = point.Find("quantiles");
  ASSERT_NE(quantiles, nullptr);
  ASSERT_EQ(quantiles->items().size(), 3u);
  EXPECT_DOUBLE_EQ(quantiles->items()[0].Find("quantile")->number(), 0.5);
  EXPECT_DOUBLE_EQ(quantiles->items()[0].Find("value")->number(), 0.25);
}

TEST(MetricRegistryTest, LabelCardinalityCapCollapsesOverflow) {
  MetricRegistry registry;
  registry.SetLabelCardinalityCap("tenant", 2);
  EXPECT_EQ(registry.InternLabelValue("tenant", "a"), "a");
  EXPECT_EQ(registry.InternLabelValue("tenant", "b"), "b");
  EXPECT_EQ(registry.InternLabelValue("tenant", "c"), "other");
  // Values admitted before the cap was hit keep their identity.
  EXPECT_EQ(registry.InternLabelValue("tenant", "a"), "a");
  // The overflow value always passes through; unrelated labels are uncapped.
  EXPECT_EQ(registry.InternLabelValue("tenant", "other"), "other");
  EXPECT_EQ(registry.InternLabelValue("method", "anything"), "anything");
  EXPECT_EQ(registry.LabelCardinality("tenant"), 2);
  EXPECT_EQ(registry.LabelCardinality("method"), 0);

  // WithLabels routes through the cap: the third tenant shares a series
  // with every later one.
  Family<Counter>& family =
      registry.AddCounterFamily("test_capped_total", "Help.", {"tenant"});
  Counter& c = family.WithLabels({"c"});
  Counter& d = family.WithLabels({"d"});
  EXPECT_EQ(&c, &d);
  EXPECT_NE(&family.WithLabels({"a"}), &c);
  c.Increment(2);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("test_capped_total{tenant=\"other\"} 2\n"),
            std::string::npos);
  EXPECT_EQ(text.find("tenant=\"c\""), std::string::npos);
}

TEST(MetricRegistryTest, RemovingLabelCapRestoresDistinctSeries) {
  MetricRegistry registry;
  registry.SetLabelCardinalityCap("tenant", 1);
  Family<Gauge>& family =
      registry.AddGaugeFamily("test_uncapped_depth", "Help.", {"tenant"});
  family.WithLabels({"a"});
  EXPECT_EQ(&family.WithLabels({"b"}), &family.WithLabels({"z"}));
  registry.SetLabelCardinalityCap("tenant", 0);  // remove the cap
  EXPECT_EQ(registry.LabelCardinality("tenant"), 0);
  EXPECT_NE(&family.WithLabels({"b"}), &family.WithLabels({"z"}));
}

TEST(MetricRegistryTest, CollectionHooksRefreshBeforeExposition) {
  MetricRegistry registry;
  Gauge& gauge = registry.AddGauge("test_refreshed", "Help.");
  int calls = 0;
  registry.AddCollectionHook([&gauge, &calls] {
    ++calls;
    gauge.Set(static_cast<double>(calls));
  });
  EXPECT_NE(registry.PrometheusText().find("test_refreshed 1\n"),
            std::string::npos);
  EXPECT_NE(registry.PrometheusText().find("test_refreshed 2\n"),
            std::string::npos);
  EXPECT_EQ(calls, 2);
}

TEST(MetricRegistryTest, ProcessCollectorsExposeResourceUsage) {
  MetricRegistry registry;
  RegisterProcessCollectors(&registry);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("crowdtruth_process_peak_rss_bytes"),
            std::string::npos);
  EXPECT_NE(text.find("crowdtruth_process_cpu_user_seconds_total"),
            std::string::npos);
  const ResourceUsage usage = SampleResourceUsage();
  EXPECT_GT(usage.peak_rss_bytes, 0);
}

// The TSan target: writers hammer counters, gauges, histograms and labeled
// children from many threads while a reader scrapes concurrently.
TEST(MetricRegistryTest, ConcurrentWritersAndScrapers) {
  MetricRegistry registry;
  Counter& counter = registry.AddCounter("test_conc_total", "Help.");
  Gauge& gauge = registry.AddGauge("test_conc_gauge", "Help.");
  Histogram& histogram = registry.AddHistogram(
      "test_conc_hist", "Help.", HistogramBuckets::PowersOfTwo(8));
  Family<Counter>& family =
      registry.AddCounterFamily("test_conc_labeled_total", "Help.", {"w"});
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::atomic<bool> stop{false};
  std::thread scraper([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = registry.PrometheusText();
      ASSERT_NE(text.find("test_conc_total"), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Counter& child = family.WithLabels({std::to_string(t % 2)});
      for (int i = 0; i < kOps; ++i) {
        counter.Increment();
        gauge.Set(static_cast<double>(i));
        histogram.Observe(static_cast<double>(i % 100));
        child.Increment();
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_DOUBLE_EQ(counter.Value(), kThreads * kOps);
  EXPECT_EQ(histogram.Snap().count, kThreads * kOps);
  EXPECT_DOUBLE_EQ(family.WithLabels({"0"}).Value() +
                       family.WithLabels({"1"}).Value(),
                   kThreads * kOps);
}

TEST(ProcessMetricsTest, InstallAndClear) {
  EXPECT_EQ(ProcessMetrics(), nullptr);
  MetricRegistry registry;
  InstallProcessMetrics(&registry);
  EXPECT_EQ(ProcessMetrics(), &registry);
  InstallProcessMetrics(nullptr);
  EXPECT_EQ(ProcessMetrics(), nullptr);
}

}  // namespace
}  // namespace crowdtruth::obs
