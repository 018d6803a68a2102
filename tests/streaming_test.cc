// Tests for the streaming subsystem: replay equivalence (a full replay with
// a final resync matches the batch solver bit-for-bit), snapshot round
// trips, engine plumbing (interning, periodic resyncs, duplicate rejection)
// and the incremental registry.
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/trace.h"
#include "obs/metrics.h"
#include "simulation/profiles.h"
#include "streaming/engine.h"
#include "streaming/incremental.h"
#include "streaming/registry.h"
#include "test_util.h"
#include "util/json_writer.h"
#include "util/rng.h"

namespace crowdtruth::streaming {
namespace {

struct CategoricalStreamAnswer {
  std::string task;
  std::string worker;
  data::LabelId label;
};

// Flattens a dataset into a shuffled arrival-order stream with string ids.
std::vector<CategoricalStreamAnswer> ShuffledStream(
    const data::CategoricalDataset& dataset, uint64_t seed) {
  std::vector<CategoricalStreamAnswer> stream;
  for (int t = 0; t < dataset.num_tasks(); ++t) {
    for (const data::TaskVote& vote : dataset.AnswersForTask(t)) {
      stream.push_back({"t" + std::to_string(t),
                        "w" + std::to_string(vote.worker), vote.label});
    }
  }
  util::Rng rng(seed);
  rng.Shuffle(stream);
  return stream;
}

// Rebuilds the stream as a batch dataset with ids interned in arrival
// order — the dataset an independent observer of the same stream would
// construct.
data::CategoricalDataset ArrivalOrderDataset(
    const std::vector<CategoricalStreamAnswer>& stream, int num_choices) {
  StreamIdInterner tasks;
  StreamIdInterner workers;
  for (const CategoricalStreamAnswer& answer : stream) {
    tasks.Intern(answer.task);
    workers.Intern(answer.worker);
  }
  data::CategoricalDatasetBuilder builder(tasks.size(), workers.size(),
                                          num_choices);
  StreamIdInterner replay_tasks;
  StreamIdInterner replay_workers;
  for (const CategoricalStreamAnswer& answer : stream) {
    builder.AddAnswer(replay_tasks.Intern(answer.task),
                      replay_workers.Intern(answer.worker), answer.label);
  }
  return std::move(builder).Build();
}

class ReplayEquivalenceTest : public ::testing::TestWithParam<std::string> {};

// The acceptance criterion of the subsystem: stream every answer through
// the incremental method (localized updates plus periodic resyncs), resync
// once at the end, and the estimates/qualities must equal the batch
// solver's output on the same answers exactly — not approximately.
TEST_P(ReplayEquivalenceTest, FinalResyncMatchesBatchExactly) {
  const std::string method_name = GetParam();
  testing::PlantedSpec spec;
  spec.num_tasks = 120;
  spec.num_workers = 15;
  spec.num_choices = 3;
  spec.redundancy = 4;
  spec.worker_accuracy = {0.9, 0.8, 0.75, 0.7, 0.85, 0.6, 0.9, 0.55,
                          0.8, 0.7, 0.95, 0.65, 0.75, 0.85, 0.6};
  const data::CategoricalDataset dataset = testing::PlantedDataset(spec, 7);
  const std::vector<CategoricalStreamAnswer> stream =
      ShuffledStream(dataset, 91);

  StreamingOptions options;
  CategoricalStreamEngine engine(
      MakeIncrementalCategorical(method_name, spec.num_choices, options),
      EngineConfig{/*resync_interval=*/173});
  for (const CategoricalStreamAnswer& answer : stream) {
    ASSERT_TRUE(engine.Observe(answer.task, answer.worker, answer.label).ok());
  }
  engine.Resync();

  // Batch run over the answers in the same arrival order, built without any
  // streaming machinery.
  const data::CategoricalDataset arrival =
      ArrivalOrderDataset(stream, spec.num_choices);
  const core::CategoricalResult batch =
      core::MakeCategoricalMethod(method_name)->Infer(arrival, options.batch);

  ASSERT_EQ(engine.method().num_tasks(), arrival.num_tasks());
  ASSERT_EQ(engine.method().num_workers(), arrival.num_workers());
  EXPECT_EQ(engine.method().Estimates(), batch.labels);
  EXPECT_EQ(engine.method().WorkerQualities(), batch.worker_quality);
}

TEST_P(ReplayEquivalenceTest, MaterializeDatasetMatchesArrivalOrder) {
  const std::string method_name = GetParam();
  const data::CategoricalDataset dataset = testing::Table2Dataset();
  const std::vector<CategoricalStreamAnswer> stream =
      ShuffledStream(dataset, 3);

  CategoricalStreamEngine engine(
      MakeIncrementalCategorical(method_name, 2, {}),
      EngineConfig{/*resync_interval=*/0});
  for (const CategoricalStreamAnswer& answer : stream) {
    ASSERT_TRUE(engine.Observe(answer.task, answer.worker, answer.label).ok());
  }
  const data::CategoricalDataset materialized =
      engine.method().MaterializeDataset();
  const data::CategoricalDataset arrival = ArrivalOrderDataset(stream, 2);
  ASSERT_EQ(materialized.num_tasks(), arrival.num_tasks());
  ASSERT_EQ(materialized.num_workers(), arrival.num_workers());
  ASSERT_EQ(materialized.num_answers(), arrival.num_answers());
  for (int t = 0; t < arrival.num_tasks(); ++t) {
    const auto& lhs = materialized.AnswersForTask(t);
    const auto& rhs = arrival.AnswersForTask(t);
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].worker, rhs[i].worker);
      EXPECT_EQ(lhs[i].label, rhs[i].label);
    }
  }
}

// Snapshot mid-stream, restore into a fresh engine, finish the stream in
// both: every subsequent estimate must be bit-identical.
TEST_P(ReplayEquivalenceTest, SnapshotRoundTripContinuesIdentically) {
  const std::string method_name = GetParam();
  testing::PlantedSpec spec;
  spec.num_tasks = 60;
  spec.num_workers = 10;
  spec.num_choices = 2;
  spec.redundancy = 5;
  const data::CategoricalDataset dataset = testing::PlantedDataset(spec, 19);
  const std::vector<CategoricalStreamAnswer> stream =
      ShuffledStream(dataset, 5);
  const size_t half = stream.size() / 2;

  StreamingOptions options;
  CategoricalStreamEngine original(
      MakeIncrementalCategorical(method_name, spec.num_choices, options),
      EngineConfig{/*resync_interval=*/50});
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(original
                    .Observe(stream[i].task, stream[i].worker,
                             stream[i].label)
                    .ok());
  }

  // Serialize through text to exercise the whole JSON path, not just the
  // in-memory tree.
  const std::string text = original.Snapshot().Dump();
  util::JsonValue parsed;
  ASSERT_TRUE(util::ParseJson(text, &parsed).ok());
  CategoricalStreamEngine restored(
      MakeIncrementalCategorical(method_name, spec.num_choices, options),
      EngineConfig{/*resync_interval=*/50});
  ASSERT_TRUE(restored.Restore(parsed).ok());

  EXPECT_EQ(restored.stats().answers, original.stats().answers);
  EXPECT_EQ(restored.stats().resyncs, original.stats().resyncs);
  EXPECT_EQ(restored.tasks().ids(), original.tasks().ids());
  EXPECT_EQ(restored.workers().ids(), original.workers().ids());
  EXPECT_EQ(restored.method().Estimates(), original.method().Estimates());
  EXPECT_EQ(restored.method().WorkerQualities(),
            original.method().WorkerQualities());

  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE(original
                    .Observe(stream[i].task, stream[i].worker,
                             stream[i].label)
                    .ok());
    ASSERT_TRUE(restored
                    .Observe(stream[i].task, stream[i].worker,
                             stream[i].label)
                    .ok());
    ASSERT_EQ(restored.method().Estimates(),
              original.method().Estimates());
    ASSERT_EQ(restored.method().WorkerQualities(),
              original.method().WorkerQualities());
  }
  original.Resync();
  restored.Resync();
  EXPECT_EQ(restored.method().Estimates(), original.method().Estimates());
  EXPECT_EQ(restored.method().WorkerQualities(),
            original.method().WorkerQualities());
}

INSTANTIATE_TEST_SUITE_P(AllIncremental, ReplayEquivalenceTest,
                         ::testing::Values("MV", "ZC", "D&S"),
                         [](const auto& info) {
                           return info.param == "D&S" ? std::string("DS")
                                                      : info.param;
                         });

TEST(StreamEngineTest, PeriodicResyncFiresOnInterval) {
  CategoricalStreamEngine engine(MakeIncrementalCategorical("MV", 2, {}),
                                 EngineConfig{/*resync_interval=*/10});
  for (int i = 0; i < 35; ++i) {
    ASSERT_TRUE(engine
                    .Observe("t" + std::to_string(i % 7),
                             "w" + std::to_string(i / 7), i % 2)
                    .ok());
  }
  EXPECT_EQ(engine.stats().answers, 35);
  EXPECT_EQ(engine.stats().resyncs, 3);
  EXPECT_EQ(engine.stats().observe_latency.count(), 35);
}

// EngineStats keeps the Observe latency in a t-digest, so a long-lived
// engine (a server tenant) holds O(compression) latency state however many
// answers it has seen, instead of one raw sample per answer.
TEST(StreamEngineTest, ObserveLatencyStateStaysBounded) {
  CategoricalStreamEngine engine(MakeIncrementalCategorical("MV", 2, {}),
                                 EngineConfig{/*resync_interval=*/0});
  std::vector<std::string> workers;
  for (int w = 0; w < 250; ++w) workers.push_back("w" + std::to_string(w));
  const obs::TDigest& latency = engine.stats().observe_latency;
  const size_t bound = static_cast<size_t>(2.5 * latency.compression());
  for (int t = 0; t < 400; ++t) {
    const std::string task = "t" + std::to_string(t);
    for (int w = 0; w < 250; ++w) {
      ASSERT_TRUE(engine.Observe(task, workers[w], (t + w) % 2).ok());
    }
    ASSERT_LE(latency.Centroids().size(), bound) << "after task " << t;
  }
  EXPECT_EQ(latency.count(), 100000);
  EXPECT_GT(latency.max(), 0.0);
  EXPECT_LE(latency.Quantile(0.5), latency.max());
}

// Value of the exposition line for exactly `series` (name plus label set);
// NaN when the line is absent.
double SampleValue(const std::string& text, const std::string& series) {
  const std::string prefix = "\n" + series + " ";
  const size_t at = text.find(prefix);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + at + prefix.size(), nullptr);
}

// Each engine latency is exported as one t-digest summary, fed by the same
// clock reading as EngineStats; no histogram or digest twin sits beside it.
TEST(StreamEngineTest, EachLatencyIsOneSummarySeries) {
  obs::MetricRegistry registry;
  obs::InstallProcessMetrics(&registry);
  EngineConfig config;
  config.resync_interval = 10;
  CategoricalStreamEngine engine(MakeIncrementalCategorical("ZC", 2, {}),
                                 config);
  for (int i = 0; i < 35; ++i) {
    EXPECT_TRUE(engine
                    .Observe("t" + std::to_string(i % 7),
                             "w" + std::to_string(i / 7), i % 2)
                    .ok());
  }
  // Three periodic resyncs, one explicit, one adopted result.
  engine.AdoptResult(engine.Resync());
  const std::string text = registry.PrometheusText();
  obs::InstallProcessMetrics(nullptr);
  ASSERT_EQ(engine.stats().resyncs, 5);
  const std::string labels = "{method=\"ZC\",tenant=\"\"}";

  for (const char* family : {"crowdtruth_stream_observe_latency_seconds",
                             "crowdtruth_stream_resync_duration_seconds"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " summary\n"),
              std::string::npos)
        << family;
    EXPECT_EQ(text.find(std::string(family) + "_bucket"), std::string::npos)
        << family;
  }
  EXPECT_EQ(text.find("_digest_seconds"), std::string::npos);
  EXPECT_EQ(text.find("crowdtruth_stream_resync_seconds_total"),
            std::string::npos);

  const double observes = SampleValue(
      text, "crowdtruth_stream_observe_latency_seconds_count" + labels);
  EXPECT_EQ(observes, 35.0);
  EXPECT_EQ(observes,
            SampleValue(text, "crowdtruth_stream_answers_total" + labels));
  EXPECT_EQ(SampleValue(text,
                        "crowdtruth_stream_observe_latency_seconds_sum" +
                            labels),
            engine.stats().observe_latency.sum());

  const double resyncs = SampleValue(
      text, "crowdtruth_stream_resync_duration_seconds_count" + labels);
  EXPECT_EQ(resyncs, 5.0);
  EXPECT_EQ(resyncs,
            SampleValue(text, "crowdtruth_stream_resyncs_total" + labels));
  EXPECT_EQ(
      SampleValue(text,
                  "crowdtruth_stream_resync_duration_seconds_sum" + labels),
      engine.stats().resync_seconds);
}

// A trace sink sees one event per resync, adopted results included. The
// pre-resync estimates are copied only for that event's delta.
TEST(StreamEngineTest, TracedResyncsEmitOneEventEach) {
  core::CollectingTraceSink trace;
  EngineConfig config;
  config.resync_interval = 10;
  CategoricalStreamEngine engine(MakeIncrementalCategorical("MV", 2, {}),
                                 config);
  engine.set_trace(&trace);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(engine
                    .Observe("t" + std::to_string(i % 5),
                             "w" + std::to_string(i / 5), (i / 3) % 2)
                    .ok());
  }
  engine.AdoptResult(engine.Resync());
  const std::vector<core::IterationEvent>& events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  double truth_seconds = 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].iteration, static_cast<int>(i) + 1);
    EXPECT_GE(events[i].delta, 0.0);
    EXPECT_LE(events[i].delta, 1.0);
    EXPECT_GE(events[i].quality_seconds, 0.0);
    truth_seconds += events[i].truth_seconds;
  }
  // Adopting the result the resync just produced flips no label.
  EXPECT_EQ(events.back().delta, 0.0);
  EXPECT_DOUBLE_EQ(truth_seconds, engine.stats().observe_latency.sum());
}

TEST(StreamEngineTest, RejectsDuplicateAnswerLeavingStateUntouched) {
  CategoricalStreamEngine engine(MakeIncrementalCategorical("ZC", 2, {}),
                                 EngineConfig{/*resync_interval=*/0});
  ASSERT_TRUE(engine.Observe("t0", "w0", 1).ok());
  ASSERT_TRUE(engine.Observe("t0", "w1", 0).ok());
  const util::Status status = engine.Observe("t0", "w0", 0);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
  EXPECT_EQ(engine.stats().answers, 2);
  EXPECT_EQ(engine.method().num_answers(), 2);
}

TEST(StreamEngineTest, RejectsOutOfRangeLabel) {
  CategoricalStreamEngine engine(MakeIncrementalCategorical("MV", 2, {}),
                                 EngineConfig{});
  EXPECT_FALSE(engine.Observe("t0", "w0", 2).ok());
  EXPECT_FALSE(engine.Observe("t0", "w0", -1).ok());
  EXPECT_EQ(engine.stats().answers, 0);
}

// Satellite of the serving PR: the adaptive controller retunes
// resync_interval / max_dirty_tasks while a stream is live. Both knobs only
// steer scheduling, so a retuned engine must land on exactly the fresh
// replay's estimates once both have resynced.
TEST(StreamEngineTest, MidStreamRetuneIsBitIdenticalToFreshReplayAtResync) {
  testing::PlantedSpec spec;
  spec.num_tasks = 90;
  spec.num_workers = 12;
  spec.num_choices = 3;
  spec.redundancy = 4;
  spec.worker_accuracy = {0.9, 0.8, 0.7, 0.85, 0.6, 0.95,
                          0.55, 0.75, 0.8, 0.65, 0.9, 0.7};
  const data::CategoricalDataset dataset = testing::PlantedDataset(spec, 3);
  const std::vector<CategoricalStreamAnswer> stream =
      ShuffledStream(dataset, 17);

  for (const std::string& method_name : IncrementalCategoricalNames()) {
    CategoricalStreamEngine retuned(
        MakeIncrementalCategorical(method_name, spec.num_choices, {}),
        EngineConfig{/*resync_interval=*/50});
    CategoricalStreamEngine fresh(
        MakeIncrementalCategorical(method_name, spec.num_choices, {}),
        EngineConfig{/*resync_interval=*/50});
    size_t i = 0;
    for (const CategoricalStreamAnswer& answer : stream) {
      // Whipsaw the knobs the way a controller under shifting load would.
      if (i == stream.size() / 4) {
        retuned.set_resync_interval(7);
        retuned.set_max_dirty_tasks(1);
      } else if (i == stream.size() / 2) {
        retuned.set_resync_interval(191);
        retuned.set_max_dirty_tasks(4096);
      } else if (i == 3 * stream.size() / 4) {
        retuned.set_resync_interval(0);  // periodic resyncs off
        retuned.set_max_dirty_tasks(2);
      }
      ++i;
      ASSERT_TRUE(
          retuned.Observe(answer.task, answer.worker, answer.label).ok());
      ASSERT_TRUE(
          fresh.Observe(answer.task, answer.worker, answer.label).ok());
    }
    retuned.Resync();
    fresh.Resync();
    EXPECT_EQ(retuned.method().Estimates(), fresh.method().Estimates())
        << method_name;
    EXPECT_EQ(retuned.method().WorkerQualities(),
              fresh.method().WorkerQualities())
        << method_name;
    // The schedules genuinely diverged mid-stream.
    EXPECT_NE(retuned.stats().resyncs, fresh.stats().resyncs) << method_name;
  }
}

// Version-1 snapshots (no kind/method_name/num_choices descriptor fields)
// must keep restoring: durable state outlives builds.
TEST(SnapshotVersioningTest, V1DocumentRestoresUnchanged) {
  CategoricalStreamEngine original(MakeIncrementalCategorical("ZC", 2, {}),
                                   EngineConfig{});
  ASSERT_TRUE(original.Observe("t0", "w0", 1).ok());
  ASSERT_TRUE(original.Observe("t1", "w0", 0).ok());
  ASSERT_TRUE(original.Observe("t0", "w1", 1).ok());
  const util::JsonValue v2 = original.Snapshot();

  // Reconstruct the document a v1 build would have written: the same
  // payload without the self-description header.
  util::JsonValue v1 = util::JsonValue::Object();
  v1.Set("format", "crowdtruth_stream_snapshot");
  v1.Set("version", 1);
  for (const char* field :
       {"task_ids", "worker_ids", "answers_seen", "resyncs", "method"}) {
    const util::JsonValue* value = v2.Find(field);
    ASSERT_NE(value, nullptr) << field;
    v1.Set(field, *value);
  }

  CategoricalStreamEngine restored(MakeIncrementalCategorical("ZC", 2, {}),
                                   EngineConfig{});
  ASSERT_TRUE(restored.Restore(v1).ok());
  EXPECT_EQ(restored.stats().answers, original.stats().answers);
  EXPECT_EQ(restored.tasks().ids(), original.tasks().ids());
  EXPECT_EQ(restored.method().Estimates(), original.method().Estimates());
}

TEST(SnapshotVersioningTest, UnknownEngineVersionIsTypedValidationError) {
  CategoricalStreamEngine engine(MakeIncrementalCategorical("ZC", 2, {}),
                                 EngineConfig{});
  ASSERT_TRUE(engine.Observe("t0", "w0", 1).ok());
  util::JsonValue snapshot = engine.Snapshot();
  snapshot.Set("version", 3);
  CategoricalStreamEngine fresh(MakeIncrementalCategorical("ZC", 2, {}),
                                EngineConfig{});
  EXPECT_EQ(fresh.Restore(snapshot).code(),
            util::StatusCode::kValidationError);
}

TEST(SnapshotVersioningTest, UnknownMethodVersionIsTypedValidationError) {
  CategoricalStreamEngine engine(MakeIncrementalCategorical("ZC", 2, {}),
                                 EngineConfig{});
  ASSERT_TRUE(engine.Observe("t0", "w0", 1).ok());
  util::JsonValue snapshot = engine.Snapshot();
  const util::JsonValue* method = snapshot.Find("method");
  ASSERT_NE(method, nullptr);
  util::JsonValue doctored = *method;
  doctored.Set("version", 99);
  snapshot.Set("method", std::move(doctored));
  CategoricalStreamEngine fresh(MakeIncrementalCategorical("ZC", 2, {}),
                                EngineConfig{});
  EXPECT_EQ(fresh.Restore(snapshot).code(),
            util::StatusCode::kValidationError);
}

// Mid-stream snapshot -> restore -> continue must hold at *any* cut point,
// not just the half-way mark the round-trip test uses — first answer,
// resync boundaries, last answer.
TEST(SnapshotVersioningTest, CategoricalCutPointsContinueIdentically) {
  for (const std::string method_name : {"MV", "ZC", "D&S"}) {
    testing::PlantedSpec spec;
    spec.num_tasks = 40;
    spec.num_workers = 8;
    spec.num_choices = 2;
    spec.redundancy = 4;
    const data::CategoricalDataset dataset =
        testing::PlantedDataset(spec, 43);
    const std::vector<CategoricalStreamAnswer> stream =
        ShuffledStream(dataset, 17);
    const int n = static_cast<int>(stream.size());

    for (const int cut : {1, n / 4, 50, n - 1}) {
      CategoricalStreamEngine original(
          MakeIncrementalCategorical(method_name, spec.num_choices, {}),
          EngineConfig{/*resync_interval=*/50});
      for (int i = 0; i < cut; ++i) {
        ASSERT_TRUE(original
                        .Observe(stream[i].task, stream[i].worker,
                                 stream[i].label)
                        .ok());
      }
      CategoricalStreamEngine restored(
          MakeIncrementalCategorical(method_name, spec.num_choices, {}),
          EngineConfig{/*resync_interval=*/50});
      ASSERT_TRUE(restored.Restore(original.Snapshot()).ok());
      for (int i = cut; i < n; ++i) {
        ASSERT_TRUE(original
                        .Observe(stream[i].task, stream[i].worker,
                                 stream[i].label)
                        .ok());
        ASSERT_TRUE(restored
                        .Observe(stream[i].task, stream[i].worker,
                                 stream[i].label)
                        .ok());
      }
      original.Resync();
      restored.Resync();
      EXPECT_EQ(restored.method().Estimates(), original.method().Estimates())
          << method_name << " cut=" << cut;
      EXPECT_EQ(restored.method().WorkerQualities(),
                original.method().WorkerQualities())
          << method_name << " cut=" << cut;
    }
  }
}

TEST(SnapshotVersioningTest, NumericCutPointsContinueIdentically) {
  for (const std::string method_name : {"Mean", "Median"}) {
    util::Rng rng(29);
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int t = 0; t < 30; ++t) {
      for (int w = 0; w < 6; ++w) {
        pairs.emplace_back("t" + std::to_string(t), "w" + std::to_string(w));
      }
    }
    rng.Shuffle(pairs);
    std::vector<double> values;
    values.reserve(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      values.push_back(rng.Uniform(-4.0, 4.0));
    }
    const int n = static_cast<int>(pairs.size());

    for (const int cut : {1, n / 3, n - 1}) {
      NumericStreamEngine original(MakeIncrementalNumeric(method_name, {}),
                                   EngineConfig{/*resync_interval=*/40});
      for (int i = 0; i < cut; ++i) {
        ASSERT_TRUE(
            original.Observe(pairs[i].first, pairs[i].second, values[i])
                .ok());
      }
      NumericStreamEngine restored(MakeIncrementalNumeric(method_name, {}),
                                   EngineConfig{/*resync_interval=*/40});
      ASSERT_TRUE(restored.Restore(original.Snapshot()).ok());
      for (int i = cut; i < n; ++i) {
        ASSERT_TRUE(
            original.Observe(pairs[i].first, pairs[i].second, values[i])
                .ok());
        ASSERT_TRUE(
            restored.Observe(pairs[i].first, pairs[i].second, values[i])
                .ok());
      }
      original.Resync();
      restored.Resync();
      EXPECT_EQ(restored.method().Estimates(), original.method().Estimates())
          << method_name << " cut=" << cut;
      EXPECT_EQ(restored.method().WorkerQualities(),
                original.method().WorkerQualities())
          << method_name << " cut=" << cut;
    }
  }
}

TEST(StreamEngineTest, RestoreRejectsForeignDocuments) {
  CategoricalStreamEngine engine(MakeIncrementalCategorical("MV", 2, {}),
                                 EngineConfig{});
  util::JsonValue not_a_snapshot = util::JsonValue::Object();
  not_a_snapshot.Set("format", "something_else");
  EXPECT_FALSE(engine.Restore(not_a_snapshot).ok());
  EXPECT_FALSE(engine.Restore(util::JsonValue::Array()).ok());
}

TEST(StreamEngineTest, RestoreRejectsMismatchedMethod) {
  CategoricalStreamEngine zc(MakeIncrementalCategorical("ZC", 2, {}),
                             EngineConfig{});
  ASSERT_TRUE(zc.Observe("t0", "w0", 1).ok());
  CategoricalStreamEngine mv(MakeIncrementalCategorical("MV", 2, {}),
                             EngineConfig{});
  EXPECT_FALSE(mv.Restore(zc.Snapshot()).ok());
}

TEST(StreamIdInternerTest, FirstAppearanceOrder) {
  StreamIdInterner interner;
  EXPECT_EQ(interner.Intern("b"), 0);
  EXPECT_EQ(interner.Intern("a"), 1);
  EXPECT_EQ(interner.Intern("b"), 0);
  EXPECT_EQ(interner.size(), 2);
  EXPECT_EQ(interner.Name(0), "b");
  EXPECT_EQ(interner.Name(1), "a");
}

TEST(StreamingRegistryTest, KnownAndUnknownNames) {
  EXPECT_EQ(IncrementalCategoricalNames(),
            (std::vector<std::string>{"MV", "ZC", "D&S"}));
  EXPECT_EQ(IncrementalNumericNames(),
            (std::vector<std::string>{"Mean", "Median"}));
  for (const std::string& name : IncrementalCategoricalNames()) {
    EXPECT_NE(MakeIncrementalCategorical(name, 2, {}), nullptr) << name;
  }
  for (const std::string& name : IncrementalNumericNames()) {
    EXPECT_NE(MakeIncrementalNumeric(name, {}), nullptr) << name;
  }
  EXPECT_EQ(MakeIncrementalCategorical("GLAD", 2, {}), nullptr);
  EXPECT_EQ(MakeIncrementalNumeric("LFC_N", {}), nullptr);
}

class NumericReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NumericReplayTest, FinalResyncMatchesBatchExactly) {
  const std::string method_name = GetParam();
  const data::NumericDataset dataset =
      sim::GenerateNumericProfile("N_Emotion", 0.05);
  std::vector<std::pair<int, data::NumericTaskVote>> stream;
  for (int t = 0; t < dataset.num_tasks(); ++t) {
    for (const data::NumericTaskVote& vote : dataset.AnswersForTask(t)) {
      stream.emplace_back(t, vote);
    }
  }
  util::Rng rng(17);
  rng.Shuffle(stream);

  StreamingOptions options;
  NumericStreamEngine engine(MakeIncrementalNumeric(method_name, options),
                             EngineConfig{/*resync_interval=*/97});
  for (const auto& [task, vote] : stream) {
    ASSERT_TRUE(engine
                    .Observe("t" + std::to_string(task),
                             "w" + std::to_string(vote.worker), vote.value)
                    .ok());
  }
  engine.Resync();

  const data::NumericDataset materialized =
      engine.method().MaterializeDataset();
  const core::NumericResult batch =
      core::MakeNumericMethod(method_name)->Infer(materialized,
                                                  options.batch);
  EXPECT_EQ(engine.method().Estimates(), batch.values);
  EXPECT_EQ(engine.method().WorkerQualities(), batch.worker_quality);
}

TEST_P(NumericReplayTest, SnapshotRoundTrip) {
  const std::string method_name = GetParam();
  NumericStreamEngine original(MakeIncrementalNumeric(method_name, {}),
                               EngineConfig{/*resync_interval=*/0});
  const double values[] = {3.5, 4.5, 10.0, 20.0, 12.0, 7.25};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(original
                    .Observe("t" + std::to_string(i % 3),
                             "w" + std::to_string(i % 4), values[i])
                    .ok());
  }
  const std::string text = original.Snapshot().Dump();
  util::JsonValue parsed;
  ASSERT_TRUE(util::ParseJson(text, &parsed).ok());
  NumericStreamEngine restored(MakeIncrementalNumeric(method_name, {}),
                               EngineConfig{/*resync_interval=*/0});
  ASSERT_TRUE(restored.Restore(parsed).ok());
  EXPECT_EQ(restored.method().Estimates(), original.method().Estimates());
  ASSERT_TRUE(original.Observe("t2", "w3", 42.5).ok());
  ASSERT_TRUE(restored.Observe("t2", "w3", 42.5).ok());
  EXPECT_EQ(restored.method().Estimates(), original.method().Estimates());
  original.Resync();
  restored.Resync();
  EXPECT_EQ(restored.method().Estimates(), original.method().Estimates());
  EXPECT_EQ(restored.method().WorkerQualities(),
            original.method().WorkerQualities());
}

INSTANTIATE_TEST_SUITE_P(AllIncremental, NumericReplayTest,
                         ::testing::Values("Mean", "Median"),
                         [](const auto& info) { return info.param; });

TEST(NumericStreamTest, MedianEstimatesSmallStreams) {
  NumericStreamEngine engine(MakeIncrementalNumeric("Median", {}),
                             EngineConfig{});
  ASSERT_TRUE(engine.Observe("a", "w0", 3.5).ok());
  ASSERT_TRUE(engine.Observe("a", "w1", 4.5).ok());
  ASSERT_TRUE(engine.Observe("b", "w0", 10.0).ok());
  ASSERT_TRUE(engine.Observe("b", "w1", 20.0).ok());
  ASSERT_TRUE(engine.Observe("b", "w2", 12.0).ok());
  EXPECT_DOUBLE_EQ(engine.method().Estimate(0), 4.0);
  EXPECT_DOUBLE_EQ(engine.method().Estimate(1), 12.0);
}

// --- Periodic resyncs solved off the calling thread ---

struct NumericStreamAnswer {
  std::string task;
  std::string worker;
  double value;
};

data::LabelId PayloadOf(const CategoricalStreamAnswer& answer) {
  return answer.label;
}
double PayloadOf(const NumericStreamAnswer& answer) { return answer.value; }

EngineConfig IntervalConfig(int resync_interval, const std::string& tenant) {
  EngineConfig config;
  config.resync_interval = resync_interval;
  config.tenant = tenant;
  return config;
}

// Feeds `stream` to an engine at resync_interval 50 (lag 5) and to a
// reference that resyncs synchronously at every multiple of 50, checking
// the engine after every answer. Outside a lag window [S, S+5) it equals
// the reference. Inside one it equals a fork of the reference taken just
// before its resync at S: the un-resynced state. Each answer is counted
// once, although the adoption re-observes the window's answers.
template <typename Engine, typename Answer, typename MakeMethod>
void ExpectLaggedAdoption(const std::vector<Answer>& stream,
                          const MakeMethod& make_method) {
  constexpr int kInterval = 50;
  constexpr int kLag = kInterval / 10;
  obs::MetricRegistry registry;
  // Uninstalled on every exit, a failed ASSERT's early return included.
  struct Installed {
    explicit Installed(obs::MetricRegistry* r) {
      obs::InstallProcessMetrics(r);
    }
    ~Installed() { obs::InstallProcessMetrics(nullptr); }
  } installed(&registry);
  Engine lagged(make_method(), IntervalConfig(kInterval, "lagged"));
  Engine reference(make_method(), IntervalConfig(0, "reference"));
  std::unique_ptr<Engine> fork;
  int64_t adopt_at = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Answer& answer = stream[i];
    const int64_t n = static_cast<int64_t>(i) + 1;
    ASSERT_TRUE(
        lagged.Observe(answer.task, answer.worker, PayloadOf(answer)).ok());
    ASSERT_TRUE(
        reference.Observe(answer.task, answer.worker, PayloadOf(answer))
            .ok());
    if (fork != nullptr) {
      ASSERT_TRUE(
          fork->Observe(answer.task, answer.worker, PayloadOf(answer)).ok());
    }
    if (n == adopt_at) fork.reset();
    if (n % kInterval == 0) {
      fork = std::make_unique<Engine>(make_method(),
                                      IntervalConfig(0, "fork"));
      ASSERT_TRUE(fork->Restore(reference.Snapshot()).ok());
      reference.Resync();
      adopt_at = n + kLag;
    }
    const Engine& expected = fork != nullptr ? *fork : reference;
    ASSERT_EQ(lagged.resync_pending(), fork != nullptr) << "answer " << n;
    ASSERT_EQ(lagged.method().Estimates(), expected.method().Estimates())
        << "answer " << n;
    ASSERT_EQ(lagged.method().WorkerQualities(),
              expected.method().WorkerQualities())
        << "answer " << n;
  }
  const std::string text = registry.PrometheusText();
  const int64_t answers = static_cast<int64_t>(stream.size());
  EXPECT_EQ(lagged.stats().answers, answers);
  EXPECT_EQ(lagged.stats().observe_latency.count(), answers);
  EXPECT_EQ(lagged.stats().resyncs,
            reference.stats().resyncs - (fork != nullptr ? 1 : 0));
  const std::string labels =
      "{method=\"" + lagged.method().name() + "\",tenant=\"lagged\"}";
  EXPECT_EQ(SampleValue(text, "crowdtruth_stream_answers_total" + labels),
            static_cast<double>(answers));
  EXPECT_EQ(SampleValue(text, "crowdtruth_stream_observe_latency_seconds_"
                              "count" + labels),
            static_cast<double>(answers));
  EXPECT_EQ(SampleValue(text, "crowdtruth_stream_resyncs_total" + labels),
            static_cast<double>(lagged.stats().resyncs));
  EXPECT_EQ(
      SampleValue(text, "crowdtruth_stream_resync_waits_total" + labels),
      static_cast<double>(lagged.stats().resync_waits));
}

TEST(LaggedResyncTest, CategoricalMatchesSynchronousReferenceAtAnyWidth) {
  testing::PlantedSpec spec;
  spec.num_tasks = 60;
  spec.num_workers = 10;
  spec.num_choices = 3;
  spec.redundancy = 5;
  std::vector<CategoricalStreamAnswer> stream =
      ShuffledStream(testing::PlantedDataset(spec, 23), 29);
  // Each worker reappears under a new id every 37 answers, so workers (not
  // only tasks) are first seen inside lag windows too.
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].worker += "_" + std::to_string(i / 37);
  }
  for (const int threads : {1, 4}) {
    for (const std::string& method_name : IncrementalCategoricalNames()) {
      SCOPED_TRACE(method_name + " threads=" + std::to_string(threads));
      StreamingOptions options;
      options.batch.num_threads = threads;
      ExpectLaggedAdoption<CategoricalStreamEngine>(stream, [&] {
        return MakeIncrementalCategorical(method_name, spec.num_choices,
                                          options);
      });
    }
  }
}

TEST(LaggedResyncTest, NumericMatchesSynchronousReferenceAtAnyWidth) {
  util::Rng rng(31);
  std::vector<NumericStreamAnswer> stream;
  for (int t = 0; t < 40; ++t) {
    for (int w = 0; w < 6; ++w) {
      stream.push_back({"t" + std::to_string(t), "w" + std::to_string(w),
                        rng.Uniform(-4.0, 4.0)});
    }
  }
  rng.Shuffle(stream);
  for (const int threads : {1, 4}) {
    for (const std::string& method_name : IncrementalNumericNames()) {
      SCOPED_TRACE(method_name + " threads=" + std::to_string(threads));
      StreamingOptions options;
      options.batch.num_threads = threads;
      ExpectLaggedAdoption<NumericStreamEngine>(
          stream, [&] { return MakeIncrementalNumeric(method_name, options); });
    }
  }
}

// A snapshot taken inside a lag window records the pending resync, and the
// restored engine relaunches its solve: both adopt the same result at the
// same answer and continue bit-identically. Outside a window the snapshot
// carries no trace of the machinery.
TEST(LaggedResyncTest, SnapshotInsideALagWindowContinuesIdentically) {
  testing::PlantedSpec spec;
  spec.num_tasks = 40;
  spec.num_workers = 8;
  spec.num_choices = 2;
  spec.redundancy = 4;
  const std::vector<CategoricalStreamAnswer> stream =
      ShuffledStream(testing::PlantedDataset(spec, 37), 41);
  for (const std::string& method_name : IncrementalCategoricalNames()) {
    CategoricalStreamEngine original(
        MakeIncrementalCategorical(method_name, spec.num_choices, {}),
        IntervalConfig(50, ""));
    for (int i = 0; i < 52; ++i) {
      ASSERT_TRUE(original
                      .Observe(stream[i].task, stream[i].worker,
                               stream[i].label)
                      .ok());
    }
    ASSERT_TRUE(original.resync_pending());
    const util::JsonValue snapshot = original.Snapshot();
    const util::JsonValue* pending = snapshot.Find("pending_resync");
    ASSERT_NE(pending, nullptr) << method_name;
    EXPECT_EQ(pending->Find("launch_at")->number(), 50);
    EXPECT_EQ(pending->Find("adopt_at")->number(), 55);

    util::JsonValue parsed;
    ASSERT_TRUE(util::ParseJson(snapshot.Dump(), &parsed).ok());
    CategoricalStreamEngine restored(
        MakeIncrementalCategorical(method_name, spec.num_choices, {}),
        IntervalConfig(50, ""));
    ASSERT_TRUE(restored.Restore(parsed).ok());
    EXPECT_TRUE(restored.resync_pending());
    for (size_t i = 52; i < stream.size(); ++i) {
      ASSERT_TRUE(original
                      .Observe(stream[i].task, stream[i].worker,
                               stream[i].label)
                      .ok());
      ASSERT_TRUE(restored
                      .Observe(stream[i].task, stream[i].worker,
                               stream[i].label)
                      .ok());
      ASSERT_EQ(restored.method().Estimates(), original.method().Estimates())
          << method_name << " answer " << i + 1;
      ASSERT_EQ(restored.method().WorkerQualities(),
                original.method().WorkerQualities())
          << method_name << " answer " << i + 1;
      if (i + 1 == 60) {
        EXPECT_EQ(original.Snapshot().Find("pending_resync"), nullptr);
      }
    }
    EXPECT_EQ(restored.stats().resyncs, original.stats().resyncs);
  }
}

// The lag is fixed when a resync launches: retuning the interval moves
// neither a pending adoption nor the lag it was launched with, only the
// next launch's. Below 10 the lag is 0 and the resync is synchronous.
TEST(LaggedResyncTest, RetuneSetsTheNextLagOnly) {
  CategoricalStreamEngine engine(MakeIncrementalCategorical("MV", 2, {}),
                                 IntervalConfig(50, ""));
  int answered = 0;
  auto observe_until = [&](int n) {
    for (; answered < n; ++answered) {
      ASSERT_TRUE(engine
                      .Observe("t" + std::to_string(answered % 13),
                               "w" + std::to_string(answered / 13),
                               answered % 2)
                      .ok());
    }
  };
  observe_until(51);
  engine.set_resync_interval(20);
  observe_until(54);
  EXPECT_TRUE(engine.resync_pending());
  EXPECT_EQ(engine.stats().resyncs, 0);
  observe_until(55);  // adopted at 50 + 50 / 10
  EXPECT_FALSE(engine.resync_pending());
  EXPECT_EQ(engine.stats().resyncs, 1);
  observe_until(61);  // launched at 60 with lag 20 / 10
  EXPECT_TRUE(engine.resync_pending());
  observe_until(62);
  EXPECT_FALSE(engine.resync_pending());
  EXPECT_EQ(engine.stats().resyncs, 2);
  engine.set_resync_interval(9);
  observe_until(63);  // synchronous at 63
  EXPECT_FALSE(engine.resync_pending());
  EXPECT_EQ(engine.stats().resyncs, 3);
}

}  // namespace
}  // namespace crowdtruth::streaming
