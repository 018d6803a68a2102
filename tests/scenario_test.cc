// Tests for the scenario-diversity harness (src/scenario/): workload
// generators (seeded, timed event streams that replay identically) and
// Buggify fault injection (stateless per-site schedules). The load-bearing
// pin is the ISSUE acceptance criterion: the same buggify seed produces an
// identical fault schedule and bit-identical post-recovery truth — at shard
// counts 1 and 4, through a checkpoint/restore cycle.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/answer_log.h"
#include "data/dataset.h"
#include "scenario/buggify.h"
#include "scenario/workload.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/status.h"

namespace crowdtruth::scenario {
namespace {

ScenarioSpec SmallSpec(const std::string& name, uint64_t seed = 7) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.num_tasks = 36;
  spec.num_workers = 12;
  spec.num_choices = 3;
  spec.redundancy = 5;
  return spec;
}

std::vector<ScenarioEvent> Drain(WorkloadGenerator& generator) {
  std::vector<ScenarioEvent> events;
  ScenarioEvent event;
  while (generator.Next(&event)) events.push_back(event);
  return events;
}

bool SameEvent(const ScenarioEvent& a, const ScenarioEvent& b) {
  return a.kind == b.kind && a.time == b.time && a.task == b.task &&
         a.worker == b.worker && a.label == b.label && a.truth == b.truth;
}

// --- Generator registry -------------------------------------------------

TEST(ScenarioRegistryTest, ListsTheFourScenarios) {
  const std::vector<std::string> expected = {
      "drifting_quality", "adversary_burst", "flash_crowd", "long_tail"};
  EXPECT_EQ(RegisteredScenarios(), expected);
  for (const std::string& name : expected) {
    EXPECT_NE(MakeGenerator(SmallSpec(name)), nullptr) << name;
  }
}

TEST(ScenarioRegistryTest, RejectsUnknownAndDegenerateSpecs) {
  EXPECT_EQ(MakeGenerator(SmallSpec("no_such_scenario")), nullptr);
  ScenarioSpec spec = SmallSpec("long_tail");
  spec.scale = 0.0;
  EXPECT_EQ(MakeGenerator(spec), nullptr);
  spec = SmallSpec("long_tail");
  spec.num_tasks = 0;
  EXPECT_EQ(MakeGenerator(spec), nullptr);
  spec = SmallSpec("long_tail");
  spec.num_workers = 1;  // a crowd of one is not a crowd
  EXPECT_EQ(MakeGenerator(spec), nullptr);
  spec = SmallSpec("long_tail");
  spec.num_choices = 1;
  EXPECT_EQ(MakeGenerator(spec), nullptr);
  spec = SmallSpec("long_tail");
  spec.redundancy = 0;
  EXPECT_EQ(MakeGenerator(spec), nullptr);
}

TEST(ScenarioRegistryTest, ScaleGrowsTasksAndWorkersSublinearly) {
  ScenarioSpec spec = SmallSpec("drifting_quality");
  spec.scale = 4.0;
  auto generator = MakeGenerator(spec);
  ASSERT_NE(generator, nullptr);
  // Tasks scale linearly, workers with sqrt(scale) (per-worker load holds).
  EXPECT_EQ(generator->spec().num_tasks, 4 * 36);
  EXPECT_EQ(generator->spec().num_workers, 24);
  int posts = 0;
  for (const ScenarioEvent& e : Drain(*generator)) {
    posts += e.kind == ScenarioEvent::Kind::kTaskPost ? 1 : 0;
  }
  EXPECT_EQ(posts, 4 * 36);
}

// --- Stream contract, per scenario --------------------------------------

class ScenarioStreamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioStreamTest, SameSeedReplaysTheIdenticalStream) {
  auto a = MakeGenerator(SmallSpec(GetParam()));
  auto b = MakeGenerator(SmallSpec(GetParam()));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const std::vector<ScenarioEvent> first = Drain(*a);
  const std::vector<ScenarioEvent> second = Drain(*b);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(SameEvent(first[i], second[i])) << "event " << i;
  }

  // A different seed is a different stream (labels, truths, or order).
  auto other = MakeGenerator(SmallSpec(GetParam(), /*seed=*/8));
  ASSERT_NE(other, nullptr);
  const std::vector<ScenarioEvent> reseeded = Drain(*other);
  bool differs = reseeded.size() != first.size();
  for (size_t i = 0; !differs && i < first.size(); ++i) {
    differs = !SameEvent(first[i], reseeded[i]);
  }
  EXPECT_TRUE(differs);
}

TEST_P(ScenarioStreamTest, StreamObeysTheEventContract) {
  auto generator = MakeGenerator(SmallSpec(GetParam()));
  ASSERT_NE(generator, nullptr);
  const ScenarioSpec& spec = generator->spec();
  const std::vector<ScenarioEvent> events = Drain(*generator);

  double last_time = 0.0;
  std::map<std::string, data::LabelId> posted;  // task -> truth
  std::set<std::string> joined;
  std::set<std::pair<std::string, std::string>> pairs;
  int64_t answers = 0;
  for (const ScenarioEvent& e : events) {
    EXPECT_GE(e.time, last_time) << "time went backwards";
    last_time = e.time;
    switch (e.kind) {
      case ScenarioEvent::Kind::kTaskPost:
        EXPECT_GE(e.truth, 0);
        EXPECT_LT(e.truth, spec.num_choices);
        EXPECT_TRUE(posted.emplace(e.task, e.truth).second)
            << e.task << " posted twice";
        break;
      case ScenarioEvent::Kind::kWorkerJoin:
        EXPECT_TRUE(joined.insert(e.worker).second)
            << e.worker << " joined twice";
        break;
      case ScenarioEvent::Kind::kAnswer:
        ++answers;
        ASSERT_TRUE(posted.count(e.task)) << e.task << " answered unposted";
        EXPECT_TRUE(joined.count(e.worker)) << e.worker << " never joined";
        EXPECT_GE(e.label, 0);
        EXPECT_LT(e.label, spec.num_choices);
        EXPECT_EQ(e.truth, posted[e.task]);
        EXPECT_TRUE(pairs.emplace(e.task, e.worker).second)
            << "duplicate (" << e.task << ", " << e.worker << ")";
        break;
    }
  }
  // Every task posted and answered exactly `redundancy` times.
  EXPECT_EQ(static_cast<int>(posted.size()), spec.num_tasks);
  EXPECT_EQ(answers, static_cast<int64_t>(spec.num_tasks) * spec.redundancy);
}

TEST_P(ScenarioStreamTest, FilesRoundTripThroughTheBatchLoader) {
  const std::string dir = ::testing::TempDir();
  const std::string log_path = dir + "/scenario_" + GetParam() + ".log";
  const std::string truth_path = dir + "/scenario_" + GetParam() + ".csv";
  auto generator = MakeGenerator(SmallSpec(GetParam()));
  ASSERT_NE(generator, nullptr);
  ScenarioFileStats stats;
  ASSERT_TRUE(
      WriteScenarioFiles(*generator, log_path, truth_path, &stats).ok());
  EXPECT_EQ(stats.tasks, generator->spec().num_tasks);
  EXPECT_GT(stats.workers, 1);
  EXPECT_EQ(stats.answers, static_cast<int64_t>(stats.tasks) *
                               generator->spec().redundancy);

  data::CategoricalDataset dataset;
  ASSERT_TRUE(data::LoadCategoricalLog(log_path, truth_path,
                                       generator->spec().num_choices,
                                       &dataset)
                  .ok());
  EXPECT_EQ(dataset.num_tasks(), stats.tasks);
  EXPECT_EQ(dataset.num_workers(), stats.workers);
  EXPECT_EQ(static_cast<int64_t>(dataset.num_answers()), stats.answers);
  for (int t = 0; t < dataset.num_tasks(); ++t) {
    ASSERT_TRUE(dataset.HasTruth(t)) << "task " << t << " lost its truth";
  }
  std::filesystem::remove(log_path);
  std::filesystem::remove(truth_path);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioStreamTest,
                         ::testing::Values("drifting_quality",
                                           "adversary_burst", "flash_crowd",
                                           "long_tail"));

// --- Buggify schedules --------------------------------------------------

TEST(BuggifyScheduleTest, DecisionsArePureFunctionsOfTheConfig) {
  BuggifyConfig config;
  config.seed = 13;
  config.activate_probability = 1.0;
  config.fire_probability = 0.5;
  for (const char* site : {"checkpoint_write", "answer_log_read"}) {
    EXPECT_EQ(BuggifyContext::SiteActivated(config, site),
              BuggifyContext::SiteActivated(config, site));
    for (uint64_t v = 0; v < 64; ++v) {
      EXPECT_EQ(BuggifyContext::VisitFires(config, site, v),
                BuggifyContext::VisitFires(config, site, v));
    }
  }

  BuggifyContext a(config);
  BuggifyContext b(config);
  for (int i = 0; i < 200; ++i) {
    const char* site = i % 3 == 0 ? "barrier_wait" : "validator_accept";
    EXPECT_EQ(a.Fire(site), b.Fire(site));
  }
  ASSERT_EQ(a.fault_log().size(), b.fault_log().size());
  EXPECT_GT(a.fires(), 0);
  EXPECT_LT(a.fires(), a.visits());
  for (size_t i = 0; i < a.fault_log().size(); ++i) {
    EXPECT_EQ(a.fault_log()[i].site, b.fault_log()[i].site);
    EXPECT_EQ(a.fault_log()[i].visit, b.fault_log()[i].visit);
  }
}

TEST(BuggifyScheduleTest, SiteSchedulesAreIndependentOfInterleaving) {
  BuggifyConfig config;
  config.seed = 99;
  config.activate_probability = 1.0;
  config.fire_probability = 0.5;
  // A visits "x" and "y" interleaved; B visits only "y". The "y" schedule
  // must be identical — that is the stateless-hash contract that keeps the
  // fault log reproducible no matter what other sites a code path crosses.
  BuggifyContext interleaved(config);
  BuggifyContext alone(config);
  std::vector<uint64_t> fired_interleaved;
  std::vector<uint64_t> fired_alone;
  for (uint64_t v = 0; v < 100; ++v) {
    interleaved.Fire("x");
    if (interleaved.Fire("y")) fired_interleaved.push_back(v);
    if (alone.Fire("y")) fired_alone.push_back(v);
  }
  EXPECT_EQ(fired_interleaved, fired_alone);
  for (const uint64_t v : fired_alone) {
    EXPECT_TRUE(BuggifyContext::VisitFires(config, "y", v));
  }
}

TEST(BuggifyScheduleTest, ActivationGatesEveryFire) {
  BuggifyConfig off;
  off.seed = 5;
  off.activate_probability = 0.0;
  off.fire_probability = 1.0;
  BuggifyContext never(off);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.Fire("snapshot_restore"));
  }
  EXPECT_EQ(never.fires(), 0);
  EXPECT_EQ(never.visits(), 100);

  BuggifyConfig on;
  on.seed = 5;
  on.activate_probability = 1.0;
  on.fire_probability = 1.0;
  BuggifyContext always(on);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(always.Fire("snapshot_restore"));
  }
  EXPECT_EQ(always.fires(), always.visits());
}

TEST(BuggifyScheduleTest, DifferentSeedsScheduleDifferently) {
  BuggifyConfig a;
  a.seed = 1;
  a.activate_probability = 1.0;
  a.fire_probability = 0.5;
  BuggifyConfig b = a;
  b.seed = 2;
  bool differs = false;
  for (uint64_t v = 0; v < 256 && !differs; ++v) {
    differs = BuggifyContext::VisitFires(a, "answer_log_read", v) !=
              BuggifyContext::VisitFires(b, "answer_log_read", v);
  }
  EXPECT_TRUE(differs);
}

TEST(BuggifyProcessTest, EnableDisableAndFaultLogLines) {
  DisableBuggify();
  EXPECT_FALSE(BuggifyEnabled());
  EXPECT_FALSE(Buggify("alpha"));  // off means off, whatever the build

  BuggifyConfig config;
  config.seed = 21;
  config.activate_probability = 1.0;
  config.fire_probability = 1.0;
  EnableBuggify(config);
  EXPECT_TRUE(BuggifyEnabled());
  EXPECT_TRUE(Buggify("alpha"));
  EXPECT_TRUE(Buggify("alpha"));
  EXPECT_TRUE(Buggify("beta"));
  const std::vector<std::string> expected = {"alpha#0", "alpha#1", "beta#0"};
  EXPECT_EQ(BuggifyFaultLines(), expected);

  const std::string path = ::testing::TempDir() + "/buggify_log_test.txt";
  ASSERT_TRUE(WriteBuggifyLog(path).ok());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "alpha#0\nalpha#1\nbeta#0\ntotal 3\n");
  std::filesystem::remove(path);

  // Re-enabling with the same config restarts the schedule from visit 0.
  EnableBuggify(config);
  EXPECT_TRUE(Buggify("alpha"));
  EXPECT_EQ(BuggifyFaultLines(), std::vector<std::string>({"alpha#0"}));
  DisableBuggify();
  EXPECT_FALSE(Buggify("alpha"));
}

// --- The acceptance pin: fault-schedule determinism through recovery ----

struct ShardRunResult {
  std::vector<data::LabelId> labels;
  std::vector<std::string> fault_lines;
};

// Streams a scenario's answers through a shard coordinator with a
// checkpoint/restore recovery cycle at the midpoint — the in-process twin
// of tools/shard_e2e.sh assertion 6 and the matrix runner's crash_restart
// policy. When Buggify is compiled in and enabled, the validator_accept
// and barrier_wait sites fire along the way.
ShardRunResult RunScenarioThroughShards(const std::vector<ScenarioEvent>&
                                            events,
                                        int shards, int num_choices) {
  shard::CoordinatorConfig config;
  config.shard_count = shards;
  config.method = "ZC";
  config.num_choices = num_choices;
  config.barrier_interval = 37;

  std::vector<const ScenarioEvent*> answers;
  for (const ScenarioEvent& e : events) {
    if (e.kind == ScenarioEvent::Kind::kAnswer) answers.push_back(&e);
  }
  const size_t cut = answers.size() / 2;

  std::unique_ptr<shard::CategoricalShardCoordinator> first;
  EXPECT_TRUE(
      shard::CategoricalShardCoordinator::Create(config, &first).ok());
  for (size_t i = 0; i < cut; ++i) {
    EXPECT_TRUE(
        first->Observe(answers[i]->task, answers[i]->worker, answers[i]->label)
            .ok());
  }
  const util::JsonValue checkpoint = first->MakeCheckpoint();
  first.reset();  // the "crash"

  std::unique_ptr<shard::CategoricalShardCoordinator> second;
  EXPECT_TRUE(
      shard::CategoricalShardCoordinator::Create(config, &second).ok());
  EXPECT_TRUE(second->Restore(checkpoint).ok());
  for (size_t i = 0; i < cut; ++i) {
    (void)second->ReplayRouting(answers[i]->task, answers[i]->worker,
                                answers[i]->label);
  }
  EXPECT_TRUE(second->FinishReplay().ok());
  for (size_t i = cut; i < answers.size(); ++i) {
    EXPECT_TRUE(second
                    ->Observe(answers[i]->task, answers[i]->worker,
                              answers[i]->label)
                    .ok());
  }
  core::CategoricalResult result;
  EXPECT_TRUE(second->GlobalResync(&result).ok());
  return {result.labels, BuggifyFaultLines()};
}

TEST(BuggifyShardTest, SameSeedSameFaultLogSameTruthAtShardCounts1And4) {
  auto generator = MakeGenerator(SmallSpec("adversary_burst"));
  ASSERT_NE(generator, nullptr);
  const std::vector<ScenarioEvent> events = Drain(*generator);
  const int choices = generator->spec().num_choices;

  BuggifyConfig config;
  config.seed = 77;
  config.activate_probability = 1.0;
  config.fire_probability = 0.3;

  for (const int shards : {1, 4}) {
    DisableBuggify();
    const ShardRunResult clean =
        RunScenarioThroughShards(events, shards, choices);
    ASSERT_FALSE(clean.labels.empty());
    EXPECT_TRUE(clean.fault_lines.empty());

    EnableBuggify(config);
    const ShardRunResult run_a =
        RunScenarioThroughShards(events, shards, choices);
    EnableBuggify(config);  // fresh context, same schedule
    const ShardRunResult run_b =
        RunScenarioThroughShards(events, shards, choices);
    DisableBuggify();

    // Identical fault schedules across identically-seeded runs...
    EXPECT_EQ(run_a.fault_lines, run_b.fault_lines) << shards << " shards";
    // ...and faults never change the answer: post-recovery truth is
    // bit-identical to the fault-free run.
    EXPECT_EQ(run_a.labels, clean.labels) << shards << " shards";
    EXPECT_EQ(run_b.labels, clean.labels) << shards << " shards";
    if (kBuggifyCompiledIn) {
      EXPECT_GT(run_a.fault_lines.size(), 0u)
          << "armed buggify build fired nothing";
    }
  }
}

// File-level recovery: checkpoints written through WriteJsonFileAtomic
// while the checkpoint_write site may fail the first rename, then a restart
// that restores whichever checkpoint FindLatestCheckpoint hands back (the
// snapshot_restore site may deliberately pick the older one) and replays
// forward. Whatever fires, the truth must match the fault-free run.
TEST(BuggifyShardTest, RecoveryFromDiskCheckpointsSurvivesFaults) {
  auto generator = MakeGenerator(SmallSpec("drifting_quality", 19));
  ASSERT_NE(generator, nullptr);
  const std::vector<ScenarioEvent> events = Drain(*generator);
  std::vector<const ScenarioEvent*> answers;
  for (const ScenarioEvent& e : events) {
    if (e.kind == ScenarioEvent::Kind::kAnswer) answers.push_back(&e);
  }
  const size_t n = answers.size();

  shard::CoordinatorConfig config;
  config.shard_count = 4;
  config.method = "ZC";
  config.num_choices = generator->spec().num_choices;
  config.barrier_interval = 37;

  DisableBuggify();
  std::unique_ptr<shard::CategoricalShardCoordinator> reference;
  ASSERT_TRUE(
      shard::CategoricalShardCoordinator::Create(config, &reference).ok());
  for (const ScenarioEvent* a : answers) {
    ASSERT_TRUE(reference->Observe(a->task, a->worker, a->label).ok());
  }
  core::CategoricalResult expected;
  ASSERT_TRUE(reference->GlobalResync(&expected).ok());

  BuggifyConfig faults;
  faults.seed = 31;
  faults.activate_probability = 1.0;
  faults.fire_probability = 1.0;  // every visit: worst-case schedule
  EnableBuggify(faults);

  const std::string dir =
      ::testing::TempDir() + "/scenario_buggify_ckpt_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Run to two cut points, persisting a checkpoint at each.
  const size_t cut_early = n / 3;
  const size_t cut_late = 2 * n / 3;
  std::unique_ptr<shard::CategoricalShardCoordinator> writer;
  ASSERT_TRUE(
      shard::CategoricalShardCoordinator::Create(config, &writer).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(
        writer->Observe(answers[i]->task, answers[i]->worker, answers[i]->label)
            .ok());
    if (i + 1 == cut_early || i + 1 == cut_late) {
      const std::string path =
          dir + "/" +
          shard::CheckpointFileName("run", writer->next_sequence());
      ASSERT_TRUE(shard::WriteJsonFileAtomic(path, writer->MakeCheckpoint())
                      .ok());
      // Atomicity held even if the first rename was failed on purpose.
      EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    }
  }
  writer.reset();  // the "crash"

  // Restart: restore whichever checkpoint the (possibly faulty) lookup
  // returns, replay its consumed prefix, stream the rest.
  std::string latest;
  int64_t latest_seq = 0;
  ASSERT_TRUE(
      shard::FindLatestCheckpoint(dir, "run", &latest, &latest_seq).ok());
  util::JsonValue doc;
  ASSERT_TRUE(shard::ReadJsonFile(latest, &doc).ok());
  std::unique_ptr<shard::CategoricalShardCoordinator> resumed;
  ASSERT_TRUE(
      shard::CategoricalShardCoordinator::Create(config, &resumed).ok());
  ASSERT_TRUE(resumed->Restore(doc).ok());
  const size_t cut = static_cast<size_t>(resumed->next_sequence());
  ASSERT_LE(cut, n);
  for (size_t i = 0; i < cut; ++i) {
    (void)resumed->ReplayRouting(answers[i]->task, answers[i]->worker,
                                 answers[i]->label);
  }
  ASSERT_TRUE(resumed->FinishReplay().ok());
  for (size_t i = cut; i < n; ++i) {
    ASSERT_TRUE(
        resumed->Observe(answers[i]->task, answers[i]->worker,
                         answers[i]->label)
            .ok());
  }
  core::CategoricalResult recovered;
  ASSERT_TRUE(resumed->GlobalResync(&recovered).ok());
  DisableBuggify();

  EXPECT_EQ(recovered.labels, expected.labels);
  EXPECT_EQ(recovered.worker_quality, expected.worker_quality);
  if (kBuggifyCompiledIn) {
    // With fire=1 the lookup must have preferred the older checkpoint.
    EXPECT_EQ(latest_seq, static_cast<int64_t>(cut_early));
  } else {
    EXPECT_EQ(latest_seq, static_cast<int64_t>(cut_late));
  }
  std::filesystem::remove_all(dir);
}

// --- The resync_solve_delay site -----------------------------------------

// The estimates after every answer of one engine run, with its waiting
// adoptions and the fault log it left.
struct LaggedEngineRun {
  std::vector<std::vector<data::LabelId>> estimates;
  int waits = 0;
  std::vector<std::string> fault_lines;
};

// Streams the answers of `events` through a ZC engine whose periodic
// resyncs are solved in the background (interval 50, lag 5). With
// `settle`, each launched solve has finished before the next answer: the
// background solver runs jobs in order, so waiting on a no-op submitted
// after it waits for the solve too, and no adoption has to wait.
LaggedEngineRun RunLaggedEngine(const std::vector<ScenarioEvent>& events,
                                int num_choices, bool settle) {
  streaming::EngineConfig config;
  config.resync_interval = 50;
  streaming::CategoricalStreamEngine engine(
      streaming::MakeIncrementalCategorical("ZC", num_choices, {}), config);
  LaggedEngineRun run;
  for (const ScenarioEvent& event : events) {
    if (event.kind != ScenarioEvent::Kind::kAnswer) continue;
    EXPECT_TRUE(engine.Observe(event.task, event.worker, event.label).ok());
    if (settle && engine.resync_pending()) {
      util::WaitBackground(*util::SubmitBackground([] {}));
    }
    run.estimates.push_back(engine.method().Estimates());
  }
  run.waits = engine.stats().resync_waits;
  run.fault_lines = BuggifyFaultLines();
  return run;
}

// The armed site delays every periodic solve, so adoptions wait for it;
// the truth after every answer is still that of the unarmed run, whose
// solves all finish before their adoption.
TEST(BuggifyStreamTest, ResyncSolveDelayForcesWaitsWithoutChangingTruth) {
  auto generator = MakeGenerator(SmallSpec("adversary_burst"));
  ASSERT_NE(generator, nullptr);
  const std::vector<ScenarioEvent> events = Drain(*generator);
  const int choices = generator->spec().num_choices;

  DisableBuggify();
  const LaggedEngineRun settled = RunLaggedEngine(events, choices, true);
  EXPECT_EQ(settled.waits, 0);
  ASSERT_GE(settled.estimates.size(), 155u);  // three adopted resyncs

  BuggifyConfig config;
  config.seed = 5;
  config.activate_probability = 1.0;
  config.fire_probability = 1.0;
  EnableBuggify(config);
  const LaggedEngineRun delayed = RunLaggedEngine(events, choices, false);
  DisableBuggify();

  EXPECT_EQ(delayed.estimates, settled.estimates);
  if (kBuggifyCompiledIn) {
    EXPECT_EQ(delayed.fault_lines.size(), settled.estimates.size() / 50);
    for (const std::string& line : delayed.fault_lines) {
      EXPECT_EQ(line.rfind("resync_solve_delay#", 0), 0u) << line;
    }
    EXPECT_GT(delayed.waits, 0);
  }
}

}  // namespace
}  // namespace crowdtruth::scenario
