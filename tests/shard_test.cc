// Tests for the sharded engine (src/shard/): the determinism contract
// (same log, any shard count, kill-and-restart at any checkpoint -> the
// same truth, bit for bit), the replay driver, checkpoint envelope
// versioning, deterministic task partitioning, answer-log shard slices and
// worker-summary merging.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/answer_log.h"
#include "obs/metrics.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "shard/replay.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "streaming/worker_summary.h"
#include "test_util.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/status.h"

namespace crowdtruth::shard {
namespace {

struct StreamAnswer {
  std::string task;
  std::string worker;
  data::LabelId label;
};

// Flattens a planted dataset into a shuffled arrival-order stream.
std::vector<StreamAnswer> MakeStream(int num_tasks, int num_workers,
                                     uint64_t seed) {
  testing::PlantedSpec spec;
  spec.num_tasks = num_tasks;
  spec.num_workers = num_workers;
  spec.num_choices = 3;
  spec.redundancy = 4;
  spec.worker_accuracy = {0.9, 0.7, 0.8, 0.6, 0.85};
  const data::CategoricalDataset dataset = testing::PlantedDataset(spec, seed);
  std::vector<StreamAnswer> stream;
  for (int t = 0; t < dataset.num_tasks(); ++t) {
    for (const data::TaskVote& vote : dataset.AnswersForTask(t)) {
      stream.push_back({"t" + std::to_string(t),
                        "w" + std::to_string(vote.worker), vote.label});
    }
  }
  util::Rng rng(seed + 1);
  rng.Shuffle(stream);
  return stream;
}

CoordinatorConfig MakeConfig(const std::string& method, int shards,
                             int64_t barrier_interval) {
  CoordinatorConfig config;
  config.shard_count = shards;
  config.method = method;
  config.num_choices = 3;
  config.barrier_interval = barrier_interval;
  return config;
}

// --- data::ShardOfTask -------------------------------------------------

TEST(ShardOfTaskTest, StableInRangeAndDegenerate) {
  for (int count : {1, 2, 4, 7}) {
    for (int i = 0; i < 200; ++i) {
      const std::string task = "task_" + std::to_string(i);
      const int shard = data::ShardOfTask(task, count);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, count);
      // Deterministic: hashing again must agree (this is the whole routing
      // contract — every process computes the owner independently).
      EXPECT_EQ(shard, data::ShardOfTask(task, count));
    }
    EXPECT_EQ(data::ShardOfTask("anything", 1), 0);
  }
}

TEST(ShardOfTaskTest, SpreadsTasksOverAllShards) {
  const int count = 4;
  std::set<int> hit;
  for (int i = 0; i < 64; ++i) {
    hit.insert(data::ShardOfTask("t" + std::to_string(i), count));
  }
  EXPECT_EQ(static_cast<int>(hit.size()), count);
}

// --- AnswerLogReader shard slices --------------------------------------

TEST(AnswerLogSliceTest, SlicesPartitionTheLogWithGlobalSequences) {
  const std::string path = ::testing::TempDir() + "/slice_test.log";
  data::AnswerLogHeader header;
  header.type = data::AnswerLogType::kCategorical;
  header.num_choices = 3;
  data::AnswerLogWriter writer;
  ASSERT_TRUE(data::AnswerLogWriter::Create(path, header, &writer).ok());
  const int kRecords = 120;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(writer
                    .Append("t" + std::to_string(i % 40),
                            "w" + std::to_string(i / 40),
                            static_cast<data::LabelId>(i % 3))
                    .ok());
  }

  const int kShards = 3;
  std::set<int64_t> seen;
  for (int s = 0; s < kShards; ++s) {
    data::AnswerLogReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    ASSERT_TRUE(reader.SetShardSlice(s, kShards).ok());
    data::AnswerLogRecord record;
    bool eof = false;
    while (true) {
      ASSERT_TRUE(reader.Next(&record, &eof).ok());
      if (eof) break;
      // Slice membership matches the routing hash, sequences stay global.
      EXPECT_EQ(data::ShardOfTask(record.task, kShards), s);
      EXPECT_TRUE(seen.insert(record.sequence).second)
          << "sequence " << record.sequence << " yielded twice";
    }
    // Every slice consumed the whole log's sequence space.
    EXPECT_EQ(reader.next_sequence(), kRecords);
  }
  // The union of the slices is exactly the log.
  EXPECT_EQ(static_cast<int>(seen.size()), kRecords);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), kRecords - 1);
  std::remove(path.c_str());
}

// --- The determinism contract ------------------------------------------

class ShardIdentityTest : public ::testing::TestWithParam<std::string> {};

// Acceptance pin: GlobalResync over any shard count equals a single
// engine's final resync on the same stream — exactly, not approximately.
TEST_P(ShardIdentityTest, GlobalResyncBitIdenticalAcrossShardCounts) {
  const std::string method = GetParam();
  const std::vector<StreamAnswer> stream = MakeStream(60, 5, 11);

  streaming::CategoricalStreamEngine single(
      streaming::MakeIncrementalCategorical(method, 3, {}),
      streaming::EngineConfig{/*resync_interval=*/0});
  for (const StreamAnswer& a : stream) {
    ASSERT_TRUE(single.Observe(a.task, a.worker, a.label).ok());
  }
  const core::CategoricalResult reference = single.Resync();

  for (int shards : {1, 2, 4}) {
    std::unique_ptr<CategoricalShardCoordinator> coordinator;
    ASSERT_TRUE(CategoricalShardCoordinator::Create(
                    MakeConfig(method, shards, /*barrier_interval=*/37),
                    &coordinator)
                    .ok());
    for (const StreamAnswer& a : stream) {
      ASSERT_TRUE(coordinator->Observe(a.task, a.worker, a.label).ok());
    }
    EXPECT_GT(coordinator->barriers_run(), 0);
    core::CategoricalResult global;
    ASSERT_TRUE(coordinator->GlobalResync(&global).ok());
    EXPECT_EQ(global.labels, reference.labels) << shards << " shards";
    EXPECT_EQ(global.worker_quality, reference.worker_quality)
        << shards << " shards";
    // The adopted per-shard estimates must agree with the global solution
    // task by task (the serving path between barriers).
    for (int gid = 0; gid < coordinator->global_num_tasks(); ++gid) {
      const int owner = coordinator->TaskOwner(gid);
      ASSERT_GE(owner, 0);
      EXPECT_EQ(coordinator->engine(owner).method().Estimate(
                    coordinator->TaskLocal(gid)),
                global.labels[gid]);
    }
  }
}

// Kill-and-restart: checkpoint at an arbitrary cut, restore into a fresh
// coordinator, replay the prefix, stream the rest — same truth, bit for
// bit, at every cut point tried.
TEST_P(ShardIdentityTest, CheckpointRestartBitIdentical) {
  const std::string method = GetParam();
  const std::vector<StreamAnswer> stream = MakeStream(50, 5, 23);
  const int n = static_cast<int>(stream.size());

  std::unique_ptr<CategoricalShardCoordinator> reference;
  ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig(method, 4, 29),
                                                  &reference)
                    .ok());
  for (const StreamAnswer& a : stream) {
    ASSERT_TRUE(reference->Observe(a.task, a.worker, a.label).ok());
  }
  core::CategoricalResult expected;
  ASSERT_TRUE(reference->GlobalResync(&expected).ok());

  for (int cut : {1, n / 3, n / 2, n - 1}) {
    // The run that "crashed": consumed `cut` records, checkpointed.
    std::unique_ptr<CategoricalShardCoordinator> first;
    ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig(method, 4, 29),
                                                    &first)
                    .ok());
    for (int i = 0; i < cut; ++i) {
      ASSERT_TRUE(
          first->Observe(stream[i].task, stream[i].worker, stream[i].label)
              .ok());
    }
    const util::JsonValue checkpoint = first->MakeCheckpoint();

    // The restarted run: restore, replay the consumed prefix, continue.
    std::unique_ptr<CategoricalShardCoordinator> second;
    ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig(method, 4, 29),
                                                    &second)
                    .ok());
    ASSERT_TRUE(second->Restore(checkpoint).ok());
    ASSERT_EQ(second->next_sequence(), cut);
    for (int i = 0; i < cut; ++i) {
      (void)second->ReplayRouting(stream[i].task, stream[i].worker,
                                  stream[i].label);
    }
    ASSERT_TRUE(second->FinishReplay().ok()) << "cut=" << cut;
    for (int i = cut; i < n; ++i) {
      ASSERT_TRUE(
          second->Observe(stream[i].task, stream[i].worker, stream[i].label)
              .ok());
    }
    core::CategoricalResult resumed;
    ASSERT_TRUE(second->GlobalResync(&resumed).ok());
    EXPECT_EQ(resumed.labels, expected.labels) << "cut=" << cut;
    EXPECT_EQ(resumed.worker_quality, expected.worker_quality)
        << "cut=" << cut;
  }
}

// The state every shard serves after one barrier: estimates, worker
// qualities (as bits) and the full engine snapshot.
struct ShardState {
  std::vector<data::LabelId> estimates;
  std::vector<uint64_t> quality_bits;
  std::string snapshot;
};

// Replays `stream` through a 4-shard coordinator with CROWDTRUTH_THREADS
// set to `threads` (the barrier's pool width), running a barrier every 37
// records and after the last, and records every shard's state after
// every barrier.
std::vector<ShardState> BarrierStates(const std::string& method,
                                      const std::vector<StreamAnswer>& stream,
                                      const char* threads) {
  setenv("CROWDTRUTH_THREADS", threads, /*overwrite=*/1);
  std::vector<ShardState> states;
  std::unique_ptr<CategoricalShardCoordinator> coordinator;
  EXPECT_TRUE(CategoricalShardCoordinator::Create(MakeConfig(method, 4, 0),
                                                  &coordinator)
                  .ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(coordinator
                    ->Observe(stream[i].task, stream[i].worker,
                              stream[i].label)
                    .ok());
    if ((i + 1) % 37 != 0 && i + 1 != stream.size()) continue;
    EXPECT_TRUE(coordinator->RunBarrier().ok());
    for (int s = 0; s < coordinator->shard_count(); ++s) {
      const auto& engine = coordinator->engine(s);
      ShardState state;
      state.estimates = engine.method().Estimates();
      for (const double q : engine.method().WorkerQualities()) {
        state.quality_bits.push_back(std::bit_cast<uint64_t>(q));
      }
      state.snapshot = engine.Snapshot().Dump();
      states.push_back(std::move(state));
    }
  }
  unsetenv("CROWDTRUTH_THREADS");
  return states;
}

// Barriers run their per-shard work concurrently on the worker pool; the
// state every shard serves after each barrier — not just the final
// GlobalResync — must not depend on the pool's width.
TEST_P(ShardIdentityTest, EveryBarrierIdenticalAtAnyPoolWidth) {
  const std::string method = GetParam();
  const std::vector<StreamAnswer> stream = MakeStream(80, 5, 31);
  const std::vector<ShardState> serial = BarrierStates(method, stream, "1");
  const std::vector<ShardState> pooled = BarrierStates(method, stream, "4");
  ASSERT_EQ(serial.size(), pooled.size());
  ASSERT_GT(serial.size(), 4u);
  for (size_t i = 0; i < serial.size(); ++i) {
    const size_t barrier = i / 4;
    const size_t shard = i % 4;
    EXPECT_EQ(serial[i].estimates, pooled[i].estimates)
        << "barrier " << barrier << " shard " << shard;
    EXPECT_EQ(serial[i].quality_bits, pooled[i].quality_bits)
        << "barrier " << barrier << " shard " << shard;
    EXPECT_EQ(serial[i].snapshot, pooled[i].snapshot)
        << "barrier " << barrier << " shard " << shard;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIncrementalMethods, ShardIdentityTest,
                         ::testing::Values("MV", "ZC", "D&S"));

TEST(NumericShardTest, GlobalResyncMatchesSingleEngine) {
  // Numeric payloads through Mean and Median coordinators.
  for (const std::string method : {"Mean", "Median"}) {
    util::Rng rng(5);
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int t = 0; t < 40; ++t) {
      for (int w = 0; w < 5; ++w) {
        pairs.emplace_back("t" + std::to_string(t), "w" + std::to_string(w));
      }
    }
    rng.Shuffle(pairs);
    std::vector<double> values;
    values.reserve(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      values.push_back(10.0 * rng.Uniform() - 5.0);
    }

    streaming::NumericStreamEngine single(
        streaming::MakeIncrementalNumeric(method, {}),
        streaming::EngineConfig{/*resync_interval=*/0});
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_TRUE(
          single.Observe(pairs[i].first, pairs[i].second, values[i]).ok());
    }
    const core::NumericResult reference = single.Resync();

    for (int shards : {1, 2, 4}) {
      CoordinatorConfig config;
      config.shard_count = shards;
      config.method = method;
      config.barrier_interval = 31;
      std::unique_ptr<NumericShardCoordinator> coordinator;
      ASSERT_TRUE(NumericShardCoordinator::Create(config, &coordinator).ok());
      for (size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_TRUE(
            coordinator->Observe(pairs[i].first, pairs[i].second, values[i])
                .ok());
      }
      core::NumericResult global;
      ASSERT_TRUE(coordinator->GlobalResync(&global).ok());
      EXPECT_EQ(global.values, reference.values)
          << method << " with " << shards << " shards";
      EXPECT_EQ(global.worker_quality, reference.worker_quality)
          << method << " with " << shards << " shards";
    }
  }
}

// --- Rejected records --------------------------------------------------

TEST(ShardCoordinatorTest, RejectionsMirrorSingleEngineSemantics) {
  std::unique_ptr<CategoricalShardCoordinator> coordinator;
  ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig("ZC", 2, 0),
                                                  &coordinator)
                  .ok());
  ASSERT_TRUE(coordinator->Observe("t0", "w0", 1).ok());
  // Out-of-range label: rejected, but the slot is consumed.
  EXPECT_FALSE(coordinator->Observe("t1", "w0", 7).ok());
  // Duplicate (task, worker) pair: rejected.
  EXPECT_FALSE(coordinator->Observe("t0", "w0", 0).ok());
  EXPECT_EQ(coordinator->next_sequence(), 3);
  EXPECT_EQ(coordinator->answers_accepted(), 1);
  // Rejected records still intern their ids, mirroring a single engine.
  EXPECT_EQ(coordinator->tasks().size(), 2);
  EXPECT_EQ(coordinator->workers().size(), 1);
  // ...but the dense solve space only covers accepted answers.
  EXPECT_EQ(coordinator->global_num_tasks(), 1);
  EXPECT_EQ(coordinator->TaskOwner(1), -1);
}

// The shards of one coordinator feed one {method, tenant} backlog gauge
// child, which must read the sum of their backlogs (the adaptive controller
// steers a sharded tenant on it), not whichever shard reported last.
TEST(ShardCoordinatorTest, SharedBacklogGaugeReadsTheShardSum) {
  obs::MetricRegistry registry;
  obs::InstallProcessMetrics(&registry);
  CoordinatorConfig config = MakeConfig("ZC", 2, 0);
  config.options.max_dirty_tasks = 1;
  std::unique_ptr<CategoricalShardCoordinator> coordinator;
  ASSERT_TRUE(CategoricalShardCoordinator::Create(config, &coordinator).ok());
  bool both_backlogged = false;
  for (const StreamAnswer& answer : MakeStream(80, 5, 5)) {
    ASSERT_TRUE(
        coordinator->Observe(answer.task, answer.worker, answer.label).ok());
    const int64_t first = coordinator->engine(0).method().backlog_size();
    const int64_t second = coordinator->engine(1).method().backlog_size();
    both_backlogged = both_backlogged || (first > 0 && second > 0);
    const obs::Gauge& gauge =
        registry.FindGaugeFamily("crowdtruth_stream_backlog_tasks")
            ->WithLabels({"ZC", ""});
    ASSERT_EQ(gauge.Value(), static_cast<double>(first + second))
        << "after " << coordinator->next_sequence() << " records";
  }
  obs::InstallProcessMetrics(nullptr);
  EXPECT_TRUE(both_backlogged);
}

// --- Checkpoint envelope -----------------------------------------------

// --- The replay driver (shard/replay.h) -------------------------------

std::vector<data::AnswerLogRecord> ToRecords(
    const std::vector<StreamAnswer>& stream) {
  std::vector<data::AnswerLogRecord> records;
  for (const StreamAnswer& answer : stream) {
    data::AnswerLogRecord record;
    record.task = answer.task;
    record.worker = answer.worker;
    record.label = answer.label;
    record.sequence = static_cast<int64_t>(records.size());
    records.push_back(std::move(record));
  }
  return records;
}

// Resuming from each checkpoint the driver wrote reaches the uninterrupted
// run's GlobalResync bits.
TEST(ShardReplayTest, ResumeFromEachCheckpointReproducesTheRun) {
  const std::vector<data::AnswerLogRecord> records =
      ToRecords(MakeStream(50, 5, 31));
  const int64_t total = static_cast<int64_t>(records.size());
  const std::string dir = ::testing::TempDir() + "/replay_driver_test";
  ASSERT_EQ(0, system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()));
  ReplayConfig config;
  config.coordinator = MakeConfig("D&S", 4, 29);
  config.checkpoint_every = 40;
  config.checkpoint_dir = dir;
  std::unique_ptr<CategoricalShardReplay> replay;
  ASSERT_TRUE(CategoricalShardReplay::Create(config, records, &replay).ok());
  ASSERT_TRUE(replay->Run(total).ok());
  EXPECT_EQ(replay->replayed(), total);
  core::CategoricalResult expected;
  ASSERT_TRUE(replay->coordinator().GlobalResync(&expected).ok());

  ASSERT_GE(total / 40, 3);
  config.checkpoint_every = 0;
  for (int64_t at = 40; at <= total; at += 40) {
    std::unique_ptr<CategoricalShardReplay> resumed;
    ASSERT_TRUE(
        CategoricalShardReplay::Create(config, records, &resumed).ok());
    ASSERT_TRUE(
        resumed->Resume(dir + "/" + CheckpointFileName("checkpoint", at))
            .ok())
        << "checkpoint " << at;
    EXPECT_EQ(resumed->coordinator().next_sequence(), at);
    ASSERT_TRUE(resumed->Run(total).ok());
    EXPECT_EQ(resumed->replayed(), total - at);
    core::CategoricalResult global;
    ASSERT_TRUE(resumed->coordinator().GlobalResync(&global).ok());
    EXPECT_EQ(global.labels, expected.labels) << "checkpoint " << at;
    EXPECT_EQ(global.worker_quality, expected.worker_quality)
        << "checkpoint " << at;
  }

  std::unique_ptr<CategoricalShardReplay> latest;
  ASSERT_TRUE(CategoricalShardReplay::Create(config, records, &latest).ok());
  std::string path;
  ASSERT_TRUE(latest->ResumeLatest(dir, &path).ok());
  EXPECT_EQ(path, dir + "/" + CheckpointFileName("checkpoint",
                                                 total / 40 * 40));
  ASSERT_EQ(0, system(("rm -rf " + dir).c_str()));
}

// A duplicate (task, worker) pair and an out-of-range label: the repair
// policy skips both, each still consuming its slot; the reject policy
// skips the duplicate (a resumed replay re-reads answers) but fails on the
// out-of-range label.
TEST(ShardReplayTest, RepairSkipsBadRecordsAndRejectFails) {
  std::vector<data::AnswerLogRecord> records =
      ToRecords(MakeStream(20, 4, 5));
  const data::AnswerLogRecord duplicate = records[3];
  data::AnswerLogRecord out_of_range = records[4];
  out_of_range.task = "t_bad";
  out_of_range.label = 7;
  records.insert(records.begin() + 10, duplicate);
  records.insert(records.begin() + 20, out_of_range);
  const int64_t total = static_cast<int64_t>(records.size());

  ReplayConfig config;
  config.coordinator = MakeConfig("ZC", 2, 16);
  std::unique_ptr<CategoricalShardReplay> repair;
  ASSERT_TRUE(CategoricalShardReplay::Create(config, records, &repair).ok());
  ASSERT_TRUE(repair->Run(total).ok());
  EXPECT_EQ(repair->skipped(), 2);
  EXPECT_EQ(repair->replayed(), total - 2);
  EXPECT_EQ(repair->coordinator().next_sequence(), total);
  EXPECT_EQ(repair->coordinator().answers_accepted(), total - 2);

  config.on_bad_record = data::BadRecordPolicy::kReject;
  std::unique_ptr<CategoricalShardReplay> reject;
  ASSERT_TRUE(CategoricalShardReplay::Create(config, records, &reject).ok());
  EXPECT_FALSE(reject->Run(total).ok());
  EXPECT_EQ(reject->skipped(), 1);
  EXPECT_EQ(reject->coordinator().next_sequence(), 21);
}

TEST(CheckpointTest, UnknownVersionIsTypedValidationError) {
  std::unique_ptr<CategoricalShardCoordinator> coordinator;
  ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig("ZC", 2, 0),
                                                  &coordinator)
                  .ok());
  ASSERT_TRUE(coordinator->Observe("t0", "w0", 1).ok());
  util::JsonValue doc = coordinator->MakeCheckpoint();
  doc.Set("version", 99);

  CheckpointMeta meta;
  const util::JsonValue* shards = nullptr;
  const util::Status parsed = ParseCheckpointDoc(doc, &meta, &shards);
  EXPECT_EQ(parsed.code(), util::StatusCode::kValidationError);

  std::unique_ptr<CategoricalShardCoordinator> fresh;
  ASSERT_TRUE(
      CategoricalShardCoordinator::Create(MakeConfig("ZC", 2, 0), &fresh)
          .ok());
  EXPECT_EQ(fresh->Restore(doc).code(), util::StatusCode::kValidationError);
}

TEST(CheckpointTest, RestoreRejectsMismatchedTopology) {
  std::unique_ptr<CategoricalShardCoordinator> coordinator;
  ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig("ZC", 2, 0),
                                                  &coordinator)
                  .ok());
  ASSERT_TRUE(coordinator->Observe("t0", "w0", 1).ok());
  const util::JsonValue checkpoint = coordinator->MakeCheckpoint();

  // Different shard count.
  std::unique_ptr<CategoricalShardCoordinator> wrong_count;
  ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig("ZC", 4, 0),
                                                  &wrong_count)
                  .ok());
  EXPECT_EQ(wrong_count->Restore(checkpoint).code(),
            util::StatusCode::kInvalidArgument);

  // Different method.
  std::unique_ptr<CategoricalShardCoordinator> wrong_method;
  ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig("MV", 2, 0),
                                                  &wrong_method)
                  .ok());
  EXPECT_EQ(wrong_method->Restore(checkpoint).code(),
            util::StatusCode::kInvalidArgument);

  // A worker document (shard_index >= 0) is not a coordinator checkpoint.
  CheckpointMeta meta;
  meta.shard_count = 2;
  meta.shard_index = 0;
  meta.next_sequence = 1;
  meta.method = "ZC";
  meta.kind = "categorical";
  meta.num_choices = 3;
  std::vector<util::JsonValue> snapshots;
  snapshots.push_back(coordinator->engine(0).Snapshot());
  const util::JsonValue worker_doc =
      MakeCheckpointDoc(meta, std::move(snapshots));
  std::unique_ptr<CategoricalShardCoordinator> fresh;
  ASSERT_TRUE(
      CategoricalShardCoordinator::Create(MakeConfig("ZC", 2, 0), &fresh)
          .ok());
  EXPECT_EQ(fresh->Restore(worker_doc).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, FinishReplayCatchesWrongPrefix) {
  const std::vector<StreamAnswer> stream = MakeStream(30, 5, 31);
  std::unique_ptr<CategoricalShardCoordinator> coordinator;
  ASSERT_TRUE(CategoricalShardCoordinator::Create(MakeConfig("ZC", 2, 0),
                                                  &coordinator)
                  .ok());
  const int cut = static_cast<int>(stream.size()) / 2;
  for (int i = 0; i < cut; ++i) {
    ASSERT_TRUE(
        coordinator->Observe(stream[i].task, stream[i].worker, stream[i].label)
            .ok());
  }
  const util::JsonValue checkpoint = coordinator->MakeCheckpoint();

  std::unique_ptr<CategoricalShardCoordinator> fresh;
  ASSERT_TRUE(
      CategoricalShardCoordinator::Create(MakeConfig("ZC", 2, 0), &fresh)
          .ok());
  ASSERT_TRUE(fresh->Restore(checkpoint).ok());
  // Replay only half the consumed prefix: the rebuilt routing state cannot
  // match the restored engines and FinishReplay must say so.
  for (int i = 0; i < cut / 2; ++i) {
    (void)fresh->ReplayRouting(stream[i].task, stream[i].worker,
                               stream[i].label);
  }
  EXPECT_FALSE(fresh->FinishReplay().ok());
}

TEST(CheckpointTest, FileNamesSortAndLatestWins) {
  EXPECT_EQ(CheckpointFileName("checkpoint", 400),
            "checkpoint_000000000400.json");
  const std::string dir = ::testing::TempDir() + "/ckpt_latest_test";
  ASSERT_EQ(0, system(("mkdir -p " + dir).c_str()));
  util::JsonValue doc = util::JsonValue::Object();
  doc.Set("probe", 1);
  for (int64_t seq : {200, 1000, 600}) {
    ASSERT_TRUE(WriteJsonFileAtomic(dir + "/" + CheckpointFileName("w0", seq),
                                    doc)
                    .ok());
  }
  std::string latest;
  int64_t latest_seq = 0;
  ASSERT_TRUE(FindLatestCheckpoint(dir, "w0", &latest, &latest_seq).ok());
  EXPECT_EQ(latest_seq, 1000);
  EXPECT_EQ(latest, dir + "/" + CheckpointFileName("w0", 1000));
  util::JsonValue read_back;
  ASSERT_TRUE(ReadJsonFile(latest, &read_back).ok());
  const util::JsonValue* probe = read_back.Find("probe");
  ASSERT_NE(probe, nullptr);

  // A different prefix in the same directory is invisible.
  EXPECT_EQ(FindLatestCheckpoint(dir, "w1", &latest, &latest_seq).code(),
            util::StatusCode::kNotFound);
  ASSERT_EQ(0, system(("rm -rf " + dir).c_str()));
}

TEST(CheckpointTest, AtomicWriteLeavesNoTempFileBehind) {
  const std::string dir = ::testing::TempDir() + "/ckpt_atomic_test";
  ASSERT_EQ(0, system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()));
  util::JsonValue doc = util::JsonValue::Object();
  doc.Set("probe", 7);

  // Success path: the payload lands and the staging file is gone — a crash
  // between write and rename must never leave a half-published checkpoint.
  const std::string path = dir + "/ok.json";
  ASSERT_TRUE(WriteJsonFileAtomic(path, doc).ok());
  EXPECT_NE(0, system(("test -e " + path + ".tmp").c_str()));
  util::JsonValue read_back;
  ASSERT_TRUE(ReadJsonFile(path, &read_back).ok());
  ASSERT_NE(read_back.Find("probe"), nullptr);

  // Overwrite of an existing file is still atomic.
  doc.Set("probe", 8);
  ASSERT_TRUE(WriteJsonFileAtomic(path, doc).ok());
  EXPECT_NE(0, system(("test -e " + path + ".tmp").c_str()));

  // Failure path: the target is an occupied directory, so the final rename
  // cannot succeed. The write must report the error AND unlink its staging
  // file — stale .tmp files used to accumulate here.
  const std::string blocked = dir + "/blocked";
  ASSERT_EQ(0, system(("mkdir -p " + blocked + "/full").c_str()));
  EXPECT_FALSE(WriteJsonFileAtomic(blocked, doc).ok());
  EXPECT_NE(0, system(("test -e " + blocked + ".tmp").c_str()));

  // An unwritable parent fails before anything is staged.
  EXPECT_FALSE(WriteJsonFileAtomic(dir + "/no/such/dir/x.json", doc).ok());
  ASSERT_EQ(0, system(("rm -rf " + dir).c_str()));
}

// --- WorkerSummary -----------------------------------------------------

TEST(WorkerSummaryTest, MergeAddsAndInserts) {
  streaming::WorkerSummary a;
  a.method = "ZC";
  a.kind = "categorical";
  a.num_choices = 2;
  a.workers["w0"] = {4, {3.0}};
  a.workers["w1"] = {2, {1.0}};
  streaming::WorkerSummary b = a;
  b.workers.erase("w1");
  b.workers["w0"] = {6, {5.0}};
  b.workers["w2"] = {1, {1.0}};

  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.workers["w0"].answer_count, 10);
  EXPECT_EQ(a.workers["w0"].stats, std::vector<double>({8.0}));
  EXPECT_EQ(a.workers["w1"].answer_count, 2);
  EXPECT_EQ(a.workers["w2"].answer_count, 1);

  // Header mismatches refuse to merge.
  streaming::WorkerSummary other_method = b;
  other_method.method = "D&S";
  EXPECT_FALSE(a.Merge(other_method).ok());
  streaming::WorkerSummary other_space = b;
  other_space.num_choices = 3;
  EXPECT_FALSE(a.Merge(other_space).ok());

  // Round trip through JSON (the worker-process all-reduce path).
  const util::JsonValue doc = a.ToJson();
  streaming::WorkerSummary decoded;
  ASSERT_TRUE(streaming::WorkerSummary::FromJson(doc, &decoded).ok());
  EXPECT_EQ(decoded.workers.size(), a.workers.size());
  EXPECT_EQ(decoded.workers["w0"].answer_count, 10);
  EXPECT_EQ(decoded.workers["w0"].stats, a.workers["w0"].stats);
}

}  // namespace
}  // namespace crowdtruth::shard
