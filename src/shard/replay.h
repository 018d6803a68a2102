// The shard replay driver: one in-memory answer log driven through a
// ShardCoordinator, with checkpoint cadence and checkpoint/resume.
//
// Every sharded replay in the tools runs this one loop —
// `crowdtruth_stream --shards/--checkpoint_every/--resume_from`,
// `crowdtruth_shard --mode=drive` and every `crowdtruth_matrix` policy:
//
//   std::unique_ptr<CategoricalShardReplay> replay;
//   CategoricalShardReplay::Create(config, log.records, &replay);
//   replay->Resume(path);   // optional: Restore, ReplayRouting over the
//                           // consumed prefix, FinishReplay
//   replay->Run(end);       // Observe up to `end`, checkpointing on cadence
//   replay->coordinator().GlobalResync(&global);
//
// Because routing is deterministic, a run resumed from any checkpoint it
// wrote reaches the same GlobalResync bits as the uninterrupted run
// (pinned by tests/shard_test.cc and tools/shard_e2e.sh).
#ifndef CROWDTRUTH_SHARD_REPLAY_H_
#define CROWDTRUTH_SHARD_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/answer_log.h"
#include "data/validate.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "streaming/incremental.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace crowdtruth::shard {

// A whole answer log held in memory.
struct LoadedLog {
  data::AnswerLogHeader header;
  std::vector<data::AnswerLogRecord> records;  // every row, with .sequence
};

util::Status LoadLog(const std::string& path, LoadedLog* out);

// The label space of a categorical log: `requested` when positive, else
// the log header's, else the largest label seen + 1 — and at least 2. The
// tools share this rule so they agree on the label space of a given log.
int ResolveNumChoices(int requested, const LoadedLog& log);

// Streaming options from the tools' shared --local_sweeps,
// --max_dirty_tasks, --seed and --threads flags. Results are bit-identical
// at any thread count.
streaming::StreamingOptions StreamingOptionsFromFlags(
    const util::Flags& flags);

using CsvPairs = std::vector<std::pair<std::string, std::string>>;

// Writes `key_column,value_column` and then one row per pair.
util::Status WriteCsvPairs(const std::string& path,
                           const std::string& key_column,
                           const std::string& value_column,
                           const CsvPairs& pairs);

struct ReplayConfig {
  CoordinatorConfig coordinator;
  // Write "checkpoint_<seq>.json" into checkpoint_dir whenever the
  // consumed-record count reaches a multiple of this; 0 never does.
  int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  // kReject fails the replay on the first rejected record that is not a
  // duplicate; the repair policies skip it. Duplicates (a resumed replay
  // re-reading answers) are always skipped.
  data::BadRecordPolicy on_bad_record = data::BadRecordPolicy::kDropRow;
};

template <typename Method>
class ShardReplay {
 public:
  using Domain = typename Method::Domain;
  using Coordinator = ShardCoordinator<Method>;

  // `records` must outlive the replay.
  static util::Status Create(const ReplayConfig& config,
                             const std::vector<data::AnswerLogRecord>& records,
                             std::unique_ptr<ShardReplay>* out) {
    std::unique_ptr<Coordinator> coordinator;
    const util::Status status =
        Coordinator::Create(config.coordinator, &coordinator);
    if (!status.ok()) return status;
    out->reset(new ShardReplay(config, records, std::move(coordinator)));
    return util::Status::Ok();
  }

  // Restores the checkpoint at `path`, rebuilds the routing state from the
  // consumed prefix of the log and verifies it against the restored
  // engines. Run() then continues at next_sequence().
  util::Status Resume(const std::string& path) {
    util::JsonValue doc;
    util::Status status = ReadJsonFile(path, &doc);
    if (!status.ok()) return status;
    status = coordinator_->Restore(doc);
    if (!status.ok()) {
      return util::Status(status.code(), path + ": " + status.message());
    }
    const int64_t start = coordinator_->next_sequence();
    if (start > static_cast<int64_t>(records_.size())) {
      return util::Status::ValidationError(
          "checkpoint consumed " + std::to_string(start) +
          " records but the log holds only " +
          std::to_string(records_.size()));
    }
    for (int64_t i = 0; i < start; ++i) {
      (void)coordinator_->ReplayRouting(records_[i].task, records_[i].worker,
                                        Domain::PayloadOf(records_[i]));
    }
    return coordinator_->FinishReplay();
  }

  // Resume() from the newest checkpoint in `dir`, reported in *path;
  // NotFound when `dir` holds none.
  util::Status ResumeLatest(const std::string& dir, std::string* path) {
    int64_t sequence = 0;
    const util::Status status =
        FindLatestCheckpoint(dir, "checkpoint", path, &sequence);
    return status.ok() ? Resume(*path) : status;
  }

  // Observes records [next_sequence(), end), end <= the log size. A
  // rejected record still consumes its slot. `after_record(accepted)`, when
  // set, runs after each record and its checkpoint.
  util::Status Run(int64_t end,
                   const std::function<void(bool)>& after_record = {}) {
    CROWDTRUTH_CHECK_LE(end, static_cast<int64_t>(records_.size()));
    for (int64_t i = coordinator_->next_sequence(); i < end; ++i) {
      const data::AnswerLogRecord& record = records_[i];
      util::Status status = coordinator_->Observe(
          record.task, record.worker, Domain::PayloadOf(record));
      const bool accepted = status.ok();
      if (accepted) {
        ++replayed_;
      } else if (config_.on_bad_record == data::BadRecordPolicy::kReject &&
                 status.message().find("duplicate") == std::string::npos) {
        return status;
      } else {
        ++skipped_;
      }
      if (config_.checkpoint_every > 0 &&
          coordinator_->next_sequence() % config_.checkpoint_every == 0) {
        status = WriteCheckpoint();
        if (!status.ok()) return status;
      }
      if (after_record) after_record(accepted);
    }
    return util::Status::Ok();
  }

  Coordinator& coordinator() { return *coordinator_; }
  // Records this replay observed and accepted / skipped (the restored
  // prefix counts in neither).
  int64_t replayed() const { return replayed_; }
  int64_t skipped() const { return skipped_; }

 private:
  ShardReplay(const ReplayConfig& config,
              const std::vector<data::AnswerLogRecord>& records,
              std::unique_ptr<Coordinator> coordinator)
      : config_(config),
        records_(records),
        coordinator_(std::move(coordinator)) {}

  util::Status WriteCheckpoint() {
    util::Stopwatch watch;
    const std::string path =
        config_.checkpoint_dir + "/" +
        CheckpointFileName("checkpoint", coordinator_->next_sequence());
    const util::Status status =
        WriteJsonFileAtomic(path, coordinator_->MakeCheckpoint());
    if (!status.ok()) return status;
    coordinator_->NoteCheckpoint(watch.ElapsedSeconds());
    return util::Status::Ok();
  }

  ReplayConfig config_;
  const std::vector<data::AnswerLogRecord>& records_;
  std::unique_ptr<Coordinator> coordinator_;
  int64_t replayed_ = 0;
  int64_t skipped_ = 0;
};

using CategoricalShardReplay =
    ShardReplay<streaming::IncrementalCategoricalMethod>;
using NumericShardReplay = ShardReplay<streaming::IncrementalNumericMethod>;

}  // namespace crowdtruth::shard

#endif  // CROWDTRUTH_SHARD_REPLAY_H_
