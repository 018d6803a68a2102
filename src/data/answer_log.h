// Append-only answer log: the on-disk stream format the streaming engine
// consumes (src/streaming/).
//
// A log is a CSV-framed text file whose first line is a header row
//
//   crowdtruth_log,v1,categorical,<num_choices>
//   crowdtruth_log,v1,numeric
//
// followed by one `task,worker,answer` row per collected answer, in arrival
// order. Task and worker ids are arbitrary strings (interned downstream in
// first-appearance order, exactly as data/io.h does for batch CSV files).
// Appending new answers never rewrites earlier bytes, so a log can be
// tailed by a replaying engine while a collector is still writing it.
//
// `num_choices` may be 0 ("unknown"); readers then infer the label space or
// require it from the caller.
#ifndef CROWDTRUTH_DATA_ANSWER_LOG_H_
#define CROWDTRUTH_DATA_ANSWER_LOG_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "data/dataset.h"
#include "data/validate.h"
#include "util/status.h"

namespace crowdtruth::data {

enum class AnswerLogType { kCategorical, kNumeric };

struct AnswerLogHeader {
  AnswerLogType type = AnswerLogType::kCategorical;
  // Categorical only; 0 = not recorded.
  int num_choices = 0;
};

// One logged answer. `label` is filled for categorical logs, `value` for
// numeric logs; `answer` always carries the raw field text. `sequence` is
// the record's 0-based position in the *whole* log — global even when the
// reader only yields a shard slice, so every shard agrees on where barriers
// and checkpoints fall.
struct AnswerLogRecord {
  std::string task;
  std::string worker;
  std::string answer;
  LabelId label = 0;
  double value = 0.0;
  int64_t sequence = 0;
};

// Deterministic task -> shard assignment: FNV-1a over the task's string id,
// mod `shard_count`. Every process that hashes the same id agrees on the
// owner, with no coordination and no dependence on arrival order. All of a
// task's answers land on one shard, so the only cross-shard coupling left
// is per-worker state (streaming/worker_summary.h).
int ShardOfTask(const std::string& task, int shard_count);

// Sequential writer. Create() truncates and writes the header. Rows are
// group-committed: Stage() formats an answer row into an in-memory buffer,
// and Commit() hands every row staged since the last commit to the file
// with one write and one flush (no fsync). A concurrently replaying reader
// therefore observes whole records, and never a staged row before its
// commit. Append() is Stage() + Commit() of a single row; the file bytes
// are the same either way.
class AnswerLogWriter {
 public:
  AnswerLogWriter() = default;

  static util::Status Create(const std::string& path,
                             const AnswerLogHeader& header,
                             AnswerLogWriter* out);

  void Stage(std::string_view task, std::string_view worker, LabelId label);
  void Stage(std::string_view task, std::string_view worker, double value);
  // Writes and flushes the staged rows, then empties the stage (also on
  // failure). A no-op when nothing is staged.
  util::Status Commit();

  util::Status Append(const std::string& task, const std::string& worker,
                      LabelId label);
  util::Status Append(const std::string& task, const std::string& worker,
                      double value);

 private:
  // Stages `task,worker,` — the row up to its answer field.
  void StageIds(std::string_view task, std::string_view worker);

  std::string path_;
  std::ofstream out_;
  std::string staged_;
};

// Sequential reader. Open() validates the header; Next() yields records in
// file order until `*eof` is set.
class AnswerLogReader {
 public:
  util::Status Open(const std::string& path);
  const AnswerLogHeader& header() const { return header_; }

  // Restricts Next() to the deterministic hash-partitioned slice
  // ShardOfTask(task, shard_count) == shard_index. Every row is still
  // parsed and validated (a malformed row fails the read on every shard,
  // not just its owner) and still consumes a global sequence number; rows
  // owned by other shards are silently skipped. The default (0, 1) yields
  // the whole log. Call before or between Next() calls.
  util::Status SetShardSlice(int shard_index, int shard_count);

  // On success either fills `*record` (with its global `sequence`) or sets
  // `*eof`. Malformed rows are a ParseError carrying the line number.
  util::Status Next(AnswerLogRecord* record, bool* eof);

  // Global sequence number the next record would get == records consumed
  // from the underlying file so far (across all shards' slices).
  int64_t next_sequence() const { return sequence_; }

 private:
  std::ifstream in_;
  AnswerLogHeader header_;
  std::string path_;
  int line_ = 1;
  int shard_index_ = 0;
  int shard_count_ = 1;
  int64_t sequence_ = 0;
};

// Dumps every answer of a dataset as a log (task-major, preserving each
// task's answer insertion order). Ids are the dense indices printed as
// decimal strings, so a replay interns them back to the same order.
util::Status WriteAnswerLog(const CategoricalDataset& dataset,
                            const std::string& path);
util::Status WriteAnswerLog(const NumericDataset& dataset,
                            const std::string& path);

// Reads a whole log into a batch dataset, interning ids in first-appearance
// order — the same order a streaming replay assigns, so task/worker indices
// line up between the incremental and batch runs. `truth_path` is an
// optional `task,truth` CSV keyed by the log's string ids. `num_choices`
// <= 0 falls back to the header value, then to max label + 1. Records pass
// through the validator (data/validate.h) under `validation.policy`;
// `report` (optional) receives the tally.
util::Status LoadCategoricalLog(const std::string& path,
                                const std::string& truth_path,
                                int num_choices,
                                const ValidationOptions& validation,
                                CategoricalDataset* out,
                                ValidationReport* report);
util::Status LoadNumericLog(const std::string& path,
                            const std::string& truth_path,
                            const ValidationOptions& validation,
                            NumericDataset* out, ValidationReport* report);

// Strict-validation convenience overloads (policy kReject, no report).
util::Status LoadCategoricalLog(const std::string& path,
                                const std::string& truth_path,
                                int num_choices, CategoricalDataset* out);
util::Status LoadNumericLog(const std::string& path,
                            const std::string& truth_path,
                            NumericDataset* out);

}  // namespace crowdtruth::data

#endif  // CROWDTRUTH_DATA_ANSWER_LOG_H_
