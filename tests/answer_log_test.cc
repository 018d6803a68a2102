// Tests for the append-only answer log (data/answer_log.h): writer/reader
// round trips, header validation, malformed-row reporting, and the batch
// loaders' first-appearance interning.
#include "data/answer_log.h"

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace crowdtruth::data {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(AnswerLogTest, CategoricalWriteReadRoundTrip) {
  const std::string path = TempPath("log_cat.csv");
  AnswerLogWriter writer;
  AnswerLogHeader header;
  header.type = AnswerLogType::kCategorical;
  header.num_choices = 3;
  ASSERT_TRUE(AnswerLogWriter::Create(path, header, &writer).ok());
  ASSERT_TRUE(writer.Append("task one", "w,comma", LabelId{2}).ok());
  ASSERT_TRUE(writer.Append("t2", "w1", LabelId{0}).ok());

  AnswerLogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.header().type, AnswerLogType::kCategorical);
  EXPECT_EQ(reader.header().num_choices, 3);

  AnswerLogRecord record;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&record, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(record.task, "task one");
  EXPECT_EQ(record.worker, "w,comma");
  EXPECT_EQ(record.label, 2);
  ASSERT_TRUE(reader.Next(&record, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(record.task, "t2");
  EXPECT_EQ(record.label, 0);
  ASSERT_TRUE(reader.Next(&record, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST(AnswerLogTest, NumericWriteReadRoundTrip) {
  const std::string path = TempPath("log_num.csv");
  AnswerLogWriter writer;
  AnswerLogHeader header;
  header.type = AnswerLogType::kNumeric;
  ASSERT_TRUE(AnswerLogWriter::Create(path, header, &writer).ok());
  ASSERT_TRUE(writer.Append("t0", "w0", 3.25).ok());
  ASSERT_TRUE(writer.Append("t0", "w1", -1.5).ok());

  AnswerLogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.header().type, AnswerLogType::kNumeric);

  AnswerLogRecord record;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&record, &eof).ok());
  EXPECT_DOUBLE_EQ(record.value, 3.25);
  ASSERT_TRUE(reader.Next(&record, &eof).ok());
  EXPECT_DOUBLE_EQ(record.value, -1.5);
  ASSERT_TRUE(reader.Next(&record, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST(AnswerLogTest, StagedRowsAreInvisibleUntilCommit) {
  const std::string path = TempPath("log_staged.csv");
  AnswerLogWriter writer;
  AnswerLogHeader header;
  header.num_choices = 3;
  ASSERT_TRUE(AnswerLogWriter::Create(path, header, &writer).ok());
  writer.Stage("task, one", "w\"q", LabelId{2});
  writer.Stage("t2", "w1", LabelId{0});

  AnswerLogReader before;
  ASSERT_TRUE(before.Open(path).ok());
  AnswerLogRecord record;
  bool eof = false;
  ASSERT_TRUE(before.Next(&record, &eof).ok());
  EXPECT_TRUE(eof) << "a staged row reached the file before Commit()";

  ASSERT_TRUE(writer.Commit().ok());
  AnswerLogReader after;
  ASSERT_TRUE(after.Open(path).ok());
  ASSERT_TRUE(after.Next(&record, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(record.task, "task, one");
  EXPECT_EQ(record.worker, "w\"q");
  EXPECT_EQ(record.label, 2);
  ASSERT_TRUE(after.Next(&record, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(record.task, "t2");
  ASSERT_TRUE(after.Next(&record, &eof).ok());
  EXPECT_TRUE(eof);
  // Nothing staged: Commit() is a no-op.
  const std::string committed = ReadFile(path);
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ReadFile(path), committed);
}

TEST(AnswerLogTest, GroupCommitWritesTheBytesOfPerRowAppend) {
  struct Row {
    std::string task;
    std::string worker;
    LabelId label;
    double value;
  };
  const std::vector<Row> rows = {
      {"t,1", "w\"1\"", 2, 3.25},   {"t\n2", "plain", 0, -1.5},
      {"t3", "w,2", 1, 0.1},        {"\"", ",", 7, 1e-300},
      {"t5", "w5", 1024, 12345678.9}, {"t6", "w6", -3, -0.0},
  };
  for (const AnswerLogType type :
       {AnswerLogType::kCategorical, AnswerLogType::kNumeric}) {
    const bool categorical = type == AnswerLogType::kCategorical;
    AnswerLogHeader header;
    header.type = type;
    header.num_choices = categorical ? 4 : 0;
    const std::string per_row_path = TempPath("log_per_row.csv");
    const std::string grouped_path = TempPath("log_grouped.csv");
    AnswerLogWriter per_row;
    AnswerLogWriter grouped;
    ASSERT_TRUE(AnswerLogWriter::Create(per_row_path, header, &per_row).ok());
    ASSERT_TRUE(AnswerLogWriter::Create(grouped_path, header, &grouped).ok());
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      if (categorical) {
        ASSERT_TRUE(per_row.Append(row.task, row.worker, row.label).ok());
        grouped.Stage(row.task, row.worker, row.label);
      } else {
        ASSERT_TRUE(per_row.Append(row.task, row.worker, row.value).ok());
        grouped.Stage(row.task, row.worker, row.value);
      }
      // Two group commits: after the third row and at the end.
      if (i == 2) ASSERT_TRUE(grouped.Commit().ok());
    }
    ASSERT_TRUE(grouped.Commit().ok());
    EXPECT_EQ(ReadFile(grouped_path), ReadFile(per_row_path));
  }
}

TEST(AnswerLogTest, CommitOnAnUnopenedWriterFails) {
  AnswerLogWriter writer;
  writer.Stage("t", "w", LabelId{1});
  EXPECT_EQ(writer.Commit().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(writer.Commit().ok());  // the failed stage was dropped
}

TEST(AnswerLogTest, OpenRejectsMissingFileAndBadHeader) {
  AnswerLogReader reader;
  EXPECT_FALSE(reader.Open(TempPath("does_not_exist.csv")).ok());

  const std::string bad = TempPath("log_bad_header.csv");
  WriteFile(bad, "task,worker,answer\nt0,w0,1\n");
  AnswerLogReader bad_reader;
  EXPECT_FALSE(bad_reader.Open(bad).ok());

  const std::string wrong_version = TempPath("log_bad_version.csv");
  WriteFile(wrong_version, "crowdtruth_log,v9,categorical,2\n");
  AnswerLogReader version_reader;
  EXPECT_FALSE(version_reader.Open(wrong_version).ok());
}

TEST(AnswerLogTest, NextReportsMalformedRowWithLineNumber) {
  const std::string path = TempPath("log_malformed.csv");
  WriteFile(path,
            "crowdtruth_log,v1,categorical,2\n"
            "t0,w0,1\n"
            "t1,w1\n");
  AnswerLogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  AnswerLogRecord record;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&record, &eof).ok());
  const util::Status status = reader.Next(&record, &eof);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kParseError);
  EXPECT_NE(status.message().find("3"), std::string::npos);
}

TEST(AnswerLogTest, DatasetDumpThenLoadRoundTrips) {
  testing::PlantedSpec spec;
  spec.num_tasks = 40;
  spec.num_workers = 8;
  spec.num_choices = 3;
  spec.redundancy = 4;
  const CategoricalDataset original = testing::PlantedDataset(spec, 23);
  const std::string path = TempPath("log_dump.csv");
  ASSERT_TRUE(WriteAnswerLog(original, path).ok());

  CategoricalDataset loaded;
  ASSERT_TRUE(LoadCategoricalLog(path, "", /*num_choices=*/3, &loaded).ok());
  ASSERT_EQ(loaded.num_tasks(), original.num_tasks());
  ASSERT_EQ(loaded.num_workers(), original.num_workers());
  ASSERT_EQ(loaded.num_answers(), original.num_answers());
  // WriteAnswerLog emits dense indices task-major; the loader re-interns in
  // first-appearance order, so task ids survive unchanged while worker ids
  // come back permuted by their first appearance in that traversal.
  std::map<WorkerId, WorkerId> worker_map;
  for (TaskId t = 0; t < original.num_tasks(); ++t) {
    for (const TaskVote& vote : original.AnswersForTask(t)) {
      worker_map.emplace(vote.worker,
                         static_cast<WorkerId>(worker_map.size()));
    }
  }
  for (TaskId t = 0; t < original.num_tasks(); ++t) {
    const auto& lhs = loaded.AnswersForTask(t);
    const auto& rhs = original.AnswersForTask(t);
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].worker, worker_map.at(rhs[i].worker));
      EXPECT_EQ(lhs[i].label, rhs[i].label);
    }
  }
}

TEST(AnswerLogTest, LoadCategoricalLogWithTruthAndInferredChoices) {
  const std::string path = TempPath("log_truth.csv");
  WriteFile(path,
            "crowdtruth_log,v1,categorical,0\n"
            "apple,ann,0\n"
            "apple,bob,2\n"
            "pear,ann,1\n");
  const std::string truth = TempPath("log_truth_labels.csv");
  WriteFile(truth,
            "task,truth\n"
            "pear,1\n");

  CategoricalDataset dataset;
  ASSERT_TRUE(LoadCategoricalLog(path, truth, /*num_choices=*/0, &dataset)
                  .ok());
  // Header says 0 choices, so the label space is inferred: max label + 1.
  EXPECT_EQ(dataset.num_choices(), 3);
  EXPECT_EQ(dataset.num_tasks(), 2);
  EXPECT_EQ(dataset.num_workers(), 2);
  EXPECT_FALSE(dataset.HasTruth(0));
  ASSERT_TRUE(dataset.HasTruth(1));
  EXPECT_EQ(dataset.Truth(1), 1);
}

TEST(AnswerLogTest, LoadNumericLogWithTruth) {
  const std::string path = TempPath("log_numeric_load.csv");
  WriteFile(path,
            "crowdtruth_log,v1,numeric\n"
            "a,w0,1.5\n"
            "a,w1,2.5\n"
            "b,w0,10\n");
  const std::string truth = TempPath("log_numeric_truth.csv");
  WriteFile(truth,
            "task,truth\n"
            "a,2.0\n"
            "b,11.0\n");

  NumericDataset dataset;
  ASSERT_TRUE(LoadNumericLog(path, truth, &dataset).ok());
  EXPECT_EQ(dataset.num_tasks(), 2);
  EXPECT_EQ(dataset.num_workers(), 2);
  EXPECT_EQ(dataset.num_answers(), 3);
  ASSERT_TRUE(dataset.HasTruth(0));
  EXPECT_DOUBLE_EQ(dataset.Truth(0), 2.0);
  EXPECT_DOUBLE_EQ(dataset.Truth(1), 11.0);
}

TEST(AnswerLogTest, LoadRejectsTypeMismatch) {
  const std::string path = TempPath("log_mismatch.csv");
  WriteFile(path, "crowdtruth_log,v1,numeric\na,w0,1.5\n");
  CategoricalDataset dataset;
  EXPECT_FALSE(LoadCategoricalLog(path, "", 2, &dataset).ok());

  const std::string cat = TempPath("log_mismatch_cat.csv");
  WriteFile(cat, "crowdtruth_log,v1,categorical,2\na,w0,1\n");
  NumericDataset numeric;
  EXPECT_FALSE(LoadNumericLog(cat, "", &numeric).ok());
}

}  // namespace
}  // namespace crowdtruth::data
