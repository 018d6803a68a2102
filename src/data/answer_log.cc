#include "data/answer_log.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "scenario/buggify.h"
#include "util/csv.h"
#include "util/json_writer.h"

namespace crowdtruth::data {
namespace {

using util::Status;

constexpr char kMagic[] = "crowdtruth_log";
constexpr char kVersion[] = "v1";

std::string HeaderLine(const AnswerLogHeader& header) {
  std::vector<std::string> fields = {kMagic, kVersion};
  if (header.type == AnswerLogType::kCategorical) {
    fields.push_back("categorical");
    fields.push_back(std::to_string(header.num_choices));
  } else {
    fields.push_back("numeric");
  }
  return util::FormatCsvLine(fields);
}

Status ParseHeader(const std::vector<std::string>& fields,
                   const std::string& path, AnswerLogHeader* header) {
  if (fields.size() < 3 || fields[0] != kMagic) {
    return Status::ParseError(path + ": not an answer log (expected \"" +
                              kMagic + ",...\" header)");
  }
  if (fields[1] != kVersion) {
    return Status::ParseError(path + ": unsupported log version \"" +
                              fields[1] + "\"");
  }
  if (fields[2] == "categorical") {
    header->type = AnswerLogType::kCategorical;
    header->num_choices = 0;
    if (fields.size() > 3) {
      char* end = nullptr;
      const long choices = std::strtol(fields[3].c_str(), &end, 10);
      if (end == fields[3].c_str() || *end != '\0' || choices < 0 ||
          choices > kMaxLabelSpace) {
        return Status::ParseError(path + ": bad num_choices \"" + fields[3] +
                                  "\"");
      }
      header->num_choices = static_cast<int>(choices);
    }
    return Status::Ok();
  }
  if (fields[2] == "numeric") {
    header->type = AnswerLogType::kNumeric;
    header->num_choices = 0;
    return Status::Ok();
  }
  return Status::ParseError(path + ": unknown log type \"" + fields[2] +
                            "\"");
}

// Interns arbitrary string ids into dense [0, n) integers in
// first-appearance order.
class IdInterner {
 public:
  int Intern(const std::string& id) {
    auto [it, inserted] = ids_.emplace(id, static_cast<int>(ids_.size()));
    (void)inserted;
    return it->second;
  }
  int size() const { return static_cast<int>(ids_.size()); }

 private:
  std::map<std::string, int> ids_;
};

Status ReadTruthRows(const std::string& truth_path,
                     std::vector<std::pair<std::string, std::string>>* rows) {
  std::vector<std::vector<std::string>> raw;
  Status status = util::ReadCsvFile(truth_path, &raw);
  if (!status.ok()) return status;
  if (raw.empty() || raw[0] != std::vector<std::string>{"task", "truth"}) {
    return Status::ParseError(truth_path +
                              ": expected header \"task,truth\"");
  }
  for (size_t i = 1; i < raw.size(); ++i) {
    if (raw[i].size() != 2) {
      return Status::ParseError(truth_path + ": row has " +
                                std::to_string(raw[i].size()) + " fields");
    }
    rows->emplace_back(raw[i][0], raw[i][1]);
  }
  return Status::Ok();
}

}  // namespace

int ShardOfTask(const std::string& task, int shard_count) {
  if (shard_count <= 1) return 0;
  // FNV-1a, 64-bit: stable across platforms and builds (the assignment is
  // part of the on-disk contract between shards).
  uint64_t hash = 1469598103934665603ull;
  for (const char c : task) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;
  }
  return static_cast<int>(hash % static_cast<uint64_t>(shard_count));
}

Status AnswerLogWriter::Create(const std::string& path,
                               const AnswerLogHeader& header,
                               AnswerLogWriter* out) {
  out->path_ = path;
  out->out_.open(path, std::ios::out | std::ios::trunc);
  if (!out->out_) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out->out_ << HeaderLine(header) << '\n';
  out->out_.flush();
  if (!out->out_) return Status::IoError("write failed on " + path);
  return Status::Ok();
}

void AnswerLogWriter::StageIds(std::string_view task,
                               std::string_view worker) {
  util::AppendCsvField(task, staged_);
  staged_ += ',';
  util::AppendCsvField(worker, staged_);
  staged_ += ',';
}

void AnswerLogWriter::Stage(std::string_view task, std::string_view worker,
                            LabelId label) {
  StageIds(task, worker);
  char digits[16];
  staged_.append(digits,
                 std::to_chars(digits, digits + sizeof(digits), label).ptr);
  staged_ += '\n';
}

void AnswerLogWriter::Stage(std::string_view task, std::string_view worker,
                            double value) {
  StageIds(task, worker);
  util::JsonNumber(value, staged_);
  staged_ += '\n';
}

Status AnswerLogWriter::Commit() {
  if (staged_.empty()) return Status::Ok();
  if (!out_.is_open()) {
    staged_.clear();
    return Status::InvalidArgument("answer log writer is not open");
  }
  out_.write(staged_.data(), static_cast<std::streamsize>(staged_.size()));
  out_.flush();
  staged_.clear();
  if (!out_) return Status::IoError("write failed on " + path_);
  return Status::Ok();
}

Status AnswerLogWriter::Append(const std::string& task,
                               const std::string& worker, LabelId label) {
  Stage(task, worker, label);
  return Commit();
}

Status AnswerLogWriter::Append(const std::string& task,
                               const std::string& worker, double value) {
  Stage(task, worker, value);
  return Commit();
}

Status AnswerLogReader::Open(const std::string& path) {
  path_ = path;
  line_ = 1;
  sequence_ = 0;
  in_.open(path);
  if (!in_) return Status::NotFound("cannot open " + path);
  std::string header_line;
  if (!std::getline(in_, header_line)) {
    return Status::ParseError(path + ": empty file (missing header)");
  }
  util::StripUtf8Bom(&header_line);
  return ParseHeader(util::ParseCsvLine(header_line), path, &header_);
}

Status AnswerLogReader::SetShardSlice(int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
    return Status::InvalidArgument(
        "bad shard slice " + std::to_string(shard_index) + "/" +
        std::to_string(shard_count));
  }
  shard_index_ = shard_index;
  shard_count_ = shard_count;
  return Status::Ok();
}

Status AnswerLogReader::Next(AnswerLogRecord* record, bool* eof) {
  *eof = false;
  // Buggify "answer_log_read": simulate a torn read by dropping the open
  // stream, then recover the way a real tailer would — reopen the file and
  // seek back to the saved offset. The next record yielded is identical,
  // so no downstream state ever sees the fault.
  if (CROWDTRUTH_BUGGIFY("answer_log_read") && in_.is_open()) {
    const std::streampos offset = in_.tellg();
    if (offset != std::streampos(-1)) {
      in_.close();
      in_.clear();
      in_.open(path_);
      if (!in_) return Status::IoError("cannot reopen " + path_);
      in_.seekg(offset);
      if (!in_) return Status::IoError("cannot seek in " + path_);
    }
  }
  while (true) {
    std::string row;
    // Skip blank lines (a crashed writer may leave a trailing newline).
    do {
      if (!std::getline(in_, row)) {
        *eof = true;
        return Status::Ok();
      }
      ++line_;
    } while (row.empty());

    const std::vector<std::string> fields = util::ParseCsvLine(row);
    if (fields.size() != 3) {
      return Status::ParseError(path_ + ":" + std::to_string(line_) +
                                ": expected 3 fields, got " +
                                std::to_string(fields.size()));
    }
    record->task = fields[0];
    record->worker = fields[1];
    record->answer = fields[2];
    char* end = nullptr;
    if (header_.type == AnswerLogType::kCategorical) {
      errno = 0;
      const long label = std::strtol(fields[2].c_str(), &end, 10);
      if (end == fields[2].c_str() || *end != '\0' || label < 0 ||
          errno == ERANGE || label > std::numeric_limits<int>::max()) {
        return Status::ParseError(path_ + ":" + std::to_string(line_) +
                                  ": bad label \"" + fields[2] + "\"");
      }
      record->label = static_cast<LabelId>(label);
    } else {
      record->value = std::strtod(fields[2].c_str(), &end);
      if (end == fields[2].c_str() || *end != '\0') {
        return Status::ParseError(path_ + ":" + std::to_string(line_) +
                                  ": bad value \"" + fields[2] + "\"");
      }
      // "nan"/"inf" parse cleanly through strtod but poison every weighted
      // mean downstream; a log record carrying one is malformed.
      if (!std::isfinite(record->value)) {
        return Status::ParseError(path_ + ":" + std::to_string(line_) +
                                  ": non-finite value \"" + fields[2] +
                                  "\"");
      }
    }
    // Every well-formed row consumes a global sequence number, whether or
    // not this slice yields it — shards agree on record positions.
    record->sequence = sequence_++;
    if (shard_count_ <= 1 ||
        ShardOfTask(record->task, shard_count_) == shard_index_) {
      return Status::Ok();
    }
  }
}

Status WriteAnswerLog(const CategoricalDataset& dataset,
                      const std::string& path) {
  AnswerLogHeader header;
  header.type = AnswerLogType::kCategorical;
  header.num_choices = dataset.num_choices();
  AnswerLogWriter writer;
  Status status = AnswerLogWriter::Create(path, header, &writer);
  if (!status.ok()) return status;
  for (TaskId t = 0; t < dataset.num_tasks(); ++t) {
    for (const TaskVote& vote : dataset.AnswersForTask(t)) {
      status = writer.Append(std::to_string(t), std::to_string(vote.worker),
                             vote.label);
      if (!status.ok()) return status;
    }
  }
  return Status::Ok();
}

Status WriteAnswerLog(const NumericDataset& dataset,
                      const std::string& path) {
  AnswerLogHeader header;
  header.type = AnswerLogType::kNumeric;
  AnswerLogWriter writer;
  Status status = AnswerLogWriter::Create(path, header, &writer);
  if (!status.ok()) return status;
  for (TaskId t = 0; t < dataset.num_tasks(); ++t) {
    for (const NumericTaskVote& vote : dataset.AnswersForTask(t)) {
      status = writer.Append(std::to_string(t), std::to_string(vote.worker),
                             vote.value);
      if (!status.ok()) return status;
    }
  }
  return Status::Ok();
}

Status LoadCategoricalLog(const std::string& path,
                          const std::string& truth_path, int num_choices,
                          const ValidationOptions& validation,
                          CategoricalDataset* out,
                          ValidationReport* report) {
  if (num_choices > kMaxLabelSpace) {
    return Status::InvalidArgument(
        "num_choices " + std::to_string(num_choices) +
        " exceeds the label-space cap " + std::to_string(kMaxLabelSpace));
  }
  AnswerLogReader reader;
  Status status = reader.Open(path);
  if (!status.ok()) return status;
  if (reader.header().type != AnswerLogType::kCategorical) {
    return Status::InvalidArgument(path + ": not a categorical log");
  }

  IdInterner tasks;
  IdInterner workers;
  std::vector<RawCategoricalAnswer> raw;
  AnswerLogRecord record;
  bool eof = false;
  int64_t row = 1;
  while (true) {
    status = reader.Next(&record, &eof);
    if (!status.ok()) return status;
    if (eof) break;
    ++row;
    raw.push_back({tasks.Intern(record.task), workers.Intern(record.worker),
                   record.label, row});
  }

  std::vector<RawCategoricalTruth> raw_truth;
  if (!truth_path.empty()) {
    std::vector<std::pair<std::string, std::string>> rows;
    status = ReadTruthRows(truth_path, &rows);
    if (!status.ok()) return status;
    int64_t truth_row = 1;
    for (const auto& [task, truth] : rows) {
      ++truth_row;
      char* end = nullptr;
      errno = 0;
      const long label = std::strtol(truth.c_str(), &end, 10);
      if (end == truth.c_str() || *end != '\0' || label < 0 ||
          errno == ERANGE || label > std::numeric_limits<int>::max()) {
        return Status::ParseError(truth_path + ": bad truth \"" + truth +
                                  "\"");
      }
      raw_truth.push_back(
          {tasks.Intern(task), static_cast<LabelId>(label), truth_row});
    }
  }

  // The label range check needs the final label space: explicit
  // num_choices, else the header value, else inferred after validation.
  const int declared =
      num_choices > 0 ? num_choices : reader.header().num_choices;

  ValidationReport local_report;
  ValidationReport* tally = report != nullptr ? report : &local_report;
  status = ValidateCategoricalRecords(path, declared, validation, &raw,
                                      tally);
  if (!status.ok()) return status;
  status = ValidateCategoricalTruth(truth_path, declared, validation,
                                    &raw_truth, tally);
  if (!status.ok()) return status;

  int max_label = 1;
  for (const RawCategoricalAnswer& r : raw) {
    max_label = std::max(max_label, r.label);
  }
  for (const RawCategoricalTruth& r : raw_truth) {
    max_label = std::max(max_label, r.label);
  }
  const int choices = declared > 0 ? declared : std::max(2, max_label + 1);

  CategoricalDatasetBuilder builder(tasks.size(), workers.size(), choices);
  builder.set_name(path);
  for (const RawCategoricalAnswer& r : raw) {
    builder.AddAnswer(r.task, r.worker, r.label);
  }
  for (const RawCategoricalTruth& r : raw_truth) {
    builder.SetTruth(r.task, r.label);
  }
  CategoricalDataset dataset;
  status = std::move(builder).TryBuild(&dataset);
  if (!status.ok()) return status;
  *out = std::move(dataset);
  return Status::Ok();
}

Status LoadNumericLog(const std::string& path, const std::string& truth_path,
                      const ValidationOptions& validation,
                      NumericDataset* out, ValidationReport* report) {
  AnswerLogReader reader;
  Status status = reader.Open(path);
  if (!status.ok()) return status;
  if (reader.header().type != AnswerLogType::kNumeric) {
    return Status::InvalidArgument(path + ": not a numeric log");
  }

  IdInterner tasks;
  IdInterner workers;
  std::vector<RawNumericAnswer> raw;
  AnswerLogRecord record;
  bool eof = false;
  int64_t row = 1;
  while (true) {
    status = reader.Next(&record, &eof);
    if (!status.ok()) return status;
    if (eof) break;
    ++row;
    raw.push_back({tasks.Intern(record.task), workers.Intern(record.worker),
                   record.value, row});
  }

  std::vector<RawNumericTruth> raw_truth;
  if (!truth_path.empty()) {
    std::vector<std::pair<std::string, std::string>> rows;
    status = ReadTruthRows(truth_path, &rows);
    if (!status.ok()) return status;
    int64_t truth_row = 1;
    for (const auto& [task, truth] : rows) {
      ++truth_row;
      char* end = nullptr;
      const double value = std::strtod(truth.c_str(), &end);
      if (end == truth.c_str() || *end != '\0') {
        return Status::ParseError(truth_path + ": bad truth \"" + truth +
                                  "\"");
      }
      raw_truth.push_back({tasks.Intern(task), value, truth_row});
    }
  }

  ValidationReport local_report;
  ValidationReport* tally = report != nullptr ? report : &local_report;
  status = ValidateNumericRecords(path, validation, &raw, tally);
  if (!status.ok()) return status;
  status = ValidateNumericTruth(truth_path, validation, &raw_truth, tally);
  if (!status.ok()) return status;

  NumericDatasetBuilder builder(tasks.size(), workers.size());
  builder.set_name(path);
  for (const RawNumericAnswer& r : raw) {
    builder.AddAnswer(r.task, r.worker, r.value);
  }
  for (const RawNumericTruth& r : raw_truth) {
    builder.SetTruth(r.task, r.value);
  }
  NumericDataset dataset;
  status = std::move(builder).TryBuild(&dataset);
  if (!status.ok()) return status;
  *out = std::move(dataset);
  return Status::Ok();
}

Status LoadCategoricalLog(const std::string& path,
                          const std::string& truth_path, int num_choices,
                          CategoricalDataset* out) {
  return LoadCategoricalLog(path, truth_path, num_choices,
                            ValidationOptions(), out, /*report=*/nullptr);
}

Status LoadNumericLog(const std::string& path, const std::string& truth_path,
                      NumericDataset* out) {
  return LoadNumericLog(path, truth_path, ValidationOptions(), out,
                        /*report=*/nullptr);
}

}  // namespace crowdtruth::data
