#include "shard/replay.h"

#include "util/csv.h"

namespace crowdtruth::shard {

util::Status LoadLog(const std::string& path, LoadedLog* out) {
  data::AnswerLogReader reader;
  util::Status status = reader.Open(path);
  if (!status.ok()) return status;
  out->header = reader.header();
  data::AnswerLogRecord record;
  bool eof = false;
  while (true) {
    status = reader.Next(&record, &eof);
    if (!status.ok()) return status;
    if (eof) return util::Status::Ok();
    out->records.push_back(record);
  }
}

int ResolveNumChoices(int requested, const LoadedLog& log) {
  int num_choices = requested > 0 ? requested : log.header.num_choices;
  if (num_choices <= 0) {
    int max_label = 1;
    for (const data::AnswerLogRecord& record : log.records) {
      if (record.label > max_label) max_label = record.label;
    }
    num_choices = max_label + 1;
  }
  return num_choices < 2 ? 2 : num_choices;
}

streaming::StreamingOptions StreamingOptionsFromFlags(
    const util::Flags& flags) {
  streaming::StreamingOptions options;
  options.local_sweeps = flags.GetInt("local_sweeps");
  options.max_dirty_tasks = flags.GetInt("max_dirty_tasks");
  options.batch.seed = flags.GetInt("seed");
  options.batch.num_threads = flags.GetInt("threads");
  return options;
}

util::Status WriteCsvPairs(const std::string& path,
                           const std::string& key_column,
                           const std::string& value_column,
                           const CsvPairs& pairs) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(pairs.size() + 1);
  rows.push_back({key_column, value_column});
  for (const auto& [key, value] : pairs) rows.push_back({key, value});
  return util::WriteCsvFile(path, rows);
}

}  // namespace crowdtruth::shard
