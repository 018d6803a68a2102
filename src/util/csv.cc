#include "util/csv.h"

#include <fstream>
#include <sstream>

namespace crowdtruth::util {

void StripUtf8Bom(std::string* line) {
  if (line->size() >= 3 && (*line)[0] == '\xef' && (*line)[1] == '\xbb' &&
      (*line)[2] == '\xbf') {
    line->erase(0, 3);
  }
}

std::vector<std::string> ParseCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF line endings.
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

void AppendCsvField(std::string_view field, std::string& out) {
  // One branch-free scan; find_first_of would test each byte against the
  // three specials with a call per byte.
  bool special = false;
  for (const char c : field) special |= (c == ',') | (c == '"') | (c == '\n');
  if (!special) {
    out += field;
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

std::string FormatCsvLine(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line.push_back(',');
    AppendCsvField(fields[i], line);
  }
  return line;
}

Status ReadCsvFile(const std::string& path,
                   std::vector<std::vector<std::string>>* rows) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  rows->clear();
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      StripUtf8Bom(&line);
      first = false;
    }
    if (line.empty() || line == "\r") continue;
    rows->push_back(ParseCsvLine(line));
  }
  return Status::Ok();
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  for (const auto& row : rows) {
    out << FormatCsvLine(row) << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace crowdtruth::util
