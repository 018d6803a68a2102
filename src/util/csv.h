// Minimal CSV reading/writing used by the dataset I/O layer. Supports
// double-quoted fields with embedded commas and escaped quotes; does not
// support embedded newlines (the dataset formats never need them).
#ifndef CROWDTRUTH_UTIL_CSV_H_
#define CROWDTRUTH_UTIL_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace crowdtruth::util {

// Removes a leading UTF-8 byte-order mark, if present. Spreadsheet exports
// routinely prepend one; left in place it corrupts the first header field.
void StripUtf8Bom(std::string* line);

// Splits one CSV line into fields. A `"` opens or closes quoting anywhere
// in a field, `""` inside quotes is a literal quote, and a `\r` outside
// quotes is dropped (CRLF tolerance).
std::vector<std::string> ParseCsvLine(std::string_view line);

// Appends `field` to `out` as one CSV field: verbatim, or quoted (with
// inner quotes doubled) when it contains a comma, a quote or a newline.
void AppendCsvField(std::string_view field, std::string& out);

// Joins fields into one CSV line with AppendCsvField.
std::string FormatCsvLine(const std::vector<std::string>& fields);

// Reads a whole CSV file into rows of fields. Skips blank lines.
Status ReadCsvFile(const std::string& path,
                   std::vector<std::vector<std::string>>* rows);

// Writes rows to `path`, overwriting.
Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace crowdtruth::util

#endif  // CROWDTRUTH_UTIL_CSV_H_
