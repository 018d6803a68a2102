#include "util/csv.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace crowdtruth::util {
namespace {

TEST(CsvParseTest, SimpleFields) {
  EXPECT_EQ(ParseCsvLine("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvParseTest, EmptyFields) {
  EXPECT_EQ(ParseCsvLine("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(ParseCsvLine(","), (std::vector<std::string>{"", ""}));
}

TEST(CsvParseTest, QuotedFieldWithComma) {
  EXPECT_EQ(ParseCsvLine("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
}

TEST(CsvParseTest, EscapedQuote) {
  EXPECT_EQ(ParseCsvLine("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(CsvParseTest, ToleratesCarriageReturn) {
  EXPECT_EQ(ParseCsvLine("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(CsvFormatTest, QuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(CsvFormatTest, AppendCsvFieldAppendsOneField) {
  std::string out = "x,";
  AppendCsvField("plain", out);
  out += ',';
  AppendCsvField("a,\"b\"", out);
  out += ',';
  AppendCsvField("line\nbreak", out);
  EXPECT_EQ(out, "x,plain,\"a,\"\"b\"\"\",\"line\nbreak\"");
}

class CsvRoundTripTest
    : public ::testing::TestWithParam<std::vector<std::string>> {};

TEST_P(CsvRoundTripTest, FormatThenParseIsIdentity) {
  const std::vector<std::string>& fields = GetParam();
  EXPECT_EQ(ParseCsvLine(FormatCsvLine(fields)), fields);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CsvRoundTripTest,
    ::testing::Values(std::vector<std::string>{"plain"},
                      std::vector<std::string>{"a", "b", "c"},
                      std::vector<std::string>{"with,comma", "x"},
                      std::vector<std::string>{"quo\"te", ""},
                      std::vector<std::string>{"", "", ""},
                      std::vector<std::string>{"  spaces  ", "\ttab"}));

TEST(CsvFileTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/csv_roundtrip.csv";
  const std::vector<std::vector<std::string>> rows = {
      {"task", "worker", "answer"},
      {"t1", "w1", "0"},
      {"t2", "w,2", "1"},
  };
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  std::vector<std::vector<std::string>> loaded;
  ASSERT_TRUE(ReadCsvFile(path, &loaded).ok());
  EXPECT_EQ(loaded, rows);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileReportsIoError) {
  std::vector<std::vector<std::string>> rows;
  const Status status = ReadCsvFile("/nonexistent/path/file.csv", &rows);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace crowdtruth::util
