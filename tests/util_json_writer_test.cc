// Tests for the dependency-free JSON writer, DOM and parser, including a
// differential pin against the snprintf/strtod + ostream writer the
// library used before (a test-local copy below).
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/json_writer.h"

namespace crowdtruth::util {
namespace {

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("hello world"), "hello world");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(JsonEscape("\x01"), "\\u0001");
}

TEST(JsonNumberTest, IntegralValuesHaveNoFraction) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
}

TEST(JsonNumberTest, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumberTest, DoublesRoundTripThroughStrtod) {
  for (double value : {0.1, 1.0 / 3.0, 0.932, 6.02e23, -1.5e-8, 123.456}) {
    const std::string text = JsonNumber(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
}

TEST(JsonWriterTest, EmitsCompactDocument) {
  std::string out;
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("name");
  writer.String("D&S");
  writer.Key("iters");
  writer.Int(12);
  writer.Key("scores");
  writer.BeginArray();
  writer.Number(0.5);
  writer.Bool(true);
  writer.Null();
  writer.EndArray();
  writer.EndObject();
  EXPECT_EQ(out, R"({"name":"D&S","iters":12,"scores":[0.5,true,null]})");
}

TEST(JsonWriterTest, PrettyPrintsWithIndent) {
  std::string out;
  JsonWriter writer(out, /*indent=*/2);
  writer.BeginObject();
  writer.Key("a");
  writer.Int(1);
  writer.EndObject();
  EXPECT_EQ(out, "{\n  \"a\": 1\n}");
}

TEST(JsonValueTest, ObjectPreservesInsertionOrderAndReplacesInPlace) {
  JsonValue object = JsonValue::Object();
  object.Set("z", 1);
  object.Set("a", 2);
  object.Set("z", 3);  // replace, not reorder
  ASSERT_EQ(object.fields().size(), 2u);
  EXPECT_EQ(object.fields()[0].first, "z");
  EXPECT_EQ(object.fields()[0].second.number(), 3.0);
  EXPECT_EQ(object.fields()[1].first, "a");
  EXPECT_EQ(object.Dump(), R"({"z":3,"a":2})");
}

TEST(JsonValueTest, FindReturnsMemberOrNull) {
  JsonValue object = JsonValue::Object();
  object.Set("key", "value");
  ASSERT_NE(object.Find("key"), nullptr);
  EXPECT_EQ(object.Find("key")->string(), "value");
  EXPECT_EQ(object.Find("missing"), nullptr);
}

TEST(JsonValueTest, DumpParseRoundTrip) {
  JsonValue doc = JsonValue::Object();
  doc.Set("method", "GLAD");
  doc.Set("accuracy", 0.932);
  doc.Set("converged", true);
  doc.Set("note", JsonValue());
  JsonValue trace = JsonValue::Array();
  for (int i = 1; i <= 3; ++i) {
    JsonValue event = JsonValue::Object();
    event.Set("iteration", i);
    event.Set("delta", 1.0 / i);
    trace.Append(std::move(event));
  }
  doc.Set("iterations_trace", std::move(trace));

  for (int indent : {-1, 2}) {
    JsonValue parsed;
    const Status status = ParseJson(doc.Dump(indent), &parsed);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(parsed.Dump(), doc.Dump());
    ASSERT_NE(parsed.Find("iterations_trace"), nullptr);
    ASSERT_EQ(parsed.Find("iterations_trace")->items().size(), 3u);
    EXPECT_EQ(
        parsed.Find("iterations_trace")->items()[1].Find("delta")->number(),
        0.5);
  }
}

TEST(JsonValueTest, EscapedStringsRoundTrip) {
  JsonValue doc = JsonValue::Object();
  doc.Set("text", "quote \" backslash \\ newline \n unicode \x01 end");
  JsonValue parsed;
  const Status status = ParseJson(doc.Dump(), &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(parsed.Find("text")->string(),
            "quote \" backslash \\ newline \n unicode \x01 end");
}

TEST(JsonValueTest, NanSerializesAsNull) {
  JsonValue doc = JsonValue::Object();
  doc.Set("f1", std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(doc.Dump(), R"({"f1":null})");
}

TEST(ParseJsonTest, RejectsMalformedDocuments) {
  JsonValue parsed;
  EXPECT_FALSE(ParseJson("", &parsed).ok());
  EXPECT_FALSE(ParseJson("{", &parsed).ok());
  EXPECT_FALSE(ParseJson("[1,]", &parsed).ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &parsed).ok());
  EXPECT_FALSE(ParseJson("'single'", &parsed).ok());
}

TEST(ParseJsonTest, AcceptsScalarsAndWhitespace) {
  JsonValue parsed;
  ASSERT_TRUE(ParseJson("  true ", &parsed).ok());
  EXPECT_TRUE(parsed.bool_value());
  ASSERT_TRUE(ParseJson("-12.5e2", &parsed).ok());
  EXPECT_EQ(parsed.number(), -1250.0);
  ASSERT_TRUE(ParseJson("\"hi\"", &parsed).ok());
  EXPECT_EQ(parsed.string(), "hi");
  ASSERT_TRUE(ParseJson("null", &parsed).ok());
  EXPECT_TRUE(parsed.is_null());
}

TEST(WriteJsonFileTest, WritesPrettyDocumentWithTrailingNewline) {
  const std::string path =
      ::testing::TempDir() + "/crowdtruth_json_writer_test.json";
  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "unit");
  const Status status = WriteJsonFile(path, doc);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(text, &parsed).ok());
  ASSERT_NE(parsed.Find("bench"), nullptr);
  EXPECT_EQ(parsed.Find("bench")->string(), "unit");
  std::remove(path.c_str());
}

// --- Differential pin against the previous writer ---------------------
//
// A test-local copy of the writer as it stood before Dump moved to one
// std::string and numbers to std::to_chars / std::from_chars: snprintf
// number text checked with strtod, byte-at-a-time escaping, an ostream
// sink, and strtod over a copied token in the parser. Everything the
// library emits must match it byte for byte, and everything it parses bit
// for bit.
namespace legacy {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string Escape(std::string_view text) {
  std::string out;
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

class Writer {
 public:
  Writer(std::ostream& out, int indent) : out_(out), indent_(indent) {}

  void Value(const JsonValue& value) {
    switch (value.kind()) {
      case JsonValue::Kind::kNull:
        BeforeValue();
        out_ << "null";
        break;
      case JsonValue::Kind::kBool:
        BeforeValue();
        out_ << (value.bool_value() ? "true" : "false");
        break;
      case JsonValue::Kind::kNumber:
        BeforeValue();
        out_ << Number(value.number());
        break;
      case JsonValue::Kind::kString:
        BeforeValue();
        out_ << '"' << Escape(value.string()) << '"';
        break;
      case JsonValue::Kind::kArray:
        BeforeValue();
        out_ << '[';
        has_value_.push_back(false);
        for (const JsonValue& item : value.items()) Value(item);
        End(']');
        break;
      case JsonValue::Kind::kObject:
        BeforeValue();
        out_ << '{';
        has_value_.push_back(false);
        for (const auto& field : value.fields()) {
          Key(field.first);
          Value(field.second);
        }
        End('}');
        break;
    }
  }

 private:
  void BeforeValue() {
    if (has_value_.empty()) return;
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (has_value_.back()) out_ << ',';
    has_value_.back() = true;
    NewlineAndIndent();
  }

  void NewlineAndIndent() {
    if (indent_ < 0) return;
    out_ << '\n';
    for (size_t i = 0; i < has_value_.size() * indent_; ++i) out_ << ' ';
  }

  void Key(std::string_view key) {
    if (has_value_.back()) out_ << ',';
    has_value_.back() = true;
    NewlineAndIndent();
    out_ << '"' << Escape(key) << "\":";
    if (indent_ >= 0) out_ << ' ';
    pending_key_ = true;
  }

  void End(char close) {
    const bool had_values = has_value_.back();
    has_value_.pop_back();
    if (had_values) NewlineAndIndent();
    out_ << close;
  }

  std::ostream& out_;
  int indent_;
  std::vector<bool> has_value_;
  bool pending_key_ = false;
};

std::string Dump(const JsonValue& value, int indent) {
  std::ostringstream out;
  Writer writer(out, indent);
  writer.Value(value);
  return out.str();
}

// The previous ParseNumber conversion: strtod over a copy of the token,
// accepted only when it consumes all of it.
bool ParseNumber(const std::string& token, double* value) {
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

}  // namespace legacy

// Hand-picked numbers at the formatting rules' edges.
std::vector<double> EdgeNumbers() {
  using Limits = std::numeric_limits<double>;
  const double two53 = 9007199254740992.0;
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 0.2, 0.1 + 0.2, 1.0 / 3.0,
      2.0 / 3.0, 3.141592653589793, 2.718281828459045, 0.932, 6.02e23,
      -1.5e-8, 123.456,
      // Subnormals and the normal/subnormal seam.
      Limits::denorm_min(), -Limits::denorm_min(), 2 * Limits::denorm_min(),
      std::nextafter(Limits::min(), 0.0), Limits::min(),
      std::nextafter(Limits::min(), 1.0), 2.2250738585072009e-308,
      4.9406564584124654e-324, 1e-310, -1e-320,
      // Extremes.
      Limits::max(), -Limits::max(), std::nextafter(Limits::max(), 0.0),
      1e300, 1e-300,
      // Integers near 2^53, where the integral rule hands over to %g.
      two53 - 2, two53 - 1, two53, two53 + 2, two53 + 4, -(two53 - 1),
      -two53, -(two53 + 2), two53 / 2 - 0.5, two53 / 4 + 0.25,
      9007199254740991.0, 1e15, 1e16, 1e17, 1e18, 123456789012345678.0,
      // Non-integral values at 15-17 significant digits.
      1e15 + 0.5, 999999999999999.9, 1e14 + 0.3, 123456789012345.67,
      0.1234567890123456, 0.12345678901234567,
      // Non-finite values.
      Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN()};
  // The %g switch to an exponent (X < -4 or X >= precision), on both sides
  // of each decade, including values that round across it.
  for (int exponent = -7; exponent <= 18; ++exponent) {
    const double decade = std::pow(10.0, exponent);
    for (const double v : {decade, std::nextafter(decade, 0.0),
                           std::nextafter(decade, 2 * decade),
                           decade * 0.99999999999999994,
                           decade * 9.9999999999999995, decade * 1.5,
                           decade * 0.999999999999999}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  return values;
}

// Random doubles: raw bit patterns (every exponent, NaN payloads,
// subnormals) plus the probability-like values checkpoints are full of.
std::vector<double> RandomNumbers(int bit_patterns, int probabilities) {
  std::mt19937_64 rng(20240917);
  std::vector<double> values;
  values.reserve(bit_patterns + probabilities);
  for (int i = 0; i < bit_patterns; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-12, 12);
  for (int i = 0; i < probabilities; ++i) {
    values.push_back(unit(rng) * std::pow(10.0, exponent(rng)));
  }
  return values;
}

TEST(JsonDifferentialTest, NumbersMatchPreviousWriter) {
  // Same text as snprintf, and the text parses back to the same bits as
  // strtod gives (which are the value's own bits).
  std::vector<double> values = EdgeNumbers();
  const std::vector<double> random = RandomNumbers(1 << 20, 1 << 17);
  values.insert(values.end(), random.begin(), random.end());
  int64_t mismatches = 0;
  for (const double value : values) {
    const std::string text = JsonNumber(value);
    const std::string expected = legacy::Number(value);
    std::string appended = "x";
    JsonNumber(value, appended);
    bool same = text == expected && appended == "x" + expected;
    if (same && std::isfinite(value)) {
      double strtod_value = 0.0;
      JsonValue parsed;
      same = legacy::ParseNumber(expected, &strtod_value) &&
             ParseJson(text, &parsed).ok() &&
             std::bit_cast<uint64_t>(parsed.number()) ==
                 std::bit_cast<uint64_t>(strtod_value) &&
             std::bit_cast<uint64_t>(strtod_value) ==
                 std::bit_cast<uint64_t>(value);
    }
    if (!same && ++mismatches <= 10) {
      ADD_FAILURE() << "bits " << std::bit_cast<uint64_t>(value) << ": "
                    << text << " vs " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << values.size() << " numbers";
}

TEST(JsonDifferentialTest, NumberTokensKeepTheAcceptSet) {
  // Tokens the number scanner hands over ([-]{digits . e E + -}), well-
  // and ill-formed: accepted exactly when strtod took the whole token,
  // with the same bits. Includes what strtod takes beyond JSON's grammar
  // (leading '+', leading zeros, bare fractions, out-of-range magnitudes).
  const std::vector<std::string> tokens = {
      "0", "-0", "0.0", "-0.0", "1", "-1", "12.5", "-12.5e2", "1E2", "1e+2",
      "1e-2", "1.", "-1.", ".5", "-.5", "00012", "-007.5", "+5", "+0",
      "+1.5e3", "+.5", "1e999", "-1e999", "1e-999", "-1e-999", "1e308",
      "1.8e308", "2e-324", "3e-324", "4.9406564584124654e-324",
      "2.2250738585072011e-308", "2.2250738585072012e-308",
      "123456789012345678901234567890", "0.1e1",
      "9007199254740993", "9007199254740992.5",
      "1.00000000000000011102230246251565404236316680908203125",
      "0.30000000000000004", "1e", "1e+", "1e-", "e5", "-e5", ".", "-", "+",
      "--1", "+-1", "-+1", "++1", "1.2.3", "1e5.5", "1e5e5", "1-2", "1+2",
      "0.5-", ".e1", "1..2", "-.", "+."};
  for (const std::string& token : tokens) {
    double expected = 0.0;
    const bool legacy_ok = legacy::ParseNumber(token, &expected);
    JsonValue parsed;
    const Status status = ParseJson(token, &parsed);
    ASSERT_EQ(status.ok(), legacy_ok) << token << ": " << status.ToString();
    if (legacy_ok) {
      EXPECT_EQ(std::bit_cast<uint64_t>(parsed.number()),
                std::bit_cast<uint64_t>(expected))
          << token;
    }
  }
  // The same tokens inside a document.
  JsonValue doc;
  ASSERT_TRUE(ParseJson("[+5, 1e999, -1e-999, 00012]", &doc).ok());
  ASSERT_EQ(doc.items().size(), 4u);
  EXPECT_EQ(doc.items()[0].number(), 5.0);
  EXPECT_EQ(doc.items()[1].number(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(std::bit_cast<uint64_t>(doc.items()[2].number()),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(doc.items()[3].number(), 12.0);
}

TEST(JsonDifferentialTest, EscapingMatchesForEveryByte) {
  for (int c = 0; c < 256; ++c) {
    const std::string text(1, static_cast<char>(c));
    EXPECT_EQ(JsonEscape(text), legacy::Escape(text)) << "byte " << c;
  }
  const std::string mixed = "plain \"quoted\" back\\slash \x01\x1f\x7f \xc3\xa9";
  EXPECT_EQ(JsonEscape(mixed), legacy::Escape(mixed));
  std::string appended = "prefix:";
  JsonEscape(mixed, appended);
  EXPECT_EQ(appended, "prefix:" + legacy::Escape(mixed));
}

TEST(JsonDifferentialTest, IntsMatchStreamText) {
  for (const int64_t value :
       {int64_t{0}, int64_t{-1}, int64_t{42}, int64_t{-9007199254740993},
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max()}) {
    std::string out;
    JsonWriter writer(out);
    writer.Int(value);
    std::ostringstream expected;
    expected << value;
    EXPECT_EQ(out, expected.str());
  }
}

// A random document: nested objects and arrays, keys and strings with
// escapes, control bytes and UTF-8, numbers from the edge set and random
// bits, integers, bools and nulls.
JsonValue RandomDocument(std::mt19937_64& rng, const std::vector<double>& numbers,
                         int depth) {
  std::uniform_int_distribution<int> kind(0, depth >= 4 ? 4 : 6);
  const auto random_string = [&rng]() {
    static const char kAlphabet[] =
        "abcXYZ019 _-.\"\\/\b\f\n\r\t\x01\x1f\x7f\xc3\xa9{}[]:,";
    std::uniform_int_distribution<int> length(0, 12);
    std::uniform_int_distribution<size_t> pick(0, sizeof(kAlphabet) - 2);
    std::string text;
    for (int n = length(rng); n > 0; --n) text += kAlphabet[pick(rng)];
    return text;
  };
  std::uniform_int_distribution<size_t> number(0, numbers.size() - 1);
  switch (kind(rng)) {
    case 0:
      return JsonValue();
    case 1:
      return JsonValue(rng() % 2 == 0);
    case 2:
      return JsonValue(numbers[number(rng)]);
    case 3:
      return JsonValue(static_cast<int64_t>(rng() >> (rng() % 64)) *
                       (rng() % 2 == 0 ? 1 : -1));
    case 4:
      return JsonValue(random_string());
    case 5: {
      JsonValue array = JsonValue::Array();
      for (int n = static_cast<int>(rng() % 6); n > 0; --n) {
        array.Append(RandomDocument(rng, numbers, depth + 1));
      }
      return array;
    }
    default: {
      JsonValue object = JsonValue::Object();
      for (int n = static_cast<int>(rng() % 6); n > 0; --n) {
        object.Set(random_string(), RandomDocument(rng, numbers, depth + 1));
      }
      return object;
    }
  }
}

TEST(JsonDifferentialTest, DumpMatchesPreviousWriterAtEveryIndent) {
  std::vector<double> numbers = EdgeNumbers();
  const std::vector<double> random = RandomNumbers(1 << 12, 1 << 12);
  numbers.insert(numbers.end(), random.begin(), random.end());
  std::mt19937_64 rng(7);
  const std::string path =
      ::testing::TempDir() + "/crowdtruth_json_differential_test.json";
  for (int round = 0; round < 300; ++round) {
    JsonValue doc = JsonValue::Object();
    for (int n = 0; n < 8; ++n) {
      doc.Set("field" + std::to_string(n), RandomDocument(rng, numbers, 0));
    }
    doc.Set("empty_array", JsonValue::Array());
    doc.Set("empty_object", JsonValue::Object());
    for (const int indent : {-1, 0, 1, 2}) {
      const std::string text = doc.Dump(indent);
      ASSERT_EQ(text, legacy::Dump(doc, indent))
          << "round " << round << " indent " << indent;
      // Parsing the text back reproduces the document bit for bit (NaN
      // was written as null, so compare through a second Dump).
      JsonValue parsed;
      ASSERT_TRUE(ParseJson(text, &parsed).ok()) << text;
      ASSERT_EQ(parsed.Dump(indent), text);
    }
    if (round % 50 == 0) {
      ASSERT_TRUE(WriteJsonFile(path, doc).ok());
      std::ifstream in(path);
      std::stringstream buffer;
      buffer << in.rdbuf();
      EXPECT_EQ(buffer.str(), legacy::Dump(doc, 2) + "\n");
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crowdtruth::util
