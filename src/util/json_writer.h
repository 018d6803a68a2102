// Dependency-free JSON emission (and a small parser for round-trip tests
// and report validation). Two layers:
//
//   * JsonWriter — an emitter appending to one std::string; the caller
//     drives Begin/End/Key/value calls and the writer handles commas,
//     indentation and string escaping.
//   * JsonValue — an ordered DOM (objects preserve insertion order) with
//     Dump(), convenient for assembling run reports and bench records.
//
// Non-finite doubles serialize as null (JSON has no NaN/Infinity); integral
// doubles print without an exponent or trailing ".0"; everything else uses
// the shortest of %.15g / %.16g / %.17g that parses back exactly, so values
// round-trip through strtod bit for bit. Numbers are formatted and checked
// with std::to_chars / std::from_chars, which produce the printf/strtod
// text without the C library's locale and stream machinery.
#ifndef CROWDTRUTH_UTIL_JSON_WRITER_H_
#define CROWDTRUTH_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace crowdtruth::util {

// Appends `text` with JSON string escaping (quotes, backslash, control
// characters as \uXXXX) — without the surrounding quotes.
void JsonEscape(std::string_view text, std::string& out);
std::string JsonEscape(std::string_view text);

// Formats one JSON number token (see header comment for the rules); the
// first form appends it to `out`.
void JsonNumber(double value, std::string& out);
std::string JsonNumber(double value);

class JsonWriter {
 public:
  // Appends to `out`. indent < 0 emits compact JSON; otherwise nested
  // values are pretty-printed with `indent` spaces per level.
  explicit JsonWriter(std::string& out, int indent = -1)
      : out_(out), indent_(indent) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  // Must precede the value inside an object.
  void Key(std::string_view key);

  void String(std::string_view value);
  void Number(double value);
  void Int(int64_t value);
  void Bool(bool value);
  void Null();

 private:
  void BeforeValue();
  void NewlineAndIndent();

  std::string& out_;
  int indent_;
  // One frame per open container: whether it has emitted a value yet.
  std::vector<bool> has_value_;
  bool pending_key_ = false;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}
  JsonValue(int value) : kind_(Kind::kNumber), number_(value) {}
  JsonValue(int64_t value)
      : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(uint64_t value)
      : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}
  JsonValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}
  JsonValue(std::string_view value)
      : kind_(Kind::kString), string_(value) {}

  static JsonValue Array() {
    JsonValue value;
    value.kind_ = Kind::kArray;
    return value;
  }
  static JsonValue Object() {
    JsonValue value;
    value.kind_ = Kind::kObject;
    return value;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& fields() const {
    return fields_;
  }

  // Array append. The value must be (or becomes) an array.
  void Append(JsonValue value);
  // Object insert; replaces an existing key in place. The value must be
  // (or becomes) an object.
  void Set(std::string key, JsonValue value);
  // Returns the member or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;

  // Serializes via JsonWriter; indent < 0 is compact.
  void Write(JsonWriter& writer) const;
  std::string Dump(int indent = -1) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

// Strict-enough recursive-descent parser for the documents this library
// emits. A number token (digits, '.', 'e'/'E' and signs) is accepted
// exactly when strtod takes all of it, with strtod's value, so a leading
// '+' is accepted and 1e999 parses as infinity. Rejects trailing garbage.
// On success stores the root in `*value`.
Status ParseJson(std::string_view text, JsonValue* value);

// Writes `value` to `path`, pretty-printed, with a trailing newline.
Status WriteJsonFile(const std::string& path, const JsonValue& value);

}  // namespace crowdtruth::util

#endif  // CROWDTRUTH_UTIL_JSON_WRITER_H_
