#include "util/json_writer.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <system_error>

#include "util/logging.h"

namespace crowdtruth::util {

void JsonEscape(std::string_view text, std::string& out) {
  // Bytes that need no escape are copied in runs, not one at a time.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
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
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  JsonEscape(text, out);
  return out;
}

void JsonNumber(double value, std::string& out) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  char* const limit = buffer + sizeof(buffer);
  char* end = buffer;
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    // The %.0f text: the integer digits, with the sign kept on -0.
    if (std::signbit(value)) *end++ = '-';
    end = std::to_chars(end, limit, static_cast<int64_t>(std::fabs(value)))
              .ptr;
  } else {
    // Shortest of %.15g / %.16g / %.17g that parses back exactly. No
    // text with fewer significant digits than the shortest round-trip
    // form (scientific, so its digits are all significant) parses back,
    // so the search starts there; %.17g always does, unchecked.
    const char* const shortest =
        std::to_chars(buffer, limit, value, std::chars_format::scientific)
            .ptr;
    int digits = 0;
    for (const char* c = buffer; c != shortest && *c != 'e'; ++c) {
      digits += *c >= '0' && *c <= '9';
    }
    for (int precision = std::max(15, digits);; ++precision) {
      end = std::to_chars(buffer, limit, value, std::chars_format::general,
                          precision)
                .ptr;
      if (precision >= 17) break;
      double parsed = 0.0;
      std::from_chars(buffer, end, parsed);
      if (parsed == value) break;
    }
  }
  out.append(buffer, end);
}

std::string JsonNumber(double value) {
  std::string out;
  JsonNumber(value, out);
  return out;
}

void JsonWriter::BeforeValue() {
  if (has_value_.empty()) return;
  if (pending_key_) {
    // The comma (if any) was emitted with the key.
    pending_key_ = false;
    return;
  }
  if (has_value_.back()) out_ += ',';
  has_value_.back() = true;
  NewlineAndIndent();
}

void JsonWriter::NewlineAndIndent() {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(has_value_.size() * indent_, ' ');
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_value_.push_back(false);
}

void JsonWriter::EndObject() {
  CROWDTRUTH_CHECK(!has_value_.empty()) << "EndObject without BeginObject";
  const bool had_values = has_value_.back();
  has_value_.pop_back();
  if (had_values) NewlineAndIndent();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_value_.push_back(false);
}

void JsonWriter::EndArray() {
  CROWDTRUTH_CHECK(!has_value_.empty()) << "EndArray without BeginArray";
  const bool had_values = has_value_.back();
  has_value_.pop_back();
  if (had_values) NewlineAndIndent();
  out_ += ']';
}

void JsonWriter::Key(std::string_view key) {
  CROWDTRUTH_CHECK(!has_value_.empty()) << "Key outside an object";
  if (has_value_.back()) out_ += ',';
  has_value_.back() = true;
  NewlineAndIndent();
  out_ += '"';
  JsonEscape(key, out_);
  out_ += indent_ >= 0 ? "\": " : "\":";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  JsonEscape(value, out_);
  out_ += '"';
}

void JsonWriter::Number(double value) {
  BeforeValue();
  JsonNumber(value, out_);
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  char buffer[24];
  out_.append(buffer,
              std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

void JsonValue::Append(JsonValue value) {
  CROWDTRUTH_CHECK(kind_ == Kind::kArray || kind_ == Kind::kNull)
      << "Append on a non-array JsonValue";
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
}

void JsonValue::Set(std::string key, JsonValue value) {
  CROWDTRUTH_CHECK(kind_ == Kind::kObject || kind_ == Kind::kNull)
      << "Set on a non-object JsonValue";
  kind_ = Kind::kObject;
  for (auto& field : fields_) {
    if (field.first == key) {
      field.second = std::move(value);
      return;
    }
  }
  fields_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& field : fields_) {
    if (field.first == key) return &field.second;
  }
  return nullptr;
}

void JsonValue::Write(JsonWriter& writer) const {
  switch (kind_) {
    case Kind::kNull:
      writer.Null();
      break;
    case Kind::kBool:
      writer.Bool(bool_);
      break;
    case Kind::kNumber:
      writer.Number(number_);
      break;
    case Kind::kString:
      writer.String(string_);
      break;
    case Kind::kArray:
      writer.BeginArray();
      for (const JsonValue& item : items_) item.Write(writer);
      writer.EndArray();
      break;
    case Kind::kObject:
      writer.BeginObject();
      for (const auto& field : fields_) {
        writer.Key(field.first);
        field.second.Write(writer);
      }
      writer.EndObject();
      break;
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  JsonWriter writer(out, indent);
  Write(writer);
  return out;
}

namespace {

// Recursive-descent parser state over the input view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status Parse(JsonValue* value) {
    Status status = ParseValue(value, /*depth=*/0);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters at offset " +
                                std::to_string(pos_));
    }
    return Status::Ok();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Fail(const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* value, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(value, depth);
    if (c == '[') return ParseArray(value, depth);
    if (c == '"') {
      std::string string;
      Status status = ParseString(&string);
      if (!status.ok()) return status;
      *value = JsonValue(std::move(string));
      return Status::Ok();
    }
    if (ConsumeLiteral("true")) {
      *value = JsonValue(true);
      return Status::Ok();
    }
    if (ConsumeLiteral("false")) {
      *value = JsonValue(false);
      return Status::Ok();
    }
    if (ConsumeLiteral("null")) {
      *value = JsonValue();
      return Status::Ok();
    }
    return ParseNumber(value);
  }

  Status ParseObject(JsonValue* value, int depth) {
    ++pos_;  // '{'
    *value = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue member;
      status = ParseValue(&member, depth + 1);
      if (!status.ok()) return status;
      value->Set(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* value, int depth) {
    ++pos_;  // '['
    *value = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue item;
      Status status = ParseValue(&item, depth + 1);
      if (!status.ok()) return status;
      value->Append(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code |= h - 'A' + 10;
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  // Basic-multilingual-plane code points only — enough to round-trip this
  // library's own output, which never emits surrogate pairs.
  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Status ParseNumber(JsonValue* value) {
    const size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double parsed = 0.0;
    const std::from_chars_result result =
        std::from_chars(first, last, parsed);
    if (result.ec != std::errc() || result.ptr != last) {
      // from_chars takes a subset of strtod's grammar (no leading '+') and
      // reports out-of-range magnitudes instead of rounding them to inf or
      // 0. Hand everything it does not take to strtod, so the accepted set
      // and the values stay strtod's.
      const std::string token(first, last);
      char* end = nullptr;
      parsed = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) {
        pos_ = start;
        return Fail("malformed number");
      }
    }
    *value = JsonValue(parsed);
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Status ParseJson(std::string_view text, JsonValue* value) {
  return Parser(text).Parse(value);
}

Status WriteJsonFile(const std::string& path, const JsonValue& value) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << value.Dump(/*indent=*/2) << '\n';
  out.flush();
  if (!out) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

}  // namespace crowdtruth::util
