#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace htapex {

void JsonValue::Set(std::string key, JsonValue v) {
  for (auto& [k, val] : object_) {
    if (k == key) {
      val = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, val] : object_) {
    if (k == key) return &val;
  }
  return nullptr;
}

int64_t JsonValue::int_value() const {
  return is_double() ? SaturatingInt64(double_) : int_;
}

int64_t JsonValue::GetInt(std::string_view key, int64_t def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->int_value() : def;
}

double JsonValue::GetDouble(std::string_view key, double def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->double_value() : def;
}

std::string JsonValue::GetString(std::string_view key, std::string def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : def;
}

bool JsonValue::GetBool(std::string_view key, bool def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : def;
}

void JsonValue::DumpTo(std::string* out, int indent, int depth,
                       bool pythonish) const {
  const char quote = pythonish ? '\'' : '"';
  auto newline = [&](int d) {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      *out += pythonish ? "None" : "null";
      break;
    case Type::kBool:
      if (pythonish) {
        *out += bool_ ? "True" : "False";
      } else {
        *out += bool_ ? "true" : "false";
      }
      break;
    case Type::kInt:
      AppendJsonInt(out, int_);
      break;
    case Type::kDouble:
      AppendJsonNumber(out, double_);
      break;
    case Type::kString:
      AppendJsonString(out, string_, quote);
      break;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(depth + 1);
        if (indent <= 0 && i > 0) out->push_back(' ');
        array_[i].DumpTo(out, indent, depth + 1, pythonish);
      }
      if (!array_.empty()) newline(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(depth + 1);
        if (indent <= 0 && i > 0) out->push_back(' ');
        AppendJsonString(out, object_[i].first, quote);
        *out += ": ";
        object_[i].second.DumpTo(out, indent, depth + 1, pythonish);
      }
      if (!object_.empty()) newline(depth);
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0, /*pythonish=*/false);
  return out;
}

std::string JsonValue::DumpPythonish() const {
  std::string out;
  DumpTo(&out, -1, 0, /*pythonish=*/true);
  return out;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (is_number() && other.is_number()) {
    return double_value() == other.double_value();
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kDouble:
      return double_ == other.double_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

void AppendJsonString(std::string* out, std::string_view s, char quote) {
  out->push_back(quote);
  size_t run = 0;  // first byte not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '\\' && c != quote) {
      continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (c == quote) {
          out->push_back('\\');
          out->push_back(c);
        } else {
          // printf "\\u%04x" of a byte below 0x20.
          static constexpr char kHex[] = "0123456789abcdef";
          const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
          out->append(code, sizeof(code));
        }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back(quote);
}

void AppendJsonNumber(std::string* out, double d) {
  char buf[32];
  char* const last = buf + sizeof(buf);
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    // "%.1f" of an integral double below 1e15 is its exact integer and ".0".
    char* end = buf;
    if (d == 0 && std::signbit(d)) *end++ = '-';
    end = std::to_chars(end, last, static_cast<int64_t>(d)).ptr;
    *end++ = '.';
    *end++ = '0';
    out->append(buf, end);
    return;
  }
  // to_chars with a precision prints what printf "%.*g" prints, and
  // from_chars reads what strtod reads wherever it succeeds; its range
  // errors are texts strtod reads as 0 or inf, which cannot equal `d` here.
  char* end = buf;
  for (int precision = 13; precision <= 17; ++precision) {
    end = std::to_chars(buf, last, d, std::chars_format::general, precision)
              .ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == d) break;
  }
  out->append(buf, end);
}

void AppendJsonInt(std::string* out, int64_t i) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
}

int64_t SaturatingInt64(double d) {
  if (std::isnan(d)) return 0;
  // 2^63 is the first double past INT64_MAX; -2^63 is INT64_MIN exactly.
  if (d >= 0x1p63) return INT64_MAX;
  if (d < -0x1p63) return INT64_MIN;
  return static_cast<int64_t>(d);
}

namespace {

/// The value of hex digit `h`, or -1.
int HexValue(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

/// Calls strtod or strtoll on a copy of `token` with a terminating NUL.
template <typename Convert>
auto ConvertTerminated(std::string_view token, Convert convert) {
  char buf[64];
  std::string long_token;
  const char* text = buf;
  if (token.size() < sizeof(buf)) {
    std::memcpy(buf, token.data(), token.size());
    buf[token.size()] = '\0';
  } else {
    long_token.assign(token);
    text = long_token.c_str();
  }
  return convert(text);
}

/// What strtoll reads from an integer token, [+-]?[0-9]*. Up to 18 digits
/// cannot overflow, so those are summed directly.
int64_t TokenToInt(std::string_view token) {
  const bool negative = token[0] == '-';
  const std::string_view digits =
      token.substr(negative || token[0] == '+' ? 1 : 0);
  if (digits.empty() || digits.size() > 18) {
    return ConvertTerminated(
        token, [](const char* t) { return std::strtoll(t, nullptr, 10); });
  }
  int64_t value = 0;
  for (char c : digits) value = value * 10 + (c - '0');
  return negative ? -value : value;
}

/// What strtod reads from a number token. from_chars rounds decimal text
/// exactly as strtod does; strtod handles what from_chars rejects or reads
/// only in part (a leading '+', out-of-range values, "1e").
double TokenToDouble(std::string_view token) {
  const char* end = token.data() + token.size();
  double value = 0.0;
  auto [parsed_end, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc() && parsed_end == end) return value;
  return ConvertTerminated(
      token, [](const char* t) { return std::strtod(t, nullptr); });
}

/// Arrays and objects nested deeper than this are rejected with a parse
/// error instead of overflowing the recursive descent's stack.
constexpr int kMaxDepth = 256;

/// Recursive-descent tokenizer tolerant of single-quoted strings and Python
/// literals (None/True/False), so Table II style plans round-trip. Each
/// Parse* returns false after recording the first error in `error_`.
class JsonParser {
 public:
  JsonParser(std::string_view text, JsonEvents* events)
      : text_(text), events_(events) {}

  Status Parse() {
    SkipWs();
    if (!ParseValue(0)) return error_;
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::ParseError(
          StrFormat("trailing characters at offset %zu", pos_));
    }
    return Status::OK();
  }

 private:
  bool Fail(std::string message) {
    error_ = Status::ParseError(std::move(message));
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool Consume(char c) {
    if (Peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  bool ParseValue(int depth) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      return Fail(StrFormat("nesting deeper than %d levels at offset %zu",
                            kMaxDepth, pos_));
    }
    if (c == '{') return ParseObject(depth + 1);
    if (c == '[') return ParseArray(depth + 1);
    if (c == '"' || c == '\'') {
      JsonString s;
      if (!ParseString(&s)) return false;
      events_->String(s);
      return true;
    }
    if (ConsumeWord("null") || ConsumeWord("None")) {
      events_->Null();
      return true;
    }
    if (ConsumeWord("true") || ConsumeWord("True")) {
      events_->Bool(true);
      return true;
    }
    if (ConsumeWord("false") || ConsumeWord("False")) {
      events_->Bool(false);
      return true;
    }
    return ParseNumber();
  }

  /// Scans the string token at pos_ (an opening quote), validating escapes.
  bool ParseString(JsonString* out) {
    const char quote = text_[pos_++];
    const size_t start = pos_;
    bool escaped = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == quote) {
        out->raw = text_.substr(start, pos_ - 1 - start);
        out->escaped = escaped;
        return true;
      }
      if (c != '\\') continue;
      escaped = true;
      if (pos_ >= text_.size()) break;
      if (text_[pos_++] != 'u') continue;
      if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
      for (int i = 0; i < 4; ++i) {
        if (HexValue(text_[pos_++]) < 0) return Fail("bad \\u escape digit");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber() {
    size_t start = pos_;
    if (Peek('-') || Peek('+')) ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '+'/'-' only valid right after exponent; keep the scan permissive
        // and let strtod validate.
        if (c == '+' || c == '-') {
          char prev = text_[pos_ - 1];
          if (prev != 'e' && prev != 'E') break;
        }
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Fail(StrFormat("invalid token at offset %zu", start));
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (is_double) {
      events_->Double(TokenToDouble(token));
    } else {
      events_->Int(TokenToInt(token));
    }
    return true;
  }

  bool ParseArray(int depth) {
    ++pos_;  // '['
    events_->BeginArray();
    SkipWs();
    if (!Consume(']')) {
      while (true) {
        if (!ParseValue(depth)) return false;
        SkipWs();
        if (Consume(']')) break;
        if (!Consume(',')) return Fail("expected ',' in array");
      }
    }
    events_->EndArray();
    return true;
  }

  bool ParseObject(int depth) {
    ++pos_;  // '{'
    events_->BeginObject();
    SkipWs();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        if (!Peek('"') && !Peek('\'')) {
          return Fail("expected string key in object");
        }
        JsonString key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (!Consume(':')) return Fail("expected ':' in object");
        events_->Key(key);
        if (!ParseValue(depth)) return false;
        SkipWs();
        if (Consume('}')) break;
        if (!Consume(',')) return Fail("expected ',' in object");
      }
    }
    events_->EndObject();
    return true;
  }

  std::string_view text_;
  JsonEvents* events_;
  size_t pos_ = 0;
  Status error_;
};

/// Builds the document model from the tokenizer's events: open containers
/// wait on a stack, and each finished value joins the container below it.
class DomBuilder final : public JsonEvents {
 public:
  JsonValue Take() { return std::move(root_); }

  void Null() override { Add(JsonValue::Null()); }
  void Bool(bool b) override { Add(JsonValue::Bool(b)); }
  void Int(int64_t i) override { Add(JsonValue::Int(i)); }
  void Double(double d) override { Add(JsonValue::Double(d)); }
  void String(const JsonString& s) override {
    Add(JsonValue::String(s.Decode()));
  }
  void Key(const JsonString& key) override { keys_.push_back(key.Decode()); }
  void BeginObject() override { open_.push_back(JsonValue::MakeObject()); }
  void EndObject() override { Close(); }
  void BeginArray() override { open_.push_back(JsonValue::MakeArray()); }
  void EndArray() override { Close(); }

 private:
  void Close() {
    JsonValue done = std::move(open_.back());
    open_.pop_back();
    Add(std::move(done));
  }

  void Add(JsonValue v) {
    if (open_.empty()) {
      root_ = std::move(v);
    } else if (open_.back().is_array()) {
      open_.back().Append(std::move(v));
    } else {
      open_.back().Set(std::move(keys_.back()), std::move(v));
      keys_.pop_back();
    }
  }

  std::vector<JsonValue> open_;
  std::vector<std::string> keys_;  // one per open object member
  JsonValue root_;
};

}  // namespace

std::string JsonString::Decode() const {
  if (!escaped) return std::string(raw);
  // The tokenizer validated every escape, so each one is complete here.
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    char e = raw[++i];
    switch (e) {
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 'u': {
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          code = (code << 4) + static_cast<unsigned>(HexValue(raw[++i]));
        }
        // ASCII-only support is enough for plan text.
        out.push_back(static_cast<char>(code & 0x7F));
        break;
      }
      default:
        out.push_back(e);
    }
  }
  return out;
}

Status ParseJson(std::string_view text, JsonEvents* events) {
  return JsonParser(text, events).Parse();
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  DomBuilder dom;
  HTAPEX_RETURN_IF_ERROR(ParseJson(text, &dom));
  return dom.Take();
}

}  // namespace htapex
