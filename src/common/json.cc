#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

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

namespace {

void EscapeStringTo(std::string* out, const std::string& s, char quote) {
  out->push_back(quote);
  for (char c : s) {
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
        } else if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back(quote);
}

void NumberTo(std::string* out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    // Keep a trailing ".0" so doubles stay doubles on round-trip.
    *out += StrFormat("%.1f", d);
    return;
  }
  // Shortest representation that still round-trips exactly: try increasing
  // precision until the value parses back bit-identically.
  for (int precision = 13; precision <= 17; ++precision) {
    std::string text = StrFormat("%.*g", precision, d);
    if (std::strtod(text.c_str(), nullptr) == d) {
      *out += text;
      return;
    }
  }
  *out += StrFormat("%.17g", d);
}

}  // namespace

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
      *out += StrFormat("%lld", static_cast<long long>(int_));
      break;
    case Type::kDouble:
      NumberTo(out, double_);
      break;
    case Type::kString:
      EscapeStringTo(out, string_, quote);
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
        EscapeStringTo(out, object_[i].first, quote);
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

namespace {

/// Arrays and objects nested deeper than this are rejected with a parse
/// error instead of overflowing the recursive descent's stack.
constexpr int kMaxDepth = 256;

/// Recursive-descent JSON parser tolerant of single-quoted strings and
/// Python literals (None/True/False), so Table II style plans round-trip.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    HTAPEX_ASSIGN_OR_RETURN(v, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::ParseError(
          StrFormat("trailing characters at offset %zu", pos_));
    }
    return v;
  }

 private:
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
  Result<JsonValue> ParseValue(int depth) {
    SkipWs();
    if (pos_ >= text_.size()) return Status::ParseError("unexpected end of input");
    char c = text_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      return Status::ParseError(StrFormat(
          "nesting deeper than %d levels at offset %zu", kMaxDepth, pos_));
    }
    if (c == '{') return ParseObject(depth + 1);
    if (c == '[') return ParseArray(depth + 1);
    if (c == '"' || c == '\'') {
      std::string s;
      HTAPEX_ASSIGN_OR_RETURN(s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (ConsumeWord("null") || ConsumeWord("None")) return JsonValue::Null();
    if (ConsumeWord("true") || ConsumeWord("True")) return JsonValue::Bool(true);
    if (ConsumeWord("false") || ConsumeWord("False")) return JsonValue::Bool(false);
    return ParseNumber();
  }

  Result<std::string> ParseString() {
    char quote = text_[pos_];
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == quote) return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
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
            if (pos_ + 4 > text_.size()) {
              return Status::ParseError("bad \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Status::ParseError("bad \\u escape digit");
              }
            }
            // ASCII-only support is enough for plan text.
            out.push_back(static_cast<char>(code & 0x7F));
            break;
          }
          default:
            out.push_back(e);
        }
      } else {
        out.push_back(c);
      }
    }
    return Status::ParseError("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
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
      return Status::ParseError(StrFormat("invalid token at offset %zu", start));
    }
    std::string tok(text_.substr(start, pos_ - start));
    if (is_double) {
      return JsonValue::Double(std::strtod(tok.c_str(), nullptr));
    }
    return JsonValue::Int(std::strtoll(tok.c_str(), nullptr, 10));
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue arr = JsonValue::MakeArray();
    SkipWs();
    if (Consume(']')) return arr;
    while (true) {
      JsonValue v;
      HTAPEX_ASSIGN_OR_RETURN(v, ParseValue(depth));
      arr.Append(std::move(v));
      SkipWs();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Status::ParseError("expected ',' in array");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::MakeObject();
    SkipWs();
    if (Consume('}')) return obj;
    while (true) {
      SkipWs();
      if (!Peek('"') && !Peek('\'')) {
        return Status::ParseError("expected string key in object");
      }
      std::string key;
      HTAPEX_ASSIGN_OR_RETURN(key, ParseString());
      SkipWs();
      if (!Consume(':')) return Status::ParseError("expected ':' in object");
      JsonValue v;
      HTAPEX_ASSIGN_OR_RETURN(v, ParseValue(depth));
      obj.Set(std::move(key), std::move(v));
      SkipWs();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Status::ParseError("expected ',' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace htapex
