#ifndef HTAPEX_COMMON_JSON_H_
#define HTAPEX_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace htapex {

/// A small self-contained JSON document model used for knowledge-base
/// persistence, the WAL and other structured records. Plan text (the Table
/// II format) is written by PhysicalPlan::Explain and read by
/// ReadPlanSurface without this model, through the routines below it.
///
/// Objects preserve insertion order, so a document prints its members in
/// the order they were set.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() : type_(Type::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.type_ = Type::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Int(int64_t i) {
    JsonValue v;
    v.type_ = Type::kInt;
    v.int_ = i;
    return v;
  }
  static JsonValue Double(double d) {
    JsonValue v;
    v.type_ = Type::kDouble;
    v.double_ = d;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.type_ = Type::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue MakeArray() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue MakeObject() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  /// Doubles saturate to the int64 range (see SaturatingInt64).
  int64_t int_value() const;
  double double_value() const { return is_int() ? static_cast<double>(int_) : double_; }
  const std::string& string_value() const { return string_; }
  const Array& array() const { return array_; }
  Array& array() { return array_; }
  const Object& object() const { return object_; }
  Object& object() { return object_; }

  /// Appends to an array value.
  void Append(JsonValue v) { array_.push_back(std::move(v)); }

  /// Sets (appending or overwriting) a member of an object value.
  void Set(std::string key, JsonValue v);

  /// Returns the member or nullptr when absent / not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience typed getters with defaults.
  int64_t GetInt(std::string_view key, int64_t def = 0) const;
  double GetDouble(std::string_view key, double def = 0.0) const;
  std::string GetString(std::string_view key, std::string def = "") const;
  bool GetBool(std::string_view key, bool def = false) const;

  /// Serializes as standard JSON. `indent` <= 0 means compact single-line.
  std::string Dump(int indent = -1) const;

  /// Serializes in the Python-dict flavour used by the paper's Table II
  /// (single-quoted strings, same structure otherwise).
  std::string DumpPythonish() const;

  /// Parses standard JSON (also accepts single-quoted strings so the
  /// Table II flavour round-trips): a JsonEvents consumer of ParseJson.
  static Result<JsonValue> Parse(std::string_view text);

  bool operator==(const JsonValue& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth, bool pythonish) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// ---------------------------------------------------------------- writing
// The routines every JSON writer uses: JsonValue::Dump and DumpPythonish,
// and PhysicalPlan::Explain, which writes Table II text straight from the
// plan tree.

/// Appends `s` between two `quote` characters, escaping backslash, `quote`,
/// newline, tab, carriage return and other bytes below 0x20 (as \u00XX).
void AppendJsonString(std::string* out, std::string_view s, char quote);

/// Appends `d` as number text, byte-identical to printf: finite integral
/// values below 1e15 in magnitude as "%.1f" (a trailing ".0" keeps them
/// doubles on a round trip), anything else as the first "%.*g" of
/// precision 13..17 that strtod reads back as `d`, else "%.17g".
void AppendJsonNumber(std::string* out, double d);

/// Appends `i` in decimal (printf "%lld").
void AppendJsonInt(std::string* out, int64_t i);

/// `d` converted to int64, saturating at the type's range; NaN reads as 0.
/// Casting an out-of-range double is undefined behaviour, and decoders read
/// ids, sequences and sizes from untrusted text as doubles.
int64_t SaturatingInt64(double d);

// ---------------------------------------------------------------- reading

/// A string token as it appears in the text: the bytes between its quotes,
/// escapes not yet decoded. `raw` points into the text given to ParseJson.
struct JsonString {
  std::string_view raw;
  bool escaped = false;  // `raw` holds at least one backslash escape

  /// The string's value: `raw` with its escapes decoded.
  std::string Decode() const;
};

/// Receives the tokens of one JSON text from ParseJson in document order.
/// An object member arrives as Key followed by its value's events. After a
/// grammar error no further events arrive, and the consumer discards what
/// it built.
class JsonEvents {
 public:
  virtual void Null() = 0;
  virtual void Bool(bool b) = 0;
  virtual void Int(int64_t i) = 0;
  virtual void Double(double d) = 0;
  virtual void String(const JsonString& s) = 0;
  virtual void Key(const JsonString& key) = 0;
  virtual void BeginObject() = 0;
  virtual void EndObject() = 0;
  virtual void BeginArray() = 0;
  virtual void EndArray() = 0;

 protected:
  ~JsonEvents() = default;
};

/// The one JSON tokenizer. Accepts standard JSON plus the Table II flavour
/// (single-quoted strings, None/True/False), rejects arrays and objects
/// nested deeper than 256 levels, and reads numbers as strtoll (no '.',
/// 'e' or 'E') or strtod does. Returns OK only when `text` is exactly one
/// value with optional surrounding whitespace; otherwise a kParseError
/// naming the first fault.
Status ParseJson(std::string_view text, JsonEvents* events);

}  // namespace htapex

#endif  // HTAPEX_COMMON_JSON_H_
