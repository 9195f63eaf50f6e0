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

/// A small self-contained JSON document model used for plan serialization
/// (EXPLAIN output in the Table II format), knowledge-base persistence, and
/// structured prompts.
///
/// Objects preserve insertion order so that serialized plans read in the
/// same order the optimizer emitted them.
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
  /// Doubles saturate to the int64 range (NaN reads as 0): casting an
  /// out-of-range double is undefined behaviour, and every decoder reads
  /// ids, sequences and sizes from untrusted files through here.
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
  /// Table II flavour round-trips).
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

}  // namespace htapex

#endif  // HTAPEX_COMMON_JSON_H_
