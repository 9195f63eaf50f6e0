#ifndef HTAPEX_CATALOG_VALUE_H_
#define HTAPEX_CATALOG_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace htapex {

/// Column data types supported by both engines.
enum class DataType {
  kInt,     // 64-bit signed integer
  kDouble,  // 64-bit float (used for decimals)
  kString,  // variable-length character data
  kDate,    // days since 1970-01-01, stored as int64
};

/// A dynamically-typed SQL value. NULL is represented by monostate.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t i) {
    Value v;
    v.v_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.v_ = d;
    return v;
  }
  static Value Str(std::string s) {
    Value v;
    v.v_ = std::move(s);
    return v;
  }
  /// Dates share the int64 representation; the column type distinguishes.
  static Value Date(int64_t days) { return Int(days); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const {
    if (is_double()) return static_cast<int64_t>(std::get<double>(v_));
    return std::get<int64_t>(v_);
  }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(v_));
    return std::get<double>(v_);
  }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Three-way comparison: -1, 0, 1. NULLs sort first; numeric types compare
  /// numerically; comparing string with number orders by type tag.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// SQL-literal-ish rendering for debugging and plan text.
  std::string ToString() const;

  /// Hash suitable for hash joins / hash aggregation.
  uint64_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

/// Renders a date value (days since epoch) as YYYY-MM-DD.
std::string FormatDate(int64_t days_since_epoch);
/// Parses YYYY-MM-DD into days since epoch; returns false on bad input.
bool ParseDate(const std::string& text, int64_t* days_out);

}  // namespace htapex

#endif  // HTAPEX_CATALOG_VALUE_H_
