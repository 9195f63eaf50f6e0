#include "catalog/value.h"

#include <cstdio>

#include "common/string_util.h"

namespace htapex {

int Value::Compare(const Value& other) const {
  // NULLs first.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  bool a_num = is_int() || is_double();
  bool b_num = other.is_int() || other.is_double();
  if (a_num && b_num) {
    if (is_int() && other.is_int()) {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string() && other.is_string()) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Mixed string/number: order by type tag (numbers first). Deterministic
  // but should not occur in well-typed plans.
  return a_num ? -1 : 1;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return StrFormat("%lld", static_cast<long long>(AsInt()));
  if (is_double()) return FormatDouble(AsDouble());
  return "'" + AsString() + "'";
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x9ae16a3b2f90404full;
  if (is_string()) return Fnv1a64(AsString());
  // Hash numerics through their double representation so 1 and 1.0 collide
  // (they compare equal).
  double d = AsDouble();
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  // splitmix-style finalizer
  bits ^= bits >> 30;
  bits *= 0xbf58476d1ce4e5b9ull;
  bits ^= bits >> 27;
  bits *= 0x94d049bb133111ebull;
  bits ^= bits >> 31;
  return bits;
}

namespace {

bool IsLeapYear(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

const int kDaysInMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

}  // namespace

std::string FormatDate(int64_t days_since_epoch) {
  // Civil-from-days (Howard Hinnant's algorithm).
  int64_t z = days_since_epoch + 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  int64_t d = doy - (153 * mp + 2) / 5 + 1;
  int64_t m = mp + (mp < 10 ? 3 : -9);
  if (m <= 2) ++y;
  return StrFormat("%04lld-%02lld-%02lld", static_cast<long long>(y),
                   static_cast<long long>(m), static_cast<long long>(d));
}

bool ParseDate(const std::string& text, int64_t* days_out) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3) return false;
  if (m < 1 || m > 12 || d < 1) return false;
  int dim = kDaysInMonth[m - 1] + ((m == 2 && IsLeapYear(y)) ? 1 : 0);
  if (d > dim) return false;
  // Days-from-civil.
  int64_t yy = y - (m <= 2 ? 1 : 0);
  int64_t era = (yy >= 0 ? yy : yy - 399) / 400;
  int64_t yoe = yy - era * 400;
  int64_t mp = m + (m > 2 ? -3 : 9);
  int64_t doy = (153 * mp + 2) / 5 + d - 1;
  int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  *days_out = era * 146097 + doe - 719468;
  return true;
}

}  // namespace htapex
