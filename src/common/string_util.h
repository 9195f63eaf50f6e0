#ifndef HTAPEX_COMMON_STRING_UTIL_H_
#define HTAPEX_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace htapex {

/// ASCII-only lowercase copy.
std::string ToLower(std::string_view s);
/// ASCII-only uppercase copy.
std::string ToUpper(std::string_view s);

/// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view s);

/// Splits `s` on `sep`; empty pieces are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
/// Case-insensitive (ASCII) equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);
/// True if `needle` occurs in `haystack`, ignoring ASCII case.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a double trimming trailing zeros, e.g. 5.8 -> "5.8", 3 -> "3".
std::string FormatDouble(double v);

/// Formats a duration given in milliseconds in a human-friendly unit,
/// e.g. 0.05 -> "0.05ms"; 310 -> "310ms"; 5800 -> "5.80s".
std::string FormatMillis(double ms);

/// SQL LIKE pattern matching with % and _ wildcards (case sensitive).
bool LikeMatch(std::string_view value, std::string_view pattern);

}  // namespace htapex

#endif  // HTAPEX_COMMON_STRING_UTIL_H_
