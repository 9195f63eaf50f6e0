#include "common/string_util.h"

#include <array>
#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace htapex {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

namespace {

/// ASCII case folding by table. Nothing calls setlocale, so std::tolower
/// runs in the "C" locale, where it maps exactly 'A'-'Z'; the table agrees
/// with it on every byte.
constexpr std::array<unsigned char, 256> kFoldCase = [] {
  std::array<unsigned char, 256> fold{};
  for (int c = 0; c < 256; ++c) {
    fold[static_cast<size_t>(c)] =
        static_cast<unsigned char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
  }
  return fold;
}();

unsigned char FoldCase(char c) {
  return kFoldCase[static_cast<unsigned char>(c)];
}

}  // namespace

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (FoldCase(a[i]) != FoldCase(b[i])) return false;
  }
  return true;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  std::string folded(needle.size(), '\0');
  for (size_t j = 0; j < needle.size(); ++j) {
    folded[j] = static_cast<char>(FoldCase(needle[j]));
  }
  // One pass over the haystack: a position is checked further only when
  // its byte folds to the needle's first byte.
  const char first = folded[0];
  const size_t last = haystack.size() - needle.size();
  for (size_t i = 0; i <= last; ++i) {
    if (static_cast<char>(FoldCase(haystack[i])) != first) continue;
    size_t j = 1;
    while (j < folded.size() &&
           static_cast<char>(FoldCase(haystack[i + j])) == folded[j]) {
      ++j;
    }
    if (j == folded.size()) return true;
  }
  return false;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string FormatDouble(double v) {
  std::string s = StrFormat("%.6f", v);
  // Trim trailing zeros, keep at least one digit after '.' removed entirely.
  size_t dot = s.find('.');
  if (dot == std::string::npos) return s;
  size_t last = s.find_last_not_of('0');
  if (last == dot) last = dot - 1;  // drop the dot too
  return s.substr(0, last + 1);
}

std::string FormatMillis(double ms) {
  if (ms >= 1000.0) return StrFormat("%.2fs", ms / 1000.0);
  if (ms >= 1.0) return StrFormat("%.0fms", ms);
  return StrFormat("%.3fms", ms);
}

namespace {

bool LikeMatchImpl(std::string_view v, std::string_view p) {
  // Classic two-pointer wildcard match; % = any run, _ = single char.
  size_t vi = 0, pi = 0;
  size_t star_p = std::string_view::npos, star_v = 0;
  while (vi < v.size()) {
    if (pi < p.size() && (p[pi] == '_' || p[pi] == v[vi])) {
      ++vi;
      ++pi;
    } else if (pi < p.size() && p[pi] == '%') {
      star_p = pi++;
      star_v = vi;
    } else if (star_p != std::string_view::npos) {
      pi = star_p + 1;
      vi = ++star_v;
    } else {
      return false;
    }
  }
  while (pi < p.size() && p[pi] == '%') ++pi;
  return pi == p.size();
}

}  // namespace

bool LikeMatch(std::string_view value, std::string_view pattern) {
  return LikeMatchImpl(value, pattern);
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace htapex
