#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "catalog/value.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace htapex {
namespace {

/// Random JSON document generator for round-trip property tests.
JsonValue RandomJson(Rng* rng, int depth) {
  double r = rng->NextDouble();
  if (depth <= 0 || r < 0.35) {
    switch (rng->Uniform(0, 4)) {
      case 0:
        return JsonValue::Null();
      case 1:
        return JsonValue::Bool(rng->Bernoulli(0.5));
      case 2:
        return JsonValue::Int(rng->Uniform(-1'000'000, 1'000'000));
      case 3:
        return JsonValue::Double(rng->UniformReal(-1e6, 1e6));
      default: {
        std::string s;
        int len = static_cast<int>(rng->Uniform(0, 12));
        for (int i = 0; i < len; ++i) {
          // Include the troublemakers: quotes, backslashes, control chars.
          const char* alphabet = "ab'\"\\\n\tz0: ,{}[]";
          s.push_back(alphabet[rng->Uniform(0, 15)]);
        }
        return JsonValue::String(s);
      }
    }
  }
  if (r < 0.65) {
    JsonValue arr = JsonValue::MakeArray();
    int n = static_cast<int>(rng->Uniform(0, 5));
    for (int i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth - 1));
    return arr;
  }
  JsonValue obj = JsonValue::MakeObject();
  int n = static_cast<int>(rng->Uniform(0, 5));
  for (int i = 0; i < n; ++i) {
    obj.Set("k" + std::to_string(i), RandomJson(rng, depth - 1));
  }
  return obj;
}

TEST(JsonPropertyTest, RandomDocumentsRoundTripCompact) {
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    JsonValue doc = RandomJson(&rng, 4);
    auto parsed = JsonValue::Parse(doc.Dump());
    ASSERT_TRUE(parsed.ok()) << doc.Dump();
    EXPECT_TRUE(*parsed == doc) << doc.Dump();
  }
}

TEST(JsonPropertyTest, RandomDocumentsRoundTripIndented) {
  Rng rng(102);
  for (int trial = 0; trial < 100; ++trial) {
    JsonValue doc = RandomJson(&rng, 3);
    auto parsed = JsonValue::Parse(doc.Dump(2));
    ASSERT_TRUE(parsed.ok()) << doc.Dump(2);
    EXPECT_TRUE(*parsed == doc);
  }
}

TEST(JsonPropertyTest, PythonishFlavourRoundTrips) {
  Rng rng(103);
  for (int trial = 0; trial < 100; ++trial) {
    JsonValue doc = RandomJson(&rng, 3);
    auto parsed = JsonValue::Parse(doc.DumpPythonish());
    ASSERT_TRUE(parsed.ok()) << doc.DumpPythonish();
    EXPECT_TRUE(*parsed == doc);
  }
}

TEST(JsonPropertyTest, DeepNestingIsAParseErrorNotACrash) {
  // A parser that recursed once per level would overflow the stack here.
  const int kDepth = 100000;
  std::string objects;
  for (int i = 0; i < kDepth; ++i) objects += "{\"a\": ";
  for (const std::string& text : {std::string(kDepth, '['), objects}) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  }
  // Ordinary nesting still parses.
  auto moderate =
      JsonValue::Parse(std::string(100, '[') + std::string(100, ']'));
  EXPECT_TRUE(moderate.ok()) << moderate.status();
}

TEST(JsonPropertyTest, OutOfRangeNumbersSaturateAsIntegers) {
  // Decoders read ids, sequences and sizes through int_value(); a double
  // outside the int64 range must saturate, not hit an undefined cast.
  const std::pair<const char*, int64_t> cases[] = {
      {"1e300", INT64_MAX},
      {"-1e300", INT64_MIN},
      {"1e999", INT64_MAX},  // strtod overflows to +inf
      {"-1e999", INT64_MIN},
      {"9.3e18", INT64_MAX},
      {"-9223372036854775808.0", INT64_MIN},
      {"12.9", 12},
  };
  for (const auto& [text, expected] : cases) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->int_value(), expected) << text;
  }
  EXPECT_EQ(JsonValue::Double(std::nan("")).int_value(), 0);
  auto doc = JsonValue::Parse("{\"id\": 1e300}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetInt("id"), INT64_MAX);
}

/// The printf-based number printer AppendJsonNumber replaced: "%.1f" for
/// integral values below 1e15, else the first "%.*g" of precision 13..17
/// that strtod reads back as `d`, else "%.17g".
std::string ReferenceNumber(double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    return StrFormat("%.1f", d);
  }
  for (int precision = 13; precision <= 17; ++precision) {
    std::string text = StrFormat("%.*g", precision, d);
    if (std::strtod(text.c_str(), nullptr) == d) return text;
  }
  return StrFormat("%.17g", d);
}

std::string PrintNumber(double d) {
  std::string out;
  AppendJsonNumber(&out, d);
  return out;
}

double FromBits(uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(JsonNumberTest, PrinterMatchesPrintfOnRandomBitPatterns) {
  // Uniform bit patterns reach every exponent: subnormals, both zeros,
  // NaNs of both signs and both infinities all turn up among 1M draws,
  // and are also listed explicitly.
  Rng rng(107);
  std::vector<double> cases = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), std::nan(""), -std::nan(""),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 0.1, 2.75, 152.37, 5213.0};
  for (int i = 0; i < 1'000'000; ++i) cases.push_back(FromBits(rng.NextU64()));
  int subnormals = 0, non_finite = 0;
  for (double d : cases) {
    if (std::fpclassify(d) == FP_SUBNORMAL) ++subnormals;
    if (!std::isfinite(d)) ++non_finite;
    ASSERT_EQ(PrintNumber(d), ReferenceNumber(d)) << StrFormat("%a", d);
  }
  EXPECT_GT(subnormals, 100);
  EXPECT_GT(non_finite, 100);
}

TEST(JsonNumberTest, PrinterMatchesPrintfNearItsIntegralCutoffs) {
  // 1e15 switches "%.1f" to "%.*g"; 2^53 is where doubles stop holding
  // every integer. Step through the integers and their neighbours there.
  for (double center : {1e15, 0x1p53, 1e16, 1e17, 1.0}) {
    for (int64_t k = -2048; k <= 2048; ++k) {
      const double d = center + static_cast<double>(k);
      for (double v : {d, -d, std::nextafter(d, 0.0), std::nextafter(d, 1e300),
                       d / 8, d * 1024}) {
        ASSERT_EQ(PrintNumber(v), ReferenceNumber(v)) << StrFormat("%a", v);
      }
    }
  }
  // Plan costs are rounded to cents: every cent value up to 1e6.
  for (int64_t cents = 0; cents <= 100'000'000; cents += 997) {
    const double d = static_cast<double>(cents) / 100.0;
    ASSERT_EQ(PrintNumber(d), ReferenceNumber(d)) << cents;
  }
}

TEST(JsonNumberTest, IntPrinterMatchesPrintf) {
  Rng rng(108);
  std::vector<int64_t> cases = {0, 1, -1, INT64_MAX, INT64_MIN,
                                INT64_MIN + 1, 999'999'999'999'999'999};
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t bits = rng.NextU64();
    // Random magnitudes, not only 19-digit ones.
    cases.push_back(static_cast<int64_t>(bits) >> rng.Uniform(0, 63));
  }
  for (int64_t v : cases) {
    std::string out;
    AppendJsonInt(&out, v);
    ASSERT_EQ(out, StrFormat("%lld", static_cast<long long>(v)));
  }
}

TEST(JsonNumberTest, TokensReadAsStrtodAndStrtollRead) {
  // The tokenizer takes a number token to be a run of digits, '.', 'e',
  // 'E', and signs at the start or after an exponent mark; it reads it
  // with strtoll when it has no '.', 'e' or 'E', else with strtod. Random
  // tokens over that alphabet, including ones the C functions read only in
  // part ("1e", "+.") or that overflow, must read the same.
  Rng rng(109);
  const char* alphabet = "0123456789012345678901234567890123456789.eE+-";
  int checked = 0;
  for (int trial = 0; trial < 200'000; ++trial) {
    const int64_t last = static_cast<int64_t>(std::strlen(alphabet)) - 1;
    const int64_t len = rng.Uniform(1, rng.Bernoulli(0.1) ? 40 : 12);
    std::string token;
    for (int64_t i = 0; i < len; ++i) {
      token.push_back(alphabet[rng.Uniform(0, last)]);
    }
    auto parsed = JsonValue::Parse(token);
    if (!parsed.ok()) continue;  // not one number token: '+'/'-' mid-token
    ++checked;
    if (token.find_first_of(".eE") == std::string::npos) {
      ASSERT_TRUE(parsed->is_int()) << token;
      EXPECT_EQ(parsed->int_value(), std::strtoll(token.c_str(), nullptr, 10))
          << token;
    } else {
      ASSERT_TRUE(parsed->is_double()) << token;
      const double expected = std::strtod(token.c_str(), nullptr);
      const double got = parsed->double_value();
      EXPECT_EQ(std::memcmp(&expected, &got, sizeof(got)), 0) << token;
    }
  }
  EXPECT_GT(checked, 50'000);
}

TEST(DatePropertyTest, EveryDayRoundTripsAcrossTheTpchRange) {
  // 1992-01-01 .. 1998-12-31 covers all generated dates; step through each
  // day and require Format(Parse(d)) == d and Parse(Format(n)) == n.
  int64_t start = 0, end = 0;
  ASSERT_TRUE(ParseDate("1992-01-01", &start));
  ASSERT_TRUE(ParseDate("1998-12-31", &end));
  for (int64_t day = start; day <= end; ++day) {
    std::string text = FormatDate(day);
    int64_t back = 0;
    ASSERT_TRUE(ParseDate(text, &back)) << text;
    EXPECT_EQ(back, day) << text;
  }
}

TEST(DatePropertyTest, OrderingMatchesStringOrdering) {
  // ISO dates compare the same lexically and numerically.
  Rng rng(104);
  int64_t start = 0;
  ASSERT_TRUE(ParseDate("1992-01-01", &start));
  for (int trial = 0; trial < 500; ++trial) {
    int64_t a = start + rng.Uniform(0, 2500);
    int64_t b = start + rng.Uniform(0, 2500);
    EXPECT_EQ(a < b, FormatDate(a) < FormatDate(b));
  }
}

TEST(ValuePropertyTest, CompareIsAntisymmetricAndTransitive) {
  Rng rng(105);
  std::vector<Value> pool;
  for (int i = 0; i < 30; ++i) {
    switch (rng.Uniform(0, 3)) {
      case 0:
        pool.push_back(Value::Null());
        break;
      case 1:
        pool.push_back(Value::Int(rng.Uniform(-50, 50)));
        break;
      case 2:
        pool.push_back(Value::Double(rng.UniformReal(-50, 50)));
        break;
      default:
        pool.push_back(Value::Str(std::string(1 + rng.Uniform(0, 3) % 4, 'a' +
                                              static_cast<char>(rng.Uniform(0, 25)))));
    }
  }
  for (const Value& a : pool) {
    for (const Value& b : pool) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
      for (const Value& c : pool) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0);
        }
      }
    }
  }
}

TEST(ValuePropertyTest, HashConsistentWithEquality) {
  Rng rng(106);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t x = rng.Uniform(-1000, 1000);
    EXPECT_EQ(Value::Int(x).Hash(), Value::Int(x).Hash());
    EXPECT_EQ(Value::Int(x).Hash(), Value::Double(static_cast<double>(x)).Hash());
  }
}

}  // namespace
}  // namespace htapex
