#include <gtest/gtest.h>

#include <cctype>

#include "common/hash.h"
#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace htapex {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fail = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    HTAPEX_RETURN_IF_ERROR(fail());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(3), 3);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool ok) -> Result<std::string> {
    if (ok) return std::string("v");
    return Status::NotFound("no");
  };
  auto use = [&](bool ok) -> Result<int> {
    std::string s;
    HTAPEX_ASSIGN_OR_RETURN(s, make(ok));
    return static_cast<int>(s.size());
  };
  EXPECT_EQ(*use(true), 1);
  EXPECT_EQ(use(false).status().code(), StatusCode::kNotFound);
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("SELECT Foo"), "select foo");
  EXPECT_EQ(ToUpper("abc"), "ABC");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
}

TEST(StringUtilTest, Predicates) {
  EXPECT_TRUE(StartsWith("lineitem", "line"));
  EXPECT_FALSE(StartsWith("li", "line"));
  EXPECT_TRUE(EndsWith("customer", "mer"));
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(ContainsIgnoreCase("Hash Join is fast", "hash join"));
  EXPECT_FALSE(ContainsIgnoreCase("nested loop", "hash"));
}

// The table-folded search against the byte loop it replaced (std::tolower
// at every haystack position), on random strings over letters of both
// cases, the bytes beside 'A'-'Z' and 'a'-'z', and bytes >= 0x80.
TEST(StringUtilTest, ContainsIgnoreCaseMatchesTheTolowerLoop) {
  auto old_equals = [](std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(a[i])) !=
          std::tolower(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return true;
  };
  auto old_contains = [&](std::string_view haystack, std::string_view needle) {
    if (needle.empty()) return true;
    if (needle.size() > haystack.size()) return false;
    for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
      if (old_equals(haystack.substr(i, needle.size()), needle)) return true;
    }
    return false;
  };
  static const char kBytes[] = "aAbBzZ@[`{ \x80\xc1\xe1\xff";
  Rng rng(20261019);
  auto random_string = [&](int max_len) {
    std::string out(static_cast<size_t>(rng.Uniform(0, max_len)), '\0');
    for (char& c : out) {
      c = kBytes[rng.Uniform(0, static_cast<int64_t>(sizeof(kBytes)) - 2)];
    }
    return out;
  };
  int found = 0;
  for (int trial = 0; trial < 200'000; ++trial) {
    std::string haystack = random_string(24);
    std::string needle;
    if (trial % 2 == 0 && !haystack.empty()) {
      // A slice of the haystack with some letters' case flipped.
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(haystack.size()) - 1));
      needle = haystack.substr(
          pos, static_cast<size_t>(rng.Uniform(
                   0, static_cast<int64_t>(haystack.size() - pos))));
      for (char& c : needle) {
        if (std::isalpha(static_cast<unsigned char>(c)) && rng.Bernoulli(0.5)) {
          c = static_cast<char>(c ^ 0x20);
        }
      }
    } else {
      needle = random_string(4);
    }
    const bool expected = old_contains(haystack, needle);
    found += expected ? 1 : 0;
    ASSERT_EQ(ContainsIgnoreCase(haystack, needle), expected)
        << "haystack=" << haystack << " needle=" << needle;
    const std::string other = trial % 3 == 0 ? needle : random_string(3);
    ASSERT_EQ(EqualsIgnoreCase(needle, other), old_equals(needle, other))
        << "a=" << needle << " b=" << other;
  }
  // Both outcomes occur often.
  EXPECT_GT(found, 50'000);
  EXPECT_LT(found, 190'000);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(FormatDouble(5.80), "5.8");
  EXPECT_EQ(FormatDouble(3.0), "3");
}

TEST(StringUtilTest, FormatMillis) {
  EXPECT_EQ(FormatMillis(5800), "5.80s");
  EXPECT_EQ(FormatMillis(310), "310ms");
  EXPECT_EQ(FormatMillis(0.05), "0.050ms");
}

TEST(StringUtilTest, LikeMatch) {
  EXPECT_TRUE(LikeMatch("machinery", "mach%"));
  EXPECT_TRUE(LikeMatch("machinery", "%ery"));
  EXPECT_TRUE(LikeMatch("machinery", "%chin%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_FALSE(LikeMatch("abc", "abcd"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("anything", "%%"));
}

TEST(HashTest, SplitMix64MatchesThePublishedSequence) {
  // splitmix64 from state 0: each output is SplitMix64 of the state, then
  // the state advances by the golden gamma.
  const uint64_t want[] = {0xe220a8397b1dcdafull, 0x6e789e6aa1b965f4ull,
                           0x06c45d188009454full};
  uint64_t state = 0;
  for (uint64_t w : want) {
    EXPECT_EQ(SplitMix64(state), w);
    state += kSplitMix64Gamma;
  }
}

TEST(HashTest, Fnv1a64MatchesThePublishedVectors) {
  constexpr uint64_t kPublishedBasis = 0xcbf29ce484222325ull;
  EXPECT_EQ(Fnv1a64("", kPublishedBasis), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a", kPublishedBasis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar", kPublishedBasis), 0x85944171f73967e8ull);
  // The library's own basis, and the running hash over pieces.
  EXPECT_EQ(Fnv1a64(""), 1469598103934665603ull);
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Uniform(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng r(11);
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) {
    counts[r.WeightedIndex({1.0, 9.0})]++;
  }
  EXPECT_GT(counts[1], counts[0] * 4);
}

TEST(JsonTest, BuildAndDump) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("Node Type", JsonValue::String("Hash join"));
  obj.Set("Total Cost", JsonValue::Double(152.0));
  obj.Set("Plan Rows", JsonValue::Int(379));
  JsonValue plans = JsonValue::MakeArray();
  JsonValue child = JsonValue::MakeObject();
  child.Set("Node Type", JsonValue::String("Table Scan"));
  plans.Append(child);
  obj.Set("Plans", plans);
  std::string compact = obj.Dump();
  EXPECT_NE(compact.find("\"Node Type\": \"Hash join\""), std::string::npos);
  std::string py = obj.DumpPythonish();
  EXPECT_NE(py.find("'Node Type': 'Hash join'"), std::string::npos);
}

TEST(JsonTest, ParseRoundTrip) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("a", JsonValue::Int(1));
  obj.Set("b", JsonValue::Double(2.5));
  obj.Set("c", JsonValue::String("x'y\"z"));
  obj.Set("d", JsonValue::Bool(true));
  obj.Set("e", JsonValue::Null());
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(JsonValue::Int(1));
  arr.Append(JsonValue::String("two"));
  obj.Set("f", arr);
  auto parsed = JsonValue::Parse(obj.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(*parsed == obj);
}

TEST(JsonTest, ParsePythonishPlan) {
  const char* plan =
      "{ 'Node Type': 'Group aggregate', 'Total Cost': 5213.0, "
      "'Plan Rows': 1, 'Plans': [ { 'Node Type': 'Table Scan', "
      "'Relation Name': 'nation', 'Plan Rows': 25 } ] }";
  auto parsed = JsonValue::Parse(plan);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("Node Type"), "Group aggregate");
  EXPECT_DOUBLE_EQ(parsed->GetDouble("Total Cost"), 5213.0);
  const JsonValue* plans = parsed->Find("Plans");
  ASSERT_NE(plans, nullptr);
  ASSERT_EQ(plans->array().size(), 1u);
  EXPECT_EQ(plans->array()[0].GetString("Relation Name"), "nation");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{'a' 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("12 34").ok());
  EXPECT_FALSE(JsonValue::Parse("'unterminated").ok());
}

TEST(JsonTest, TypedGettersWithDefaults) {
  auto parsed = JsonValue::Parse("{\"x\": 3, \"s\": \"v\", \"b\": true}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetInt("x"), 3);
  EXPECT_EQ(parsed->GetInt("missing", -1), -1);
  EXPECT_EQ(parsed->GetString("s"), "v");
  EXPECT_EQ(parsed->GetString("missing", "d"), "d");
  EXPECT_TRUE(parsed->GetBool("b"));
  EXPECT_FALSE(parsed->GetBool("missing"));
}

}  // namespace
}  // namespace htapex
