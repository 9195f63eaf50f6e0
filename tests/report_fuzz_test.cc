#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/report.h"
#include "sql/parser.h"

namespace htapex {
namespace {

TEST(ReportTest, RendersAllSections) {
  HtapSystem system;
  HtapConfig config;
  config.data_scale_factor = 0.0;
  ASSERT_TRUE(system.Init(config).ok());
  HtapExplainer explainer(&system, ExplainerConfig{});
  ASSERT_TRUE(explainer.TrainRouter().ok());
  ASSERT_TRUE(explainer.BuildDefaultKnowledgeBase().ok());
  auto result = explainer.Explain(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_orderstatus = 'p'");
  ASSERT_TRUE(result.ok());
  std::string md = RenderExplainReport(explainer, *result);
  EXPECT_NE(md.find("# Query performance explanation"), std::string::npos);
  EXPECT_NE(md.find("```sql"), std::string::npos);
  EXPECT_NE(md.find("## TP plan"), std::string::npos);
  EXPECT_NE(md.find("self="), std::string::npos);  // latency annotation
  EXPECT_NE(md.find("## Retrieved knowledge"), std::string::npos);
  EXPECT_NE(md.find("| end to end |"), std::string::npos);
}

/// Parser robustness: random token soup must produce a Status error (or a
/// valid statement), never a crash or hang.
TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  const char* vocab[] = {"SELECT", "FROM",   "WHERE", "GROUP", "BY",
                         "ORDER",  "LIMIT",  "AND",   "OR",    "NOT",
                         "IN",     "BETWEEN","LIKE",  "(",     ")",
                         ",",      "*",      "=",     "<",     ">=",
                         "customer", "c_name", "o_orderkey", "42", "3.14",
                         "'egypt'", "COUNT",  "SUM",  "substring", ".",
                         "IS",     "NULL",   "HAVING", "DISTINCT", "-",
                         ";",      "+",      "/",     "AS",    "JOIN"};
  Rng rng(31415);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string sql;
    int len = static_cast<int>(rng.Uniform(1, 25));
    for (int i = 0; i < len; ++i) {
      sql += vocab[rng.Uniform(0, 39)];
      sql += ' ';
    }
    auto result = ParseSelect(sql);
    if (result.ok()) ++parsed_ok;
  }
  // Most soups are invalid; a handful parse. Either way: no crash.
  EXPECT_LT(parsed_ok, 3000);
}

/// Lexer robustness: random bytes.
TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(2718);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string sql;
    int len = static_cast<int>(rng.Uniform(0, 60));
    for (int i = 0; i < len; ++i) {
      sql.push_back(static_cast<char>(rng.Uniform(32, 126)));
    }
    (void)ParseSelect(sql);  // must return, whatever the outcome
  }
  SUCCEED();
}

}  // namespace
}  // namespace htapex
