#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "catalog/tpch.h"
#include "engine/htap_system.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace htapex {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT c_name FROM customer WHERE c_custkey = 42;");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 9u);
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "c_name");
  EXPECT_TRUE((*tokens)[4].IsKeyword("WHERE"));
}

TEST(LexerTest, StringsAndEscapes) {
  auto tokens = Tokenize("'egypt' 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "egypt");
  EXPECT_EQ((*tokens)[1].text, "it's");
  EXPECT_FALSE(Tokenize("'unterminated").ok());
}

TEST(LexerTest, OperatorsAndNumbers) {
  auto tokens = Tokenize("<= >= <> != 3.14 42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "<=");
  EXPECT_EQ((*tokens)[1].text, ">=");
  EXPECT_EQ((*tokens)[2].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "<>");  // != normalized
  EXPECT_EQ((*tokens)[4].type, TokenType::kFloat);
  EXPECT_EQ((*tokens)[5].type, TokenType::kInteger);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("SELECT -- a comment\n1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kInteger);
}

TEST(ParserTest, Example1Query) {
  // The exact query from the paper's Example 1.
  const char* sql =
      "SELECT COUNT(*) FROM customer, nation, orders "
      "WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '40', '22', '30', '39', "
      "'42', '21') AND c_mktsegment = 'machinery' AND n_name = 'egypt' "
      "AND o_orderstatus = 'p' AND o_custkey = c_custkey "
      "AND n_nationkey = c_nationkey;";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->from.size(), 3u);
  EXPECT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].expr->kind, ExprKind::kAggregate);
  EXPECT_TRUE(stmt->items[0].expr->count_star);
  ASSERT_NE(stmt->where, nullptr);
}

TEST(ParserTest, TopNQuery) {
  auto stmt = ParseSelect(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "WHERE o_orderdate >= DATE '1995-01-01' "
      "ORDER BY o_totalprice DESC LIMIT 10 OFFSET 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_EQ(stmt->limit.value(), 10);
  EXPECT_EQ(stmt->offset.value(), 5);
}

TEST(ParserTest, ExplicitJoinNormalized) {
  auto stmt = ParseSelect(
      "SELECT c_name FROM customer JOIN orders ON o_custkey = c_custkey "
      "WHERE o_orderstatus = 'p'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->from.size(), 2u);
  // ON condition folded into WHERE as a conjunct.
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->kind, ExprKind::kAnd);
}

TEST(ParserTest, GroupByHavingAliases) {
  auto stmt = ParseSelect(
      "SELECT c_mktsegment, COUNT(*) AS cnt FROM customer "
      "GROUP BY c_mktsegment ORDER BY cnt DESC");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->group_by.size(), 1u);
  EXPECT_EQ(stmt->items[1].alias, "cnt");
}

TEST(ParserTest, BetweenNotLike) {
  auto stmt = ParseSelect(
      "SELECT * FROM orders WHERE o_totalprice BETWEEN 100 AND 200 "
      "AND o_comment NOT LIKE '%special%'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_TRUE(stmt->select_star);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = ParseSelect("SELECT 1 + 2 * 3 FROM nation");
  ASSERT_TRUE(stmt.ok());
  // 1 + (2 * 3)
  const Expr& e = *stmt->items[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kArithmetic);
  EXPECT_EQ(e.arith_op, ArithOp::kAdd);
  EXPECT_EQ(e.children[1]->kind, ExprKind::kArithmetic);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage tokens ,").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a IN (1,").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM DATE").ok());
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

TEST(ParserTest, DeepNestingIsAParseErrorNotACrash) {
  // A parser that recursed once per level would overflow the stack on each.
  const int kDepth = 100000;
  const std::string where = "SELECT c_name FROM customer WHERE ";
  const std::string hostile[] = {
      where + Repeat("(", kDepth) + "c_custkey = 1" + Repeat(")", kDepth),
      where + Repeat("NOT ", kDepth) + "c_custkey = 1",
      where + Repeat("- ", kDepth) + "c_custkey = 1",
      where + Repeat("abs(", kDepth) + "c_custkey" + Repeat(")", kDepth) +
          " = 1",
  };
  for (const std::string& sql : hostile) {
    auto parsed = ParseSelect(sql);
    ASSERT_FALSE(parsed.ok()) << sql.substr(0, 60);
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  }
  // Ordinary nesting still parses.
  auto moderate = ParseSelect(where + Repeat("(", 100) + "c_custkey = 1" +
                              Repeat(")", 100));
  EXPECT_TRUE(moderate.ok()) << moderate.status();
}

TEST(ParserTest, LongOperatorChainIsAParseErrorNotACrash) {
  // A flat chain nests nothing, but it parses into a left-deep tree as deep
  // as the chain is long, and the binder recursing over 100,000 levels
  // overflows the stack.
  const int kTerms = 100000;
  const std::string where = "SELECT c_name FROM customer WHERE ";
  const std::string hostile[] = {
      where + "c_custkey = 0" + Repeat(" OR c_custkey = 1", kTerms - 1),
      where + "c_custkey = 0" + Repeat(" AND c_custkey = 1", kTerms - 1),
      where + "c_custkey" + Repeat(" + 1", kTerms - 1) + " = 1",
  };
  for (const std::string& sql : hostile) {
    auto parsed = ParseSelect(sql);
    ASSERT_FALSE(parsed.ok()) << sql.substr(0, 60);
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  }
  // Ordinary chains still parse.
  auto moderate = ParseSelect(where + "c_custkey = 0" +
                              Repeat(" OR c_custkey = 1", 100));
  EXPECT_TRUE(moderate.ok()) << moderate.status();
}

TEST(ParserTest, RoundTripToString) {
  const char* sql =
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND c_mktsegment = 'machinery' ORDER BY COUNT(*) DESC LIMIT 3";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  // GROUP BY validation happens in the binder, not the parser.
  std::string rendered = stmt->ToString();
  auto reparsed = ParseSelect(rendered);
  ASSERT_TRUE(reparsed.ok()) << "could not reparse: " << rendered;
  EXPECT_EQ(reparsed->ToString(), rendered);
}

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(tpch::BuildCatalog(&catalog_, 1.0).ok()); }
  Catalog catalog_;
};

TEST_F(BinderTest, ResolvesColumnsAndSlots) {
  auto q = ParseAndBind(catalog_,
                        "SELECT c_name FROM customer, nation "
                        "WHERE n_nationkey = c_nationkey AND n_name = 'egypt'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->num_tables(), 2);
  EXPECT_EQ(q->tables[0].flat_offset, 0);
  EXPECT_EQ(q->tables[1].flat_offset, 8);  // customer has 8 columns
  EXPECT_EQ(q->total_slots, 12);           // + nation's 4
  const Expr& sel = *q->stmt.items[0].expr;
  EXPECT_EQ(sel.bound_table, 0);
  EXPECT_EQ(sel.flat_slot, 1);  // c_name is column 1
  EXPECT_EQ(sel.result_type, DataType::kString);
}

TEST_F(BinderTest, ConjunctClassification) {
  auto q = ParseAndBind(
      catalog_,
      "SELECT COUNT(*) FROM customer, nation, orders "
      "WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '40') "
      "AND c_mktsegment = 'machinery' AND n_name = 'egypt' "
      "AND o_orderstatus = 'p' AND o_custkey = c_custkey "
      "AND n_nationkey = c_nationkey");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->conjuncts.size(), 6u);
  int joins = 0, sargable = 0, defeated = 0;
  for (const auto& c : q->conjuncts) {
    if (c.is_equi_join) ++joins;
    if (c.sargable) ++sargable;
    if (c.function_over_column) ++defeated;
  }
  EXPECT_EQ(joins, 2);
  EXPECT_EQ(sargable, 3);  // c_mktsegment, n_name, o_orderstatus
  EXPECT_EQ(defeated, 1);  // substring(c_phone,...) defeats any c_phone index
}

TEST_F(BinderTest, SargableShapes) {
  auto q = ParseAndBind(catalog_,
                        "SELECT c_name FROM customer WHERE c_custkey BETWEEN "
                        "10 AND 20 AND c_acctbal > 0 AND c_name LIKE 'cust%'");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->conjuncts.size(), 3u);
  EXPECT_TRUE(q->conjuncts[0].sargable);   // BETWEEN literals
  EXPECT_TRUE(q->conjuncts[1].sargable);   // > literal
  EXPECT_FALSE(q->conjuncts[2].sargable);  // LIKE is not sargable here
}

TEST_F(BinderTest, AliasResolution) {
  auto q = ParseAndBind(catalog_,
                        "SELECT c.c_name FROM customer c, orders o "
                        "WHERE o.o_custkey = c.c_custkey");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->conjuncts.size(), 1u);
  EXPECT_TRUE(q->conjuncts[0].is_equi_join);
}

TEST_F(BinderTest, SelectStarExpansion) {
  auto q = ParseAndBind(catalog_, "SELECT * FROM nation");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->stmt.items.size(), 4u);
  EXPECT_FALSE(q->stmt.select_star);
}

TEST_F(BinderTest, OrderByAlias) {
  auto q = ParseAndBind(catalog_,
                        "SELECT c_mktsegment, COUNT(*) AS cnt FROM customer "
                        "GROUP BY c_mktsegment ORDER BY cnt DESC");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->stmt.order_by.size(), 1u);
  EXPECT_EQ(q->stmt.order_by[0].expr->kind, ExprKind::kAggregate);
}

TEST_F(BinderTest, Errors) {
  EXPECT_FALSE(ParseAndBind(catalog_, "SELECT x FROM customer").ok());
  EXPECT_FALSE(ParseAndBind(catalog_, "SELECT c_name FROM missing_table").ok());
  // Ambiguous without qualifier: both orders and lineitem... use custkey vs
  // two tables exposing the same column name via self-join aliases.
  EXPECT_FALSE(
      ParseAndBind(catalog_, "SELECT c_name FROM customer a, customer b").ok());
  // Aggregate mixed with non-grouped column.
  EXPECT_FALSE(
      ParseAndBind(catalog_, "SELECT c_name, COUNT(*) FROM customer").ok());
  // Aggregate in WHERE.
  EXPECT_FALSE(
      ParseAndBind(catalog_, "SELECT COUNT(*) FROM customer WHERE COUNT(*) > 1")
          .ok());
  // Duplicate alias.
  EXPECT_FALSE(
      ParseAndBind(catalog_, "SELECT 1 FROM customer c, orders c").ok());
  // Unknown function.
  EXPECT_FALSE(
      ParseAndBind(catalog_, "SELECT frobnicate(c_name) FROM customer").ok());
}

/// `SELECT COUNT(*)` over `n` nation aliases, each joined to the previous
/// one with JOIN ... ON, or listed with commas when `commas` is set.
std::string NationChain(int n, bool commas = false) {
  std::string sql = "SELECT COUNT(*) FROM nation n0";
  for (int k = 1; k < n; ++k) {
    std::string alias = "n" + std::to_string(k);
    sql += commas ? ", nation " + alias
                  : " JOIN nation " + alias + " ON " + alias +
                        ".n_nationkey = n" + std::to_string(k - 1) +
                        ".n_nationkey";
  }
  return sql;
}

// The parser stops at the table cap with kInvalidArgument, so an oversized
// statement never reaches the binder or the optimizers.
TEST_F(BinderTest, TableCapIsInvalidArgumentBeforeBinding) {
  for (bool commas : {false, true}) {
    auto at_cap = ParseAndBind(catalog_, NationChain(kMaxStatementTables, commas));
    ASSERT_TRUE(at_cap.ok()) << at_cap.status();
    EXPECT_EQ(at_cap->num_tables(), kMaxStatementTables);
    for (int n : {kMaxStatementTables + 1, 2000}) {
      auto parsed = ParseSelect(NationChain(n, commas));
      ASSERT_FALSE(parsed.ok()) << n;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << n;
      auto bound = ParseAndBind(catalog_, NationChain(n, commas));
      ASSERT_FALSE(bound.ok()) << n;
      EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument) << n;
    }
  }
}

/// A statement of exactly `bytes` bytes that binds: a string literal pads
/// a one-table COUNT out to the length.
std::string StatementOfBytes(size_t bytes) {
  std::string sql = "SELECT COUNT(*) FROM nation WHERE n_name <> ''";
  sql.insert(sql.size() - 1, bytes - sql.size(), 'x');
  return sql;
}

// HtapSystem::Bind checks the byte cap before lexing: a statement at the
// cap binds, one byte more is kInvalidArgument, and the 2,000-table join
// (115 KB, ~4.5 ms to lex) fails in well under a millisecond.
TEST(StatementBytesTest, CapIsInvalidArgumentBeforeLexing) {
  HtapSystem system;
  HtapConfig config;
  config.data_scale_factor = 0.0;
  ASSERT_TRUE(system.Init(config).ok());
  const std::string at_cap = StatementOfBytes(kMaxStatementBytes);
  ASSERT_EQ(at_cap.size(), kMaxStatementBytes);
  auto bound = system.Bind(at_cap);
  ASSERT_TRUE(bound.ok()) << bound.status();
  const std::string over = StatementOfBytes(kMaxStatementBytes + 1);
  EXPECT_EQ(system.Bind(over).status().code(), StatusCode::kInvalidArgument);
  // ParseSelect itself stays uncapped.
  EXPECT_TRUE(ParseSelect(over).ok());

  const std::string chain = NationChain(2000);
  ASSERT_GT(chain.size(), 100'000u);
  double best_ms = 1e9;
  for (int i = 0; i < 5; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto rejected = system.Bind(chain);
    best_ms = std::min(best_ms, std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_LT(best_ms, 1.0);
}

TEST_F(BinderTest, ExpressionEvaluation) {
  auto q = ParseAndBind(catalog_,
                        "SELECT c_name FROM customer WHERE "
                        "SUBSTRING(c_phone, 1, 2) IN ('20', '25')");
  ASSERT_TRUE(q.ok()) << q.status();
  // Build a composite row: customer has 8 columns; c_phone is slot 4.
  std::vector<Value> row(8, Value::Null());
  row[4] = Value::Str("25-989-741-2988");
  auto pass = EvalPredicate(*q->conjuncts[0].expr, row);
  ASSERT_TRUE(pass.ok()) << pass.status();
  EXPECT_TRUE(*pass);
  row[4] = Value::Str("15-989-741-2988");
  pass = EvalPredicate(*q->conjuncts[0].expr, row);
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(*pass);
}

TEST_F(BinderTest, NullSemantics) {
  auto q = ParseAndBind(catalog_,
                        "SELECT c_name FROM customer WHERE c_acctbal > 100");
  ASSERT_TRUE(q.ok());
  std::vector<Value> row(8, Value::Null());
  auto pass = EvalPredicate(*q->conjuncts[0].expr, row);
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(*pass);  // NULL > 100 is not true
}

}  // namespace
}  // namespace htapex
