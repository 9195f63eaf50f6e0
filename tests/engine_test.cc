#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "engine/htap_system.h"
#include "sql/parser.h"

namespace htapex {
namespace {

/// One shared system for all engine tests (init generates data, so build it
/// once per process).
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.stats_scale_factor = 100.0;
    config.data_scale_factor = 0.01;
    ASSERT_TRUE(system_->Init(config).ok());
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  /// Plans `sql` into `plans`, then checks that the TP and AP plans return
  /// the same rows, and that on the AP plan the row and vectorized
  /// executors return the same rows and per-node ExecStats (actual rows
  /// and the stopped set). `tp_stats`
  /// receives the TP plan's ExecStats.
  static void ExpectEnginesAgree(const std::string& sql, PlanPair* plans,
                                 ExecStats* tp_stats) {
    auto query = system_->Bind(sql);
    ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
    auto planned = system_->PlanBoth(*query);
    ASSERT_TRUE(planned.ok()) << sql << ": " << planned.status();
    ExecStats row_stats, vec_stats;
    auto tp = system_->Execute(planned->tp, *query, tp_stats);
    auto row = system_->ExecuteWithMode(ExecMode::kRow, planned->ap, *query,
                                        &row_stats);
    auto vec = system_->ExecuteWithMode(ExecMode::kVectorized, planned->ap,
                                        *query, &vec_stats);
    ASSERT_TRUE(tp.ok()) << sql << ": " << tp.status();
    ASSERT_TRUE(row.ok()) << sql << ": " << row.status();
    ASSERT_TRUE(vec.ok()) << sql << ": " << vec.status();
    EXPECT_FALSE(tp->rows.empty()) << sql;
    EXPECT_EQ(tp->Fingerprint(), row->Fingerprint()) << sql;
    EXPECT_EQ(row->Fingerprint(), vec->Fingerprint()) << sql;
    EXPECT_EQ(row_stats.actual_rows.size(), vec_stats.actual_rows.size())
        << sql;
    for (const auto& [node, rows] : row_stats.actual_rows) {
      auto it = vec_stats.actual_rows.find(node);
      ASSERT_NE(it, vec_stats.actual_rows.end())
          << sql << " missing stats for " << PlanOpName(node->op);
      EXPECT_EQ(it->second, rows) << sql << " " << PlanOpName(node->op);
    }
    EXPECT_EQ(row_stats.stopped, vec_stats.stopped) << sql;
    *plans = std::move(*planned);
  }

  static HtapSystem* system_;
};

HtapSystem* EngineTest::system_ = nullptr;

/// The first node of `op` in `root`'s pre-order, or nullptr.
const PlanNode* FindNode(const PlanNode& root, PlanOp op) {
  if (root.op == op) return &root;
  for (const auto& c : root.children) {
    if (const PlanNode* found = FindNode(*c, op)) return found;
  }
  return nullptr;
}

constexpr const char* kExample1 =
    "SELECT COUNT(*) FROM customer, nation, orders "
    "WHERE SUBSTRING(c_phone, 1, 2) IN ('20','40','22','30','39','42','21') "
    "AND c_mktsegment = 'machinery' AND n_name = 'egypt' "
    "AND o_orderstatus = 'p' AND o_custkey = c_custkey "
    "AND n_nationkey = c_nationkey";

TEST_F(EngineTest, Example1PlansHaveExpectedShapes) {
  auto outcome = system_->RunQuery(kExample1);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // TP root: Group aggregate (as in Table II); AP root: Hash aggregate.
  EXPECT_EQ(outcome->plans.tp.root->op, PlanOp::kGroupAggregate);
  EXPECT_EQ(outcome->plans.ap.root->op, PlanOp::kHashAggregate);
  // TP uses nested-loop style joins only; AP uses hash joins only.
  std::string tp_text = outcome->plans.tp.Explain();
  std::string ap_text = outcome->plans.ap.Explain();
  EXPECT_NE(tp_text.find("nested loop"), std::string::npos);
  EXPECT_EQ(tp_text.find("Hash join"), std::string::npos);
  EXPECT_NE(ap_text.find("Hash join"), std::string::npos);
  EXPECT_EQ(ap_text.find("loop"), std::string::npos);
  EXPECT_NE(ap_text.find("Columnar scan"), std::string::npos);
}

TEST_F(EngineTest, Example1LatencyShapeMatchesPaper) {
  auto outcome = system_->RunQuery(kExample1);
  ASSERT_TRUE(outcome.ok());
  // Paper: TP 5.80s, AP 310ms. Shape: AP wins by an order of magnitude,
  // TP in seconds, AP in hundreds of milliseconds.
  EXPECT_EQ(outcome->faster, EngineKind::kAp);
  EXPECT_GT(outcome->tp_latency_ms, 2000.0);
  EXPECT_LT(outcome->tp_latency_ms, 20000.0);
  EXPECT_GT(outcome->ap_latency_ms, 50.0);
  EXPECT_LT(outcome->ap_latency_ms, 1500.0);
  EXPECT_GT(outcome->speedup(), 5.0);
}

TEST_F(EngineTest, PointLookupFavorsTp) {
  auto outcome =
      system_->RunQuery("SELECT c_name FROM customer WHERE c_custkey = 42");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->faster, EngineKind::kTp);
  EXPECT_LT(outcome->tp_latency_ms, 5.0);           // index point lookup
  EXPECT_GT(outcome->ap_latency_ms, 20.0);          // pays AP startup
  ASSERT_TRUE(outcome->tp_result.has_value());
  ASSERT_EQ(outcome->tp_result->rows.size(), 1u);
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsString(), "customer#000000042");
  EXPECT_TRUE(outcome->results_match);
}

TEST_F(EngineTest, TpUsesIndexScanForPointLookup) {
  auto query = system_->Bind("SELECT c_name FROM customer WHERE c_custkey = 7");
  ASSERT_TRUE(query.ok());
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok());
  std::string tp_text = plans->tp.Explain();
  EXPECT_NE(tp_text.find("Index Scan"), std::string::npos);
  EXPECT_NE(tp_text.find("pk_customer"), std::string::npos);
}

TEST_F(EngineTest, FunctionDefeatsIndex) {
  // Create an index on c_phone (the paper's user context), then check the
  // substring predicate still cannot use it while a bare equality can.
  IndexDef idx{"idx_c_phone", "customer", {"c_phone"}, false, false};
  ASSERT_TRUE(system_->CreateIndex(idx).ok());
  auto q1 = system_->Bind(
      "SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, 1, 2) = '25'");
  ASSERT_TRUE(q1.ok());
  auto p1 = system_->PlanBoth(*q1);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->tp.Explain().find("idx_c_phone"), std::string::npos)
      << "substring over c_phone must not use the index";
  auto q2 = system_->Bind(
      "SELECT COUNT(*) FROM customer WHERE c_phone = '25-989-741-2988'");
  ASSERT_TRUE(q2.ok());
  auto p2 = system_->PlanBoth(*q2);
  ASSERT_TRUE(p2.ok());
  EXPECT_NE(p2->tp.Explain().find("idx_c_phone"), std::string::npos)
      << "bare equality on c_phone should use the index";
  ASSERT_TRUE(system_->DropIndex("idx_c_phone").ok());
}

TEST_F(EngineTest, CrossEngineResultsAgree) {
  const char* queries[] = {
      "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'",
      "SELECT n_name, COUNT(*) FROM nation, customer "
      "WHERE n_nationkey = c_nationkey GROUP BY n_name",
      "SELECT o_orderkey, o_totalprice FROM orders "
      "WHERE o_totalprice > 100000 ORDER BY o_orderkey LIMIT 20",
      "SELECT SUM(o_totalprice), AVG(o_totalprice), MIN(o_orderdate), "
      "MAX(o_orderdate) FROM orders WHERE o_orderstatus = 'f'",
      "SELECT c_mktsegment, COUNT(*) FROM customer "
      "GROUP BY c_mktsegment ORDER BY c_mktsegment",
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND c_acctbal BETWEEN 0 AND 1000",
      "SELECT COUNT(*) FROM customer WHERE c_name LIKE 'customer#0000001%'",
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5 OFFSET 10",
  };
  for (const char* sql : queries) {
    auto outcome = system_->RunQuery(sql);
    ASSERT_TRUE(outcome.ok()) << sql << ": " << outcome.status();
    EXPECT_TRUE(outcome->results_match) << sql;
    ASSERT_TRUE(outcome->tp_result.has_value());
  }
}

TEST_F(EngineTest, OrPredicatesAgreeAcrossEngines) {
  const char* queries[] = {
      "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p' OR "
      "o_orderstatus = 'f'",
      "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery' OR "
      "c_acctbal < 0",
      "SELECT COUNT(*) FROM customer WHERE NOT (c_mktsegment = 'building') "
      "AND (c_nationkey = 4 OR c_nationkey = 7)",
  };
  for (const char* sql : queries) {
    auto outcome = system_->RunQuery(sql);
    ASSERT_TRUE(outcome.ok()) << sql << ": " << outcome.status();
    EXPECT_TRUE(outcome->results_match) << sql;
    EXPECT_GT(outcome->tp_result->rows[0][0].AsInt(), 0) << sql;
  }
}

TEST_F(EngineTest, SelfJoinWithAliases) {
  // Every nation pairs with the 5 nations of its region: 25 x 5 = 125.
  auto outcome = system_->RunQuery(
      "SELECT COUNT(*) FROM nation a, nation b "
      "WHERE a.n_regionkey = b.n_regionkey");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 125);
  EXPECT_TRUE(outcome->results_match);
  // Asymmetric predicate on one side only.
  outcome = system_->RunQuery(
      "SELECT COUNT(*) FROM nation a, nation b "
      "WHERE a.n_regionkey = b.n_regionkey AND a.n_name = 'egypt'");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 5);
  EXPECT_TRUE(outcome->results_match);
}

TEST_F(EngineTest, AggregatesMatchHandComputation) {
  auto outcome = system_->RunQuery("SELECT COUNT(*) FROM nation");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 25);
  outcome = system_->RunQuery(
      "SELECT COUNT(*) FROM nation WHERE n_regionkey = 0");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 5);
  outcome = system_->RunQuery(
      "SELECT COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 25);
  EXPECT_TRUE(outcome->results_match);
}

TEST_F(EngineTest, ScalarAggregateOnEmptyInput) {
  auto outcome = system_->RunQuery(
      "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_custkey = -5");
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->tp_result->rows.size(), 1u);
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 0);
  EXPECT_TRUE(outcome->tp_result->rows[0][1].is_null());
  EXPECT_TRUE(outcome->results_match);
}

TEST_F(EngineTest, OrderByDescLimit) {
  auto outcome = system_->RunQuery(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC, o_orderkey LIMIT 3");
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->tp_result->rows.size(), 3u);
  EXPECT_GE(outcome->tp_result->rows[0][1].AsDouble(),
            outcome->tp_result->rows[1][1].AsDouble());
  EXPECT_TRUE(outcome->results_match);
  // AP should use Top-N for ORDER BY + LIMIT.
  EXPECT_NE(outcome->plans.ap.Explain().find("Top-N"), std::string::npos);
}

TEST_F(EngineTest, TopNByIndexOrderStreamsOnTp) {
  auto outcome = system_->RunQuery(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10");
  ASSERT_TRUE(outcome.ok());
  // TP streams from the PK index and stops after 10 rows: much faster than
  // AP, which scans everything into a Top-N heap plus startup.
  EXPECT_EQ(outcome->faster, EngineKind::kTp);
  EXPECT_LT(outcome->tp_latency_ms, 20.0);
  std::string tp_text = outcome->plans.tp.Explain();
  EXPECT_NE(tp_text.find("Index Scan"), std::string::npos);
  EXPECT_NE(tp_text.find("Limit"), std::string::npos);
  EXPECT_EQ(tp_text.find("'Node Type': 'Sort'"), std::string::npos);
  ASSERT_EQ(outcome->tp_result->rows.size(), 10u);
  EXPECT_TRUE(outcome->results_match);
}

TEST_F(EngineTest, DescTopNAlsoStreamsOnTp) {
  auto outcome = system_->RunQuery(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC LIMIT 10");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // Backward index scan streams DESC order: TP wins here too.
  EXPECT_EQ(outcome->faster, EngineKind::kTp);
  std::string tp_text = outcome->plans.tp.Explain();
  EXPECT_NE(tp_text.find("Index Scan"), std::string::npos);
  EXPECT_EQ(tp_text.find("'Node Type': 'Sort'"), std::string::npos);
  ASSERT_EQ(outcome->tp_result->rows.size(), 10u);
  // Highest keys first.
  EXPECT_GT(outcome->tp_result->rows[0][0].AsInt(),
            outcome->tp_result->rows[9][0].AsInt());
  EXPECT_TRUE(outcome->results_match);
}

TEST_F(EngineTest, LargeOffsetHurtsTpStreaming) {
  auto small = system_->RunQuery(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10");
  auto large = system_->RunQuery(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10 "
      "OFFSET 1000000");
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(large->tp_latency_ms, small->tp_latency_ms * 10);
}

TEST_F(EngineTest, CostUnitsAreNotComparableAcrossEngines) {
  // The point the paper's prompts hammer on: TP and AP costs live on
  // different scales. For Example 1 the AP plan is ~16x faster yet its
  // cost number is the same order of magnitude as TP's.
  auto outcome = system_->RunQuery(kExample1);
  ASSERT_TRUE(outcome.ok());
  double tp_cost = outcome->plans.tp.root->total_cost;
  double ap_cost = outcome->plans.ap.root->total_cost;
  double cost_ratio = tp_cost / ap_cost;
  double latency_ratio = outcome->tp_latency_ms / outcome->ap_latency_ms;
  // Cost ratio does not track the latency ratio.
  EXPECT_GT(latency_ratio / cost_ratio, 3.0);
}

TEST(QueryResultSetTest, FingerprintPrintsIntegersWhole) {
  // Under %.6g a COUNT(*) of 6,001,215 and one of 6,001,216 printed alike,
  // so a dropped or repeated row in a large count passed every parity pin.
  const QueryResultSet a{{"n"}, {{Value::Int(6001215)}}};
  const QueryResultSet b{{"n"}, {{Value::Int(6001216)}}};
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), "6001215");
  // An engine's Int(3) still matches another's Double(3.0).
  const QueryResultSet i{{"n"}, {{Value::Int(3)}}};
  const QueryResultSet d{{"n"}, {{Value::Double(3.0)}}};
  EXPECT_EQ(i.Fingerprint(), d.Fingerprint());
}

TEST_F(EngineTest, ExecStatsRecordActualCardinalities) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM nation WHERE n_regionkey = 0");
  ASSERT_TRUE(query.ok());
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok());
  ExecStats stats;
  auto result = system_->Execute(plans->tp, *query, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  // The root's recorded actual cardinality equals the result size.
  auto it = stats.actual_rows.find(plans->tp.root.get());
  ASSERT_NE(it, stats.actual_rows.end());
  EXPECT_EQ(it->second, result->rows.size());
  // Every recorded node belongs to this plan and has a sane count.
  EXPECT_GE(stats.actual_rows.size(), 2u);
  for (const auto& [node, rows] : stats.actual_rows) {
    EXPECT_LE(rows, 25u) << PlanOpName(node->op);
  }
}

TEST_F(EngineTest, IndexNestedLoopJoinRecordsProbeSideStats) {
  // Regression: the INLJ inner side is probed inline (never dispatched
  // through Run), so EXPLAIN ANALYZE used to show no actual cardinality
  // for the inner IndexScan — the explainer then read "0 rows" for the
  // most expensive access path in the plan.
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_orderstatus = 'p'");
  ASSERT_TRUE(query.ok());
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok());
  // Find the index nested-loop join in the TP plan.
  const PlanNode* inlj = nullptr;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.op == PlanOp::kIndexNestedLoopJoin) inlj = &n;
    for (const auto& c : n.children) walk(*c);
  };
  walk(*plans->tp.root);
  ASSERT_NE(inlj, nullptr) << plans->tp.Explain();
  ExecStats stats;
  auto result = system_->Execute(plans->tp, *query, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  // The probe-side access node (IndexScan, possibly under a Filter) must
  // have a recorded actual cardinality >= the join's output.
  const PlanNode* inner = inlj->children[1].get();
  const PlanNode* filter = nullptr;
  if (inner->op == PlanOp::kFilter) {
    filter = inner;
    inner = inner->children[0].get();
  }
  ASSERT_EQ(inner->op, PlanOp::kIndexScan);
  auto inner_it = stats.actual_rows.find(inner);
  ASSERT_NE(inner_it, stats.actual_rows.end())
      << "no actual cardinality recorded for the INLJ probe side";
  auto join_it = stats.actual_rows.find(inlj);
  ASSERT_NE(join_it, stats.actual_rows.end());
  EXPECT_GT(inner_it->second, 0u);
  EXPECT_GE(inner_it->second, join_it->second);
  if (filter != nullptr) {
    auto filter_it = stats.actual_rows.find(filter);
    ASSERT_NE(filter_it, stats.actual_rows.end());
    EXPECT_LE(filter_it->second, inner_it->second);
    EXPECT_GE(filter_it->second, join_it->second);
  }
}

TEST_F(EngineTest, TopNBreaksSortKeyTiesDeterministically) {
  // Regression: Top-N over a low-cardinality sort key (massive ties) must
  // return the same window as full-sort-then-limit. The bounded heap
  // breaks ties by input order, matching the stable sort of the oracle.
  auto outcome = system_->RunQuery(
      "SELECT o_orderkey, o_orderstatus FROM orders "
      "ORDER BY o_orderstatus LIMIT 10 OFFSET 3");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->tp_result->rows.size(), 10u);
  EXPECT_TRUE(outcome->results_match)
      << "Top-N tie-break diverged from stable sort";
  // The AP plan really went through Top-N (not Sort+Limit).
  EXPECT_NE(outcome->plans.ap.Explain().find("Top-N"), std::string::npos);
}

TEST_F(EngineTest, TpPlansANestedLoopWhenTheJoinColumnHasNoIndex) {
  const IndexDef* fk =
      system_->catalog().FindIndexOnColumn("customer", "c_nationkey");
  ASSERT_NE(fk, nullptr);
  const IndexDef saved = *fk;
  ASSERT_TRUE(system_->DropIndex(saved.name).ok());
  PlanPair plans;
  ExecStats tp_stats;
  ExpectEnginesAgree(
      "SELECT n_name, COUNT(*) FROM nation, customer "
      "WHERE n_nationkey = c_nationkey AND n_regionkey = 1 GROUP BY n_name",
      &plans, &tp_stats);
  ASSERT_TRUE(system_->CreateIndex(saved).ok());
  ASSERT_NE(plans.tp.root, nullptr);
  const PlanNode* join = FindNode(*plans.tp.root, PlanOp::kNestedLoopJoin);
  ASSERT_NE(join, nullptr) << plans.tp.Explain();
  EXPECT_NE(join->left_key, nullptr);
  // Five nations of region 1, each matching its customers.
  ASSERT_EQ(tp_stats.actual_rows.count(join), 1u);
  EXPECT_GT(tp_stats.actual_rows.at(join), 5u);
}

TEST_F(EngineTest, KeylessJoinRunsOnBothEngines) {
  PlanPair plans;
  ExecStats tp_stats;
  ExpectEnginesAgree(
      "SELECT COUNT(*), SUM(n_nationkey) FROM region, nation "
      "WHERE r_regionkey < n_regionkey",
      &plans, &tp_stats);
  ASSERT_NE(plans.ap.root, nullptr);
  const PlanNode* hash_join = FindNode(*plans.ap.root, PlanOp::kHashJoin);
  ASSERT_NE(hash_join, nullptr) << plans.ap.Explain();
  EXPECT_EQ(hash_join->left_key, nullptr);
  const PlanNode* loop = FindNode(*plans.tp.root, PlanOp::kNestedLoopJoin);
  ASSERT_NE(loop, nullptr) << plans.tp.Explain();
  EXPECT_EQ(loop->left_key, nullptr);
}

TEST_F(EngineTest, TpIndexScanServesInListsAndOneSidedRanges) {
  for (const char* sql :
       {"SELECT c_custkey, c_name FROM customer WHERE c_custkey IN (3, 17, 40)",
        "SELECT c_custkey, c_acctbal FROM customer WHERE c_custkey < 40"}) {
    PlanPair plans;
    ExecStats tp_stats;
    ExpectEnginesAgree(sql, &plans, &tp_stats);
    ASSERT_NE(plans.tp.root, nullptr);
    const PlanNode* scan = FindNode(*plans.tp.root, PlanOp::kIndexScan);
    ASSERT_NE(scan, nullptr) << sql << "\n" << plans.tp.Explain();
    ASSERT_EQ(tp_stats.actual_rows.count(scan), 1u) << sql;
    EXPECT_GT(tp_stats.actual_rows.at(scan), 0u) << sql;
  }
}

TEST_F(EngineTest, IntegerLiteralsThatDoNotFitAreParseErrors) {
  for (const char* sql :
       {"SELECT c_name FROM customer WHERE c_custkey = 99999999999999999999",
        "SELECT o_orderkey FROM orders ORDER BY o_orderkey "
        "LIMIT 99999999999999999999",
        "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 1 "
        "OFFSET 9223372036854775808"}) {
    auto bound = system_->Bind(sql);
    ASSERT_FALSE(bound.ok()) << sql;
    EXPECT_EQ(bound.status().code(), StatusCode::kParseError) << sql;
  }
  // INT64_MAX itself fits.
  EXPECT_TRUE(system_->Bind("SELECT c_name FROM customer "
                            "WHERE c_custkey = 9223372036854775807")
                  .ok());
}

TEST_F(EngineTest, OffsetNeverLowersTheCostOfTheLargestLimit) {
  // LIMIT INT64_MAX + OFFSET 1 does not fit in int64_t: the cost models
  // must not wrap it into a small (or negative) row count.
  auto plan = [](const std::string& sql) {
    auto query = system_->Bind(sql);
    EXPECT_TRUE(query.ok()) << sql << ": " << query.status();
    auto plans = system_->PlanBoth(*query);
    EXPECT_TRUE(plans.ok()) << sql << ": " << plans.status();
    return std::move(plans).value();
  };
  const std::string topn =
      "SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT " +
      std::to_string(INT64_MAX);
  const PlanPair topn0 = plan(topn + " OFFSET 0");
  const PlanPair topn1 = plan(topn + " OFFSET 1");
  const PlanNode* heap0 = FindNode(*topn0.ap.root, PlanOp::kTopN);
  const PlanNode* heap1 = FindNode(*topn1.ap.root, PlanOp::kTopN);
  ASSERT_NE(heap0, nullptr) << topn0.ap.Explain();
  ASSERT_NE(heap1, nullptr) << topn1.ap.Explain();
  EXPECT_GE(heap1->total_cost, heap0->total_cost);
  EXPECT_GE(system_->LatencyMs(topn1.ap), system_->LatencyMs(topn0.ap));

  // Ordered by the key, TP streams the index under a Limit instead.
  const std::string streamed =
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT " +
      std::to_string(INT64_MAX);
  const PlanPair limit0 = plan(streamed + " OFFSET 0");
  const PlanPair limit1 = plan(streamed + " OFFSET 1");
  ASSERT_NE(FindNode(*limit1.tp.root, PlanOp::kLimit), nullptr)
      << limit1.tp.Explain();
  EXPECT_GE(system_->LatencyMs(limit1.tp), system_->LatencyMs(limit0.tp));
  EXPECT_GE(system_->LatencyMs(limit1.ap), system_->LatencyMs(limit0.ap));
}

TEST_F(EngineTest, BindErrorsPropagate) {
  EXPECT_FALSE(system_->RunQuery("SELECT nope FROM customer").ok());
  EXPECT_FALSE(system_->RunQuery("not sql at all").ok());
}

/// A kMaxStatementTables-table nation chain whose WHERE expression nests
/// `levels` deep: the top-level expression is one level, each NOT one
/// more, and each `+ 0` of the arithmetic chain under the comparison one
/// more (binary operators count as levels).
std::string DeepStatement(int levels) {
  std::string sql = "SELECT COUNT(*), SUM(n0.n_regionkey) FROM nation n0";
  for (int k = 1; k < kMaxStatementTables; ++k) {
    sql += " JOIN nation n" + std::to_string(k) + " ON n" + std::to_string(k) +
           ".n_nationkey = n" + std::to_string(k - 1) + ".n_nationkey";
  }
  const int nots = (levels - 1) / 2;
  sql += " WHERE ";
  for (int i = 0; i < nots; ++i) sql += "NOT ";
  sql += "n" + std::to_string(kMaxStatementTables - 1) + ".n_regionkey";
  for (int i = nots + 1; i < levels; ++i) sql += " + 0";
  return sql + " < 2";
}

// The deepest statement the parser limits accept binds, plans and executes
// on both engines (the JOIN ... ON AND spine plus a WHERE tree at
// kMaxNesting); one level deeper is a parse error.
TEST_F(EngineTest, DeepestAcceptedStatementRunsOnBothEngines) {
  const std::string deepest = DeepStatement(kMaxNesting);
  ASSERT_LE(deepest.size(), kMaxStatementBytes);
  auto bound = system_->Bind(deepest);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->num_tables(), kMaxStatementTables);
  auto outcome = system_->RunQuery(deepest);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->tp_result.has_value());
  ASSERT_TRUE(outcome->ap_result.has_value());
  EXPECT_EQ(outcome->tp_result->Fingerprint(),
            outcome->ap_result->Fingerprint());
  EXPECT_TRUE(outcome->results_match);
  // 127 NOTs leave n_regionkey >= 2: regions 2-4, five nations each.
  ASSERT_EQ(outcome->tp_result->rows.size(), 1u);
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 15);
  EXPECT_EQ(outcome->tp_result->rows[0][1].AsInt(), 45);

  auto deeper = system_->RunQuery(DeepStatement(kMaxNesting + 1));
  ASSERT_FALSE(deeper.ok());
  EXPECT_EQ(deeper.status().code(), StatusCode::kParseError);
}

TEST_F(EngineTest, TypeMismatchesAndOverflowAreExecutionErrors) {
  // A string where a number or a truth value is expected, int64 overflow
  // and a double that a function argument cannot hold end the query in
  // kExecutionError on TP, row-executed AP and vectorized AP at 1 and 3
  // workers alike, not in an uncaught std::bad_variant_access or undefined
  // behaviour.
  for (const char* sql :
       {"SELECT c_custkey FROM customer WHERE c_name",
        "SELECT c_custkey FROM customer WHERE NOT c_name",
        "SELECT c_custkey FROM customer WHERE c_custkey > 5 AND c_name",
        "SELECT c_name + 1 FROM customer",
        "SELECT SUM(c_name) FROM customer",
        "SELECT AVG(DISTINCT c_name) FROM customer",
        "SELECT c_custkey FROM customer WHERE YEAR(c_name) = 1",
        "SELECT c_custkey FROM customer WHERE SUBSTRING(c_phone, 'a', 2) = '1'",
        "SELECT c_custkey FROM customer WHERE "
        "SUBSTRING(c_phone, c_acctbal * 1000000000000000000000000.0, 2) = '1'",
        "SELECT c_custkey FROM customer WHERE "
        "YEAR(c_custkey + 9223372036854775000) = 1",
        "SELECT c_custkey * 9223372036854775807 FROM customer",
        "SELECT c_custkey FROM customer "
        "WHERE c_custkey - 9223372036854775807 - 9 < 0"}) {
    auto query = system_->Bind(sql);
    ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
    auto plans = system_->PlanBoth(*query);
    ASSERT_TRUE(plans.ok()) << sql << ": " << plans.status();
    EXPECT_EQ(system_->Execute(plans->tp, *query).status().code(),
              StatusCode::kExecutionError)
        << sql;
    EXPECT_EQ(system_->ExecuteWithMode(ExecMode::kRow, plans->ap, *query)
                  .status()
                  .code(),
              StatusCode::kExecutionError)
        << sql;
    for (int workers : {1, 3}) {
      system_->vec_executor()->set_num_workers(workers);
      EXPECT_EQ(
          system_->ExecuteWithMode(ExecMode::kVectorized, plans->ap, *query)
              .status()
              .code(),
          StatusCode::kExecutionError)
          << sql << " @" << workers;
    }
    system_->vec_executor()->set_num_workers(system_->config().vec_workers);
  }
  // A double in a boolean position is true iff its magnitude is at least 1,
  // what truncating it to an integer gave, also where the truncation
  // overflows.
  PlanPair plans;
  ExecStats stats;
  for (const auto& [sql, same_as] : std::vector<std::pair<const char*,
                                                         const char*>>{
           {"SELECT COUNT(*) FROM customer WHERE c_acctbal * 0.001",
            "SELECT COUNT(*) FROM customer "
            "WHERE c_acctbal >= 1000 OR c_acctbal <= -1000"},
           {"SELECT COUNT(*) FROM customer "
            "WHERE c_acctbal * 100000000000000000000.0",
            "SELECT COUNT(*) FROM customer WHERE c_acctbal <> 0"}}) {
    ExpectEnginesAgree(sql, &plans, &stats);
    auto got = system_->RunQuery(sql);
    auto want = system_->RunQuery(same_as);
    ASSERT_TRUE(got.ok() && want.ok()) << sql;
    EXPECT_EQ(got->tp_result->Fingerprint(), want->tp_result->Fingerprint())
        << sql;
  }
}

/// `sql`'s result on TP, row-executed AP and vectorized AP at 1 and 3
/// workers, each with its engine's name.
std::vector<std::pair<std::string, Result<QueryResultSet>>> RunEverywhere(
    HtapSystem* system, const std::string& sql) {
  std::vector<std::pair<std::string, Result<QueryResultSet>>> out;
  auto query = system->Bind(sql);
  auto plans = query.ok() ? system->PlanBoth(*query) : query.status();
  if (!plans.ok()) {
    out.emplace_back("plan", plans.status());
    return out;
  }
  out.emplace_back("TP", system->Execute(plans->tp, *query));
  out.emplace_back("AP row",
                   system->ExecuteWithMode(ExecMode::kRow, plans->ap, *query));
  for (int workers : {1, 3}) {
    system->vec_executor()->set_num_workers(workers);
    out.emplace_back(
        "AP vectorized @" + std::to_string(workers),
        system->ExecuteWithMode(ExecMode::kVectorized, plans->ap, *query));
  }
  system->vec_executor()->set_num_workers(system->config().vec_workers);
  return out;
}

TEST_F(EngineTest, IntegerSumsAreExact) {
  // Integer SUM and AVG add exactly, so no order of rows, morsels or
  // workers changes the answer, AVG is the true mean even where the sum
  // passes int64, and a SUM whose total does not fit int64 is
  // kExecutionError on every engine, as int64 arithmetic overflow is.
  auto count = system_->RunQuery("SELECT COUNT(*) FROM customer");
  ASSERT_TRUE(count.ok()) << count.status();
  const int64_t n = count->tp_result->rows[0][0].AsInt();  // keys 1..n
  const __int128 key_sum = static_cast<__int128>(n) * (n + 1) / 2;
  const double mean = static_cast<double>(key_sum * 1000000000000000) /
                      static_cast<double>(n);
  for (auto& [engine, r] : RunEverywhere(
           system_, "SELECT AVG(c_custkey * 1000000000000000) FROM customer")) {
    ASSERT_TRUE(r.ok()) << engine << ": " << r.status();
    EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(), mean) << engine;
  }
  // Per nation, each mean is 10^15 times the mean key.
  auto plain = system_->RunQuery(
      "SELECT c_nationkey, AVG(c_custkey) FROM customer GROUP BY c_nationkey");
  ASSERT_TRUE(plain.ok()) << plain.status();
  for (auto& [engine, r] : RunEverywhere(
           system_,
           "SELECT c_nationkey, AVG(c_custkey * 1000000000000000) "
           "FROM customer GROUP BY c_nationkey")) {
    ASSERT_TRUE(r.ok()) << engine << ": " << r.status();
    ASSERT_EQ(r->rows.size(), plain->tp_result->rows.size()) << engine;
    for (size_t i = 0; i < r->rows.size(); ++i) {
      EXPECT_DOUBLE_EQ(r->rows[i][1].AsDouble(),
                       plain->tp_result->rows[i][1].AsDouble() * 1e15)
          << engine << " nation " << r->rows[i][0].AsInt();
    }
  }
  // Running sums far past int64 that end inside it: the exact total.
  const int64_t centre = n / 2;
  const __int128 centred =
      (key_sum - static_cast<__int128>(n) * centre) * 10000000000000000;
  ASSERT_LE(centred, std::numeric_limits<int64_t>::max());
  for (auto& [engine, r] : RunEverywhere(
           system_, "SELECT SUM((c_custkey - " + std::to_string(centre) +
                        ") * 10000000000000000) FROM customer")) {
    ASSERT_TRUE(r.ok()) << engine << ": " << r.status();
    ASSERT_TRUE(r->rows[0][0].is_int()) << engine;
    EXPECT_EQ(r->rows[0][0].AsInt(), static_cast<int64_t>(centred)) << engine;
  }
  for (const char* sql :
       {"SELECT SUM(c_custkey * 1000000000000000) FROM customer",
        "SELECT c_nationkey, SUM(c_custkey * 100000000000000000) "
        "FROM customer GROUP BY c_nationkey"}) {
    for (auto& [engine, r] : RunEverywhere(system_, sql)) {
      EXPECT_EQ(r.status().code(), StatusCode::kExecutionError)
          << engine << ": " << sql;
    }
  }
}

TEST_F(EngineTest, SignedZeroGroupKeysAreOneGroup) {
  // 0.0 and -0.0 compare equal, so they are one group, keyed by the value
  // it was first found with: nation 0's (0 - 2) * 0.0 = -0.0.
  for (auto& [engine, r] : RunEverywhere(
           system_,
           "SELECT (n_regionkey - 2) * 0.0, COUNT(*) FROM nation "
           "GROUP BY (n_regionkey - 2) * 0.0")) {
    ASSERT_TRUE(r.ok()) << engine << ": " << r.status();
    EXPECT_EQ(r->Fingerprint(), "-0|25") << engine;
  }
}

TEST_F(EngineTest, PlanOnlyModeRefusesExecution) {
  HtapSystem plan_only;
  HtapConfig config;
  config.stats_scale_factor = 10.0;
  config.data_scale_factor = 0.0;
  ASSERT_TRUE(plan_only.Init(config).ok());
  auto outcome = plan_only.RunQuery("SELECT COUNT(*) FROM nation");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->tp_result.has_value());
  EXPECT_GT(outcome->tp_latency_ms, 0.0);
}

}  // namespace
}  // namespace htapex
