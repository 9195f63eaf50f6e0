#include <gtest/gtest.h>

#include "common/json.h"
#include "engine/htap_system.h"
#include "engine/latency_model.h"
#include "plan/cardinality.h"
#include "plan/plan_node.h"
#include "plan/planner_util.h"

namespace htapex {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.data_scale_factor = 0.0;
    ASSERT_TRUE(system_->Init(config).ok());
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  static HtapSystem* system_;
};

HtapSystem* PlanTest::system_ = nullptr;

TEST_F(PlanTest, ExplainJsonHasTableIIKeys) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM customer, nation WHERE n_nationkey = c_nationkey "
      "AND n_name = 'egypt'");
  ASSERT_TRUE(query.ok());
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok());
  // The pythonish flavour (what prompts embed) parses as JSON.
  auto tp = JsonValue::Parse(plans->tp.Explain());
  ASSERT_TRUE(tp.ok()) << tp.status();
  EXPECT_EQ(tp->GetString("Node Type"), PlanOpName(plans->tp.root->op));
  EXPECT_GT(tp->GetDouble("Total Cost"), 0.0);
  EXPECT_GE(tp->GetInt("Plan Rows"), 1);
  ASSERT_NE(tp->Find("Plans"), nullptr);
  EXPECT_TRUE(tp->Find("Plans")->is_array());
}

TEST_F(PlanTest, TreeSizeAndTreeString) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM customer, nation, orders WHERE n_nationkey = "
      "c_nationkey AND o_custkey = c_custkey");
  ASSERT_TRUE(query.ok());
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok());
  EXPECT_GE(plans->tp.root->TreeSize(), 5);
  std::string text = plans->tp.root->ToTreeString();
  EXPECT_NE(text.find("Group aggregate"), std::string::npos);
  EXPECT_NE(text.find("customer"), std::string::npos);
}

TEST_F(PlanTest, CardinalityEqualitySelectivity) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'");
  ASSERT_TRUE(query.ok());
  CardinalityEstimator est(system_->catalog());
  ASSERT_EQ(query->conjuncts.size(), 1u);
  // NDV of o_orderstatus is 3.
  EXPECT_NEAR(est.ConjunctSelectivity(*query, query->conjuncts[0]), 1.0 / 3,
              1e-9);
  EXPECT_NEAR(est.FilteredTableRows(*query, 0),
              static_cast<double>(system_->catalog().RowCount("orders")) / 3,
              1.0);
}

TEST_F(PlanTest, CardinalityInAndBetween) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM nation WHERE n_regionkey IN (0, 1) "
      "AND n_nationkey BETWEEN 0 AND 11");
  ASSERT_TRUE(query.ok());
  CardinalityEstimator est(system_->catalog());
  // n_regionkey NDV = 5, 2 items -> 0.4.
  EXPECT_NEAR(est.ConjunctSelectivity(*query, query->conjuncts[0]), 0.4, 1e-9);
  // BETWEEN 0 AND 11 over [0, 24] spans ~11/24.
  EXPECT_NEAR(est.ConjunctSelectivity(*query, query->conjuncts[1]), 11.0 / 24,
              0.05);
}

TEST_F(PlanTest, FunctionPredicateUsesDefaultSelectivity) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, 1, 2) = '20'");
  ASSERT_TRUE(query.ok());
  CardinalityEstimator est(system_->catalog());
  EXPECT_NEAR(est.ConjunctSelectivity(*query, query->conjuncts[0]),
              CardinalityEstimator::kFunctionPredicateSelectivity, 1e-9);
}

TEST_F(PlanTest, JoinOutputUsesMaxNdv) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey");
  ASSERT_TRUE(query.ok());
  CardinalityEstimator est(system_->catalog());
  const ConjunctInfo& join = query->conjuncts[0];
  ASSERT_TRUE(join.is_equi_join);
  double out = est.JoinOutputRows(*query, join, 1000.0, 1'000'000.0);
  // NDV(c_custkey) = 15M at SF 100 -> tiny output per customer subset.
  EXPECT_GT(out, 0.0);
  EXPECT_LT(out, 1000.0 * 1'000'000.0 / 1'000'000.0);
}

TEST_F(PlanTest, RewriteForOutputErrors) {
  auto query = system_->Bind(
      "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment");
  ASSERT_TRUE(query.ok());
  OutputSlotMap slots;
  slots["c_mktsegment"] = 0;
  // COUNT(*) missing from the map -> error.
  auto rewritten = RewriteForOutput(*query->stmt.items[1].expr, slots);
  EXPECT_FALSE(rewritten.ok());
  slots["COUNT(*)"] = 1;
  rewritten = RewriteForOutput(*query->stmt.items[1].expr, slots);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ((*rewritten)->flat_slot, 1);
}

TEST_F(PlanTest, OutputNamesUseAliases) {
  auto query = system_->Bind(
      "SELECT c_mktsegment seg, COUNT(*) AS cnt FROM customer "
      "GROUP BY c_mktsegment");
  ASSERT_TRUE(query.ok());
  auto names = OutputNames(*query);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "seg");
  EXPECT_EQ(names[1], "cnt");
}

TEST_F(PlanTest, LatencyBreakdownSumsToTotal) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey");
  ASSERT_TRUE(query.ok());
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok());
  std::vector<NodeLatency> breakdown;
  double total = system_->LatencyMs(plans->tp, &breakdown);
  ASSERT_FALSE(breakdown.empty());
  // Root inclusive latency + startup == total.
  EXPECT_NEAR(breakdown[0].millis + system_->config().latency.tp_startup_ms,
              total, total * 1e-9);
  // Self-times are non-negative and no node's self exceeds the total.
  for (const NodeLatency& nl : breakdown) {
    EXPECT_GE(nl.self_millis, 0.0);
    EXPECT_LE(nl.self_millis, total);
  }
}

TEST_F(PlanTest, LatencyModelMonotoneInParallelism) {
  auto query = system_->Bind(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey");
  ASSERT_TRUE(query.ok());
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok());
  LatencyParams slow = system_->config().latency;
  slow.ap_parallelism = 1.0;
  LatencyParams fast = slow;
  fast.ap_parallelism = 16.0;
  EXPECT_GT(EstimateLatencyMs(plans->ap, slow),
            EstimateLatencyMs(plans->ap, fast));
  // TP is unaffected by AP parallelism.
  EXPECT_DOUBLE_EQ(EstimateLatencyMs(plans->tp, slow),
                   EstimateLatencyMs(plans->tp, fast));
}

TEST_F(PlanTest, StreamingLimitBeatsUnboundedScan) {
  auto small = system_->Bind(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5");
  auto big = system_->Bind(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 500000");
  ASSERT_TRUE(small.ok() && big.ok());
  auto small_plans = system_->PlanBoth(*small);
  auto big_plans = system_->PlanBoth(*big);
  ASSERT_TRUE(small_plans.ok() && big_plans.ok());
  EXPECT_LT(system_->LatencyMs(small_plans->tp) * 100,
            system_->LatencyMs(big_plans->tp));
}

TEST(PlanNodeTest, EngineAndOpNames) {
  EXPECT_STREQ(EngineName(EngineKind::kTp), "TP");
  EXPECT_STREQ(EngineName(EngineKind::kAp), "AP");
  EXPECT_STREQ(PlanOpName(PlanOp::kColumnScan), "Columnar scan");
  EXPECT_STREQ(PlanOpName(PlanOp::kGroupAggregate), "Group aggregate");
  EXPECT_STREQ(PlanOpName(PlanOp::kNestedLoopJoin), "Nested loop inner join");
}

}  // namespace
}  // namespace htapex
