#include <gtest/gtest.h>

#include "ap/ap_optimizer.h"
#include "engine/htap_system.h"
#include "plan/cardinality.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace htapex {
namespace {

/// Unit tests pinning the two optimizers' structural decisions.
class OptimizerTest : public ::testing::Test {
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

  PlanPair Plans(const std::string& sql) {
    auto query = system_->Bind(sql);
    EXPECT_TRUE(query.ok()) << sql << ": " << query.status();
    auto plans = system_->PlanBoth(*query);
    EXPECT_TRUE(plans.ok()) << sql;
    return std::move(*plans);
  }

  static const PlanNode* Find(const PlanNode& node, PlanOp op) {
    if (node.op == op) return &node;
    for (const auto& c : node.children) {
      const PlanNode* f = Find(*c, op);
      if (f != nullptr) return f;
    }
    return nullptr;
  }

  static HtapSystem* system_;
};

HtapSystem* OptimizerTest::system_ = nullptr;

TEST_F(OptimizerTest, TpPrefersMostSelectiveIndex) {
  // Both o_orderkey (PK, NDV=600M) and o_custkey (FK, NDV=10M) have
  // indexes; the PK equality is far more selective and must win.
  PlanPair plans = Plans(
      "SELECT o_totalprice FROM orders WHERE o_orderkey = 77 "
      "AND o_custkey = 12345");
  const PlanNode* scan = Find(*plans.tp.root, PlanOp::kIndexScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->index_name, "pk_orders");
  // The other predicate becomes a residual filter.
  const PlanNode* filter = Find(*plans.tp.root, PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_NE(filter->predicates[0]->ToString().find("o_custkey"),
            std::string::npos);
}

TEST_F(OptimizerTest, TpSkipsIndexForUnselectivePredicate) {
  // o_orderstatus has NDV 3 (selectivity 1/3 > 0.15): a full scan beats
  // fetching a third of the table through the index.
  PlanPair plans =
      Plans("SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'");
  EXPECT_EQ(Find(*plans.tp.root, PlanOp::kIndexScan), nullptr);
  EXPECT_NE(Find(*plans.tp.root, PlanOp::kTableScan), nullptr);
}

TEST_F(OptimizerTest, TpJoinOrderStartsFromSmallestFilteredTable) {
  PlanPair plans = Plans(
      "SELECT COUNT(*) FROM customer, nation WHERE n_nationkey = c_nationkey "
      "AND n_name = 'egypt'");
  // Left-deep: the outer (first) leaf under the join chain is nation.
  const PlanNode* join = Find(*plans.tp.root, PlanOp::kIndexNestedLoopJoin);
  ASSERT_NE(join, nullptr);
  const PlanNode* outer = join->children[0].get();
  while (!outer->children.empty()) outer = outer->children[0].get();
  EXPECT_EQ(outer->relation, "nation");
}

TEST_F(OptimizerTest, TpNeverUsesHashOperators) {
  for (const char* sql :
       {"SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey",
        "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
        "SELECT o_orderkey FROM orders ORDER BY o_totalprice, o_orderkey "
        "LIMIT 5"}) {
    PlanPair plans = Plans(sql);
    EXPECT_EQ(Find(*plans.tp.root, PlanOp::kHashJoin), nullptr) << sql;
    EXPECT_EQ(Find(*plans.tp.root, PlanOp::kHashAggregate), nullptr) << sql;
    EXPECT_EQ(Find(*plans.tp.root, PlanOp::kColumnScan), nullptr) << sql;
    EXPECT_EQ(Find(*plans.tp.root, PlanOp::kTopN), nullptr) << sql;
  }
}

TEST_F(OptimizerTest, ApNeverUsesRowStoreOperators) {
  for (const char* sql :
       {"SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey",
        "SELECT c_name FROM customer WHERE c_custkey = 42",
        "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5"}) {
    PlanPair plans = Plans(sql);
    EXPECT_EQ(Find(*plans.ap.root, PlanOp::kIndexScan), nullptr) << sql;
    EXPECT_EQ(Find(*plans.ap.root, PlanOp::kTableScan), nullptr) << sql;
    EXPECT_EQ(Find(*plans.ap.root, PlanOp::kNestedLoopJoin), nullptr) << sql;
    EXPECT_EQ(Find(*plans.ap.root, PlanOp::kIndexNestedLoopJoin), nullptr)
        << sql;
    EXPECT_EQ(Find(*plans.ap.root, PlanOp::kGroupAggregate), nullptr) << sql;
  }
}

TEST_F(OptimizerTest, ApProbeSideIsTheLargerInput) {
  PlanPair plans = Plans(
      "SELECT COUNT(*) FROM customer, nation WHERE n_nationkey = c_nationkey");
  const PlanNode* join = Find(*plans.ap.root, PlanOp::kHashJoin);
  ASSERT_NE(join, nullptr);
  // probe = children[0] (customer, 15M), build = children[1] (nation, 25).
  const PlanNode* probe = join->children[0].get();
  const PlanNode* build = join->children[1].get();
  EXPECT_EQ(probe->relation, "customer");
  EXPECT_EQ(build->relation, "nation");
  EXPECT_GT(probe->estimated_rows, build->estimated_rows);
}

TEST_F(OptimizerTest, ApScanReadsOnlyReferencedColumns) {
  PlanPair plans = Plans(
      "SELECT c_name FROM customer WHERE c_mktsegment = 'machinery'");
  const PlanNode* scan = Find(*plans.ap.root, PlanOp::kColumnScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->columns_read.size(), 2u);  // c_name + c_mktsegment
}

TEST_F(OptimizerTest, ResidualJoinPredicateLandsOnJoin) {
  // Second equi-join between the same pair becomes a join-level filter.
  PlanPair plans = Plans(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_orderkey = c_custkey");
  const PlanNode* tp_join = Find(*plans.tp.root, PlanOp::kIndexNestedLoopJoin);
  if (tp_join == nullptr) tp_join = Find(*plans.tp.root, PlanOp::kNestedLoopJoin);
  ASSERT_NE(tp_join, nullptr);
  EXPECT_FALSE(tp_join->predicates.empty());
  const PlanNode* ap_join = Find(*plans.ap.root, PlanOp::kHashJoin);
  ASSERT_NE(ap_join, nullptr);
  EXPECT_FALSE(ap_join->predicates.empty());
}

TEST_F(OptimizerTest, DisconnectedTablesCrossJoin) {
  PlanPair plans = Plans("SELECT COUNT(*) FROM nation, region");
  // No join predicate: both engines still produce a (cross) join plan.
  bool tp_has_join =
      Find(*plans.tp.root, PlanOp::kNestedLoopJoin) != nullptr ||
      Find(*plans.tp.root, PlanOp::kIndexNestedLoopJoin) != nullptr;
  EXPECT_TRUE(tp_has_join);
  const PlanNode* ap_join = Find(*plans.ap.root, PlanOp::kHashJoin);
  ASSERT_NE(ap_join, nullptr);
  EXPECT_EQ(ap_join->left_key, nullptr);
  EXPECT_NEAR(ap_join->estimated_rows, 125.0, 1.0);  // 25 x 5
}

TEST_F(OptimizerTest, CostsGrowWithInputSize) {
  PlanPair small = Plans("SELECT COUNT(*) FROM nation");
  PlanPair large = Plans("SELECT COUNT(*) FROM orders");
  EXPECT_LT(small.tp.root->total_cost, large.tp.root->total_cost);
  EXPECT_LT(small.ap.root->total_cost, large.ap.root->total_cost);
}

// Regression: with two equi conjuncts between the same table pair, the
// hash key must be the conjunct with the highest combined NDV (the most
// selective one), not whichever was written first. Here the first-written
// conjunct keys on o_custkey/c_custkey (NDV 15M) and the second on
// o_orderkey/c_custkey (NDV 150M); the second must win.
TEST_F(OptimizerTest, ApHashKeyPicksMostSelectiveConjunct) {
  PlanPair plans = Plans(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_orderkey = c_custkey");
  const PlanNode* join = Find(*plans.ap.root, PlanOp::kHashJoin);
  ASSERT_NE(join, nullptr);
  ASSERT_NE(join->left_key, nullptr);
  std::string keys =
      join->left_key->ToString() + " " + join->right_key->ToString();
  EXPECT_NE(keys.find("o_orderkey"), std::string::npos) << keys;
  // The weaker equi conjunct survives as a join-level predicate.
  EXPECT_FALSE(join->predicates.empty());
  // Regression: that extra conjunct's selectivity (1/15M) must land in the
  // join's estimate, collapsing it to ~1 row instead of ~15M.
  EXPECT_LT(join->estimated_rows, 100.0);
}

// Regression: residual (non-equi, multi-table) predicates attached to the
// join must scale its output estimate by the default selectivity.
TEST_F(OptimizerTest, ApJoinEstimateAppliesResidualSelectivity) {
  PlanPair base = Plans(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey");
  PlanPair filtered = Plans(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_totalprice > c_acctbal");
  const PlanNode* base_join = Find(*base.ap.root, PlanOp::kHashJoin);
  const PlanNode* filt_join = Find(*filtered.ap.root, PlanOp::kHashJoin);
  ASSERT_NE(base_join, nullptr);
  ASSERT_NE(filt_join, nullptr);
  EXPECT_FALSE(filt_join->predicates.empty());
  EXPECT_NEAR(filt_join->estimated_rows,
              base_join->estimated_rows * CardinalityEstimator::kDefaultSelectivity,
              base_join->estimated_rows * 0.01);
}

// The DP enumerator's modeled cost can never exceed greedy's: greedy's
// tree is inside DP's search space and subset cardinalities are
// order-invariant.
TEST_F(OptimizerTest, ApDpNeverCostlierThanGreedy) {
  ApCostParams dp_params;
  dp_params.sift.enabled = false;
  ApCostParams greedy_params = dp_params;
  greedy_params.enable_dp = false;
  ApOptimizer dp_opt(system_->catalog(), dp_params);
  ApOptimizer greedy_opt(system_->catalog(), greedy_params);
  for (const char* sql :
       {"SELECT COUNT(*) FROM lineitem, orders, part, supplier WHERE "
        "l_orderkey = o_orderkey AND l_partkey = p_partkey AND "
        "l_suppkey = s_suppkey AND p_size = 10 AND s_acctbal > 8000",
        "SELECT COUNT(*) FROM region, nation, customer, orders WHERE "
        "r_regionkey = n_regionkey AND n_nationkey = c_nationkey AND "
        "c_custkey = o_custkey AND r_name = 'asia'",
        "SELECT COUNT(*) FROM customer, nation, orders WHERE o_custkey = "
        "c_custkey AND n_nationkey = c_nationkey AND n_name = 'egypt'"}) {
    auto query = system_->Bind(sql);
    ASSERT_TRUE(query.ok()) << sql;
    auto dp_plan = dp_opt.Plan(*query);
    auto greedy_plan = greedy_opt.Plan(*query);
    ASSERT_TRUE(dp_plan.ok() && greedy_plan.ok()) << sql;
    EXPECT_LE(dp_plan->root->total_cost,
              greedy_plan->root->total_cost * (1.0 + 1e-9))
        << sql;
  }
}

// Golden plan shape: on a selective chain the DP enumerator assembles the
// two tiny dimension tables into a build subtree (a bushy join) instead of
// greedy's left-deep order, and the probe spine bottoms out in the large
// fact scan — which predicate transfer then turns into a sifted scan.
TEST_F(OptimizerTest, ApDpBuildsBushyPlanForSelectiveChain) {
  PlanPair plans = Plans(
      "SELECT COUNT(*) FROM region, nation, customer WHERE r_regionkey = "
      "n_regionkey AND n_nationkey = c_nationkey AND r_name = 'asia'");
  const PlanNode* top = Find(*plans.ap.root, PlanOp::kHashJoin);
  ASSERT_NE(top, nullptr);
  // Build side contains its own hash join over nation and region.
  const PlanNode* build_join = Find(*top->children[1], PlanOp::kHashJoin);
  ASSERT_NE(build_join, nullptr);
  // Probe spine bottoms out in the (sifted) customer scan.
  const PlanNode* bottom = top->children[0].get();
  while (!bottom->children.empty()) bottom = bottom->children[0].get();
  EXPECT_EQ(bottom->relation, "customer");
  EXPECT_EQ(bottom->op, PlanOp::kSiftedScan);
}

// Sift plan shape: a selective dimension join transfers a Bloom filter
// onto the probe scan, records its expected FP rate and selectivity, and
// scales the scan's output estimate down.
TEST_F(OptimizerTest, ApSiftedScanShapeAndScaling) {
  PlanPair plans = Plans(
      "SELECT COUNT(*) FROM customer, nation WHERE n_nationkey = c_nationkey "
      "AND n_name = 'egypt'");
  const PlanNode* scan = Find(*plans.ap.root, PlanOp::kSiftedScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->sift_probes.size(), 1u);
  const SiftProbe& probe = scan->sift_probes[0];
  EXPECT_GE(probe.sift_id, 0);
  EXPECT_GT(probe.expected_fp_rate, 0.0);
  EXPECT_LT(probe.expected_fp_rate, 0.05);
  EXPECT_LE(probe.expected_selectivity, 0.5);
  const PlanNode* join = Find(*plans.ap.root, PlanOp::kHashJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->sift_id, probe.sift_id);
  // The scan's estimate shrinks to the modeled pass-through fraction.
  EXPECT_LT(scan->estimated_rows, 0.5 * scan->base_rows);
  // The sift surfaces in the EXPLAIN output.
  std::string json = plans.ap.Explain();
  EXPECT_NE(json.find("Sifted columnar scan"), std::string::npos);
  EXPECT_NE(json.find("Sift Id"), std::string::npos);
}

// No sift when the build side is too large to be worth a filter.
TEST_F(OptimizerTest, ApNoSiftForLargeBuildSide) {
  PlanPair plans = Plans(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey");
  EXPECT_EQ(Find(*plans.ap.root, PlanOp::kSiftedScan), nullptr);
}

/// `SELECT COUNT(*)` over a chain of `n` nation aliases, each joined to
/// the previous one on n_nationkey.
std::string NationChain(int n) {
  std::string sql = "SELECT COUNT(*) FROM nation n0";
  for (int k = 1; k < n; ++k) {
    sql += " JOIN nation n" + std::to_string(k) + " ON n" + std::to_string(k) +
           ".n_nationkey = n" + std::to_string(k - 1) + ".n_nationkey";
  }
  return sql;
}

// One table past the DP limit the optimizer falls back to greedy and
// still produces a valid (left-deep) plan.
TEST_F(OptimizerTest, ApGreedyFallbackAboveDpThreshold) {
  PlanPair plans = Plans(NationChain(kApDpMaxTables + 1));
  // Greedy is left-deep: no hash join on any build side of the spine.
  int joins = 0;
  for (const PlanNode* join = plans.ap.root.get();
       join != nullptr && !join->children.empty();
       join = join->children[0].get()) {
    if (join->op != PlanOp::kHashJoin) continue;
    ++joins;
    EXPECT_EQ(Find(*join->children[1], PlanOp::kHashJoin), nullptr);
  }
  EXPECT_EQ(joins, kApDpMaxTables);
}

// Regression: a residual predicate puts a Filter over TP's selective index
// probe, and the top-N-by-index rule used to mistake that for a full scan
// and swap it for an ordered scan of the whole ORDER BY index (150M rows of
// pk_orders here, modelled at ~435 s). The probe must stay.
TEST_F(OptimizerTest, TpTopNKeepsSelectiveIndexUnderResidualFilter) {
  struct Case {
    const char* sql;
    const char* index;
    const char* predicate_column;
  };
  for (const Case& c :
       {Case{"SELECT o_orderkey FROM orders WHERE o_custkey = 5 AND "
             "o_totalprice > 100 ORDER BY o_orderkey LIMIT 10",
             "fk_orders_o_custkey", "o_custkey"},
        Case{"SELECT c_name FROM customer WHERE c_custkey = 42 AND "
             "c_acctbal > 0 ORDER BY c_custkey LIMIT 5",
             "pk_customer", "c_custkey"}}) {
    PlanPair plans = Plans(c.sql);
    const PlanNode* scan = Find(*plans.tp.root, PlanOp::kIndexScan);
    ASSERT_NE(scan, nullptr) << c.sql;
    EXPECT_EQ(scan->index_name, c.index) << c.sql;
    ASSERT_EQ(scan->predicates.size(), 1u) << c.sql;
    EXPECT_NE(scan->predicates[0]->ToString().find(c.predicate_column),
              std::string::npos)
        << c.sql;
    EXPECT_LT(scan->estimated_rows, 100.0) << c.sql;
    EXPECT_LT(system_->LatencyMs(plans.tp), 1.0) << c.sql;
  }
}

// Predicate transfer shrinks the sifted scan and the probe-spine joins
// strictly below each producer; the producer's own output and everything
// above it keep their sift-off estimates. The greedy order keeps the same
// tree with and without sifting, so the spines line up node for node.
TEST_F(OptimizerTest, ApSiftScalesOnlyBelowTheProducer) {
  ApCostParams on;
  on.enable_dp = false;
  ApCostParams off = on;
  off.sift.enabled = false;
  ApOptimizer sift_on(system_->catalog(), on);
  ApOptimizer sift_off(system_->catalog(), off);
  int producers = 0;
  int joins_below = 0;
  for (const char* sql :
       {"SELECT COUNT(*) FROM customer, nation, region WHERE n_nationkey = "
        "c_nationkey AND n_name = 'egypt'",
        "SELECT COUNT(*) FROM lineitem, part, supplier, orders WHERE "
        "l_partkey = p_partkey AND l_suppkey = s_suppkey AND l_orderkey = "
        "o_orderkey AND p_size = 10 AND s_acctbal > 8000"}) {
    auto query = system_->Bind(sql);
    ASSERT_TRUE(query.ok()) << sql;
    auto a = sift_on.Plan(*query);
    auto b = sift_off.Plan(*query);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    bool below = false;
    const PlanNode* x = a->root.get();
    const PlanNode* y = b->root.get();
    for (; x != nullptr && y != nullptr;
         x = x->children.empty() ? nullptr : x->children[0].get(),
         y = y->children.empty() ? nullptr : y->children[0].get()) {
      if (below) {
        EXPECT_LT(x->estimated_rows, y->estimated_rows)
            << sql << ": " << PlanOpName(x->op);
        if (x->op == PlanOp::kHashJoin) ++joins_below;
      } else {
        EXPECT_DOUBLE_EQ(x->estimated_rows, y->estimated_rows)
            << sql << ": " << PlanOpName(x->op);
      }
      if (x->sift_id >= 0) {
        below = true;
        ++producers;
      }
    }
    EXPECT_EQ(x, nullptr) << sql;
    EXPECT_EQ(y, nullptr) << sql;
    EXPECT_TRUE(below) << sql << ": no sift applied";
  }
  EXPECT_EQ(producers, 3);
  EXPECT_GE(joins_below, 1);
}

// A statement at the table cap binds and plans on both engines; the AP
// side takes the greedy order (well past the DP limit).
TEST_F(OptimizerTest, TableCapChainPlansOnBothEngines) {
  PlanPair plans = Plans(NationChain(kMaxStatementTables));
  ASSERT_NE(plans.tp.root, nullptr);
  ASSERT_NE(plans.ap.root, nullptr);
  auto count_scans = [](const PlanNode& n, auto&& self) -> int {
    int scans = n.relation.empty() ? 0 : 1;
    for (const auto& c : n.children) scans += self(*c, self);
    return scans;
  };
  EXPECT_EQ(count_scans(*plans.tp.root, count_scans), kMaxStatementTables);
  EXPECT_EQ(count_scans(*plans.ap.root, count_scans), kMaxStatementTables);
}

// The no-stats NDV fallback is one shared constant: an equality predicate
// on a statistics-less column and a join on that same column must both
// assume kNoStatsNdv distinct values (historically the join assumed 1.0,
// claiming zero reduction).
TEST(CardinalityFallbackTest, NoStatsNdvUnified) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema(
                      "t", {{"a", DataType::kInt}, {"b", DataType::kInt}},
                      {"a"}))
                  .ok());
  auto query = ParseAndBind(catalog, "SELECT COUNT(*) FROM t WHERE a = 5");
  ASSERT_TRUE(query.ok()) << query.status();
  CardinalityEstimator est(catalog);
  ASSERT_EQ(query->conjuncts.size(), 1u);
  EXPECT_NEAR(est.ConjunctSelectivity(*query, query->conjuncts[0]),
              1.0 / CardinalityEstimator::kNoStatsNdv, 1e-12);
  const Expr* col = query->conjuncts[0].sarg_column;
  ASSERT_NE(col, nullptr);
  EXPECT_NEAR(est.ColumnNdv(*query, *col), CardinalityEstimator::kNoStatsNdv,
              1e-12);
  // JoinOutputRows on the same column now divides by the same guess.
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema(
                      "u", {{"x", DataType::kInt}, {"y", DataType::kInt}},
                      {"x"}))
                  .ok());
  auto join_query =
      ParseAndBind(catalog, "SELECT COUNT(*) FROM t, u WHERE a = x");
  ASSERT_TRUE(join_query.ok()) << join_query.status();
  ASSERT_EQ(join_query->conjuncts.size(), 1u);
  EXPECT_NEAR(est.JoinOutputRows(*join_query, join_query->conjuncts[0], 1000.0,
                                 1000.0),
              1000.0 * 1000.0 / CardinalityEstimator::kNoStatsNdv, 1e-6);
}

}  // namespace
}  // namespace htapex
