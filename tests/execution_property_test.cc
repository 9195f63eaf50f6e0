// Property tests: for ANY generated workload query, the TP and AP engines —
// different optimizers, different join strategies, different storage — must
// produce identical results when really executed over loaded TPC-H data.
// This pins down that the plan trees the explainer reasons about have real
// semantics.
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "engine/htap_system.h"
#include "workload/query_generator.h"

namespace htapex {
namespace {

/// Runs the AP plan for `sql` through both AP executors (row-at-a-time
/// oracle vs vectorized morsel-driven) and asserts byte-identical
/// fingerprints and identical per-node ExecStats.
void ExpectRowVecParity(const HtapSystem& system, const std::string& sql) {
  auto query = system.Bind(sql);
  ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
  auto plans = system.PlanBoth(*query);
  ASSERT_TRUE(plans.ok()) << sql;
  ExecStats row_stats, vec_stats;
  auto row_res =
      system.ExecuteWithMode(ExecMode::kRow, plans->ap, *query, &row_stats);
  auto vec_res = system.ExecuteWithMode(ExecMode::kVectorized, plans->ap,
                                        *query, &vec_stats);
  ASSERT_TRUE(row_res.ok()) << sql << ": " << row_res.status();
  ASSERT_TRUE(vec_res.ok()) << sql << ": " << vec_res.status();
  EXPECT_EQ(row_res->Fingerprint(), vec_res->Fingerprint()) << sql;
  // Identical per-node EXPLAIN ANALYZE counts: same node set, same counts.
  EXPECT_EQ(row_stats.actual_rows.size(), vec_stats.actual_rows.size()) << sql;
  for (const auto& [node, rows] : row_stats.actual_rows) {
    auto it = vec_stats.actual_rows.find(node);
    ASSERT_NE(it, vec_stats.actual_rows.end())
        << sql << ": vectorized executor missing stats for "
        << PlanOpName(node->op);
    EXPECT_EQ(it->second, rows) << sql << " at " << PlanOpName(node->op);
  }
}

bool HasOp(const PlanNode& node, PlanOp op) {
  if (node.op == op) return true;
  for (const auto& c : node.children) {
    if (HasOp(*c, op)) return true;
  }
  return false;
}

/// A hash join whose build side itself contains a hash join — a shape only
/// the DP enumerator produces (greedy always builds on a base table).
bool HasBushyJoin(const PlanNode& node) {
  if (node.op == PlanOp::kHashJoin && node.children.size() == 2 &&
      HasOp(*node.children[1], PlanOp::kHashJoin)) {
    return true;
  }
  for (const auto& c : node.children) {
    if (HasBushyJoin(*c)) return true;
  }
  return false;
}

class ExecutionPropertyTest
    : public ::testing::TestWithParam<QueryPattern> {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    // Statistics at the small loaded scale too, so the generators produce
    // keys/offsets that exist in the physical data.
    config.stats_scale_factor = 0.02;
    config.data_scale_factor = 0.02;
    ASSERT_TRUE(system_->Init(config).ok());
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  static HtapSystem* system_;
};

HtapSystem* ExecutionPropertyTest::system_ = nullptr;

TEST_P(ExecutionPropertyTest, EnginesAgreeOnGeneratedQueries) {
  QueryGenerator gen(system_->config().stats_scale_factor,
                     0xabcd ^ static_cast<uint64_t>(GetParam()));
  int executed = 0;
  for (int i = 0; i < 8; ++i) {
    GeneratedQuery gq = gen.Generate(GetParam());
    auto outcome = system_->RunQuery(gq.sql);
    ASSERT_TRUE(outcome.ok()) << gq.sql << ": " << outcome.status();
    ASSERT_TRUE(outcome->tp_result.has_value());
    EXPECT_TRUE(outcome->results_match)
        << gq.sql << "\nTP rows: " << outcome->tp_result->rows.size()
        << " AP rows: " << outcome->ap_result->rows.size();
    ++executed;
  }
  EXPECT_EQ(executed, 8);
}

TEST_P(ExecutionPropertyTest, RowAndVectorizedExecutorsAgree) {
  // Differential property: randomized plans through both AP executors must
  // produce identical fingerprints AND identical per-node ExecStats.
  QueryGenerator gen(system_->config().stats_scale_factor,
                     0x7e57 ^ static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 8; ++i) {
    GeneratedQuery gq = gen.Generate(GetParam());
    ExpectRowVecParity(*system_, gq.sql);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, ExecutionPropertyTest,
    ::testing::ValuesIn(AllQueryPatterns()),
    [](const ::testing::TestParamInfo<QueryPattern>& info) {
      return QueryPatternName(info.param);
    });

using NonEmptyTest = ExecutionPropertyTest;

TEST_F(ExecutionPropertyTest, SiftedAndBushyPlansKeepRowVecParity) {
  // The parameterized differential above only exercises the PR-9 plan
  // shapes if the optimizer actually emits them. Assert that star/chain
  // joins really produce sifted scans and bushy trees at this scale, and
  // that parity holds on exactly those plans.
  QueryGenerator gen(system_->config().stats_scale_factor, 0x51f7);
  int sifted = 0, bushy = 0;
  for (int i = 0; i < 24; ++i) {
    GeneratedQuery gq = gen.Generate(QueryPattern::kJoinStarChain);
    auto query = system_->Bind(gq.sql);
    ASSERT_TRUE(query.ok()) << gq.sql;
    auto plans = system_->PlanBoth(*query);
    ASSERT_TRUE(plans.ok()) << gq.sql;
    bool has_sift = HasOp(*plans->ap.root, PlanOp::kSiftedScan);
    bool has_bushy = HasBushyJoin(*plans->ap.root);
    if (has_sift) ++sifted;
    if (has_bushy) ++bushy;
    if (has_sift || has_bushy) ExpectRowVecParity(*system_, gq.sql);
  }
  EXPECT_GT(sifted, 0) << "no star/chain query produced a sifted scan";
  EXPECT_GT(bushy, 0) << "no star/chain query produced a bushy join";
}

TEST_F(ExecutionPropertyTest, SelectedQueriesReturnExpectedShapes) {
  // A few queries with hand-checkable semantics at this scale.
  auto outcome = system_->RunQuery("SELECT COUNT(*) FROM customer");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 3000);  // 150k * 0.02

  outcome = system_->RunQuery(
      "SELECT COUNT(*) FROM customer, nation "
      "WHERE n_nationkey = c_nationkey");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->tp_result->rows[0][0].AsInt(), 3000);  // FK join total
  EXPECT_TRUE(outcome->results_match);

  outcome = system_->RunQuery(
      "SELECT n_regionkey, COUNT(*) FROM nation GROUP BY n_regionkey "
      "ORDER BY n_regionkey");
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->tp_result->rows.size(), 5u);
  for (const Row& row : outcome->tp_result->rows) {
    EXPECT_EQ(row[1].AsInt(), 5);  // 25 nations over 5 regions
  }
}

TEST_F(ExecutionPropertyTest, LimitOffsetWindowsAreConsistent) {
  // OFFSET windows taken from a deterministic order must tile the
  // full ordered output.
  auto all = system_->RunQuery(
      "SELECT n_nationkey FROM nation ORDER BY n_nationkey");
  ASSERT_TRUE(all.ok());
  std::vector<int64_t> keys;
  for (const Row& row : all->tp_result->rows) keys.push_back(row[0].AsInt());
  ASSERT_EQ(keys.size(), 25u);
  for (int offset = 0; offset < 25; offset += 7) {
    auto window = system_->RunQuery(
        StrFormat("SELECT n_nationkey FROM nation ORDER BY n_nationkey "
                  "LIMIT 7 OFFSET %d",
                  offset));
    ASSERT_TRUE(window.ok());
    EXPECT_TRUE(window->results_match);
    const auto& rows = window->tp_result->rows;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i][0].AsInt(), keys[static_cast<size_t>(offset) + i]);
    }
  }
}

TEST_F(ExecutionPropertyTest, AggregatesAreOrderInsensitive) {
  // SUM/AVG/MIN/MAX over the same filter must agree across engines even
  // though the engines visit rows in different orders.
  const char* sql =
      "SELECT COUNT(*), SUM(o_totalprice), AVG(o_totalprice), "
      "MIN(o_totalprice), MAX(o_totalprice) FROM orders "
      "WHERE o_orderstatus = 'f'";
  auto outcome = system_->RunQuery(sql);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->results_match);
  const Row& row = outcome->tp_result->rows[0];
  ASSERT_EQ(row.size(), 5u);
  double count = row[0].AsDouble();
  double sum = row[1].AsDouble();
  double avg = row[2].AsDouble();
  EXPECT_GT(count, 0);
  EXPECT_NEAR(avg, sum / count, 1e-6 * sum);
  EXPECT_LE(row[3].AsDouble(), avg);
  EXPECT_GE(row[4].AsDouble(), avg);
}

}  // namespace
}  // namespace htapex
