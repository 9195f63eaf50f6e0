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

/// Asserts that two runs of one plan recorded the same per-node
/// statistics: same node set, same counts, same stopped set.
void ExpectSameStats(const ExecStats& want, const ExecStats& got,
                     const std::string& what) {
  EXPECT_EQ(want.actual_rows.size(), got.actual_rows.size()) << what;
  for (const auto& [node, rows] : want.actual_rows) {
    auto it = got.actual_rows.find(node);
    ASSERT_NE(it, got.actual_rows.end())
        << what << ": missing stats for " << PlanOpName(node->op);
    EXPECT_EQ(it->second, rows) << what << " at " << PlanOpName(node->op);
  }
  EXPECT_EQ(want.stopped, got.stopped) << what;
}

/// Runs the AP plan for `sql` through both AP executors (row-at-a-time
/// oracle vs vectorized morsel-driven, at 1 and 3 workers) and asserts
/// byte-identical fingerprints and identical per-node ExecStats.
void ExpectRowVecParity(const HtapSystem& system, const std::string& sql) {
  auto query = system.Bind(sql);
  ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
  auto plans = system.PlanBoth(*query);
  ASSERT_TRUE(plans.ok()) << sql;
  ExecStats row_stats;
  auto row_res =
      system.ExecuteWithMode(ExecMode::kRow, plans->ap, *query, &row_stats);
  ASSERT_TRUE(row_res.ok()) << sql << ": " << row_res.status();
  for (int workers : {1, 3}) {
    system.vec_executor()->set_num_workers(workers);
    ExecStats vec_stats;
    auto vec_res = system.ExecuteWithMode(ExecMode::kVectorized, plans->ap,
                                          *query, &vec_stats);
    system.vec_executor()->set_num_workers(system.config().vec_workers);
    const std::string what = sql + " @" + std::to_string(workers);
    ASSERT_TRUE(vec_res.ok()) << what << ": " << vec_res.status();
    EXPECT_EQ(row_res->Fingerprint(), vec_res->Fingerprint()) << what;
    ExpectSameStats(row_stats, vec_stats, what);
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

/// One statement's results and statistics on TP, row-executed AP and
/// vectorized AP at 1 and 3 workers.
struct EngineRuns {
  PlanPair plans;
  QueryResultSet tp, row, vec1, vec3;
  ExecStats tp_stats, row_stats, vec1_stats, vec3_stats;
};

void RunEverywhere(const HtapSystem& system, const std::string& sql,
                   EngineRuns* runs) {
  auto query = system.Bind(sql);
  ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
  auto plans = system.PlanBoth(*query);
  ASSERT_TRUE(plans.ok()) << sql << ": " << plans.status();
  auto tp = system.Execute(plans->tp, *query, &runs->tp_stats);
  ASSERT_TRUE(tp.ok()) << sql << ": " << tp.status();
  auto row = system.ExecuteWithMode(ExecMode::kRow, plans->ap, *query,
                                    &runs->row_stats);
  ASSERT_TRUE(row.ok()) << sql << ": " << row.status();
  system.vec_executor()->set_num_workers(1);
  auto vec1 = system.ExecuteWithMode(ExecMode::kVectorized, plans->ap, *query,
                                     &runs->vec1_stats);
  system.vec_executor()->set_num_workers(3);
  auto vec3 = system.ExecuteWithMode(ExecMode::kVectorized, plans->ap, *query,
                                     &runs->vec3_stats);
  system.vec_executor()->set_num_workers(system.config().vec_workers);
  ASSERT_TRUE(vec1.ok()) << sql << ": " << vec1.status();
  ASSERT_TRUE(vec3.ok()) << sql << ": " << vec3.status();
  runs->plans = std::move(*plans);
  runs->tp = std::move(*tp);
  runs->row = std::move(*row);
  runs->vec1 = std::move(*vec1);
  runs->vec3 = std::move(*vec3);
}

/// A result's rows as fingerprint lines, in result order.
std::vector<std::string> RowLines(const QueryResultSet& result) {
  std::vector<std::string> lines;
  for (const Row& row : result.rows) {
    lines.push_back(QueryResultSet{{}, {row}}.Fingerprint());
  }
  return lines;
}

/// Rows [offset, offset + limit) of `full`.
std::vector<std::string> Slice(const std::vector<std::string>& full,
                               size_t offset, size_t limit) {
  std::vector<std::string> out;
  for (size_t i = offset; i < full.size() && out.size() < limit; ++i) {
    out.push_back(full[i]);
  }
  return out;
}

const PlanNode* FindNode(const PlanNode& root, PlanOp op) {
  if (root.op == op) return &root;
  for (const auto& c : root.children) {
    if (const PlanNode* found = FindNode(*c, op)) return found;
  }
  return nullptr;
}

TEST_F(ExecutionPropertyTest, LimitOffsetWindowsAreConsistent) {
  // Every window of every base query, on every engine and executor: it is
  // the slice of that engine's full result, the row-executed and
  // vectorized AP plans (1 and 3 workers) agree on rows and on per-node
  // ExecStats, stopped set included, and TP agrees with AP wherever the
  // order is deterministic. The unordered joins are the exception: TP's
  // index nested loop and AP's hash join emit the join in different
  // orders, so their windows may hold different rows of the same join.
  struct Base {
    const char* sql;
    bool engines_share_order;
  };
  const Base bases[] = {
      // Index order: TP plans Limit over an ordered Index Scan.
      {"SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey",
       true},
      {"SELECT c_custkey, c_name FROM customer ORDER BY c_custkey DESC",
       true},
      // Unindexed order: a full Sort on TP, Top-N on AP, also over a join
      // (AP's Top-N sink then reads its sort keys from both sides).
      {"SELECT o_orderkey, o_totalprice FROM orders "
       "ORDER BY o_totalprice, o_orderkey",
       true},
      {"SELECT c_name, o_orderkey FROM customer, orders "
       "WHERE o_custkey = c_custkey ORDER BY c_acctbal DESC, o_orderkey",
       true},
      // No ORDER BY over one table: both engines scan in storage order.
      {"SELECT o_orderkey, o_custkey FROM orders WHERE o_totalprice > 50000",
       true},
      {"SELECT c_custkey, c_acctbal FROM customer", true},
      // No ORDER BY over joins: TP's index nested-loop join, AP's
      // hash-join pipeline (two and three tables, one with a residual).
      {"SELECT c_name, o_orderkey FROM customer, orders "
       "WHERE o_custkey = c_custkey",
       false},
      {"SELECT n_name, c_custkey, o_orderkey FROM nation, customer, orders "
       "WHERE c_nationkey = n_nationkey AND o_custkey = c_custkey "
       "AND o_totalprice > c_acctbal",
       false},
  };
  // (limit, offset): small windows, a window across the end, LIMIT 0, an
  // OFFSET past the end, and a LIMIT larger than the input.
  const std::pair<int64_t, int64_t> windows[] = {
      {36, 0}, {15, 3475}, {7, 2995}, {20, 29990}, {0, 0},
      {10, 100000}, {1000000, 0}};
  for (const Base& base : bases) {
    EngineRuns full;
    ASSERT_NO_FATAL_FAILURE(RunEverywhere(*system_, base.sql, &full));
    const auto tp_full = RowLines(full.tp);
    const auto ap_full = RowLines(full.row);
    ASSERT_EQ(RowLines(full.vec1), ap_full) << base.sql;
    ASSERT_EQ(RowLines(full.vec3), ap_full) << base.sql;
    ASSERT_EQ(full.tp.Fingerprint(), full.row.Fingerprint()) << base.sql;
    for (const auto& [limit, offset] : windows) {
      const std::string sql = StrFormat("%s LIMIT %lld OFFSET %lld", base.sql,
                                        static_cast<long long>(limit),
                                        static_cast<long long>(offset));
      EngineRuns w;
      ASSERT_NO_FATAL_FAILURE(RunEverywhere(*system_, sql, &w));
      const auto want_tp = Slice(tp_full, static_cast<size_t>(offset),
                                 static_cast<size_t>(limit));
      const auto want_ap = Slice(ap_full, static_cast<size_t>(offset),
                                 static_cast<size_t>(limit));
      EXPECT_EQ(RowLines(w.tp), want_tp) << sql;
      EXPECT_EQ(RowLines(w.row), want_ap) << sql;
      EXPECT_EQ(RowLines(w.vec1), want_ap) << sql;
      EXPECT_EQ(RowLines(w.vec3), want_ap) << sql;
      if (base.engines_share_order) {
        EXPECT_EQ(w.tp.Fingerprint(), w.row.Fingerprint()) << sql;
      }
      ExpectSameStats(w.row_stats, w.vec1_stats, sql + " @1");
      ExpectSameStats(w.row_stats, w.vec3_stats, sql + " @3");
    }
  }
}

TEST_F(ExecutionPropertyTest, LimitStopsItsInput) {
  // TP streams the index in order and stops: the Index Scan under the
  // Limit pushes offset + limit rows, and records that it was stopped.
  for (const auto& [sql, want] :
       std::vector<std::pair<std::string, size_t>>{
           {"SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey "
            "LIMIT 36",
            36},
           {"SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey "
            "LIMIT 15 OFFSET 3475",
            3490}}) {
    EngineRuns runs;
    ASSERT_NO_FATAL_FAILURE(RunEverywhere(*system_, sql, &runs));
    const PlanNode* scan = FindNode(*runs.plans.tp.root, PlanOp::kIndexScan);
    ASSERT_NE(scan, nullptr) << runs.plans.tp.Explain();
    ASSERT_EQ(runs.tp_stats.actual_rows.count(scan), 1u) << sql;
    EXPECT_EQ(runs.tp_stats.actual_rows.at(scan), want) << sql;
    EXPECT_EQ(runs.tp_stats.stopped.count(scan), 1u) << sql;
    EXPECT_EQ(runs.tp.rows.size(), want == 36 ? 36u : 15u) << sql;
  }
  // An AP LIMIT without ORDER BY reads offset + limit rows of the column
  // scan, at any worker count.
  const std::string sql =
      "SELECT o_orderkey, o_totalprice FROM orders LIMIT 10 OFFSET 5000";
  EngineRuns runs;
  ASSERT_NO_FATAL_FAILURE(RunEverywhere(*system_, sql, &runs));
  const PlanNode* scan = FindNode(*runs.plans.ap.root, PlanOp::kColumnScan);
  ASSERT_NE(scan, nullptr) << runs.plans.ap.Explain();
  for (const ExecStats* stats :
       {&runs.row_stats, &runs.vec1_stats, &runs.vec3_stats}) {
    ASSERT_EQ(stats->actual_rows.count(scan), 1u);
    EXPECT_EQ(stats->actual_rows.at(scan), 5010u);
    EXPECT_EQ(stats->stopped.count(scan), 1u);
  }
  // A Limit whose window the input does not fill stops nothing.
  EngineRuns all;
  ASSERT_NO_FATAL_FAILURE(RunEverywhere(
      *system_, "SELECT n_name FROM nation ORDER BY n_nationkey LIMIT 30",
      &all));
  EXPECT_EQ(all.tp.rows.size(), 25u);
  EXPECT_TRUE(all.tp_stats.stopped.empty());
  EXPECT_TRUE(all.row_stats.stopped.empty());
}

TEST_F(ExecutionPropertyTest, EvaluationErrorsSurviveALimit) {
  // An expression that fails on a row the input reaches before the window
  // is full fails the query on every engine and executor: a LIMIT 0 window
  // still runs its input up to the first row, a Top-N with limit 0 still
  // reads its input, and a failing row between the window's first and last
  // row fails it too (OR evaluates LIKE only from c_custkey 3, or order key
  // 5, on).
  for (const char* sql :
       {"SELECT c_name FROM customer WHERE c_name LIKE 5 LIMIT 3",
        "SELECT c_name FROM customer WHERE c_name LIKE 5 LIMIT 0",
        "SELECT c_name FROM customer WHERE LOWER(c_acctbal) = 'x' "
        "ORDER BY c_custkey LIMIT 0",
        "SELECT UPPER(c_custkey) FROM customer LIMIT 5",
        "SELECT c_custkey FROM customer, orders WHERE o_custkey = c_custkey "
        "AND UPPER(o_totalprice) = 'x' LIMIT 3",
        "SELECT c_name FROM customer WHERE c_custkey < 3 OR c_name LIKE 5 "
        "LIMIT 3",
        "SELECT c_custkey FROM customer, orders WHERE o_custkey = c_custkey "
        "AND (o_orderkey < 5 OR c_name LIKE 5) LIMIT 10"}) {
    auto query = system_->Bind(sql);
    ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
    auto plans = system_->PlanBoth(*query);
    ASSERT_TRUE(plans.ok()) << sql;
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
  // Rows past a full window are never evaluated, so the failing rows that
  // follow the window's last row in its own morsel (c_custkey 10 on, order
  // keys from 100 on) fail nothing: at the scan on every engine, and in a
  // join residual and a computed hash-join probe key on both AP executors,
  // at 1 and 3 workers alike.
  EngineRuns scan;
  ASSERT_NO_FATAL_FAILURE(RunEverywhere(
      *system_,
      "SELECT c_name FROM customer WHERE c_custkey < 10 OR c_name LIKE 5 "
      "LIMIT 3",
      &scan));
  for (const QueryResultSet* r : {&scan.tp, &scan.row, &scan.vec1, &scan.vec3}) {
    EXPECT_EQ(RowLines(*r), RowLines(scan.tp));
    EXPECT_EQ(r->rows.size(), 3u);
  }
  ExpectSameStats(scan.row_stats, scan.vec1_stats, "scan @1");
  ExpectSameStats(scan.row_stats, scan.vec3_stats, "scan @3");
  ExpectRowVecParity(*system_,
                     "SELECT c_custkey, o_orderkey FROM customer, orders "
                     "WHERE o_custkey = c_custkey "
                     "AND (o_orderkey < 100 OR c_name LIKE 5) LIMIT 3");
  ExpectRowVecParity(*system_,
                     "SELECT c_custkey, o_orderkey FROM customer, orders "
                     "WHERE c_custkey = (o_orderkey < 100 OR o_comment LIKE 5) "
                     "LIMIT 3");
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
