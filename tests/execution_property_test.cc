// Property tests: for ANY generated workload query, the TP and AP engines —
// different optimizers, different join strategies, different storage — must
// produce identical results when really executed over loaded TPC-H data.
// This pins down that the plan trees the explainer reasons about have real
// semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
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
  // keys from 100 on) fail nothing: at the scan on every engine, and on
  // both AP executors in the residual of an equi-join and in the residual
  // of a keyless join (`column = expression` is no hash key), at 1 and 3
  // workers alike.
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

/// Runs `sql` everywhere into `runs` and checks that each engine's and
/// executor's result equals the vectorized AP executor's (whose scans fill
/// every column they read), in order when `ordered`, and holds `rows` rows.
void ExpectSameRows(const HtapSystem& system, const std::string& sql,
                    size_t rows, bool ordered, EngineRuns* runs) {
  ASSERT_NO_FATAL_FAILURE(RunEverywhere(system, sql, runs));
  for (const QueryResultSet* r : {&runs->tp, &runs->row, &runs->vec3}) {
    EXPECT_EQ(r->Fingerprint(), runs->vec1.Fingerprint()) << sql;
    if (ordered) {
      EXPECT_EQ(RowLines(*r), RowLines(runs->vec1)) << sql;
    }
  }
  EXPECT_EQ(runs->vec1.rows.size(), rows) << sql;
}

TEST_F(ExecutionPropertyTest, ScansCopyEveryColumnAnExpressionReads) {
  // The row executor's scans copy only the plan's read set, the slots some
  // expression reads. Each query reads a column at one expression site and
  // nowhere else, so a site the read set missed would leave that column
  // NULL and change the result. The counts and values were read off the
  // executor before scans had a read set.
  struct Site {
    const char* sql;
    size_t rows;
    const char* fingerprint;  // checked when not null
    PlanOp tp_op;             // the TP plan holds one
  };
  const Site sites[] = {
      // A Filter on an unprojected column, and an Index Scan's condition.
      {"SELECT c_name FROM customer WHERE c_acctbal > 9000", 264, nullptr,
       PlanOp::kFilter},
      {"SELECT c_name FROM customer WHERE c_custkey < 100", 99, nullptr,
       PlanOp::kIndexScan},
      // An index nested-loop join: its outer key (c_custkey), the Filter
      // over its inner Index Scan (o_totalprice), and a residual reading
      // both tables (o_totalprice, c_acctbal).
      {"SELECT o_orderkey FROM customer, orders "
       "WHERE o_custkey = c_custkey AND c_acctbal > 9000",
       2793, nullptr, PlanOp::kIndexNestedLoopJoin},
      {"SELECT c_name FROM customer, orders WHERE o_custkey = c_custkey "
       "AND c_acctbal > 9000 AND o_totalprice > 400000",
       760, nullptr, PlanOp::kIndexNestedLoopJoin},
      {"SELECT c_name FROM customer, orders WHERE o_custkey = c_custkey "
       "AND c_nationkey = 3 AND o_totalprice > c_acctbal * 30",
       733, nullptr, PlanOp::kIndexNestedLoopJoin},
      // ORDER BY and GROUP BY on unselected columns.
      {"SELECT c_name FROM customer ORDER BY c_acctbal LIMIT 3", 3,
       "customer#000000960\ncustomer#000001011\ncustomer#000002581",
       PlanOp::kSort},
      {"SELECT COUNT(*) FROM customer GROUP BY c_mktsegment", 5,
       "581\n592\n597\n611\n619", PlanOp::kGroupAggregate},
      // Aggregate arguments, an aggregate only HAVING reads, and a computed
      // projection.
      {"SELECT COUNT(c_comment), MAX(c_acctbal) FROM customer", 1,
       "3000|9993.07", PlanOp::kGroupAggregate},
      {"SELECT c_nationkey, COUNT(*) FROM customer GROUP BY c_nationkey "
       "HAVING MAX(c_acctbal) > 9990",
       1, "3|106", PlanOp::kGroupAggregate},
      {"SELECT c_acctbal + 1 FROM customer WHERE c_custkey <= 3", 3,
       "5899.65\n7361.14\n7387.82", PlanOp::kProject},
  };
  for (const Site& site : sites) {
    EngineRuns runs;
    ASSERT_NO_FATAL_FAILURE(ExpectSameRows(*system_, site.sql, site.rows,
                                           site.tp_op == PlanOp::kSort,
                                           &runs));
    if (site.fingerprint != nullptr) {
      EXPECT_EQ(runs.vec1.Fingerprint(), site.fingerprint) << site.sql;
    }
    EXPECT_NE(FindNode(*runs.plans.tp.root, site.tp_op), nullptr)
        << site.sql << "\n" << runs.plans.tp.Explain();
  }
  // Both keys of a nested-loop join (no index on c_nationkey): 564
  // customers of the five nations in region 1.
  const IndexDef* fk =
      system_->catalog().FindIndexOnColumn("customer", "c_nationkey");
  ASSERT_NE(fk, nullptr);
  const IndexDef saved = *fk;
  ASSERT_TRUE(system_->DropIndex(saved.name).ok());
  EngineRuns loop;
  ExpectSameRows(*system_,
                 "SELECT COUNT(*) FROM nation, customer "
                 "WHERE n_nationkey = c_nationkey AND n_regionkey = 1",
                 1, false, &loop);
  ASSERT_TRUE(system_->CreateIndex(saved).ok());
  EXPECT_EQ(loop.vec1.Fingerprint(), "564");
  EXPECT_NE(FindNode(*loop.plans.tp.root, PlanOp::kNestedLoopJoin), nullptr)
      << loop.plans.tp.Explain();

  // A sifted scan's probe key on row-executed AP. An optimizer's sift key
  // is also its join's probe key, which reads the same column, so the plan
  // is edited: the lineitem scan's sift probes l_suppkey (1..200 at this
  // scale, all inside the build side's p_partkey 1..200) instead of
  // l_partkey. The sift then drops nothing, and the count is the 5,938
  // lineitems with l_partkey <= 200.
  const std::string sql =
      "SELECT COUNT(*) FROM lineitem, part "
      "WHERE l_partkey = p_partkey AND p_partkey <= 200";
  auto query = system_->Bind(sql);
  ASSERT_TRUE(query.ok()) << query.status();
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok()) << plans.status();
  PlanNode* scan = plans->ap.root.get();  // at the foot of the probe spine
  while (!scan->children.empty()) scan = scan->children[0].get();
  ASSERT_EQ(scan->op, PlanOp::kSiftedScan) << plans->ap.Explain();
  ASSERT_EQ(scan->sift_probes.size(), 1u);
  auto schema = system_->catalog().GetTable("lineitem");
  ASSERT_TRUE(schema.ok());
  const int suppkey = (*schema)->ColumnIndex("l_suppkey");
  ASSERT_GE(suppkey, 0);
  Expr& key = *scan->sift_probes[0].key;
  ASSERT_EQ(key.column_name, "l_partkey");
  key.column_name = "l_suppkey";
  key.bound_column = suppkey;
  key.flat_slot = scan->slot_offset + suppkey;
  scan->columns_read.push_back("l_suppkey");
  auto row = system_->ExecuteWithMode(ExecMode::kRow, plans->ap, *query);
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->Fingerprint(), "5938");
  for (int workers : {1, 3}) {
    system_->vec_executor()->set_num_workers(workers);
    auto vec =
        system_->ExecuteWithMode(ExecMode::kVectorized, plans->ap, *query);
    ASSERT_TRUE(vec.ok()) << vec.status();
    EXPECT_EQ(vec->Fingerprint(), "5938") << "@" << workers;
  }
  system_->vec_executor()->set_num_workers(system_->config().vec_workers);
}

// The expression evaluator as it was before EvalTruth, kept as the
// reference for it: every operand is copied and every comparison's answer
// boxed into a Value. It is the old code except where that code's
// behaviour was undefined:
//   - int64 +, - and * overflow, a double that SUBSTRING's start or length
//     or YEAR's argument truncates outside int64, and a YEAR day count
//     FormatDate overflows on, throw Overflow instead;
//   - a NaN or out-of-int64 double in a boolean position, whose truncation
//     was undefined, takes EvalTruth's magnitude rule (NaN is false).
// A string where the old code called Value::AsInt or AsDouble still throws
// std::bad_variant_access.
namespace reference {

struct Overflow {};

constexpr double kTwo63 = 9223372036854775808.0;

int64_t Truncate(double d) {
  if (!(d >= -kTwo63 && d < kTwo63)) throw Overflow{};
  return static_cast<int64_t>(d);
}

/// Value::AsInt as the old function arguments used it.
int64_t AsInt(const Value& v) {
  return v.is_double() ? Truncate(v.AsDouble()) : v.AsInt();
}

/// `v.AsInt() != 0` in a boolean position.
bool NonZero(const Value& v) {
  if (v.is_double()) {
    const double d = v.AsDouble();
    if (std::isnan(d)) return false;
    if (!(d >= -kTwo63 && d < kTwo63)) return true;
  }
  return v.AsInt() != 0;
}

Result<Value> RefEvalExpr(const Expr& expr, const std::vector<Value>& row);

Result<Value> RefEvalFunction(const Expr& expr, const std::vector<Value>& row) {
  std::string fn = ToLower(expr.func_name);
  std::vector<Value> args;
  for (const auto& c : expr.children) {
    HTAPEX_ASSIGN_OR_RETURN(Value v, RefEvalExpr(*c, row));
    args.push_back(std::move(v));
  }
  for (const Value& a : args) {
    if (a.is_null()) return Value::Null();
  }
  if (fn == "substring" || fn == "substr") {
    if (args.size() != 3 || !args[0].is_string()) {
      return Status::ExecutionError("SUBSTRING expects (string, start, length)");
    }
    const std::string& s = args[0].AsString();
    int64_t start = AsInt(args[1]);
    int64_t len = AsInt(args[2]);
    if (start < 1) start = 1;
    if (start > static_cast<int64_t>(s.size()) || len <= 0) {
      return Value::Str("");
    }
    return Value::Str(s.substr(static_cast<size_t>(start - 1),
                               static_cast<size_t>(len)));
  }
  if (fn == "lower") {
    if (args.size() != 1 || !args[0].is_string()) {
      return Status::ExecutionError("LOWER expects one string argument");
    }
    return Value::Str(ToLower(args[0].AsString()));
  }
  if (fn == "upper") {
    if (args.size() != 1 || !args[0].is_string()) {
      return Status::ExecutionError("UPPER expects one string argument");
    }
    return Value::Str(ToUpper(args[0].AsString()));
  }
  if (fn == "length") {
    if (args.size() != 1 || !args[0].is_string()) {
      return Status::ExecutionError("LENGTH expects one string argument");
    }
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (fn == "year") {
    if (args.size() != 1) return Status::ExecutionError("YEAR expects one argument");
    const int64_t days = AsInt(args[0]);
    if (days > std::numeric_limits<int64_t>::max() - 719468) throw Overflow{};
    std::string date = FormatDate(days);
    return Value::Int(std::strtoll(date.substr(0, 4).c_str(), nullptr, 10));
  }
  return Status::ExecutionError("unknown function: " + expr.func_name);
}

Result<Value> RefEvalExpr(const Expr& expr, const std::vector<Value>& row) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (expr.flat_slot < 0 ||
          expr.flat_slot >= static_cast<int>(row.size())) {
        return Status::ExecutionError("unbound column ref: " + expr.ToString());
      }
      return row[static_cast<size_t>(expr.flat_slot)];
    }
    case ExprKind::kStar:
      return Status::ExecutionError("* cannot be evaluated as a value");
    case ExprKind::kComparison: {
      HTAPEX_ASSIGN_OR_RETURN(Value l, RefEvalExpr(*expr.children[0], row));
      HTAPEX_ASSIGN_OR_RETURN(Value r, RefEvalExpr(*expr.children[1], row));
      if (l.is_null() || r.is_null()) return Value::Null();
      if (expr.cmp_op == CompareOp::kLike) {
        if (!l.is_string() || !r.is_string()) {
          return Status::ExecutionError("LIKE expects string operands");
        }
        return Value::Int(LikeMatch(l.AsString(), r.AsString()) ? 1 : 0);
      }
      int c = l.Compare(r);
      bool result = false;
      switch (expr.cmp_op) {
        case CompareOp::kEq:
          result = c == 0;
          break;
        case CompareOp::kNe:
          result = c != 0;
          break;
        case CompareOp::kLt:
          result = c < 0;
          break;
        case CompareOp::kLe:
          result = c <= 0;
          break;
        case CompareOp::kGt:
          result = c > 0;
          break;
        case CompareOp::kGe:
          result = c >= 0;
          break;
        case CompareOp::kLike:
          break;
      }
      return Value::Int(result ? 1 : 0);
    }
    case ExprKind::kAnd: {
      HTAPEX_ASSIGN_OR_RETURN(Value l, RefEvalExpr(*expr.children[0], row));
      if (!l.is_null() && !NonZero(l)) return Value::Int(0);
      HTAPEX_ASSIGN_OR_RETURN(Value r, RefEvalExpr(*expr.children[1], row));
      if (!r.is_null() && !NonZero(r)) return Value::Int(0);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Int(1);
    }
    case ExprKind::kOr: {
      HTAPEX_ASSIGN_OR_RETURN(Value l, RefEvalExpr(*expr.children[0], row));
      if (!l.is_null() && NonZero(l)) return Value::Int(1);
      HTAPEX_ASSIGN_OR_RETURN(Value r, RefEvalExpr(*expr.children[1], row));
      if (!r.is_null() && NonZero(r)) return Value::Int(1);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Int(0);
    }
    case ExprKind::kNot: {
      HTAPEX_ASSIGN_OR_RETURN(Value v, RefEvalExpr(*expr.children[0], row));
      if (v.is_null()) return Value::Null();
      return Value::Int(NonZero(v) ? 0 : 1);
    }
    case ExprKind::kIn: {
      HTAPEX_ASSIGN_OR_RETURN(Value needle,
                              RefEvalExpr(*expr.children[0], row));
      if (needle.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        HTAPEX_ASSIGN_OR_RETURN(Value v, RefEvalExpr(*expr.children[i], row));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (needle.Compare(v) == 0) return Value::Int(1);
      }
      if (saw_null) return Value::Null();
      return Value::Int(0);
    }
    case ExprKind::kBetween: {
      HTAPEX_ASSIGN_OR_RETURN(Value v, RefEvalExpr(*expr.children[0], row));
      HTAPEX_ASSIGN_OR_RETURN(Value lo, RefEvalExpr(*expr.children[1], row));
      HTAPEX_ASSIGN_OR_RETURN(Value hi, RefEvalExpr(*expr.children[2], row));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      return Value::Int(v.Compare(lo) >= 0 && v.Compare(hi) <= 0 ? 1 : 0);
    }
    case ExprKind::kFunction:
      return RefEvalFunction(expr, row);
    case ExprKind::kAggregate:
      return Status::ExecutionError(
          "aggregate must be evaluated by an aggregation operator");
    case ExprKind::kIsNull: {
      HTAPEX_ASSIGN_OR_RETURN(Value v, RefEvalExpr(*expr.children[0], row));
      bool is_null = v.is_null();
      return Value::Int((expr.negated ? !is_null : is_null) ? 1 : 0);
    }
    case ExprKind::kArithmetic: {
      HTAPEX_ASSIGN_OR_RETURN(Value l, RefEvalExpr(*expr.children[0], row));
      HTAPEX_ASSIGN_OR_RETURN(Value r, RefEvalExpr(*expr.children[1], row));
      if (l.is_null() || r.is_null()) return Value::Null();
      bool both_int = l.is_int() && r.is_int();
      int64_t out = 0;
      switch (expr.arith_op) {
        case ArithOp::kAdd:
          if (!both_int) return Value::Double(l.AsDouble() + r.AsDouble());
          if (__builtin_add_overflow(l.AsInt(), r.AsInt(), &out)) {
            throw Overflow{};
          }
          return Value::Int(out);
        case ArithOp::kSub:
          if (!both_int) return Value::Double(l.AsDouble() - r.AsDouble());
          if (__builtin_sub_overflow(l.AsInt(), r.AsInt(), &out)) {
            throw Overflow{};
          }
          return Value::Int(out);
        case ArithOp::kMul:
          if (!both_int) return Value::Double(l.AsDouble() * r.AsDouble());
          if (__builtin_mul_overflow(l.AsInt(), r.AsInt(), &out)) {
            throw Overflow{};
          }
          return Value::Int(out);
        case ArithOp::kDiv: {
          double d = r.AsDouble();
          if (d == 0.0) return Value::Null();
          return Value::Double(l.AsDouble() / d);
        }
      }
      return Status::Internal("unreachable arithmetic op");
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> RefEvalPredicate(const Expr& expr, const std::vector<Value>& row) {
  HTAPEX_ASSIGN_OR_RETURN(Value v, RefEvalExpr(expr, row));
  if (v.is_null()) return false;
  return NonZero(v);
}

}  // namespace reference

constexpr int kEvalRowWidth = 6;

/// NULLs, small and extreme ints, doubles around the truth threshold and
/// outside int64 (with inf and NaN), and strings that are LIKE patterns,
/// dates and neither.
Value RandomValue(Rng* rng) {
  static const int64_t kInts[] = {std::numeric_limits<int64_t>::max(),
                                  std::numeric_limits<int64_t>::min(),
                                  int64_t{1} << 62, -(int64_t{1} << 62),
                                  3037000500, 9223372036854775000};
  static const double kDoubles[] = {
      0.0,  -0.0,  0.5,    -0.99,
      1.0,  -1.0,  2.5,    -3.75,
      1e20, -1e20, 9.3e18, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  static const char* kStrings[] = {"",  "a",   "ab", "abc",        "b",
                                   "a%", "%b", "_b", "1995-03-15", "A"};
  switch (rng->Uniform(0, 9)) {
    case 0:
    case 1:
      return Value::Null();
    case 2:
    case 3:
    case 4:
      return Value::Int(rng->Uniform(-4, 4));
    case 5:
      return Value::Int(kInts[rng->Uniform(0, 5)]);
    case 6:
    case 7:
      return Value::Double(kDoubles[rng->Uniform(0, 12)]);
    default:
      return Value::Str(kStrings[rng->Uniform(0, 9)]);
  }
}

/// A random bound expression tree of at most `depth` levels over a row of
/// kEvalRowWidth slots.
std::unique_ptr<Expr> RandomExpr(Rng* rng, int depth) {
  auto node = [](ExprKind k) { return std::make_unique<Expr>(k); };
  auto sub = [rng, depth] { return RandomExpr(rng, depth - 1); };
  const int pick = depth <= 0 ? static_cast<int>(rng->Uniform(0, 1))
                              : static_cast<int>(rng->Uniform(0, 15));
  switch (pick) {
    case 0:
      return MakeLiteral(RandomValue(rng));
    case 1: {
      // A bound ref, or now and then one no slot holds.
      const bool unbound = rng->Bernoulli(0.03);
      const int slot = static_cast<int>(rng->Uniform(0, kEvalRowWidth - 1));
      auto e = MakeColumnRef("", unbound ? "u" : "c" + std::to_string(slot));
      e->flat_slot = unbound ? (rng->Bernoulli(0.5) ? -1 : kEvalRowWidth + 2)
                             : slot;
      return e;
    }
    case 2:
    case 3: {
      auto e = MakeComparison(
          static_cast<CompareOp>(rng->Uniform(0, 6)), sub(), sub());
      return e;
    }
    case 4:
      return MakeAnd(sub(), sub());
    case 5: {
      auto e = node(ExprKind::kOr);
      e->children.push_back(sub());
      e->children.push_back(sub());
      return e;
    }
    case 6: {
      auto e = node(ExprKind::kNot);
      e->children.push_back(sub());
      return e;
    }
    case 7: {
      auto e = node(ExprKind::kIn);
      e->children.push_back(sub());
      for (int64_t i = rng->Uniform(1, 4); i > 0; --i) {
        e->children.push_back(
            rng->Bernoulli(0.7) ? MakeLiteral(RandomValue(rng)) : sub());
      }
      return e;
    }
    case 8: {
      auto e = node(ExprKind::kBetween);
      for (int i = 0; i < 3; ++i) e->children.push_back(sub());
      return e;
    }
    case 9: {
      auto e = node(ExprKind::kIsNull);
      e->negated = rng->Bernoulli(0.5);
      e->children.push_back(sub());
      return e;
    }
    case 10:
    case 11:
    case 12: {
      auto e = node(ExprKind::kArithmetic);
      e->arith_op = static_cast<ArithOp>(rng->Uniform(0, 3));
      e->children.push_back(sub());
      e->children.push_back(sub());
      return e;
    }
    case 13:
    case 14: {
      // Each function at its arity, and now and then a wrong arity or an
      // unknown name.
      static const std::pair<const char*, int> kFunctions[] = {
          {"SUBSTRING", 3}, {"substr", 3}, {"LOWER", 1}, {"upper", 1},
          {"LENGTH", 1},    {"year", 1},   {"YEAR", 2},  {"substring", 2},
          {"nosuch", 1}};
      const auto& [name, arity] = kFunctions[rng->Bernoulli(0.9)
                                                 ? rng->Uniform(0, 5)
                                                 : rng->Uniform(6, 8)];
      auto e = node(ExprKind::kFunction);
      e->func_name = name;
      for (int i = 0; i < arity; ++i) e->children.push_back(sub());
      return e;
    }
    default: {
      // What no executor evaluates as a value: * and an aggregate.
      if (rng->Bernoulli(0.5)) return node(ExprKind::kStar);
      auto e = node(ExprKind::kAggregate);
      e->children.push_back(sub());
      return e;
    }
  }
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int() || b.is_int()) {
    return a.is_int() && b.is_int() && a.AsInt() == b.AsInt();
  }
  if (a.is_double() || b.is_double()) {
    if (!a.is_double() || !b.is_double()) return false;
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::isnan(x) ? std::isnan(y)
                         : x == y && std::signbit(x) == std::signbit(y);
  }
  return a.AsString() == b.AsString();
}

/// Empty when `got` is what the reference gave (or, where it threw, an
/// execution error); else what differs.
template <typename T, typename Same>
std::string Mismatch(const Result<T>& got, const Result<T>* want, Same same) {
  const std::string got_text =
      got.ok() ? std::string("a value") : got.status().ToString();
  if (want == nullptr) {
    return !got.ok() && got.status().code() == StatusCode::kExecutionError
               ? ""
               : "want kExecutionError, got " + got_text;
  }
  if (!want->ok()) {
    return !got.ok() && got.status().code() == want->status().code() &&
                   got.status().message() == want->status().message()
               ? ""
               : "want " + want->status().ToString() + ", got " + got_text;
  }
  if (!got.ok()) return "want a value, got " + got_text;
  return same(*got, **want) ? "" : "values differ";
}

/// What reference evaluation `eval` returns, or nothing where it throws.
template <typename F>
auto Reference(F eval, int* thrown) -> std::optional<decltype(eval())> {
  try {
    return eval();
  } catch (const std::bad_variant_access&) {
  } catch (const reference::Overflow&) {
  }
  ++*thrown;
  return std::nullopt;
}

TEST(EvaluatorTest, InPlacePredicatesMatchTheReferenceEvaluator) {
  // 200,000 seeded trees, each over its own random row, through EvalExpr
  // and EvalPredicate and through the reference: the same value, or the
  // same status code and message; where the reference throws, an
  // execution error.
  Rng rng(0x5eed);
  int values = 0, errors = 0, thrown = 0;
  std::vector<Value> row(kEvalRowWidth);
  for (int t = 0; t < 200000; ++t) {
    std::unique_ptr<Expr> expr =
        RandomExpr(&rng, static_cast<int>(rng.Uniform(1, 4)));
    for (Value& v : row) v = RandomValue(&rng);
    const auto want_value =
        Reference([&] { return reference::RefEvalExpr(*expr, row); }, &thrown);
    const auto want_truth = Reference(
        [&] { return reference::RefEvalPredicate(*expr, row); }, &thrown);
    ASSERT_EQ(Mismatch(EvalExpr(*expr, row),
                       want_value ? &*want_value : nullptr, SameValue),
              "")
        << "EvalExpr(" << expr->ToString() << ")";
    ASSERT_EQ(Mismatch(EvalPredicate(*expr, row),
                       want_truth ? &*want_truth : nullptr,
                       [](bool a, bool b) { return a == b; }),
              "")
        << "EvalPredicate(" << expr->ToString() << ")";
    if (want_value) ++(want_value->ok() ? values : errors);
  }
  // Every outcome is well represented.
  EXPECT_GT(values, 50000);
  EXPECT_GT(errors, 10000);
  EXPECT_GT(thrown, 10000);
}

// The aggregation group map and the Top-N heap as they were before their
// arrays were flat, kept as the references for them: an ordered std::map
// from each group's key row to its own vector of AggStates, with keys and
// aggregate arguments evaluated into copies, and a heap of entries that
// each own a key vector and a row.
namespace before_flat {

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

using GroupMap = std::map<Row, std::vector<AggState>, RowLess>;

Status RefAccumulateAgg(const Expr& agg, const Row& row, AggState* s) {
  if (agg.count_star) {
    ++s->count;
    return Status::OK();
  }
  Result<Value> v = EvalExpr(*agg.children[0], row);
  if (!v.ok()) return v.status();
  if (v->is_null()) return Status::OK();
  return AccumulateAggValue(agg, *v, s);
}

Status AccumulateRow(const PlanNode& agg, const Row& row, Row* key,
                     GroupMap* groups) {
  key->clear();
  for (const auto& g : agg.group_keys) {
    HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, row));
    key->push_back(std::move(v));
  }
  auto it = groups->find(*key);
  if (it == groups->end()) {
    it = groups->try_emplace(*key, agg.aggregates.size()).first;
  }
  for (size_t a = 0; a < agg.aggregates.size(); ++a) {
    HTAPEX_RETURN_IF_ERROR(
        RefAccumulateAgg(*agg.aggregates[a], row, &it->second[a]));
  }
  return Status::OK();
}

Status MergeGroups(const PlanNode& agg, const GroupMap& part,
                   GroupMap* total) {
  for (const auto& [key, states] : part) {
    auto it = total->try_emplace(key, agg.aggregates.size()).first;
    for (size_t a = 0; a < agg.aggregates.size(); ++a) {
      HTAPEX_RETURN_IF_ERROR(
          MergeAggState(*agg.aggregates[a], states[a], &it->second[a]));
    }
  }
  return Status::OK();
}

/// The rows PushGroups pushed for `groups`.
Result<std::vector<Row>> Groups(const PlanNode& agg, const GroupMap& groups) {
  std::vector<Row> out;
  if (groups.empty() && agg.group_keys.empty()) {
    Row row;
    for (const auto& a : agg.aggregates) {
      HTAPEX_ASSIGN_OR_RETURN(Value v, FinalizeAgg(*a, AggState{}));
      row.push_back(std::move(v));
    }
    out.push_back(std::move(row));
    return out;
  }
  for (const auto& [key, states] : groups) {
    Row row = key;
    for (size_t a = 0; a < agg.aggregates.size(); ++a) {
      HTAPEX_ASSIGN_OR_RETURN(Value v,
                              FinalizeAgg(*agg.aggregates[a], states[a]));
      row.push_back(std::move(v));
    }
    out.push_back(std::move(row));
  }
  return out;
}

class TopNHeap {
 public:
  explicit TopNHeap(const PlanNode& node)
      : node_(&node),
        offset_(static_cast<size_t>(std::max<int64_t>(node.offset, 0))),
        keep_(node.limit < 0 ? kUnbounded
                             : offset_ + static_cast<size_t>(node.limit)) {}

  Status Offer(const Row& row, uint64_t seq, bool keep_row) {
    if (keep_ == 0) return Status::OK();
    scratch_.key.clear();
    for (const auto& k : node_->sort_keys) {
      HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*k.expr, row));
      scratch_.key.push_back(std::move(v));
    }
    scratch_.seq = seq;
    if (heap_.size() >= keep_ && !Precedes(scratch_, heap_.front())) {
      return Status::OK();
    }
    if (keep_row) scratch_.row = row;
    Insert(std::move(scratch_));
    return Status::OK();
  }

  void Merge(TopNHeap&& other) {
    if (keep_ == 0) return;
    for (Entry& e : other.heap_) {
      if (heap_.size() < keep_ || Precedes(e, heap_.front())) {
        Insert(std::move(e));
      }
    }
    other.heap_.clear();
  }

  std::vector<std::pair<Row, uint64_t>> Emit() {
    std::sort_heap(heap_.begin(), heap_.end(),
                   [this](const Entry& a, const Entry& b) {
                     return Precedes(a, b);
                   });
    std::vector<std::pair<Row, uint64_t>> out;
    for (size_t i = offset_; i < heap_.size(); ++i) {
      out.emplace_back(heap_[i].row, heap_[i].seq);
    }
    return out;
  }

 private:
  struct Entry {
    Row key;
    Row row;
    uint64_t seq = 0;
  };

  bool Precedes(const Entry& a, const Entry& b) const {
    int c = CompareSortKeys(node_->sort_keys, a.key.data(), b.key.data());
    if (c != 0) return c < 0;
    return a.seq < b.seq;
  }

  void Insert(Entry&& e) {
    auto precedes = [this](const Entry& a, const Entry& b) {
      return Precedes(a, b);
    };
    if (heap_.size() < keep_) {
      heap_.push_back(std::move(e));
      std::push_heap(heap_.begin(), heap_.end(), precedes);
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), precedes);
    heap_.back() = std::move(e);
    std::push_heap(heap_.begin(), heap_.end(), precedes);
  }

  const PlanNode* node_;
  size_t offset_ = 0;
  size_t keep_ = 0;
  std::vector<Entry> heap_;
  Entry scratch_;
};

}  // namespace before_flat

constexpr int kGroupRowWidth = 6;
constexpr int kGroupRows = 100000;
constexpr size_t kMorselRows = 4096;

/// One seeded row for the group map and Top-N comparisons. Slots 0-2 are
/// keys over small domains, so groups and sort-key ties are many: slot 0
/// mixes NULL, Int(0), 0.0, -0.0, Int(3), Double(3.0) and strings, slot 1
/// is a small int or NULL, slot 2 a short string or a half-integer
/// double. Slots 3 (ints and doubles) and 4 (ints) are SUM and AVG
/// arguments, and slot 5 holds any kind, for MIN and MAX.
Row RandomGroupRow(Rng* rng) {
  static const Value kKeys[] = {
      Value::Null(),     Value::Int(0),      Value::Double(0.0),
      Value::Double(-0.0), Value::Int(3),    Value::Double(3.0),
      Value::Int(-1),    Value::Double(2.5), Value::Str("a"),
      Value::Str("b"),   Value::Str("")};
  Row row(kGroupRowWidth);
  row[0] = kKeys[rng->Uniform(0, 10)];
  if (!rng->Bernoulli(0.1)) row[1] = Value::Int(rng->Uniform(-3, 3));
  if (!rng->Bernoulli(0.1)) {
    row[2] = rng->Bernoulli(0.5)
                 ? Value::Str(std::string(1, static_cast<char>(
                                                 'a' + rng->Uniform(0, 4))))
                 : Value::Double(0.5 * static_cast<double>(rng->Uniform(-2, 2)));
  }
  switch (rng->Uniform(0, 9)) {
    case 0:
      break;
    case 1:
    case 2:
    case 3:
      row[3] = Value::Double(rng->UniformReal(-100.0, 100.0));
      break;
    default:
      row[3] = Value::Int(rng->Uniform(-1000, 1000));
  }
  if (!rng->Bernoulli(0.1)) row[4] = Value::Int(rng->Uniform(0, 50));
  row[5] = rng->Bernoulli(0.2) ? kKeys[rng->Uniform(0, 10)]
                               : Value::Int(rng->Uniform(-20, 20));
  return row;
}

std::unique_ptr<Expr> Slot(int slot) {
  auto e = MakeColumnRef("", "c" + std::to_string(slot));
  e->flat_slot = slot;
  return e;
}

/// Slot 1 times 0.0: -0.0 for the negative ints, 0.0 otherwise.
std::unique_ptr<Expr> TimesZero() {
  auto e = std::make_unique<Expr>(ExprKind::kArithmetic);
  e->arith_op = ArithOp::kMul;
  e->children.push_back(Slot(1));
  e->children.push_back(MakeLiteral(Value::Double(0.0)));
  return e;
}

/// A key by its number: a slot 0-2, or 3 for TimesZero.
std::unique_ptr<Expr> KeyExpr(int k) { return k < 3 ? Slot(k) : TimesZero(); }

std::unique_ptr<Expr> Aggregate(AggKind kind, int slot, bool distinct) {
  auto e = std::make_unique<Expr>(ExprKind::kAggregate);
  e->agg_kind = kind;
  e->distinct = distinct;
  if (slot < 0) {
    e->count_star = true;
  } else {
    e->children.push_back(Slot(slot));
  }
  return e;
}

std::string RowMismatch(const std::vector<Row>& got,
                        const std::vector<Row>& want) {
  if (got.size() != want.size()) {
    return StrFormat("%zu rows, want %zu", got.size(), want.size());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return StrFormat("row %zu width", r);
    for (size_t c = 0; c < got[r].size(); ++c) {
      if (!SameValue(got[r][c], want[r][c])) {
        return StrFormat("row %zu cell %zu: %s, want %s", r, c,
                         got[r][c].ToString().c_str(),
                         want[r][c].ToString().c_str());
      }
    }
  }
  return "";
}

std::vector<Row> SeededGroupRows() {
  Rng rng(0x9a0b);
  std::vector<Row> rows;
  rows.reserve(kGroupRows);
  for (int i = 0; i < kGroupRows; ++i) rows.push_back(RandomGroupRow(&rng));
  return rows;
}

TEST(FlatOperatorStateTest, HashGroupMapMatchesTheOrderedMap) {
  // 100,000 seeded rows through the flat hash group map and the ordered
  // map it replaced, in one pass and as 4,096-row morsels merged in morsel
  // order: the same groups in the same order, keyed by the same first-seen
  // values, with the same finalized aggregates bit for bit.
  const std::vector<Row> rows = SeededGroupRows();
  PlanNode agg(PlanOp::kHashAggregate);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
    agg.aggregates.push_back(Aggregate(kind, 3, false));
    agg.aggregates.push_back(Aggregate(kind, 4, false));
    agg.aggregates.push_back(Aggregate(kind, 4, true));
  }
  agg.aggregates.push_back(Aggregate(AggKind::kCount, -1, false));
  agg.aggregates.push_back(Aggregate(AggKind::kSum, 3, true));
  agg.aggregates.push_back(Aggregate(AggKind::kCount, 5, true));
  for (AggKind kind : {AggKind::kMin, AggKind::kMax}) {
    agg.aggregates.push_back(Aggregate(kind, 5, false));
    agg.aggregates.push_back(Aggregate(kind, 0, true));
    agg.aggregates.push_back(Aggregate(kind, 2, false));
  }
  const std::vector<std::vector<int>> key_sets = {
      {}, {0}, {1}, {2}, {3}, {0, 1}, {2, 3}, {0, 1, 2}, {1, 0, 3}};
  for (const std::vector<int>& keys : key_sets) {
    agg.group_keys.clear();
    for (int k : keys) agg.group_keys.push_back(KeyExpr(k));
    const std::string label = StrFormat("%zu keys, first %d", keys.size(),
                                        keys.empty() ? -1 : keys[0]);
    auto pushed = [&agg](const GroupMap& groups) {
      std::vector<Row> out;
      auto keep = [&out](const Row& row) -> Result<bool> {
        out.push_back(row);
        return true;
      };
      EXPECT_TRUE(PushGroups(agg, groups, keep).ok());
      return out;
    };

    GroupMap flat(keys.size(), agg.aggregates.size());
    before_flat::GroupMap ordered;
    KeyRefs scratch(keys.size());
    Row key;
    for (const Row& row : rows) {
      ASSERT_TRUE(AccumulateRow(agg, row, &scratch, &flat).ok());
      ASSERT_TRUE(before_flat::AccumulateRow(agg, row, &key, &ordered).ok());
    }
    auto want = before_flat::Groups(agg, ordered);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_GE(want->size(), keys.empty() ? 1u : 2u) << label;
    EXPECT_EQ(RowMismatch(pushed(flat), *want), "") << label;

    GroupMap flat_total(keys.size(), agg.aggregates.size());
    before_flat::GroupMap ordered_total;
    for (size_t begin = 0; begin < rows.size(); begin += kMorselRows) {
      GroupMap flat_part(keys.size(), agg.aggregates.size());
      before_flat::GroupMap ordered_part;
      for (size_t r = begin; r < std::min(rows.size(), begin + kMorselRows);
           ++r) {
        ASSERT_TRUE(AccumulateRow(agg, rows[r], &scratch, &flat_part).ok());
        ASSERT_TRUE(
            before_flat::AccumulateRow(agg, rows[r], &key, &ordered_part)
                .ok());
      }
      ASSERT_TRUE(MergeGroups(agg, flat_part, &flat_total).ok());
      ASSERT_TRUE(
          before_flat::MergeGroups(agg, ordered_part, &ordered_total).ok());
    }
    want = before_flat::Groups(agg, ordered_total);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(RowMismatch(pushed(flat_total), *want), "")
        << label << ", merged morsels";
  }
}

TEST(FlatOperatorStateTest, FlatTopNHeapMatchesTheEntryHeap) {
  // 100,000 seeded rows through the flat Top-N heap and the entry heap it
  // replaced, under sort keys in both directions with many ties and LIMIT
  // and OFFSET windows including LIMIT 0: the same rows with the same
  // sequence numbers, in one heap that keeps rows, and in three key-only
  // worker heaps fed alternate morsels and merged.
  const std::vector<Row> rows = SeededGroupRows();
  const std::vector<std::vector<std::pair<int, bool>>> sort_sets = {
      {{0, false}},
      {{1, true}, {0, false}},
      {{2, false}, {1, true}, {4, false}},
      {{3, true}, {5, false}, {0, true}}};
  const std::vector<std::pair<int64_t, int64_t>> windows = {
      {0, 0}, {0, 7}, {1, 0}, {5, 0}, {10, 3}, {100, 0}, {37, 1000},
      {1000, 250}};
  for (const auto& sort : sort_sets) {
    for (const auto& [limit, offset] : windows) {
      PlanNode node(PlanOp::kTopN);
      for (const auto& [k, desc] : sort) {
        node.sort_keys.push_back({KeyExpr(k), desc});
      }
      node.limit = limit;
      node.offset = offset;
      const std::string label =
          StrFormat("%zu keys, first %d, LIMIT %lld OFFSET %lld", sort.size(),
                    sort[0].first, static_cast<long long>(limit),
                    static_cast<long long>(offset));

      TopNHeap flat(node);
      before_flat::TopNHeap entries(node);
      for (size_t r = 0; r < rows.size(); ++r) {
        ASSERT_TRUE(flat.Offer(rows[r], r).ok());
        ASSERT_TRUE(entries.Offer(rows[r], r, true).ok());
      }
      std::vector<Row> got_rows, want_rows;
      std::vector<uint64_t> got_seqs, want_seqs;
      ASSERT_TRUE(flat.Emit([&](const Row& row, uint64_t seq) -> Result<bool> {
                        got_rows.push_back(row);
                        got_seqs.push_back(seq);
                        return true;
                      }).ok());
      for (auto& [row, seq] : entries.Emit()) {
        want_rows.push_back(row);
        want_seqs.push_back(seq);
      }
      EXPECT_EQ(want_seqs.size(),
                static_cast<size_t>(std::min<int64_t>(
                    limit, std::max<int64_t>(kGroupRows - offset, 0))))
          << label;
      EXPECT_EQ(got_seqs, want_seqs) << label;
      EXPECT_EQ(RowMismatch(got_rows, want_rows), "") << label;

      std::vector<TopNHeap> workers(3, TopNHeap(node, /*keep_rows=*/false));
      std::vector<before_flat::TopNHeap> entry_workers(
          3, before_flat::TopNHeap(node));
      for (size_t begin = 0; begin < rows.size(); begin += kMorselRows) {
        const size_t morsel = begin / kMorselRows;
        for (size_t r = begin; r < std::min(rows.size(), begin + kMorselRows);
             ++r) {
          const uint64_t seq = (morsel << 32) | (r - begin);
          ASSERT_TRUE(workers[morsel % 3].Offer(rows[r], seq).ok());
          ASSERT_TRUE(
              entry_workers[morsel % 3].Offer(rows[r], seq, false).ok());
        }
      }
      TopNHeap merged(node, /*keep_rows=*/false);
      before_flat::TopNHeap entry_merged(node);
      for (size_t w : {2, 0, 1}) {
        merged.Merge(std::move(workers[w]));
        entry_merged.Merge(std::move(entry_workers[w]));
      }
      got_seqs.clear();
      want_seqs.clear();
      ASSERT_TRUE(merged.Emit([&](const Row& row, uint64_t seq) -> Result<bool> {
                          EXPECT_TRUE(row.empty());
                          got_seqs.push_back(seq);
                          return true;
                        }).ok());
      for (auto& [row, seq] : entry_merged.Emit()) want_seqs.push_back(seq);
      EXPECT_EQ(got_seqs, want_seqs) << label << ", merged workers";
    }
  }
}

}  // namespace
}  // namespace htapex
