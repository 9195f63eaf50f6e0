// Vectorized executor tests: morsel dispatcher / worker pool concurrency
// (run under TSan in CI), operator coverage through the vectorized path,
// and row-vs-vectorized parity independent of worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/htap_system.h"
#include "engine/morsel.h"

namespace htapex {
namespace {

TEST(MorselDispatcherTest, CoversRangeExactlyOnce) {
  MorselDispatcher dispatcher(10000, 1024);
  EXPECT_EQ(dispatcher.morsel_count(), 10u);
  std::vector<Morsel> claimed;
  Morsel m;
  while (dispatcher.Next(&m)) claimed.push_back(m);
  ASSERT_EQ(claimed.size(), 10u);
  size_t expected_begin = 0;
  for (size_t i = 0; i < claimed.size(); ++i) {
    EXPECT_EQ(claimed[i].index, i);
    EXPECT_EQ(claimed[i].begin, expected_begin);
    expected_begin = claimed[i].end;
  }
  EXPECT_EQ(expected_begin, 10000u);  // last morsel is the short tail
  EXPECT_FALSE(dispatcher.Next(&m));  // stays exhausted
}

TEST(MorselDispatcherTest, EmptyTableYieldsNoMorsels) {
  MorselDispatcher dispatcher(0, 1024);
  EXPECT_EQ(dispatcher.morsel_count(), 0u);
  Morsel m;
  EXPECT_FALSE(dispatcher.Next(&m));
}

TEST(MorselDispatcherTest, ConcurrentClaimsArePartition) {
  // Hammer the dispatcher from several threads; every morsel index must be
  // claimed exactly once. (This test is the TSan probe for the dispatcher.)
  MorselDispatcher dispatcher(100 * 64, 64);
  std::vector<std::vector<size_t>> per_thread(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&dispatcher, &per_thread, t] {
      Morsel m;
      while (dispatcher.Next(&m)) per_thread[static_cast<size_t>(t)].push_back(m.index);
    });
  }
  for (auto& t : threads) t.join();
  std::set<size_t> seen;
  size_t total = 0;
  for (const auto& claimed : per_thread) {
    total += claimed.size();
    seen.insert(claimed.begin(), claimed.end());
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(seen.size(), 100u);
}

TEST(WorkerPoolTest, RunsEveryWorkerAndReusesThreads) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  // Several parallel regions back to back: each runs fn once per worker.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> calls{0};
    std::vector<std::atomic<int>> per_worker(3);
    pool.Run([&](int worker_id) {
      per_worker[static_cast<size_t>(worker_id)].fetch_add(1);
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 3);
    for (int w = 0; w < 3; ++w) EXPECT_EQ(per_worker[static_cast<size_t>(w)].load(), 1);
  }
}

TEST(WorkerPoolTest, WorkersShareADispatcher) {
  // The real usage shape: one dispatcher drained by the pool. Under TSan
  // this exercises dispatcher + pool together.
  WorkerPool pool(4);
  for (int round = 0; round < 20; ++round) {
    MorselDispatcher dispatcher(977 * 8, 977);
    std::atomic<size_t> rows{0};
    pool.Run([&](int) {
      Morsel m;
      while (dispatcher.Next(&m)) rows.fetch_add(m.end - m.begin);
    });
    EXPECT_EQ(rows.load(), 977u * 8u);
  }
}

TEST(WorkerPoolTest, DestructionWithoutRunIsClean) {
  WorkerPool pool(2);  // spawn and immediately tear down
}

/// One small loaded system shared by the execution tests; vec_workers=3
/// forces the worker pool even on single-core CI machines.
class VecExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.stats_scale_factor = 0.02;
    config.data_scale_factor = 0.02;
    config.vec_workers = 3;
    ASSERT_TRUE(system_->Init(config).ok());
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  /// Runs the AP plan through both executors and asserts byte-identical
  /// fingerprints and identical per-node ExecStats, stopped set included.
  static void ExpectParity(const std::string& sql) {
    auto query = system_->Bind(sql);
    ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
    auto plans = system_->PlanBoth(*query);
    ASSERT_TRUE(plans.ok()) << sql;
    ExecStats row_stats, vec_stats;
    auto row_res =
        system_->ExecuteWithMode(ExecMode::kRow, plans->ap, *query, &row_stats);
    auto vec_res = system_->ExecuteWithMode(ExecMode::kVectorized, plans->ap,
                                            *query, &vec_stats);
    ASSERT_TRUE(row_res.ok()) << sql << ": " << row_res.status();
    ASSERT_TRUE(vec_res.ok()) << sql << ": " << vec_res.status();
    EXPECT_EQ(row_res->Fingerprint(), vec_res->Fingerprint()) << sql;
    EXPECT_EQ(row_stats.actual_rows.size(), vec_stats.actual_rows.size())
        << sql;
    for (const auto& [node, rows] : row_stats.actual_rows) {
      auto it = vec_stats.actual_rows.find(node);
      ASSERT_NE(it, vec_stats.actual_rows.end())
          << sql << " missing stats for " << PlanOpName(node->op);
      EXPECT_EQ(it->second, rows) << sql << " " << PlanOpName(node->op);
    }
    EXPECT_EQ(row_stats.stopped, vec_stats.stopped) << sql;
  }

  static HtapSystem* system_;
};

HtapSystem* VecExecutorTest::system_ = nullptr;

TEST_F(VecExecutorTest, OperatorCoverageParity) {
  const char* queries[] = {
      // Typed-mask scan + typed fused aggregation (int and double sums).
      "SELECT COUNT(*), SUM(o_totalprice), MIN(o_totalprice), "
      "MAX(o_totalprice) FROM orders WHERE o_totalprice > 50000",
      "SELECT COUNT(*), SUM(o_custkey), AVG(o_custkey) FROM orders "
      "WHERE o_custkey BETWEEN 100 AND 900",
      // String predicates against string literals lower onto the typed
      // mask (every comparison, IN with a number and a NULL among the
      // strings, BETWEEN); an OR, LIKE and a string compared with a number
      // take the per-row fallback path inside the morsel loop.
      "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'",
      "SELECT COUNT(*) FROM orders WHERE o_orderstatus <> 'o' "
      "AND o_orderpriority >= '3-medium'",
      "SELECT COUNT(*) FROM customer WHERE c_name > 'customer#000000100' "
      "AND c_name < 'customer#000002900'",
      "SELECT COUNT(*) FROM customer WHERE c_name < 'customer#000000100' "
      "OR c_name > 'customer#000002900'",
      "SELECT COUNT(*) FROM customer WHERE c_mktsegment <= 'building'",
      "SELECT COUNT(*) FROM orders "
      "WHERE o_orderpriority IN ('1-urgent', 5, NULL, '5-low')",
      "SELECT COUNT(*) FROM customer "
      "WHERE c_mktsegment BETWEEN 'automobile' AND 'household'",
      "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 1",
      "SELECT COUNT(*) FROM customer WHERE c_name LIKE 'customer#0000001%'",
      // Typed masks: a double literal against an int column compares in
      // double; a NULL literal or BETWEEN bound passes no row.
      "SELECT COUNT(*) FROM customer WHERE c_nationkey < 3.5",
      "SELECT COUNT(*) FROM orders WHERE o_totalprice > NULL",
      "SELECT COUNT(*) FROM customer WHERE c_acctbal BETWEEN NULL AND 1000",
      // Grouped (generic fused) aggregation, with and without joins.
      "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer "
      "GROUP BY c_nationkey ORDER BY c_nationkey",
      "SELECT n_name, COUNT(*) FROM nation, customer "
      "WHERE n_nationkey = c_nationkey GROUP BY n_name",
      // Join pipeline feeding a bare scan chain (multi-morsel probe side).
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_totalprice > 100000",
      // A join on double keys hashes the gathered doubles.
      "SELECT COUNT(*) FROM customer, supplier WHERE c_acctbal = s_acctbal",
      // Three-way join chain.
      "SELECT COUNT(*) FROM customer, nation, orders "
      "WHERE o_custkey = c_custkey AND n_nationkey = c_nationkey "
      "AND n_name = 'egypt'",
      // Top-N (bounded heap) with ties on the sort key, plus offset.
      "SELECT o_orderkey, o_orderstatus FROM orders "
      "ORDER BY o_orderstatus LIMIT 10 OFFSET 3",
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC, o_orderkey LIMIT 20",
      // Top-N over a join pipeline whose build side is empty: the scan
      // never runs.
      "SELECT o_orderkey, o_totalprice FROM customer, orders "
      "WHERE o_custkey = c_custkey AND c_name = 'nobody' "
      "ORDER BY o_totalprice DESC LIMIT 5",
      // Sort without limit, projection arithmetic, DISTINCT aggregate.
      "SELECT n_name FROM nation ORDER BY n_name",
      "SELECT o_orderkey, o_totalprice * 2 FROM orders "
      "WHERE o_orderkey < 50 ORDER BY o_orderkey",
      "SELECT COUNT(DISTINCT c_nationkey) FROM customer",
      // IN list and OR predicates.
      "SELECT COUNT(*) FROM customer WHERE c_nationkey IN (1, 3, 5, 7)",
      "SELECT COUNT(*) FROM customer WHERE c_acctbal < 0 OR c_nationkey = 4",
  };
  for (const char* sql : queries) ExpectParity(sql);
}

TEST_F(VecExecutorTest, SingleWorkerMatchesMultiWorker) {
  // Same loaded data, vec_workers=1 (inline, no pool): results and stats
  // must be identical to the row oracle there too, which transitively pins
  // worker-count independence.
  HtapSystem single;
  HtapConfig config;
  config.stats_scale_factor = 0.02;
  config.data_scale_factor = 0.02;
  config.vec_workers = 1;
  ASSERT_TRUE(single.Init(config).ok());
  const char* queries[] = {
      "SELECT COUNT(*), SUM(o_totalprice) FROM orders "
      "WHERE o_totalprice > 50000",
      "SELECT c_nationkey, COUNT(*) FROM customer GROUP BY c_nationkey",
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey",
  };
  for (const char* sql : queries) {
    auto query = single.Bind(sql);
    ASSERT_TRUE(query.ok()) << sql;
    auto plans = single.PlanBoth(*query);
    ASSERT_TRUE(plans.ok()) << sql;
    auto row_res = single.ExecuteWithMode(ExecMode::kRow, plans->ap, *query);
    auto vec_res =
        single.ExecuteWithMode(ExecMode::kVectorized, plans->ap, *query);
    ASSERT_TRUE(row_res.ok() && vec_res.ok()) << sql;
    EXPECT_EQ(row_res->Fingerprint(), vec_res->Fingerprint()) << sql;

    // And the multi-worker system produces the same fingerprint on its own
    // (identically seeded) copy of the data.
    auto multi_query = system_->Bind(sql);
    ASSERT_TRUE(multi_query.ok());
    auto multi_plans = system_->PlanBoth(*multi_query);
    ASSERT_TRUE(multi_plans.ok());
    auto multi_res = system_->ExecuteWithMode(ExecMode::kVectorized,
                                              multi_plans->ap, *multi_query);
    ASSERT_TRUE(multi_res.ok()) << sql;
    EXPECT_EQ(multi_res->Fingerprint(), vec_res->Fingerprint()) << sql;
  }
}

TEST_F(VecExecutorTest, BatchProbeAgreesAcrossWorkers) {
  // The batch probe (flat JoinTable, gathered keys, late materialization)
  // must hold the row-oracle parity contract at 1 and 3 workers.
  const char* queries[] = {
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_totalprice > 100000",
      "SELECT n_name, COUNT(*), SUM(o_totalprice) FROM nation, customer, "
      "orders WHERE o_custkey = c_custkey AND n_nationkey = c_nationkey "
      "GROUP BY n_name ORDER BY n_name",
      // String equi-key: HashBytes path through the gathered probe.
      "SELECT COUNT(*) FROM nation, customer "
      "WHERE n_name = c_mktsegment",
      // Empty build side: the probe spine must cut without running the
      // scan, with identical ExecStats node sets on both executors.
      "SELECT COUNT(*) FROM nation, customer "
      "WHERE n_nationkey = c_nationkey AND n_name = 'nosuchnation'",
  };
  HtapSystem single;
  HtapConfig config;
  config.stats_scale_factor = 0.02;
  config.data_scale_factor = 0.02;
  config.vec_workers = 1;
  ASSERT_TRUE(single.Init(config).ok());
  for (const char* sql : queries) {
    ExpectParity(sql);  // 3 workers
    auto query = single.Bind(sql);
    ASSERT_TRUE(query.ok()) << sql;
    auto plans = single.PlanBoth(*query);
    ASSERT_TRUE(plans.ok()) << sql;
    auto row_res = single.ExecuteWithMode(ExecMode::kRow, plans->ap, *query);
    auto vec_res =
        single.ExecuteWithMode(ExecMode::kVectorized, plans->ap, *query);
    ASSERT_TRUE(row_res.ok() && vec_res.ok()) << sql;
    EXPECT_EQ(row_res->Fingerprint(), vec_res->Fingerprint()) << sql;
  }
}

bool HasOp(const PlanNode& node, PlanOp op) {
  if (node.op == op) return true;
  for (const auto& c : node.children) {
    if (HasOp(*c, op)) return true;
  }
  return false;
}

TEST_F(VecExecutorTest, ConcurrentRunQueryMatchesSingleThreaded) {
  // RunQuery is const: several threads may run queries on one system at
  // once. Every concurrent result must equal the single-threaded one, with
  // morsels run inline (1 worker) and on the shared worker pool (3).
  const char* queries[] = {
      // Sifted scan: the part join's Bloom filter prunes lineitem.
      "SELECT COUNT(*) FROM lineitem, part "
      "WHERE l_partkey = p_partkey AND p_size = 15",
      "SELECT n_name, COUNT(*), SUM(o_totalprice) FROM nation, customer, "
      "orders WHERE o_custkey = c_custkey AND n_nationkey = c_nationkey "
      "GROUP BY n_name",
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC, o_orderkey LIMIT 20",
  };
  HtapSystem single;
  HtapConfig config;
  config.stats_scale_factor = 0.02;
  config.data_scale_factor = 0.02;
  config.vec_workers = 1;
  ASSERT_TRUE(single.Init(config).ok());
  for (const HtapSystem* system : {&single, system_}) {
    std::vector<std::string> want_tp, want_ap;
    for (const char* sql : queries) {
      auto outcome = system->RunQuery(sql);
      ASSERT_TRUE(outcome.ok()) << sql << ": " << outcome.status();
      want_tp.push_back(outcome->tp_result->Fingerprint());
      want_ap.push_back(outcome->ap_result->Fingerprint());
    }
    auto sifted = system->Bind(queries[0]);
    ASSERT_TRUE(sifted.ok());
    auto plans = system->PlanBoth(*sifted);
    ASSERT_TRUE(plans.ok());
    ASSERT_TRUE(HasOp(*plans->ap.root, PlanOp::kSiftedScan));

    std::atomic<int> failures{0}, mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 3; ++round) {
          for (size_t q = 0; q < std::size(queries); ++q) {
            // Stagger the threads so different queries overlap.
            size_t i = (q + static_cast<size_t>(t)) % std::size(queries);
            auto outcome = system->RunQuery(queries[i]);
            if (!outcome.ok()) {
              failures.fetch_add(1);
            } else if (outcome->tp_result->Fingerprint() != want_tp[i] ||
                       outcome->ap_result->Fingerprint() != want_ap[i]) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const int workers = system->vec_executor()->effective_workers();
    EXPECT_EQ(failures.load(), 0) << workers << " worker(s)";
    EXPECT_EQ(mismatches.load(), 0) << workers << " worker(s)";
  }
}

TEST_F(VecExecutorTest, VectorizedRejectsTpPlans) {
  auto query = system_->Bind("SELECT COUNT(*) FROM nation");
  ASSERT_TRUE(query.ok());
  auto plans = system_->PlanBoth(*query);
  ASSERT_TRUE(plans.ok());
  auto res =
      system_->ExecuteWithMode(ExecMode::kVectorized, plans->tp, *query);
  EXPECT_FALSE(res.ok());
}

TEST_F(VecExecutorTest, RunQueryCrossChecksThroughVectorizedPath) {
  // AP plans run on the vectorized executor, so RunQuery's TP-vs-AP
  // fingerprint cross-check exercises row(TP) vs vectorized(AP).
  auto outcome = system_->RunQuery(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "WHERE o_totalprice > 100000 ORDER BY o_orderkey LIMIT 25");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->results_match);
}

}  // namespace
}  // namespace htapex
