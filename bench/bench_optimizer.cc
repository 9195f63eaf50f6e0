// Cost-based join enumeration + Bloom-filter predicate transfer benchmark
// and self-checks (src/ap/ap_optimizer.cc, src/plan/pt_graph.h).
//
// The acceptance bar this file enforces (exit code != 0 on violation):
//   1. DP never worse: on every generated multi-join query, the bitset-DP
//      join order's modeled cost is <= the greedy order's modeled cost
//      (sifting disabled on both sides so the comparison is purely about
//      join order).
//   2. Sifting pays: on selective join queries where the optimizer applies
//      a Bloom-filter sift and the sifted scan executes, executing the
//      sifted plan moves strictly fewer rows through the executor than the
//      sift-disabled plan — with byte-identical results — and the saving is
//      measurable (>= 5% on at least one query). A sifted scan under a hash
//      join whose build side is empty never runs in either plan, so those
//      queries are listed as not reached instead of counted.
//   3. New-shape parity: the row and vectorized executors produce
//      byte-identical fingerprints and identical per-node ExecStats on
//      every plan containing a sifted scan or a bushy join.
//
// `--self-check` runs exactly these checks (the CI optimizer job's fast
// path); without it the optimizer timing benchmarks print too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ap/ap_optimizer.h"
#include "engine/htap_system.h"
#include "workload/query_generator.h"

namespace {

using namespace htapex;

/// Loaded-data fixture: statistics at the loaded scale so generated
/// queries hit real keys and sift decisions see real cardinalities.
std::unique_ptr<HtapSystem>& SharedSystem() {
  static std::unique_ptr<HtapSystem> system = [] {
    auto s = std::make_unique<HtapSystem>();
    HtapConfig config;
    config.stats_scale_factor = 0.05;
    config.data_scale_factor = 0.05;
    Status st = s->Init(config);
    if (!st.ok()) {
      std::fprintf(stderr, "system init failed: %s\n", st.ToString().c_str());
      s.reset();
    }
    return s;
  }();
  return system;
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

/// Every join-bearing workload pattern, several seeds each, plus
/// hand-written star/chain shapes that exercise 4-way enumeration.
std::vector<std::string> JoinQuerySet() {
  std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM lineitem, orders, part, supplier WHERE "
      "l_orderkey = o_orderkey AND l_partkey = p_partkey AND "
      "l_suppkey = s_suppkey AND p_size = 10 AND s_acctbal > 8000",
      "SELECT COUNT(*) FROM region, nation, customer, orders WHERE "
      "r_regionkey = n_regionkey AND n_nationkey = c_nationkey AND "
      "c_custkey = o_custkey AND r_name = 'asia'",
      "SELECT COUNT(*) FROM lineitem, part WHERE l_partkey = p_partkey "
      "AND p_size = 7 AND p_container = 'sm case'",
      "SELECT COUNT(*) FROM customer, nation, orders WHERE o_custkey = "
      "c_custkey AND n_nationkey = c_nationkey AND n_name = 'egypt'",
  };
  const QueryPattern join_patterns[] = {
      QueryPattern::kJoinSmall,        QueryPattern::kJoinLarge,
      QueryPattern::kJoinFunctionPred, QueryPattern::kGroupByAggregate,
      QueryPattern::kJoinStarChain,
  };
  for (QueryPattern pattern : join_patterns) {
    QueryGenerator gen(SharedSystem()->config().stats_scale_factor,
                       0x0b71 ^ static_cast<uint64_t>(pattern));
    for (int i = 0; i < 5; ++i) sqls.push_back(gen.Generate(pattern).sql);
  }
  return sqls;
}

struct BoundSql {
  std::string sql;
  BoundQuery query;
};

std::vector<BoundSql> BindAll(const HtapSystem& system,
                              const std::vector<std::string>& sqls) {
  std::vector<BoundSql> out;
  for (const std::string& sql : sqls) {
    auto bound = system.Bind(sql);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind failed (%s): %s\n", sql.c_str(),
                   bound.status().ToString().c_str());
      continue;
    }
    out.push_back({sql, std::move(*bound)});
  }
  return out;
}

/// Check 1: the DP enumerator's modeled cost is never worse than greedy's.
bool CheckDpNeverWorse(const HtapSystem& system) {
  ApCostParams dp_params;
  dp_params.sift = false;
  ApCostParams greedy_params;
  greedy_params.enable_dp = false;
  greedy_params.sift = false;
  ApOptimizer dp_opt(system.catalog(), dp_params);
  ApOptimizer greedy_opt(system.catalog(), greedy_params);

  size_t compared = 0, violations = 0;
  for (const BoundSql& bq : BindAll(system, JoinQuerySet())) {
    if (bq.query.num_tables() < 2) continue;
    auto dp_plan = dp_opt.Plan(bq.query);
    auto greedy_plan = greedy_opt.Plan(bq.query);
    if (!dp_plan.ok() || !greedy_plan.ok()) {
      std::fprintf(stderr, "planning failed: %s\n", bq.sql.c_str());
      ++violations;
      continue;
    }
    ++compared;
    double dp_cost = dp_plan->root->total_cost;
    double greedy_cost = greedy_plan->root->total_cost;
    if (dp_cost > greedy_cost * (1.0 + 1e-9)) {
      std::fprintf(stderr, "DP costlier than greedy (%.4f > %.4f): %s\n",
                   dp_cost, greedy_cost, bq.sql.c_str());
      ++violations;
    }
  }
  std::printf(
      "dp-never-worse: %zu multi-join queries compared, %zu violations "
      "(bar: 0 violations, > 0 queries)\n",
      compared, violations);
  if (violations != 0 || compared == 0) {
    std::fprintf(stderr, "FAIL: DP join enumeration not uniformly better\n");
    return false;
  }
  return true;
}

/// True when some sifted scan under `node` executed (has actual rows).
bool SiftExecuted(const PlanNode& node, const ExecStats& stats) {
  if (node.op == PlanOp::kSiftedScan && stats.actual_rows.count(&node) > 0) {
    return true;
  }
  for (const auto& c : node.children) {
    if (SiftExecuted(*c, stats)) return true;
  }
  return false;
}

size_t SumActualRows(const ExecStats& stats) {
  size_t sum = 0;
  for (const auto& [node, rows] : stats.actual_rows) sum += rows;
  return sum;
}

/// Check 2: where a sift is applied, execution moves fewer rows and the
/// result is unchanged.
bool CheckSiftingPays(const HtapSystem& system) {
  ApCostParams sift_on;
  ApCostParams sift_off;
  sift_off.sift = false;
  ApOptimizer on_opt(system.catalog(), sift_on);
  ApOptimizer off_opt(system.catalog(), sift_off);

  size_t sifted = 0, unreached = 0, violations = 0;
  double best_saving = 0.0;
  for (const BoundSql& bq : BindAll(system, JoinQuerySet())) {
    auto on_plan = on_opt.Plan(bq.query);
    auto off_plan = off_opt.Plan(bq.query);
    if (!on_plan.ok() || !off_plan.ok()) continue;
    if (!HasOp(*on_plan->root, PlanOp::kSiftedScan)) continue;
    ExecStats on_stats, off_stats;
    auto on_res =
        system.ExecuteWithMode(ExecMode::kRow, *on_plan, bq.query, &on_stats);
    auto off_res =
        system.ExecuteWithMode(ExecMode::kRow, *off_plan, bq.query, &off_stats);
    if (!on_res.ok() || !off_res.ok()) {
      std::fprintf(stderr, "execution failed: %s\n", bq.sql.c_str());
      ++violations;
      continue;
    }
    if (on_res->Fingerprint() != off_res->Fingerprint()) {
      std::fprintf(stderr, "sift changed the result: %s\n", bq.sql.c_str());
      ++violations;
      continue;
    }
    if (!SiftExecuted(*on_plan->root, on_stats)) {
      ++unreached;
      std::printf("  sift not reached (empty build)  %s\n",
                  bq.sql.substr(0, 56).c_str());
      continue;
    }
    ++sifted;
    size_t rows_on = SumActualRows(on_stats);
    size_t rows_off = SumActualRows(off_stats);
    if (rows_on >= rows_off) {
      std::fprintf(stderr, "sift moved no fewer rows (%zu >= %zu): %s\n",
                   rows_on, rows_off, bq.sql.c_str());
      ++violations;
      continue;
    }
    double saving = 1.0 - static_cast<double>(rows_on) /
                              static_cast<double>(rows_off);
    best_saving = std::max(best_saving, saving);
    std::printf("  sift: %6zu -> %6zu rows (%4.1f%% saved)  %s\n", rows_off,
                rows_on, saving * 100.0, bq.sql.substr(0, 56).c_str());
  }
  std::printf(
      "sifting-pays: %zu sifted queries, %zu violations, best saving "
      "%.1f%% (bars: > 0 sifted, 0 violations, >= 5%%); %zu sift not "
      "reached (empty build)\n",
      sifted, violations, best_saving * 100.0, unreached);
  if (sifted == 0 || violations != 0 || best_saving < 0.05) {
    std::fprintf(stderr, "FAIL: predicate transfer not measurably paying\n");
    return false;
  }
  return true;
}

/// Check 3: row/vectorized parity on sifted-scan and bushy-join plans.
bool CheckNewShapeParity(const HtapSystem& system) {
  ApOptimizer opt(system.catalog(), ApCostParams{});
  size_t checked = 0, mismatches = 0;
  for (const BoundSql& bq : BindAll(system, JoinQuerySet())) {
    auto plan = opt.Plan(bq.query);
    if (!plan.ok()) continue;
    bool new_shape = HasOp(*plan->root, PlanOp::kSiftedScan) ||
                     HasBushyJoin(*plan->root);
    if (!new_shape) continue;
    ++checked;
    ExecStats row_stats, vec_stats;
    auto row_res =
        system.ExecuteWithMode(ExecMode::kRow, *plan, bq.query, &row_stats);
    auto vec_res = system.ExecuteWithMode(ExecMode::kVectorized, *plan,
                                          bq.query, &vec_stats);
    if (row_res.ok() != vec_res.ok()) {
      std::fprintf(stderr, "executor ok-ness diverged: %s\n", bq.sql.c_str());
      ++mismatches;
      continue;
    }
    if (!row_res.ok()) continue;
    bool same = row_res->Fingerprint() == vec_res->Fingerprint() &&
                row_stats.actual_rows.size() == vec_stats.actual_rows.size() &&
                row_stats.stopped == vec_stats.stopped;
    for (const auto& [node, rows] : row_stats.actual_rows) {
      auto it = vec_stats.actual_rows.find(node);
      if (it == vec_stats.actual_rows.end() || it->second != rows) {
        same = false;
      }
    }
    if (!same) {
      std::fprintf(stderr, "row/vec mismatch on new shape: %s\n",
                   bq.sql.c_str());
      ++mismatches;
    }
  }
  std::printf(
      "new-shape parity: %zu sifted/bushy plans, %zu mismatches "
      "(bars: > 0 plans, 0 mismatches)\n",
      checked, mismatches);
  if (checked == 0 || mismatches != 0) {
    std::fprintf(stderr, "FAIL: new plan shapes break executor parity\n");
    return false;
  }
  return true;
}

void BM_PlanJoinDp(benchmark::State& state) {
  HtapSystem* system = SharedSystem().get();
  if (system == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  static std::vector<BoundSql> bound = BindAll(*system, JoinQuerySet());
  ApOptimizer opt(system->catalog(), ApCostParams{});
  const BoundSql& bq = bound[static_cast<size_t>(state.range(0)) % bound.size()];
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.Plan(bq.query));
  }
  state.SetLabel(bq.sql.substr(0, 48));
}
BENCHMARK(BM_PlanJoinDp)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

void BM_PlanJoinGreedy(benchmark::State& state) {
  HtapSystem* system = SharedSystem().get();
  if (system == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  static std::vector<BoundSql> bound = BindAll(*system, JoinQuerySet());
  ApCostParams params;
  params.enable_dp = false;
  ApOptimizer opt(system->catalog(), params);
  const BoundSql& bq = bound[static_cast<size_t>(state.range(0)) % bound.size()];
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.Plan(bq.query));
  }
  state.SetLabel(bq.sql.substr(0, 48));
}
BENCHMARK(BM_PlanJoinGreedy)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

void BM_SiftedExecution(benchmark::State& state) {
  HtapSystem* system = SharedSystem().get();
  if (system == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  ApCostParams params;
  params.sift = state.range(0) != 0;
  ApOptimizer opt(system->catalog(), params);
  auto bound = system->Bind(
      "SELECT COUNT(*) FROM lineitem, part WHERE l_partkey = p_partkey "
      "AND p_size = 7 AND p_container = 'sm case'");
  if (!bound.ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  auto plan = opt.Plan(*bound);
  if (!plan.ok()) {
    state.SkipWithError("plan failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        system->ExecuteWithMode(ExecMode::kRow, *plan, *bound));
  }
  state.SetLabel(params.sift ? "sift on" : "sift off");
}
BENCHMARK(BM_SiftedExecution)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool self_check = false;
  // Strip --self-check before google-benchmark sees (and rejects) it.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) {
      self_check = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (SharedSystem() == nullptr) return 1;
  HtapSystem* system = SharedSystem().get();

  if (!self_check) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }

  std::printf("\n=== optimizer self-checks%s ===\n",
              self_check ? " (quick)" : "");
  bool ok = true;
  ok = CheckDpNeverWorse(*system) && ok;
  ok = CheckSiftingPays(*system) && ok;
  ok = CheckNewShapeParity(*system) && ok;
  std::printf("%s\n", ok ? "ALL CHECKS PASSED" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
