// Vectorized AP executor benchmark + self-checks (src/engine/vec_executor.h,
// morsel.h, vec_batch.h).
//
// The acceptance bar this file enforces (exit code != 0 on violation):
//   1. Parity: over a broad AP query set (hand-picked operator coverage
//      plus every generated workload pattern), the vectorized morsel-driven
//      executor and the row-at-a-time oracle produce byte-identical result
//      fingerprints and identical per-node ExecStats (actual rows and the
//      stopped set).
//   2. Scan-aggregate speedup: on scan-dominated aggregation queries —
//      the tuple-at-a-time AP path the vectorized pipeline replaces — the
//      vectorized executor with ONE morsel worker is >= 3x faster
//      (geomean) than the row executor on the same AP plans.
//   3. Morsel scaling: 4 workers beat 1 worker by >= 1.5x on a
//      scan-aggregate query (auto-skipped on machines with < 2 cores,
//      where the extra workers just contend for one core).
//   4. Join speedup: on join-heavy pipelines (two/three-way joins plus
//      generated kJoinStarChain plans, sifted and bushy), the vectorized
//      executor with ONE morsel worker is >= 1.52x faster (geomean) than
//      the row executor on the same AP plans. The bar began as 2x of the
//      batch probe over the row-at-a-time probe it replaced, times the
//      4.4-4.6x the row executor took over that probe: 9x, so a return to
//      per-row probing failed it. When the row executor began pushing rows
//      by reference instead of copying every operator's output, its time
//      on this set fell to 0.169x of the parent's (geomean of per-query
//      medians over 6 alternating runs per side, EXPERIMENTS S10) while
//      the vectorized times held (0.92x), so the bar became
//      9 x 0.169 = 1.52x: it trips at the same vectorized time as before.
//      The scan-aggregate bar did not fail (row time 0.55x, ratios
//      9.7-10.2x), so it stays at 3x.
//   Both speedup checks also require byte-identical fingerprints.
//
// `--self-check` runs reduced-rep versions of the same checks (the CI
// engine job's fast path); without it the full benchmark table prints too.
// Every run also writes machine-readable results (geomean speedups,
// per-query timings and plan-rows/sec) to BENCH_vexec.json in the working
// directory.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "engine/htap_system.h"
#include "workload/query_generator.h"

namespace {

using namespace htapex;
using namespace htapex::bench;

/// Loaded-data fixture: statistics at the loaded scale so generated
/// queries hit real keys. SF 0.05 gives orders ~75k rows (~19 morsels).
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

/// A bound + planned query, reused across reps so timing excludes the
/// front end.
struct PlannedQuery {
  std::string sql;
  BoundQuery query;
  PlanPair plans;
};

std::vector<PlannedQuery> PlanAll(const HtapSystem& system,
                                  const std::vector<std::string>& sqls) {
  std::vector<PlannedQuery> out;
  for (const std::string& sql : sqls) {
    auto bound = system.Bind(sql);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind failed (%s): %s\n", sql.c_str(),
                   bound.status().ToString().c_str());
      continue;
    }
    auto plans = system.PlanBoth(*bound);
    if (!plans.ok()) continue;
    out.push_back({sql, std::move(*bound), std::move(*plans)});
  }
  return out;
}

/// Operator-coverage parity set: every vectorized code path (typed-mask
/// scan, per-row fallback, typed and generic fused aggregation, join
/// pipelines, Top-N, sort, distinct) plus TP-favoured shapes for contrast.
std::vector<std::string> ParityQueries() {
  return {
      "SELECT COUNT(*), SUM(o_totalprice), MIN(o_totalprice), "
      "MAX(o_totalprice) FROM orders WHERE o_totalprice > 50000",
      "SELECT COUNT(*), SUM(o_custkey), AVG(o_custkey) FROM orders "
      "WHERE o_custkey BETWEEN 100 AND 2000",
      "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'",
      "SELECT COUNT(*) FROM customer WHERE c_name LIKE 'customer#0000001%'",
      "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer "
      "GROUP BY c_nationkey ORDER BY c_nationkey",
      "SELECT n_name, COUNT(*) FROM nation, customer "
      "WHERE n_nationkey = c_nationkey GROUP BY n_name",
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_totalprice > 100000",
      "SELECT COUNT(*) FROM customer, nation, orders "
      "WHERE o_custkey = c_custkey AND n_nationkey = c_nationkey "
      "AND n_name = 'egypt'",
      "SELECT o_orderkey, o_orderstatus FROM orders "
      "ORDER BY o_orderstatus LIMIT 10 OFFSET 3",
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC, o_orderkey LIMIT 20",
      "SELECT COUNT(DISTINCT c_nationkey) FROM customer",
      "SELECT COUNT(*) FROM customer WHERE c_nationkey IN (1, 3, 5, 7)",
      "SELECT COUNT(*) FROM customer WHERE c_acctbal < 0 OR c_nationkey = 4",
  };
}

/// Scan-dominated aggregation queries: the speedup gate set. These are the
/// shapes where tuple-at-a-time execution pays per-row Value
/// materialization and virtual dispatch that the typed morsel pipeline
/// eliminates.
std::vector<std::string> SpeedupQueries() {
  return {
      "SELECT COUNT(*), SUM(o_totalprice), MIN(o_totalprice), "
      "MAX(o_totalprice) FROM orders WHERE o_totalprice > 10000",
      "SELECT COUNT(*), SUM(o_custkey) FROM orders "
      "WHERE o_custkey BETWEEN 50 AND 3000",
      "SELECT COUNT(*), SUM(o_totalprice) FROM orders "
      "WHERE o_totalprice BETWEEN 50000 AND 200000",
      "SELECT COUNT(*), SUM(c_acctbal), AVG(c_acctbal) FROM customer "
      "WHERE c_acctbal > 0",
  };
}

/// Check 1: vectorized execution is an implementation detail, not a
/// behaviour change — fingerprints and per-node stats must match the
/// row-at-a-time oracle exactly.
bool CheckParity(const HtapSystem& system) {
  std::vector<std::string> sqls = ParityQueries();
  // Add the generated workload: every pattern, a few seeds each.
  QueryGenerator gen(system.config().stats_scale_factor, 0xbe9c);
  for (QueryPattern pattern : AllQueryPatterns()) {
    QueryGenerator pgen(system.config().stats_scale_factor,
                        0xbe9c ^ static_cast<uint64_t>(pattern));
    for (int i = 0; i < 4; ++i) sqls.push_back(pgen.Generate(pattern).sql);
  }
  std::vector<PlannedQuery> planned = PlanAll(system, sqls);

  size_t fingerprint_mismatches = 0, stats_mismatches = 0, errors = 0;
  for (const PlannedQuery& pq : planned) {
    ExecStats row_stats, vec_stats;
    auto row_res = system.ExecuteWithMode(ExecMode::kRow, pq.plans.ap,
                                          pq.query, &row_stats);
    auto vec_res = system.ExecuteWithMode(ExecMode::kVectorized, pq.plans.ap,
                                          pq.query, &vec_stats);
    if (row_res.ok() != vec_res.ok()) {
      std::fprintf(stderr, "executor ok-ness diverged: %s\n", pq.sql.c_str());
      ++errors;
      continue;
    }
    if (!row_res.ok()) continue;  // both error identically: fine
    if (row_res->Fingerprint() != vec_res->Fingerprint()) {
      std::fprintf(stderr, "fingerprint mismatch: %s\n", pq.sql.c_str());
      ++fingerprint_mismatches;
    }
    bool stats_same =
        row_stats.actual_rows.size() == vec_stats.actual_rows.size() &&
        row_stats.stopped == vec_stats.stopped;
    for (const auto& [node, rows] : row_stats.actual_rows) {
      auto it = vec_stats.actual_rows.find(node);
      if (it == vec_stats.actual_rows.end() || it->second != rows) {
        stats_same = false;
      }
    }
    if (!stats_same) {
      std::fprintf(stderr, "ExecStats mismatch: %s\n", pq.sql.c_str());
      ++stats_mismatches;
    }
  }
  std::printf(
      "parity: %zu queries, %zu fingerprint mismatches, %zu stats "
      "mismatches, %zu errors (bars: 0, 0, 0)\n",
      planned.size(), fingerprint_mismatches, stats_mismatches, errors);
  if (fingerprint_mismatches != 0 || stats_mismatches != 0 || errors != 0) {
    std::fprintf(stderr, "FAIL: row/vectorized parity violated\n");
    return false;
  }
  return true;
}

/// One timed query for the machine-readable report.
struct BenchEntry {
  std::string sql;
  double ms_row = 0.0;
  double ms_vec = 0.0;  // one morsel worker
  double speedup = 0.0;
  /// Sum of per-node actual rows flowing through the plan, divided by the
  /// vectorized time — a plan-throughput figure comparable across runs.
  double rows_per_sec = 0.0;
};

/// Total rows flowing through the AP plan (sum of per-node actual
/// cardinalities), for the rows/sec figures in BENCH_vexec.json.
size_t PlanRows(const HtapSystem& system, const PlannedQuery& pq) {
  ExecStats stats;
  auto res =
      system.ExecuteWithMode(ExecMode::kVectorized, pq.plans.ap, pq.query, &stats);
  if (!res.ok()) return 0;
  size_t total = 0;
  for (const auto& [node, rows] : stats.actual_rows) total += rows;
  return total;
}

/// Checks 2 and 4: the vectorized executor with one morsel worker must be
/// at least `bar` times faster (geomean over `sqls`) than the row executor
/// on the same AP plans, with identical fingerprints.
bool CheckSpeedupOverRow(const HtapSystem& system, const char* name,
                         const std::vector<std::string>& sqls, double bar,
                         int reps, double* geomean_out,
                         std::vector<BenchEntry>* entries) {
  std::vector<PlannedQuery> planned = PlanAll(system, sqls);
  system.vec_executor()->set_num_workers(1);
  double log_sum = 0.0;
  size_t counted = 0;
  bool ok = true;
  for (const PlannedQuery& pq : planned) {
    auto row = [&] {
      return system.ExecuteWithMode(ExecMode::kRow, pq.plans.ap, pq.query);
    };
    auto vec = [&] {
      return system.ExecuteWithMode(ExecMode::kVectorized, pq.plans.ap,
                                    pq.query);
    };
    auto row_res = row();
    auto vec_res = vec();
    if (row_res.ok() != vec_res.ok() ||
        (row_res.ok() && row_res->Fingerprint() != vec_res->Fingerprint())) {
      std::fprintf(stderr, "row/vectorized fingerprint mismatch: %s\n",
                   pq.sql.c_str());
      ok = false;
      continue;
    }
    if (!row_res.ok()) continue;
    double ms_row = 0.0, ms_vec = 0.0;
    BestMillisAb(
        reps, [&] { benchmark::DoNotOptimize(row()); },
        [&] { benchmark::DoNotOptimize(vec()); }, &ms_row, &ms_vec);
    double speedup = ms_row / ms_vec;
    log_sum += std::log(speedup);
    ++counted;
    std::printf("  row %8.3f ms | vec(1 worker) %8.3f ms | %5.1fx  %s\n",
                ms_row, ms_vec, speedup, pq.sql.c_str());
    entries->push_back(
        {pq.sql, ms_row, ms_vec, speedup,
         static_cast<double>(PlanRows(system, pq)) / (ms_vec / 1000.0)});
  }
  if (counted == 0) {
    std::fprintf(stderr, "FAIL: no %s queries ran\n", name);
    return false;
  }
  double geomean = std::exp(log_sum / static_cast<double>(counted));
  *geomean_out = geomean;
  std::printf("%s speedup: geomean %.1fx over %zu queries (bar: >= %gx)\n",
              name, geomean, counted, bar);
  if (geomean < bar) {
    std::fprintf(stderr, "FAIL: %s speedup %.2fx < %gx\n", name, geomean,
                 bar);
    return false;
  }
  return ok;
}

/// Join-heavy pipeline set for the join gate: hand-written two- and
/// three-way joins over the largest tables plus generated kJoinStarChain
/// plans (4-5 table star/chain shapes the optimizer sifts and bushes).
std::vector<std::string> JoinQueries(const HtapSystem& system) {
  std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey",
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_totalprice > 50000",
      "SELECT n_name, COUNT(*), SUM(o_totalprice) FROM nation, customer, "
      "orders WHERE o_custkey = c_custkey AND n_nationkey = c_nationkey "
      "GROUP BY n_name",
  };
  QueryGenerator gen(system.config().stats_scale_factor, 0x517a);
  for (int i = 0; i < 3; ++i) {
    sqls.push_back(gen.Generate(QueryPattern::kJoinStarChain).sql);
  }
  return sqls;
}

void AppendJsonEntries(std::string* out, const std::vector<BenchEntry>& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[256];
    std::string sql = v[i].sql;
    for (char& c : sql) {
      if (c == '"' || c == '\\') c = '\'';
    }
    *out += "    {\"sql\": \"" + sql + "\", ";
    std::snprintf(buf, sizeof(buf),
                  "\"row_ms\": %.4f, \"vec_ms\": %.4f, \"speedup\": %.3f, "
                  "\"plan_rows_per_sec\": %.0f}",
                  v[i].ms_row, v[i].ms_vec, v[i].speedup, v[i].rows_per_sec);
    *out += buf;
    *out += i + 1 == v.size() ? "\n" : ",\n";
  }
}

/// Writes the machine-readable report next to the binary's working dir.
void WriteBenchJson(double scan_geomean, double join_geomean,
                    const std::vector<BenchEntry>& scan_entries,
                    const std::vector<BenchEntry>& join_entries) {
  std::string json = "{\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "  \"scan_agg_geomean_speedup\": %.3f,\n"
                "  \"join_geomean_speedup\": %.3f,\n",
                scan_geomean, join_geomean);
  json += buf;
  json += "  \"scan_agg\": [\n";
  AppendJsonEntries(&json, scan_entries);
  json += "  ],\n  \"join\": [\n";
  AppendJsonEntries(&json, join_entries);
  json += "  ]\n}\n";
  std::FILE* f = std::fopen("BENCH_vexec.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write BENCH_vexec.json\n");
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote BENCH_vexec.json\n");
}

/// Check 3: morsel-driven scaling, 1 -> 4 workers. Meaningless on a
/// single-core machine (workers would time-slice one core), so auto-skip
/// there — CI runs this on multi-core runners.
bool CheckMorselScaling(const HtapSystem& system, int reps) {
  unsigned cores = std::thread::hardware_concurrency();
  if (cores < 2) {
    std::printf(
        "morsel scaling skipped: %u hardware thread(s) — need >= 2 for a "
        "meaningful 1->4 worker comparison\n",
        cores);
    return true;
  }
  std::vector<PlannedQuery> planned = PlanAll(
      system,
      {"SELECT COUNT(*), SUM(o_totalprice), MIN(o_totalprice), "
       "MAX(o_totalprice) FROM orders WHERE o_totalprice > 10000"});
  if (planned.empty()) {
    std::fprintf(stderr, "FAIL: scaling query did not plan\n");
    return false;
  }
  const PlannedQuery& pq = planned[0];
  double ms_1 = 0.0, ms_4 = 0.0;
  BestMillisAb(
      reps,
      [&] {
        system.vec_executor()->set_num_workers(1);
        auto r =
            system.ExecuteWithMode(ExecMode::kVectorized, pq.plans.ap, pq.query);
        benchmark::DoNotOptimize(r);
      },
      [&] {
        system.vec_executor()->set_num_workers(4);
        auto r =
            system.ExecuteWithMode(ExecMode::kVectorized, pq.plans.ap, pq.query);
        benchmark::DoNotOptimize(r);
      },
      &ms_1, &ms_4);
  double scaling = ms_1 / ms_4;
  std::printf(
      "morsel scaling (%u cores): 1 worker %.3f ms, 4 workers %.3f ms -> "
      "%.2fx (bar: >= 1.5x)\n",
      cores, ms_1, ms_4, scaling);
  if (scaling < 1.5) {
    std::fprintf(stderr, "FAIL: 1->4 worker scaling %.2fx < 1.5x\n", scaling);
    return false;
  }
  return true;
}

void BM_RowExecutorScanAgg(benchmark::State& state) {
  HtapSystem* system = SharedSystem().get();
  if (system == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  static std::vector<PlannedQuery> planned =
      PlanAll(*system, SpeedupQueries());
  const PlannedQuery& pq = planned[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        system->ExecuteWithMode(ExecMode::kRow, pq.plans.ap, pq.query));
  }
  state.SetLabel(pq.sql.substr(0, 48));
}
BENCHMARK(BM_RowExecutorScanAgg)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_VecExecutorScanAgg(benchmark::State& state) {
  HtapSystem* system = SharedSystem().get();
  if (system == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  static std::vector<PlannedQuery> planned =
      PlanAll(*system, SpeedupQueries());
  const PlannedQuery& pq = planned[static_cast<size_t>(state.range(0))];
  system->vec_executor()->set_num_workers(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        system->ExecuteWithMode(ExecMode::kVectorized, pq.plans.ap, pq.query));
  }
  state.SetLabel(pq.sql.substr(0, 48));
}
BENCHMARK(BM_VecExecutorScanAgg)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_VecExecutorJoinPipeline(benchmark::State& state) {
  HtapSystem* system = SharedSystem().get();
  if (system == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  static std::vector<PlannedQuery> planned = PlanAll(
      *system,
      {"SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
       "AND o_totalprice > 100000"});
  const PlannedQuery& pq = planned[0];
  system->vec_executor()->set_num_workers(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        system->ExecuteWithMode(ExecMode::kVectorized, pq.plans.ap, pq.query));
  }
}
BENCHMARK(BM_VecExecutorJoinPipeline)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

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

  const int reps = self_check ? 7 : 15;
  std::printf("\n=== vectorized executor self-checks%s ===\n",
              self_check ? " (quick)" : "");
  bool ok = true;
  double scan_geomean = 0.0, join_geomean = 0.0;
  std::vector<BenchEntry> scan_entries, join_entries;
  ok = CheckParity(*system) && ok;
  ok = CheckSpeedupOverRow(*system, "scan-agg", SpeedupQueries(), 3.0, reps,
                           &scan_geomean, &scan_entries) &&
       ok;
  ok = CheckSpeedupOverRow(*system, "join", JoinQueries(*system), 1.52, reps,
                           &join_geomean, &join_entries) &&
       ok;
  ok = CheckMorselScaling(*system, reps) && ok;
  WriteBenchJson(scan_geomean, join_geomean, scan_entries, join_entries);
  std::printf("%s\n", ok ? "ALL CHECKS PASSED" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
