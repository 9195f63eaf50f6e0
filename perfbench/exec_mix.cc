// exec_mix: query execution on both engines, the latencies the
// explanations are about. One client, closed loop; each op does what
// HtapSystem::RunQuery does (bind, plan both engines, model latencies,
// execute the TP plan on the row store and the AP plan on the vectorized
// column executor, compare result fingerprints), timing each engine's
// Execute on its own.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ap/ap_optimizer.h"
#include "common/kernels.h"
#include "engine/htap_system.h"
#include "perfbench.h"
#include "tp/tp_optimizer.h"
#include "workload/query_generator.h"

namespace perfbench {

namespace {

using htapex::QueryPattern;

constexpr uint64_t kTagQueries = 11;
constexpr uint64_t kTagWarmup = 12;
/// Data and statistics at the same small scale, so predicates hit real
/// keys (lineitem ~120k rows, orders 30k). SF 0.05 spread 2-4x wider
/// across seeds, with fewer, heavier queries per run (WORKLOADS.md).
constexpr double kScaleFactor = 0.02;
constexpr int kSetupRepetitions = 3;
/// Speed-probe samples taken after each set-up.
constexpr int kSetupProbes = 8;
/// One morsel worker: with the auto count (4 here), AP wall time followed
/// the VM's momentary parallelism and exec_mix spread ~20% across runs.
constexpr int kVecWorkers = 1;
/// Distinct cycles generated; longer runs wrap around.
constexpr int kCycles = 64;

/// The pattern mix: every pattern in proportion to the weights of
/// QueryGenerator::GenerateMix, rounded to 21 queries per cycle. Whole
/// cycles are run, so every run sees the same mix and only the seed-drawn
/// parameters differ.
const std::vector<std::pair<QueryPattern, int>>& PatternMix() {
  static const std::vector<std::pair<QueryPattern, int>> mix = {
      {QueryPattern::kPointLookup, 2},      {QueryPattern::kSelectiveRange, 2},
      {QueryPattern::kJoinSmall, 2},        {QueryPattern::kJoinLarge, 3},
      {QueryPattern::kJoinFunctionPred, 2}, {QueryPattern::kTopNIndexed, 2},
      {QueryPattern::kTopNUnindexed, 2},    {QueryPattern::kTopNLargeOffset, 1},
      {QueryPattern::kGroupByAggregate, 2}, {QueryPattern::kJoinStarChain, 1},
      {QueryPattern::kExotic, 2},
  };
  return mix;
}

struct ScheduledQuery {
  std::string sql;
  size_t pattern;  // index into PatternMix() and ExecPatternNames()
};

struct Sample {
  size_t pattern = 0;
  double op_ms = 0.0;
  double tp_ms = 0.0;
  double ap_ms = 0.0;
  bool exact_match = false;  // byte-identical fingerprints
};

/// Orders cells NULL < number < string, numbers by value.
int CompareCells(const htapex::Value& a, const htapex::Value& b) {
  auto rank = [](const htapex::Value& v) {
    return v.is_null() ? 0 : v.is_string() ? 2 : 1;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b) ? -1 : 1;
  if (a.is_null()) return 0;
  if (a.is_string()) return a.AsString().compare(b.AsString());
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return x < y ? -1 : (y < x ? 1 : 0);
}

/// The row executor and the vectorized executor add floating-point values
/// in different orders, so a sum can land on either side of the 6-digit
/// rounding Fingerprint() applies (seen on GROUP BY ... SUM(l_extendedprice)
/// queries). Two results agree when their rows match one for one, numbers
/// within 1e-9 relative.
bool SameUpToSummationOrder(const htapex::QueryResultSet& a,
                            const htapex::QueryResultSet& b) {
  if (a.rows.size() != b.rows.size()) return false;
  auto sorted = [](const htapex::QueryResultSet& r) {
    std::vector<const htapex::Row*> rows;
    for (const htapex::Row& row : r.rows) rows.push_back(&row);
    std::sort(rows.begin(), rows.end(),
              [](const htapex::Row* x, const htapex::Row* y) {
                for (size_t i = 0; i < std::min(x->size(), y->size()); ++i) {
                  int c = CompareCells((*x)[i], (*y)[i]);
                  if (c != 0) return c < 0;
                }
                return x->size() < y->size();
              });
    return rows;
  };
  const auto ra = sorted(a);
  const auto rb = sorted(b);
  for (size_t r = 0; r < ra.size(); ++r) {
    if (ra[r]->size() != rb[r]->size()) return false;
    for (size_t i = 0; i < ra[r]->size(); ++i) {
      const htapex::Value& x = (*ra[r])[i];
      const htapex::Value& y = (*rb[r])[i];
      if (x.is_null() || x.is_string() || y.is_null() || y.is_string()) {
        if (CompareCells(x, y) != 0) return false;
        continue;
      }
      const double dx = x.AsDouble();
      const double dy = y.AsDouble();
      if (std::fabs(dx - dy) > 1e-9 * std::max(std::fabs(dx), std::fabs(dy))) {
        return false;
      }
    }
  }
  return true;
}

/// Per-run engine counters, filled only by the traced pass.
struct EngineCounts {
  double tp_rows_touched = 0.0;
  double ap_rows_touched = 0.0;
  double result_rows = 0.0;
};

class QueryRunner {
 public:
  explicit QueryRunner(const htapex::HtapSystem& system)
      : system_(system),
        tp_(system.catalog(), system.config().tp_cost),
        ap_(system.catalog(), system.config().ap_cost) {}

  /// One op. Returns false (and records why) on any error or when the TP
  /// and AP results differ beyond floating-point summation order.
  bool Run(const ScheduledQuery& q, uint64_t request, Sample* sample,
           SpanLog* log, EngineCounts* counts, std::string* error) {
    const auto t0 = Clock::now();
    const int root = log != nullptr ? log->Begin("query", -1, request) : -1;
    auto span = [&](const char* name) {
      return log != nullptr ? log->Begin(name, root, request) : -1;
    };
    auto end = [&](int s) {
      if (log != nullptr) log->End(s);
    };
    auto fail = [&](std::string why) {
      end(root);
      *error = std::move(why) + ": " + q.sql;
      return false;
    };

    int s = span("sql.bind");
    auto bound = system_.Bind(q.sql);
    end(s);
    if (!bound.ok()) return fail("bind " + bound.status().ToString());
    s = span("tp.plan");
    auto tp_plan = tp_.Plan(*bound);
    end(s);
    s = span("ap.plan");
    auto ap_plan = ap_.Plan(*bound);
    end(s);
    if (!tp_plan.ok() || !ap_plan.ok()) return fail("plan");
    s = span("engine.latency_model");
    const double modelled =
        system_.LatencyMs(*tp_plan) + system_.LatencyMs(*ap_plan);
    end(s);
    if (!(modelled > 0.0)) return fail("latency model");

    htapex::ExecStats tp_stats;
    htapex::ExecStats ap_stats;
    const bool want_stats = counts != nullptr;
    s = span("engine.tp_exec");
    auto a = Clock::now();
    auto tp_result =
        system_.Execute(*tp_plan, *bound, want_stats ? &tp_stats : nullptr);
    sample->tp_ms = MillisSince(a);
    end(s);
    s = span("engine.ap_exec");
    a = Clock::now();
    auto ap_result =
        system_.Execute(*ap_plan, *bound, want_stats ? &ap_stats : nullptr);
    sample->ap_ms = MillisSince(a);
    end(s);
    if (!tp_result.ok()) {
      return fail("tp execute " + tp_result.status().ToString());
    }
    if (!ap_result.ok()) {
      return fail("ap execute " + ap_result.status().ToString());
    }
    s = span("engine.fingerprint");
    sample->exact_match =
        tp_result->Fingerprint() == ap_result->Fingerprint();
    end(s);
    end(root);
    sample->pattern = q.pattern;
    sample->op_ms = MillisSince(t0);
    if (!sample->exact_match &&
        !SameUpToSummationOrder(*tp_result, *ap_result)) {
      *error = "TP and AP results differ: " + q.sql;
      return false;
    }
    if (counts != nullptr) {
      for (const auto& [node, rows] : tp_stats.actual_rows) {
        counts->tp_rows_touched += static_cast<double>(rows);
      }
      for (const auto& [node, rows] : ap_stats.actual_rows) {
        counts->ap_rows_touched += static_cast<double>(rows);
      }
      counts->result_rows += static_cast<double>(tp_result->rows.size());
    }
    return true;
  }

 private:
  const htapex::HtapSystem& system_;
  htapex::TpOptimizer tp_;
  htapex::ApOptimizer ap_;
};

/// `cycles` cycles of the mix, patterns interleaved round by round. Each
/// pattern steps through its structural variants in turn (the seed draws
/// only the parameters), so no run is heavy on one join shape by chance.
std::vector<std::vector<ScheduledQuery>> MakeCycles(uint64_t seed, int cycles) {
  const auto& mix = PatternMix();
  htapex::QueryGenerator gen(kScaleFactor, seed);
  std::vector<int> next_variant(mix.size(), 0);
  std::vector<std::vector<ScheduledQuery>> out(static_cast<size_t>(cycles));
  for (auto& cycle : out) {
    for (int round = 0; round < 3; ++round) {
      for (size_t p = 0; p < mix.size(); ++p) {
        if (round < mix[p].second) {
          cycle.push_back(
              {gen.Generate(mix[p].first, next_variant[p]++).sql, p});
        }
      }
    }
  }
  return out;
}

/// Runs whole cycles, starting at cycle 0 and wrapping around, until the
/// next one would end further past `seconds` than stopping now falls short
/// of it, or `max_cycles` ran. Returns the wall seconds the queries took
/// (probe time excluded) and how many cycles ran.
double RunCycles(QueryRunner* runner,
                 const std::vector<std::vector<ScheduledQuery>>& cycles,
                 double seconds, int max_cycles, SpanLog* log,
                 EngineCounts* counts, SpeedProbe* probe,
                 std::vector<Sample>* samples, RunResult* result,
                 int* cycles_run) {
  const auto t0 = Clock::now();
  const double probe0 = probe != nullptr ? probe->spent_s() : 0.0;
  auto probed_s = [&] {
    return probe != nullptr ? probe->spent_s() - probe0 : 0.0;
  };
  int c = 0;
  uint64_t request = 0;
  for (; c < max_cycles; ++c) {
    const double elapsed = SecondsSince(t0) - probed_s();
    if (c > 0 && elapsed + 0.5 * elapsed / c >= seconds) break;
    const auto& cycle = cycles[static_cast<size_t>(c) % cycles.size()];
    for (const ScheduledQuery& q : cycle) {
      if (probe != nullptr) probe->MaybeSample();
      Sample sample;
      std::string error;
      ++result->attempted;
      if (!runner->Run(q, request++, &sample, log, counts, &error)) {
        ++result->failed;
        if (result->check_failures.size() < 5) result->Fail(error);
        continue;
      }
      samples->push_back(sample);
    }
  }
  *cycles_run = c;
  return SecondsSince(t0) - probed_s();
}

std::vector<double> Field(const std::vector<Sample>& samples,
                          double Sample::*field, int pattern = -1) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (pattern < 0 || s.pattern == static_cast<size_t>(pattern)) {
      out.push_back(s.*field);
    }
  }
  return out;
}

}  // namespace

const std::vector<const char*>& ExecPatternNames() {
  static const std::vector<const char*> names = [] {
    std::vector<const char*> out;
    for (const auto& [pattern, count] : PatternMix()) {
      out.push_back(htapex::QueryPatternName(pattern));
    }
    return out;
  }();
  return names;
}

RunResult RunExecMix(const Options& options) {
  RunResult result;
  const auto cycles =
      MakeCycles(DeriveSeed(options.seed, kTagQueries), kCycles);
  const auto warmup = MakeCycles(DeriveSeed(options.seed, kTagWarmup), 1)[0];

  std::unique_ptr<htapex::HtapSystem> system;
  std::vector<double> setup_s;
  SpeedProbe setup_probe;
  SpeedProbe probe;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    system.reset();
    const auto t0 = Clock::now();
    system = std::make_unique<htapex::HtapSystem>();
    htapex::HtapConfig config;
    config.stats_scale_factor = kScaleFactor;
    config.data_scale_factor = kScaleFactor;
    config.vec_workers = kVecWorkers;
    htapex::Status st = system->Init(config);
    if (!st.ok()) {
      result.Fail("system init: " + st.ToString());
      return result;
    }
    QueryRunner warm(*system);
    for (const ScheduledQuery& q : warmup) {
      Sample sample;
      std::string error;
      if (!warm.Run(q, 0, &sample, nullptr, nullptr, &error)) {
        result.Fail("warm-up: " + error);
        return result;
      }
    }
    setup_s.push_back(SecondsSince(t0));
    for (int k = 0; k < kSetupProbes; ++k) setup_probe.Sample();
  }
  QueryRunner runner(*system);
  result.info.push_back(
      {"queries_per_cycle", static_cast<double>(cycles[0].size()), "count"});
  result.info.push_back(
      {"vec_workers",
       static_cast<double>(system->vec_executor()->effective_workers()),
       "count"});

  std::vector<Sample> untraced;
  int cycles_run = 0;
  const double cpu0 = ProcessCpuSeconds();
  const double probe0 = probe.spent_s();
  const double wall_s = RunCycles(
      &runner, cycles, options.trace ? options.seconds / 2 : options.seconds,
      std::numeric_limits<int>::max(), nullptr, nullptr,
      options.trace ? nullptr : &probe, &untraced, &result, &cycles_run);
  const double cpu_s = ProcessCpuSeconds() - cpu0 - (probe.spent_s() - probe0);
  result.info.push_back({"cycles", static_cast<double>(cycles_run), "count"});

  if (!options.trace) {
    const std::vector<double> op_ms = Field(untraced, &Sample::op_ms);
    result.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    AddTimeMetrics(setup_s, setup_probe, op_ms, wall_s, cpu_s, probe, &result);
    const double exact = static_cast<double>(std::count_if(
        untraced.begin(), untraced.end(),
        [](const Sample& s) { return s.exact_match; }));
    result.end_to_end.push_back(
        {"quality_pct",
         100.0 * exact /
             static_cast<double>(std::max<uint64_t>(1, result.attempted)),
         "%"});
    result.info.push_back({"op_ms_p99", Percentile(op_ms, 0.99), "ms"});
    result.info.push_back(
        {"tp_ms_p50", Percentile(Field(untraced, &Sample::tp_ms), 0.5), "ms"});
    result.info.push_back(
        {"ap_ms_p50", Percentile(Field(untraced, &Sample::ap_ms), 0.5), "ms"});
    result.info.push_back(
        {"ops", static_cast<double>(op_ms.size()), "count"});
    return result;
  }

  // Traced pass over the same cycles the untraced half ran.
  SpanLog log;
  EngineCounts counts;
  std::vector<Sample> traced;
  const htapex::kernels::KernelStats k0 = htapex::kernels::Stats();
  int traced_cycles = 0;
  const double traced_s =
      RunCycles(&runner, cycles, 1e9, cycles_run, &log, &counts, nullptr,
                &traced, &result, &traced_cycles);
  const htapex::kernels::KernelStats k1 = htapex::kernels::Stats();
  const double queries =
      std::max<double>(1.0, static_cast<double>(traced.size()));

  auto& m = result.per_layer;
  for (const char* stage : {"sql.bind", "tp.plan", "ap.plan",
                            "engine.latency_model", "engine.fingerprint"}) {
    m.push_back({std::string(stage) + "_us", log.MeanSelfMicros(stage), "us"});
  }
  m.push_back({"engine.tp_exec_ms", Mean(Field(traced, &Sample::tp_ms)), "ms"});
  m.push_back({"engine.ap_exec_ms", Mean(Field(traced, &Sample::ap_ms)), "ms"});
  m.push_back({"op_ms_p99", Percentile(Field(untraced, &Sample::op_ms), 0.99),
               "ms"});
  m.push_back(
      {"tp_ms_p50", Percentile(Field(untraced, &Sample::tp_ms), 0.5), "ms"});
  m.push_back(
      {"ap_ms_p50", Percentile(Field(untraced, &Sample::ap_ms), 0.5), "ms"});
  const std::vector<const char*>& names = ExecPatternNames();
  for (size_t p = 0; p < names.size(); ++p) {
    const int pi = static_cast<int>(p);
    m.push_back({std::string("engine.tp_exec_ms.") + names[p],
                 Mean(Field(traced, &Sample::tp_ms, pi)), "ms"});
    m.push_back({std::string("engine.ap_exec_ms.") + names[p],
                 Mean(Field(traced, &Sample::ap_ms, pi)), "ms"});
  }
  const double result_rows = std::max(1.0, counts.result_rows);
  m.push_back({"engine.tp_rows_per_result",
               counts.tp_rows_touched / result_rows, "rows/row"});
  m.push_back({"engine.ap_rows_per_result",
               counts.ap_rows_touched / result_rows, "rows/row"});
  auto per_query = [&](const char* name, uint64_t before, uint64_t after) {
    m.push_back({std::string("kernels.") + name + "_per_query",
                 static_cast<double>(after - before) / queries, "calls/query"});
  };
  per_query("mask_cmp", k0.mask_cmp, k1.mask_cmp);
  per_query("mask_and", k0.mask_and, k1.mask_and);
  per_query("count_mask", k0.count_mask, k1.count_mask);
  per_query("sum_i64", k0.sum_i64, k1.sum_i64);
  per_query("sum_f64", k0.sum_f64, k1.sum_f64);
  per_query("hash_i64", k0.hash_i64, k1.hash_i64);
  per_query("hash_f64", k0.hash_f64, k1.hash_f64);
  per_query("hash_bytes", k0.hash_bytes, k1.hash_bytes);
  m.push_back({"trace.coverage_pct", log.CoveragePct("query"), "%"});
  m.push_back({"trace.overhead_pct", 100.0 * (traced_s / wall_s - 1.0), "%"});
  log.Dump(options.work_dir + "/spans-exec_mix.jsonl");
  return result;
}

}  // namespace perfbench
