// Tracing-overhead benchmark + self-checks for the request-tracing
// subsystem (src/obs/trace.h).
//
// The acceptance bar this file enforces (exit code != 0 on violation):
//   1. Overhead: serving throughput with per-request tracing on stays
//      within 5% of tracing off. Measured A/B-alternated (off, on, off,
//      on, ...) over a cache-disabled workload at llm_wall_scale = 0.001,
//      so the denominator is the stable sleep-dominated serving path and
//      ordering effects (warmup, frequency scaling) hit both sides.
//   2. Coverage: every result carries a trace with >= 8 named spans whose
//      leaf durations account for >= 95% of the request timeline and of
//      end_to_end_ms.
//   3. Exposition: the service's Prometheus text renders and round-trips
//      through the strict parser with a non-trivial sample count.
//
// `--self-check` runs a reduced-round version of the same checks (the CI
// obs job's fast path); without it the full benchmark table prints too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/sim_clock.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "service/explain_service.h"

namespace {

using namespace htapex;
using namespace htapex::bench;

std::unique_ptr<Fixture>& SharedFixture() {
  static std::unique_ptr<Fixture> fixture = Fixture::Make();
  return fixture;
}

std::vector<std::string> Workload(const HtapSystem& system, int distinct) {
  std::vector<std::string> sqls;
  for (const GeneratedQuery& q : TestWorkload(system, distinct, 0x7ace)) {
    sqls.push_back(q.sql);
  }
  return sqls;
}

/// Queries/sec for `rounds` passes of the workload with tracing on or off.
/// Cache disabled: every request pays the full (sleep-scaled) pipeline, so
/// the two sides measure the same work.
double MeasureQps(Fixture* f, const std::vector<std::string>& sqls,
                  bool tracing, int rounds) {
  ServiceConfig config;
  config.num_workers = 4;
  config.llm_wall_scale = 0.001;
  config.cache_enabled = false;
  config.tracing = tracing;
  ExplainService service(f->explainer.get(), config);
  WallTimer timer;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::future<Result<ExplainResult>>> futures;
    for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
    for (auto& fut : futures) fut.get().status();
  }
  double seconds = timer.ElapsedMillis() / 1000.0;
  return static_cast<double>(sqls.size()) * rounds / seconds;
}

/// Check 1: A/B-alternated overhead measurement. Each side's estimate is
/// its best rep: external load (CI neighbours, this VM's other tenants)
/// only ever slows a rep down, so max-of-reps converges on the undisturbed
/// throughput where mean-of-reps charges one side whatever noise landed on
/// its turns.
bool CheckOverhead(Fixture* f, const std::vector<std::string>& sqls, int reps,
                   int rounds) {
  double qps_off = 0.0, qps_on = 0.0;
  MeasureQps(f, sqls, false, 1);  // warmup (first-touch, breaker state)
  for (int rep = 0; rep < reps; ++rep) {
    qps_off = std::max(qps_off, MeasureQps(f, sqls, false, rounds));
    qps_on = std::max(qps_on, MeasureQps(f, sqls, true, rounds));
  }
  double overhead_pct = 100.0 * (qps_off - qps_on) / qps_off;
  std::printf(
      "tracing overhead: %.0f qps off, %.0f qps on -> %.2f%% (bar: < 5%%)\n",
      qps_off, qps_on, overhead_pct);
  if (overhead_pct >= 5.0) {
    std::fprintf(stderr, "FAIL: tracing overhead %.2f%% >= 5%%\n",
                 overhead_pct);
    return false;
  }
  return true;
}

/// Check 2: every result carries a well-covered trace. Cache enabled so
/// both the fresh path and the hit path are exercised.
bool CheckCoverage(Fixture* f, const std::vector<std::string>& sqls,
                   std::string* exposition_out) {
  ServiceConfig config;
  config.num_workers = 4;
  ExplainService service(f->explainer.get(), config);
  size_t checked = 0, hits = 0;
  double worst_coverage = 100.0;
  for (int round = 0; round < 2; ++round) {  // round 2 = cache hits
    std::vector<std::future<Result<ExplainResult>>> futures;
    for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
    for (auto& fut : futures) {
      auto r = fut.get();
      if (!r.ok()) {
        std::fprintf(stderr, "FAIL: request error: %s\n",
                     r.status().ToString().c_str());
        return false;
      }
      if (r->trace == nullptr) {
        std::fprintf(stderr, "FAIL: result without a trace\n");
        return false;
      }
      const Trace& trace = *r->trace;
      if (trace.spans().size() < 8) {
        std::fprintf(stderr, "FAIL: only %zu spans (bar: >= 8)\n%s\n",
                     trace.spans().size(), trace.ToString().c_str());
        return false;
      }
      double denom = std::max(trace.total_ms(), r->end_to_end_ms());
      double coverage =
          denom > 0.0 ? 100.0 * trace.CoveredMs() / denom : 100.0;
      worst_coverage = std::min(worst_coverage, coverage);
      if (coverage < 95.0) {
        std::fprintf(stderr, "FAIL: span coverage %.1f%% < 95%%\n%s\n",
                     coverage, trace.ToString().c_str());
        return false;
      }
      ++checked;
      if (r->from_cache) ++hits;
    }
  }
  std::printf(
      "trace coverage: %zu requests (%zu cache hits), worst coverage "
      "%.2f%% (bar: >= 95%%)\n",
      checked, hits, worst_coverage);
  *exposition_out = service.ExpositionText();
  return true;
}

/// Check 3: the exposition text round-trips through the strict parser.
bool CheckExposition(const std::string& text) {
  auto parsed = ParseExposition(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "FAIL: exposition does not parse: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  // Sanity floor: counters + stage and span summaries are all present.
  if (parsed->size() < 50) {
    std::fprintf(stderr, "FAIL: only %zu exposition samples (bar: >= 50)\n",
                 parsed->size());
    return false;
  }
  bool saw_span_summary = false;
  for (const ExpositionSample& s : *parsed) {
    if (s.name == "htapex_span_latency_ms_count") saw_span_summary = true;
  }
  if (!saw_span_summary) {
    std::fprintf(stderr, "FAIL: no htapex_span_latency_ms summary emitted\n");
    return false;
  }
  std::printf("exposition: %zu samples, parses clean\n", parsed->size());
  return true;
}

void BM_TracedRequest(benchmark::State& state) {
  Fixture* f = SharedFixture().get();
  if (f == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  const bool tracing = state.range(0) != 0;
  const std::vector<std::string> sqls = Workload(*f->system, 16);
  ServiceConfig config;
  config.cache_enabled = false;
  config.tracing = tracing;
  config.num_workers = 1;
  ExplainService service(f->explainer.get(), config);
  size_t i = 0;
  for (auto _ : state) {
    auto r = service.ExplainSync(sqls[i++ % sqls.size()]);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TracedRequest)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

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

  if (SharedFixture() == nullptr) return 1;
  Fixture* f = SharedFixture().get();
  const std::vector<std::string> sqls = Workload(*f->system, 64);

  if (!self_check) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }

  std::printf("\n=== trace self-checks%s ===\n",
              self_check ? " (quick)" : "");
  bool ok = true;
  std::string exposition;
  ok = CheckCoverage(f, sqls, &exposition) && ok;
  ok = CheckExposition(exposition) && ok;
  ok = CheckOverhead(f, sqls, /*reps=*/self_check ? 2 : 4,
                     /*rounds=*/self_check ? 2 : 3) &&
       ok;
  std::printf("%s\n", ok ? "ALL CHECKS PASSED" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
