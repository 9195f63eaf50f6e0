// Service-layer benchmark: concurrent explanation throughput and the
// embedding-keyed result cache.
//
// BM_ServiceThroughput/<workers> drives a repeated-query workload (64
// distinct queries, replayed round after round) through ExplainService and
// reports wall-clock queries/sec plus the cache hit rate. The acceptance
// bar for the service layer is >= 2x throughput at 4 workers vs. 1.
//
// Cache misses incur 1/1000 of the simulated hosted-LLM time as real wall
// time (llm_wall_scale = 0.001, i.e. an LLM at 1000x speed): the paper's
// serving bottleneck is the LLM round trip, and overlapping that wait is
// precisely what the worker pool is for. Without it the workload is pure
// CPU and no pool can beat 1 worker on a single-core machine.
//
// BM_CacheHitVsMiss reports the *simulated* end-to-end latency (encode +
// cache probe + search + LLM thinking/generation) for a cache miss vs. a
// hit — the honest-accounting numbers end_to_end_ms() now produces.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/sim_clock.h"
#include "obs/metrics.h"
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
  for (const GeneratedQuery& q : TestWorkload(system, distinct, 0xbe7c)) {
    sqls.push_back(q.sql);
  }
  return sqls;
}

void BM_ServiceThroughput(benchmark::State& state) {
  Fixture* f = SharedFixture().get();
  if (f == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  const std::vector<std::string> sqls = Workload(*f->system, 64);

  ServiceConfig config;
  config.num_workers = static_cast<int>(state.range(0));
  config.llm_wall_scale = 0.001;
  ExplainService service(f->explainer.get(), config);

  int64_t processed = 0;
  for (auto _ : state) {
    std::vector<std::future<Result<ExplainResult>>> futures;
    for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
    for (auto& fut : futures) {
      auto r = fut.get();
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    }
    processed += static_cast<int64_t>(sqls.size());
  }
  state.SetItemsProcessed(processed);
  ServiceStats stats = service.Stats();
  state.counters["hit_rate_pct"] = 100.0 * stats.cache_hit_rate();
  state.counters["p50_e2e_ms"] = stats.end_to_end.p50_ms;
}
BENCHMARK(BM_ServiceThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CacheHitVsMiss(benchmark::State& state) {
  Fixture* f = SharedFixture().get();
  if (f == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  const std::vector<std::string> sqls = Workload(*f->system, 32);
  for (auto _ : state) {
    ExplainService service(f->explainer.get(), ServiceConfig{});
    double miss_e2e = 0.0, hit_e2e = 0.0;
    for (const std::string& sql : sqls) {  // first pass: all misses
      auto r = service.ExplainSync(sql);
      if (r.ok()) miss_e2e += r->end_to_end_ms();
    }
    for (const std::string& sql : sqls) {  // second pass: cache hits
      auto r = service.ExplainSync(sql);
      if (r.ok()) hit_e2e += r->end_to_end_ms();
    }
    state.counters["miss_e2e_ms"] = miss_e2e / sqls.size();
    state.counters["hit_e2e_ms"] = hit_e2e / sqls.size();
    state.counters["hit_rate_pct"] =
        100.0 * service.Stats().cache_hit_rate();
  }
}
BENCHMARK(BM_CacheHitVsMiss)->Unit(benchmark::kMillisecond)->Iterations(1);

/// Wall time to drive `rounds` full passes of the workload through a
/// service with `workers` workers; returns queries/sec and fills stats.
double MeasureThroughput(Fixture* f, const std::vector<std::string>& sqls,
                         int workers, int rounds, ServiceStats* stats) {
  ServiceConfig config;
  config.num_workers = workers;
  config.llm_wall_scale = 0.001;
  ExplainService service(f->explainer.get(), config);
  WallTimer timer;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::future<Result<ExplainResult>>> futures;
    for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
    for (auto& fut : futures) fut.get().status();
  }
  double seconds = timer.ElapsedMillis() / 1000.0;
  *stats = service.Stats();
  return static_cast<double>(sqls.size()) * rounds / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  if (SharedFixture() == nullptr) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // The acceptance table: repeated-query throughput by worker count.
  Fixture* f = SharedFixture().get();
  const std::vector<std::string> sqls = Workload(*f->system, 64);
  constexpr int kRounds = 6;
  std::printf(
      "\n=== service throughput (64 distinct queries x %d rounds, "
      "LLM at 1000x speed on misses) ===\n",
      kRounds);
  std::printf("%-10s %-14s %-10s %s\n", "workers", "queries/sec", "speedup",
              "cache hit rate");
  double base_qps = 0.0;
  ServiceStats last_stats;
  for (int workers : {1, 2, 4, 8}) {
    ServiceStats stats;
    double qps = MeasureThroughput(f, sqls, workers, kRounds, &stats);
    if (workers == 1) base_qps = qps;
    std::printf("%-10d %-14.0f %-10.2f %.1f%%\n", workers, qps,
                base_qps > 0 ? qps / base_qps : 0.0,
                100.0 * stats.cache_hit_rate());
    last_stats = stats;
  }
  std::printf("\n=== service stats (8-worker run) ===\n%s\n",
              last_stats.ToString().c_str());
  return 0;
}
