// Runs a mixed synthetic workload through both engines, shows per-pattern
// engine wins and the smart router's routing decisions — the scenario from
// the paper's introduction: "users often need guidance on selecting the
// optimal engine".
#include <cstdio>
#include <map>

#include "common/string_util.h"
#include "engine/htap_system.h"
#include "router/smart_router.h"
#include "workload/query_generator.h"

int main() {
  using namespace htapex;

  HtapSystem system;
  HtapConfig config;
  config.data_scale_factor = 0.0;  // plan + latency model only
  if (!system.Init(config).ok()) return 1;

  // Train the smart router on one workload...
  SmartRouter router(7);
  {
    QueryGenerator train_gen(config.stats_scale_factor, 1001);
    std::vector<PairExample> dataset;
    for (const GeneratedQuery& gq : train_gen.GenerateMix(300)) {
      auto planned = system.Plan(gq.sql);
      if (!planned.ok()) continue;
      dataset.push_back(router.MakeExample(planned->outcome.plans,
                                           planned->outcome.faster));
    }
    RouterTrainStats stats = router.Train(dataset, 60);
    std::printf("router trained: %.1f%% train accuracy, %zu bytes, %.2fs\n\n",
                100 * stats.train_accuracy, router.model_bytes(),
                stats.wall_seconds);
  }

  // ...and evaluate routing on a fresh one, per pattern.
  struct PatternStats {
    int n = 0;
    int ap_wins = 0;
    int routed_correctly = 0;
    double tp_ms_sum = 0, ap_ms_sum = 0;
  };
  std::map<QueryPattern, PatternStats> stats;
  QueryGenerator test_gen(config.stats_scale_factor, 2002);
  for (const GeneratedQuery& gq : test_gen.GenerateMix(200)) {
    auto planned = system.Plan(gq.sql);
    if (!planned.ok()) continue;
    const HtapQueryOutcome& outcome = planned->outcome;
    PatternStats& ps = stats[gq.pattern];
    ++ps.n;
    ps.ap_wins += outcome.faster == EngineKind::kAp ? 1 : 0;
    ps.routed_correctly +=
        router.Route(outcome.plans) == outcome.faster ? 1 : 0;
    ps.tp_ms_sum += outcome.tp_latency_ms;
    ps.ap_ms_sum += outcome.ap_latency_ms;
  }

  std::printf("%-20s %4s %9s %9s %10s %10s %8s\n", "pattern", "n", "AP wins",
              "routing", "avg TP", "avg AP", "speedup");
  int total = 0, correct = 0;
  for (const auto& [pattern, ps] : stats) {
    double tp_avg = ps.tp_ms_sum / ps.n;
    double ap_avg = ps.ap_ms_sum / ps.n;
    std::printf("%-20s %4d %8.0f%% %8.0f%% %10s %10s %7.1fx\n",
                QueryPatternName(pattern), ps.n, 100.0 * ps.ap_wins / ps.n,
                100.0 * ps.routed_correctly / ps.n,
                FormatMillis(tp_avg).c_str(), FormatMillis(ap_avg).c_str(),
                std::max(tp_avg, ap_avg) / std::max(1e-9, std::min(tp_avg, ap_avg)));
    total += ps.n;
    correct += ps.routed_correctly;
  }
  std::printf("\noverall routing accuracy: %.1f%% over %d queries\n",
              100.0 * correct / total, total);
  return 0;
}
