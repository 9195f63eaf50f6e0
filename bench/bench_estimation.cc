// Extension experiment M5: cardinality-estimation quality (q-error). The
// optimizers' estimates drive the latency model and the plan features the
// router embeds; systematic misestimation is also one reason post-execution
// explanation needs historical knowledge at all (DBG-PT's "lack of context
// for relative values"). This bench executes a mixed workload with
// EXPLAIN-ANALYZE instrumentation (stats scale == data scale, so estimates
// and actuals are directly comparable) and reports q-error per operator.
//
// q-error = max(estimate/actual, actual/estimate), lower-bounded rows at 1.
// Nodes a satisfied Limit stopped (ExecStats::stopped) are left out: their
// actual rows are the rows pulled before the stop, not an estimation miss.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "engine/htap_system.h"
#include "workload/query_generator.h"

namespace {

using namespace htapex;

void Collect(const PlanNode& node, const ExecStats& stats,
             std::map<PlanOp, std::vector<double>>* qerrors, int* stopped) {
  auto it = stats.actual_rows.find(&node);
  if (stats.stopped.count(&node) > 0) {
    ++*stopped;
  } else if (it != stats.actual_rows.end()) {
    double est = std::max(node.estimated_rows, 1.0);
    double act = std::max(static_cast<double>(it->second), 1.0);
    (*qerrors)[node.op].push_back(std::max(est / act, act / est));
  }
  for (const auto& c : node.children) Collect(*c, stats, qerrors, stopped);
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[idx];
}

}  // namespace

int main() {
  HtapSystem system;
  HtapConfig config;
  config.stats_scale_factor = 0.02;  // statistics match the loaded data
  config.data_scale_factor = 0.02;
  if (!system.Init(config).ok()) return 1;

  QueryGenerator gen(config.stats_scale_factor, 0xe577);
  std::map<PlanOp, std::vector<double>> qerrors;
  int executed = 0;
  int stopped = 0;
  for (const GeneratedQuery& gq : gen.GenerateMix(120)) {
    auto bound = system.Bind(gq.sql);
    if (!bound.ok()) continue;
    auto plans = system.PlanBoth(*bound);
    if (!plans.ok()) continue;
    for (const PhysicalPlan* plan : {&plans->tp, &plans->ap}) {
      ExecStats stats;
      auto result = system.Execute(*plan, *bound, &stats);
      if (!result.ok()) continue;
      Collect(*plan->root, stats, &qerrors, &stopped);
    }
    ++executed;
  }

  std::printf("=== M5: cardinality estimation quality (q-error), %d queries "
              "x 2 engines ===\n", executed);
  std::printf("%-26s %6s %8s %8s %8s\n", "operator", "n", "median", "p90",
              "max");
  for (auto& [op, errors] : qerrors) {
    std::vector<double> copy = errors;
    std::printf("%-26s %6zu %8.2f %8.2f %8.1f\n", PlanOpName(op),
                errors.size(), Percentile(&copy, 0.5), Percentile(&copy, 0.9),
                Percentile(&copy, 1.0));
  }
  std::printf("(%d nodes a satisfied Limit stopped are left out)\n", stopped);
  std::printf(
      "\nreading: scans estimate well (NDV/range statistics); function "
      "predicates and join chains drift — the estimation gap that makes "
      "historical execution knowledge valuable for explanation.\n");
  return 0;
}
