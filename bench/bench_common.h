#ifndef HTAPEX_BENCH_BENCH_COMMON_H_
#define HTAPEX_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "core/htap_explainer.h"
#include "engine/htap_system.h"
#include "workload/query_generator.h"

namespace htapex {
namespace bench {

/// Shared experiment fixture: plan-only HTAP system at the paper's SF=100
/// statistics scale, a trained smart router, and a 20-entry knowledge base.
struct Fixture {
  std::unique_ptr<HtapSystem> system;
  std::unique_ptr<HtapExplainer> explainer;

  static std::unique_ptr<Fixture> Make(ExplainerConfig config = {},
                                       bool build_kb = true) {
    auto f = std::make_unique<Fixture>();
    f->system = std::make_unique<HtapSystem>();
    HtapConfig sys_config;
    sys_config.stats_scale_factor = 100.0;
    sys_config.data_scale_factor = 0.0;  // plan-only: experiments need plans
    Status st = f->system->Init(sys_config);
    if (!st.ok()) {
      std::fprintf(stderr, "system init failed: %s\n", st.ToString().c_str());
      return nullptr;
    }
    f->explainer =
        std::make_unique<HtapExplainer>(f->system.get(), std::move(config));
    auto train = f->explainer->TrainRouter();
    if (!train.ok()) {
      std::fprintf(stderr, "router training failed: %s\n",
                   train.status().ToString().c_str());
      return nullptr;
    }
    if (build_kb) {
      st = f->explainer->BuildDefaultKnowledgeBase();
      if (!st.ok()) {
        std::fprintf(stderr, "kb build failed: %s\n", st.ToString().c_str());
        return nullptr;
      }
    }
    return f;
  }
};

/// The paper's 200-query test set.
inline std::vector<GeneratedQuery> TestWorkload(const HtapSystem& system,
                                                int n = 200,
                                                uint64_t seed = 0x7e57) {
  QueryGenerator gen(system.config().stats_scale_factor, seed);
  return gen.GenerateMix(n);
}

/// A/B-alternated best-of-reps: each side's estimate is its fastest rep.
/// External load only ever slows a rep down, so min-of-reps converges on
/// the undisturbed cost, and alternating the sides exposes both to the
/// same interference. One untimed call of each side warms up first
/// (first-touch, branch predictors, worker pool spin-up).
template <typename FnA, typename FnB>
void BestMillisAb(int reps, FnA&& a, FnB&& b, double* best_a,
                  double* best_b) {
  *best_a = 1e300;
  *best_b = 1e300;
  a();
  b();
  for (int rep = 0; rep < reps; ++rep) {
    {
      WallTimer timer;
      a();
      *best_a = std::min(*best_a, timer.ElapsedMillis());
    }
    {
      WallTimer timer;
      b();
      *best_b = std::min(*best_b, timer.ElapsedMillis());
    }
  }
}

/// Aggregated grading counts over a workload.
struct GradeCounts {
  int accurate = 0;
  int imprecise = 0;
  int wrong = 0;
  int none = 0;
  int total() const { return accurate + imprecise + wrong + none; }
  double accuracy() const {
    return total() == 0 ? 0 : 100.0 * accurate / total();
  }
  double none_rate() const {
    return total() == 0 ? 0 : 100.0 * none / total();
  }
  void Add(ExplanationGrade g) {
    switch (g) {
      case ExplanationGrade::kAccurate:
        ++accurate;
        break;
      case ExplanationGrade::kImprecise:
        ++imprecise;
        break;
      case ExplanationGrade::kWrong:
        ++wrong;
        break;
      case ExplanationGrade::kNone:
        ++none;
        break;
    }
  }
};

}  // namespace bench
}  // namespace htapex

#endif  // HTAPEX_BENCH_BENCH_COMMON_H_
