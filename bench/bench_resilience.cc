// Resilience benchmark: goodput and degradation mix under injected faults.
//
// Sweeps a combined fault level f over {0, 0.05, 0.1, 0.2, 0.3, 0.5} where
// each level activates the fault points at scaled probabilities
//   llm.transient_error p=f      llm.timeout p=f/2
//   llm.garbled_output  p=f/4    kb.insert p=f/2
// (so f=0.2 is exactly the acceptance scenario: 20% transient + 10%
// timeouts). For each level the paper's 200-query test set runs through
// ExplainService and the bench reports the degradation mix — how many
// queries were answered by the full RAG pipeline, the DBG-PT baseline
// fallback, the local plan-diff report, or failed outright — plus goodput
// (full + baseline, i.e. answers a user would accept) and the resilience
// counters (retries, timeouts, breaker transitions, fallbacks).
//
// Determinism: every fault and backoff draw is keyed by (seed, point,
// request, attempt), so with one worker and the cache disabled (submit
// order == processing order, which pins the breaker evolution) the same
// seed must reproduce the identical mix. Each level therefore runs twice
// and the bench verifies the two runs match byte-for-byte.
//
// Acceptance (self-checked, non-zero exit on violation): at f <= 0.2 there
// are zero hard failures — every query is answered at kFull or
// kBaselineFallback.
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/string_util.h"
#include "service/explain_service.h"

namespace {

using namespace htapex;
using namespace htapex::bench;

constexpr uint64_t kFaultSeed = 1337;

struct Mix {
  int full = 0;
  int baseline = 0;
  int plan_diff = 0;
  int failed = 0;
  ResilienceStats resilience;

  bool operator==(const Mix& o) const {
    return full == o.full && baseline == o.baseline &&
           plan_diff == o.plan_diff && failed == o.failed &&
           resilience.llm_retries == o.resilience.llm_retries &&
           resilience.llm_timeouts == o.resilience.llm_timeouts &&
           resilience.breaker_opens == o.resilience.breaker_opens &&
           resilience.fallbacks_baseline == o.resilience.fallbacks_baseline;
  }
};

std::string SpecForLevel(double f) {
  if (f <= 0.0) return "off";
  return StrFormat(
      "llm.transient_error:p=%.4f;llm.timeout:p=%.4f;"
      "llm.garbled_output:p=%.4f;kb.insert:p=%.4f",
      f, f / 2.0, f / 4.0, f / 2.0);
}

Mix RunOnce(Fixture* fixture, const std::vector<std::string>& sqls,
            double level) {
  // ConfigureFaults rebuilds the resilient wrappers (fresh breakers, zeroed
  // counters); it must run while no service is alive.
  Status st =
      fixture->explainer->ConfigureFaults(SpecForLevel(level), kFaultSeed);
  if (!st.ok()) {
    std::fprintf(stderr, "ConfigureFaults failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  ServiceConfig config;
  config.num_workers = 1;       // submit order == processing order
  config.cache_enabled = false; // every query exercises the full ladder
  ExplainService service(fixture->explainer.get(), config);

  Mix mix;
  std::vector<std::future<Result<ExplainResult>>> futures;
  for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
  for (auto& fut : futures) {
    Result<ExplainResult> r = fut.get();
    if (!r.ok()) {
      ++mix.failed;
      continue;
    }
    switch (r->degradation) {
      case DegradationLevel::kFull:
        ++mix.full;
        break;
      case DegradationLevel::kBaselineFallback:
        ++mix.baseline;
        break;
      case DegradationLevel::kPlanDiffOnly:
        ++mix.plan_diff;
        break;
    }
  }
  mix.resilience = fixture->explainer->ResilienceSnapshot();
  return mix;
}

}  // namespace

int main() {
  ExplainerConfig config;
  config.faults = "off";  // levels are configured per run, ignore the env
  std::unique_ptr<Fixture> fixture = Fixture::Make(std::move(config));
  if (fixture == nullptr) return 1;

  std::vector<std::string> sqls;
  for (const GeneratedQuery& q : TestWorkload(*fixture->system)) {
    sqls.push_back(q.sql);
  }

  std::printf("--- resilience sweep: %zu queries/level, fault seed %llu ---\n",
              sqls.size(), static_cast<unsigned long long>(kFaultSeed));
  std::printf("%-6s %6s %9s %10s %7s %8s %8s %9s %8s %6s\n", "fault", "full",
              "baseline", "plan_diff", "failed", "goodput", "retries",
              "timeouts", "br.open", "same?");

  bool ok = true;
  for (double level : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    Mix a = RunOnce(fixture.get(), sqls, level);
    Mix b = RunOnce(fixture.get(), sqls, level);
    bool same = a == b;
    double goodput =
        sqls.empty() ? 0.0
                     : 100.0 * (a.full + a.baseline) /
                           static_cast<double>(sqls.size());
    std::printf("%-6.2f %6d %9d %10d %7d %7.1f%% %8llu %9llu %8llu %6s\n",
                level, a.full, a.baseline, a.plan_diff, a.failed, goodput,
                static_cast<unsigned long long>(a.resilience.llm_retries),
                static_cast<unsigned long long>(a.resilience.llm_timeouts),
                static_cast<unsigned long long>(a.resilience.breaker_opens),
                same ? "yes" : "NO");
    if (!same) {
      std::fprintf(stderr,
                   "FAIL: level %.2f not deterministic across two runs\n",
                   level);
      ok = false;
    }
    if (level <= 0.2 && (a.plan_diff > 0 || a.failed > 0)) {
      std::fprintf(stderr,
                   "FAIL: hard failures at fault level %.2f "
                   "(plan_diff=%d failed=%d)\n",
                   level, a.plan_diff, a.failed);
      ok = false;
    }
  }
  if (ok) {
    std::printf("acceptance: zero hard failures at f<=0.2, deterministic "
                "across reruns — PASS\n");
  }
  return ok ? 0 : 1;
}
