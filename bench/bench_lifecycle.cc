// Self-checks for the self-healing model lifecycle
// (src/lifecycle/model_lifecycle.h): drift detection, shadow-validated
// retraining, atomic hot-swap, regression rollback, and determinism.
//
// Methodology: the drift scenario from bench_drift — a router trained in
// the default environment keeps serving after the AP cluster shrinks to
// one slow-dispatch node, so its labels in the contested region flip —
// but here the recovery is AUTOMATED: execution feedback streams into a
// ModelLifecycleManager one sample at a time and the manager detects the
// drift, retrains a candidate, shadow-scores it, swaps it in, and watches
// the swap, all through its normal tick path.
//
// The acceptance bar this file enforces (exit code != 0 on violation):
//   A. Self-healing recovers accuracy: the lifecycle swaps exactly once
//      and the post-swap serving router scores within 2 points of a
//      router fresh-trained on drifted labels, on a held-out drifted set.
//   B. Hot-swap safety: reader threads hammering the frozen snapshot
//      through 200 concurrent republications only ever see probabilities
//      in [0,1] — no torn weights, no invalid output, no pause.
//   C. Regression rollback: a swap whose post-swap window tanks (label
//      noise) is rolled back automatically, and the restored snapshot is
//      bit-identical to the pre-swap weights (frozen CRC equality).
//   D. Determinism: two same-seed runs of the full scenario produce
//      identical lifecycle event logs.
//   E. Service integration: ExplainService with lifecycle enabled records
//      feedback for served queries and its Prometheus exposition (with the
//      lifecycle families) round-trips the strict parser.
//
// `--self-check` is accepted for CI symmetry with the other benches; the
// gates run (and gate the exit code) either way.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "engine/htap_system.h"
#include "lifecycle/model_lifecycle.h"
#include "obs/exposition.h"
#include "router/smart_router.h"
#include "service/explain_service.h"
#include "workload/query_generator.h"

namespace {

using namespace htapex;
using namespace htapex::bench;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what);
  ++g_failures;
}

std::vector<PairExample> Label(const HtapSystem& system,
                               const SmartRouter& router,
                               const std::vector<GeneratedQuery>& queries) {
  std::vector<PairExample> out;
  for (const GeneratedQuery& gq : queries) {
    auto planned = system.Plan(gq.sql);
    if (!planned.ok()) continue;
    out.push_back(router.MakeExample(planned->outcome.plans,
                                     planned->outcome.faster));
  }
  return out;
}

/// The contested patterns whose winner flips when the AP cluster shrinks —
/// the same drifted mix bench_drift uses.
std::vector<GeneratedQuery> DriftedWorkload(double sf, uint64_t seed, int n) {
  QueryGenerator gen(sf, seed);
  std::vector<GeneratedQuery> out;
  const QueryPattern contested[] = {
      QueryPattern::kJoinSmall, QueryPattern::kSelectiveRange,
      QueryPattern::kTopNIndexed, QueryPattern::kTopNLargeOffset};
  for (int i = 0; i < n; ++i) {
    out.push_back(gen.Generate(contested[i % 4]));
  }
  return out;
}

LifecycleOptions ScenarioOptions() {
  LifecycleOptions opts;
  opts.enabled = true;  // memory-only feedback buffer (no data_dir)
  opts.min_samples = 48;
  opts.eval_every = 16;
  opts.drift_window = 64;
  opts.drift_threshold = 0.15;
  // Mostly-drifted training window by detection time, and the same epoch
  // budget the fresh-trained reference gets.
  opts.retrain_window = 128;
  opts.retrain_epochs = 60;
  opts.shadow_window = 64;
  opts.shadow_beats = 2;
  opts.watch_window = 48;
  opts.regression_threshold = 0.10;
  opts.tick_every_samples = 8;
  opts.seed = 7;
  return opts;
}

struct ScenarioResult {
  bool init_ok = false;
  LifecycleStats stats;
  std::vector<std::string> events;
  double lifecycle_accuracy = 0.0;  // post-swap serving, held-out drifted set
  double fresh_accuracy = 0.0;      // fresh-trained reference, same set
  uint32_t pre_swap_crc = 0;
  uint32_t final_crc = 0;
};

/// One full drift-and-self-heal run, deterministic for the fixed seeds.
/// With `force_regression`, label-flipped feedback is injected after the
/// swap so the watch window regresses and the manager must roll back.
ScenarioResult RunScenario(bool force_regression) {
  ScenarioResult out;

  HtapSystem original;
  HtapConfig config;
  config.data_scale_factor = 0.0;
  if (!original.Init(config).ok()) return out;

  HtapSystem shrunk;
  HtapConfig shrunk_config = config;
  shrunk_config.latency.ap_parallelism = 1.0;
  shrunk_config.latency.ap_startup_ms = 250.0;
  if (!shrunk.Init(shrunk_config).ok()) return out;

  SmartRouter router(7);
  QueryGenerator train_gen(config.stats_scale_factor, 555);
  router.Train(Label(original, router, train_gen.GenerateMix(320)), 60);

  ModelLifecycleManager lifecycle(&router, ScenarioOptions());
  if (!lifecycle.Open().ok()) return out;

  // Healthy traffic first: the drift detector needs a high-water baseline.
  QueryGenerator live_gen(config.stats_scale_factor, 556);
  for (PairExample& ex : Label(original, router, live_gen.GenerateMix(64))) {
    lifecycle.RecordExample(std::move(ex));
  }
  out.pre_swap_crc = router.frozen_crc();

  // The environment shrinks; feedback now carries drifted labels. The
  // manager's auto-ticks detect the drop, retrain, shadow, and swap.
  auto drifted =
      Label(shrunk, router, DriftedWorkload(config.stats_scale_factor, 777, 320));
  size_t fed = 0;
  for (PairExample& ex : drifted) {
    if (lifecycle.Stats().swaps > 0) break;  // swap landed; rest is post-swap
    lifecycle.RecordExample(std::move(ex));
    ++fed;
  }

  if (force_regression) {
    // Poison the post-swap window: flipped labels make every verdict look
    // wrong, so watch must see a regression and restore the old weights.
    for (size_t i = fed; i < drifted.size(); ++i) {
      PairExample ex = drifted[i];
      ex.label = 1 - ex.label;
      lifecycle.RecordExample(std::move(ex));
      if (lifecycle.Stats().rollbacks > 0) break;
    }
  } else {
    // Keep the drifted traffic flowing so the watch window can conclude.
    for (size_t i = fed; i < drifted.size(); ++i) {
      lifecycle.RecordExample(std::move(drifted[i]));
    }
  }

  // Held-out drifted evaluation set, and the manual-retrain reference the
  // lifecycle is graded against (bench_drift's recovery recipe).
  auto held_out =
      Label(shrunk, router, DriftedWorkload(config.stats_scale_factor, 999, 160));
  SmartRouter fresh(7);
  fresh.Train(
      Label(shrunk, fresh, DriftedWorkload(config.stats_scale_factor, 888, 120)),
      60);
  out.lifecycle_accuracy = router.EvaluateAccuracy(held_out);
  out.fresh_accuracy = fresh.EvaluateAccuracy(held_out);
  out.stats = lifecycle.Stats();
  out.events = lifecycle.EventLog();
  out.final_crc = router.frozen_crc();
  out.init_ok = true;
  return out;
}

/// Gate B: concurrent readers vs. 200 republications. Readers must never
/// see a torn snapshot — every probability stays a valid [0,1] value.
void HammerHotSwap() {
  HtapSystem system;
  HtapConfig config;
  config.data_scale_factor = 0.0;
  if (!system.Init(config).ok()) {
    Check(false, "hammer: system init failed");
    return;
  }
  SmartRouter serving(7);
  QueryGenerator gen(config.stats_scale_factor, 555);
  auto examples = Label(system, serving, gen.GenerateMix(64));
  serving.Train(examples, 40);
  SmartRouter other(11);
  other.Train(Label(system, other, DriftedWorkload(
                                       config.stats_scale_factor, 777, 64)),
              40);
  std::unique_ptr<TreeCnn> retained = serving.CloneMaster();
  uint64_t version_before = serving.frozen_version();
  uint32_t crc_before = serving.frozen_crc();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> invalid{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto frozen = serving.frozen_snapshot();
        for (const PairExample& ex : examples) {
          double p = frozen->PredictApFaster(ex.tp, ex.ap);
          if (!(p >= 0.0 && p <= 1.0)) {
            invalid.fetch_add(1, std::memory_order_relaxed);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Alternate the two publication paths the lifecycle uses: hot-swap
  // (CloneWeightsFrom) and rollback (AdoptMaster).
  constexpr int kSwaps = 200;
  for (int i = 0; i < kSwaps; ++i) {
    if (i % 2 == 0) {
      serving.CloneWeightsFrom(other);
    } else {
      Check(serving.AdoptMaster(*retained).ok(), "hammer: AdoptMaster failed");
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  std::printf("B. hot-swap hammer: %llu reads across %d republications, "
              "%llu invalid\n",
              (unsigned long long)reads.load(), kSwaps,
              (unsigned long long)invalid.load());
  Check(invalid.load() == 0, "hammer: reader saw an out-of-range probability");
  Check(reads.load() > 0, "hammer: readers made no progress");
  Check(serving.frozen_version() == version_before + kSwaps,
        "hammer: republication count does not match frozen version");
  Check(serving.frozen_crc() == crc_before,
        "hammer: final snapshot is not the retained weights");
}

/// Gate E: the service-level wiring — feedback recorded for served
/// queries, lifecycle stats exposed, exposition round-trips the parser.
void ServiceIntegration() {
  std::unique_ptr<Fixture> fixture = Fixture::Make();
  if (fixture == nullptr) {
    Check(false, "service: fixture init failed");
    return;
  }
  ServiceConfig config;
  config.num_workers = 2;
  config.lifecycle.enabled = true;  // memory-only buffer
  ExplainService service(fixture->explainer.get(), config);
  Check(service.lifecycle() != nullptr, "service: lifecycle not armed");

  std::vector<std::string> sqls;
  for (const GeneratedQuery& q : TestWorkload(*fixture->system, 48)) {
    sqls.push_back(q.sql);
  }
  std::vector<std::future<Result<ExplainResult>>> futures;
  for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
  size_t ok_count = 0;
  for (auto& fut : futures) {
    if (fut.get().ok()) ++ok_count;
  }
  Check(ok_count == sqls.size(), "service: not every query explained");

  ServiceStats stats = service.Stats();
  Check(stats.lifecycle_enabled, "service: stats missing lifecycle block");
  Check(stats.lifecycle.feedback_samples >= ok_count,
        "service: served queries not recorded as feedback");

  auto parsed = ParseExposition(service.ExpositionText());
  Check(parsed.ok(), "service: exposition does not round-trip the parser");
  bool saw_samples = false;
  bool saw_phase = false;
  if (parsed.ok()) {
    for (const ExpositionSample& s : *parsed) {
      if (s.name == "htapex_lifecycle_feedback_samples_total" && s.value > 0) {
        saw_samples = true;
      }
      if (s.name == "htapex_lifecycle_phase") saw_phase = true;
    }
  }
  Check(saw_samples, "service: lifecycle feedback counter not exposed");
  Check(saw_phase, "service: lifecycle phase gauge not exposed");
  std::printf("E. service integration: %zu queries served, %llu feedback "
              "samples, exposition round-trips\n",
              ok_count, (unsigned long long)stats.lifecycle.feedback_samples);
}

}  // namespace

int main(int argc, char** argv) {
  bool self_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) self_check = true;
  }

  std::printf("=== self-healing model lifecycle ===\n");

  // A. drift -> detect -> retrain -> shadow -> swap -> accepted.
  ScenarioResult heal = RunScenario(/*force_regression=*/false);
  Check(heal.init_ok, "heal: scenario init failed");
  if (heal.init_ok) {
    std::printf("A. self-heal: drift=%llu retrains=%llu swaps=%llu "
                "rollbacks=%llu | lifecycle acc %.3f vs fresh %.3f\n",
                (unsigned long long)heal.stats.drift_detections,
                (unsigned long long)heal.stats.retrains,
                (unsigned long long)heal.stats.swaps,
                (unsigned long long)heal.stats.rollbacks,
                heal.lifecycle_accuracy, heal.fresh_accuracy);
    Check(heal.stats.drift_detections >= 1, "heal: drift never detected");
    Check(heal.stats.retrains >= 1, "heal: no retrain ran");
    Check(heal.stats.swaps == 1, "heal: expected exactly one hot-swap");
    Check(heal.stats.rollbacks == 0, "heal: unexpected rollback");
    Check(heal.final_crc != heal.pre_swap_crc,
          "heal: swap did not change the serving weights");
    Check(heal.lifecycle_accuracy >= heal.fresh_accuracy - 0.02,
          "heal: recovered accuracy more than 2 points below fresh-trained");
  }

  // B. hot-swap safety under concurrent load.
  HammerHotSwap();

  // C. forced post-swap regression -> automatic rollback, bit-identical.
  ScenarioResult regress = RunScenario(/*force_regression=*/true);
  Check(regress.init_ok, "rollback: scenario init failed");
  if (regress.init_ok) {
    std::printf("C. rollback: swaps=%llu rollbacks=%llu | pre-swap crc=%08x "
                "final crc=%08x\n",
                (unsigned long long)regress.stats.swaps,
                (unsigned long long)regress.stats.rollbacks,
                regress.pre_swap_crc, regress.final_crc);
    Check(regress.stats.swaps == 1, "rollback: expected exactly one swap");
    Check(regress.stats.rollbacks == 1,
          "rollback: regression did not trigger a rollback");
    Check(regress.final_crc == regress.pre_swap_crc,
          "rollback: restored weights are not bit-identical (CRC mismatch)");
  }

  // D. same-seed determinism of the full event log.
  ScenarioResult rerun = RunScenario(/*force_regression=*/false);
  bool logs_match =
      rerun.init_ok && heal.init_ok && rerun.events == heal.events;
  std::printf("D. determinism: %zu events, same-seed rerun %s\n",
              heal.events.size(), logs_match ? "identical" : "DIVERGED");
  Check(logs_match, "determinism: same-seed event logs differ");
  if (!logs_match && heal.init_ok && rerun.init_ok) {
    size_t n = std::max(heal.events.size(), rerun.events.size());
    for (size_t i = 0; i < n; ++i) {
      const char* a = i < heal.events.size() ? heal.events[i].c_str() : "-";
      const char* b = i < rerun.events.size() ? rerun.events[i].c_str() : "-";
      if (std::strcmp(a, b) != 0) {
        std::fprintf(stderr, "  event[%zu]: \"%s\" vs \"%s\"\n", i, a, b);
      }
    }
  }

  // E. service wiring + exposition.
  ServiceIntegration();

  if (!self_check && heal.init_ok) {
    std::printf("--- lifecycle event log (run A) ---\n");
    for (const std::string& e : heal.events) std::printf("  %s\n", e.c_str());
  }

  std::printf("self-check: %s\n", g_failures == 0 ? "PASS" : "FAIL");
  return g_failures == 0 ? 0 : 2;
}
