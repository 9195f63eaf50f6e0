// Extension experiment M4: workload drift and router retraining. The paper
// (Section III-A) claims the smart router "can be quickly retrained to
// adjust to changes in query workloads or underlying data". This bench
// shifts the workload mix and the physical design, shows the stale router's
// accuracy degrading, and times the recovery retrain.
//
// `--self-check` turns the narrative into gates (CI runs this mode):
//   - the drift is real: the stale router must lose accuracy on the
//     contested mix relative to its training accuracy;
//   - retraining recovers: the fresh router must beat the stale one by a
//     clear margin on the same drifted evaluation set;
//   - determinism: a second same-seed run of the whole pipeline must land
//     on bit-identical accuracies and an identical frozen-weight CRC.
#include <cstdio>
#include <cstring>

#include "engine/htap_system.h"
#include "router/smart_router.h"
#include "workload/query_generator.h"

namespace {

using namespace htapex;

std::vector<PairExample> Label(const HtapSystem& system, SmartRouter* router,
                               const std::vector<GeneratedQuery>& queries) {
  std::vector<PairExample> out;
  for (const GeneratedQuery& gq : queries) {
    auto planned = system.Plan(gq.sql);
    if (!planned.ok()) continue;
    out.push_back(router->MakeExample(planned->outcome.plans,
                                      planned->outcome.faster));
  }
  return out;
}

/// A drifted workload: only the patterns whose winner depends on physical
/// design and resources (the contested region), where a stale router's
/// decision boundary matters most.
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

/// One full drift-and-recover pipeline, deterministic for a fixed seed set.
struct DriftRun {
  double base_accuracy = 0.0;       // trained router on its own data
  double stale_accuracy = 0.0;      // same router on the drifted mix
  double recovered_accuracy = 0.0;  // fresh-trained router, same mix
  double retrain_seconds = 0.0;
  uint32_t fresh_crc = 0;  // frozen-weight CRC of the retrained router
};

bool RunOnce(DriftRun* run) {
  // Original environment: default latency model.
  HtapSystem original;
  HtapConfig config;
  config.data_scale_factor = 0.0;
  if (!original.Init(config).ok()) return false;

  SmartRouter router(7);
  QueryGenerator train_gen(config.stats_scale_factor, 555);
  auto base_train = Label(original, &router, train_gen.GenerateMix(320));
  RouterTrainStats base = router.Train(base_train, 60);
  run->base_accuracy = base.train_accuracy;

  // Environment change: the AP cluster shrinks to one node and dispatch
  // gets slower — labels in the contested region flip toward TP.
  HtapSystem shrunk;
  HtapConfig shrunk_config = config;
  shrunk_config.latency.ap_parallelism = 1.0;
  shrunk_config.latency.ap_startup_ms = 250.0;
  if (!shrunk.Init(shrunk_config).ok()) return false;

  auto drifted = DriftedWorkload(config.stats_scale_factor, 777, 200);
  auto drifted_examples = Label(shrunk, &router, drifted);
  run->stale_accuracy = router.EvaluateAccuracy(drifted_examples);

  // Quick retrain on a small freshly-labelled sample.
  auto retrain_queries = DriftedWorkload(config.stats_scale_factor, 888, 120);
  auto retrain_examples = Label(shrunk, &router, retrain_queries);
  SmartRouter fresh(7);
  RouterTrainStats retrain = fresh.Train(retrain_examples, 60);
  run->recovered_accuracy = fresh.EvaluateAccuracy(drifted_examples);
  run->retrain_seconds = retrain.wall_seconds;
  run->fresh_crc = fresh.frozen_crc();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) self_check = true;
  }

  DriftRun run;
  if (!RunOnce(&run)) return 1;
  std::printf("=== M4: workload/environment drift and retraining ===\n");
  std::printf("baseline router: %.1f%% train accuracy\n",
              100 * run.base_accuracy);
  std::printf("after drift, stale router:   %.1f%% on the contested mix\n",
              100 * run.stale_accuracy);
  std::printf("retrained on 120 queries:    %.1f%% (retrain took %.2fs)\n",
              100 * run.recovered_accuracy, run.retrain_seconds);
  std::printf("paper claim: the router \"can be quickly retrained to adjust "
              "to changes in query workloads or underlying data\".\n");

  bool shape_ok =
      run.recovered_accuracy > run.stale_accuracy && run.retrain_seconds < 10.0;
  std::printf("shape (retraining recovers accuracy in seconds): %s\n",
              shape_ok ? "HOLDS" : "VIOLATED");
  if (!shape_ok) return 2;
  if (!self_check) return 0;

  // --- self-check gates ---
  bool ok = true;
  // Drift must cost the stale router a real slice of accuracy; a drift the
  // router shrugs off would make the recovery claim vacuous.
  constexpr double kMinDriftDrop = 0.05;
  double drop = run.base_accuracy - run.stale_accuracy;
  if (drop < kMinDriftDrop) {
    std::fprintf(stderr,
                 "FAIL: drift only cost %.3f accuracy (need >= %.3f) — "
                 "the scenario no longer exercises a stale router\n",
                 drop, kMinDriftDrop);
    ok = false;
  }
  // Retraining must recover a clear margin over the stale router.
  constexpr double kMinRecoveryGain = 0.10;
  double gain = run.recovered_accuracy - run.stale_accuracy;
  if (gain < kMinRecoveryGain) {
    std::fprintf(stderr,
                 "FAIL: retrain gained only %.3f over stale (need >= %.3f)\n",
                 gain, kMinRecoveryGain);
    ok = false;
  }
  // Same-seed determinism: the whole pipeline — generation, labelling,
  // training, evaluation — must reproduce bit-identical accuracies and the
  // exact frozen weights (CRC over all tensors).
  DriftRun rerun;
  if (!RunOnce(&rerun)) return 1;
  if (rerun.base_accuracy != run.base_accuracy ||
      rerun.stale_accuracy != run.stale_accuracy ||
      rerun.recovered_accuracy != run.recovered_accuracy ||
      rerun.fresh_crc != run.fresh_crc) {
    std::fprintf(stderr,
                 "FAIL: same-seed rerun diverged: acc (%.6f/%.6f/%.6f) vs "
                 "(%.6f/%.6f/%.6f), crc %08x vs %08x\n",
                 run.base_accuracy, run.stale_accuracy,
                 run.recovered_accuracy, rerun.base_accuracy,
                 rerun.stale_accuracy, rerun.recovered_accuracy,
                 run.fresh_crc, rerun.fresh_crc);
    ok = false;
  }
  std::printf("self-check: drift drop %.3f, recovery gain %.3f, "
              "deterministic rerun %s => %s\n",
              drop, gain, ok ? "matched" : "DIVERGED",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 2;
}
