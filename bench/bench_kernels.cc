// SIMD kernel-library benchmark + self-checks (src/common/kernels.h and
// the float32 serving paths built on it: FrozenTreeCnn and the
// vector-store slab scan).
//
// The acceptance bar this file enforces (exit code != 0 on violation),
// checked once per kernel backend the CPU supports:
//   1. Parity: over the full 200-query evaluation workload, the frozen
//      float32 router and the double-precision master produce identical
//      routing verdicts, identical knowledge-base top-K retrievals, and
//      embeddings within 1e-4 max-abs-diff.
//   2. Speedup (SIMD backends only): the SIMD float32 squared-L2 kernel and
//      the batched frozen forward pass each run >= 3x faster than the
//      double-precision scalar baselines they replaced.
//   3. Zero steady-state allocations: once warm, repeated batched forward
//      passes never grow the thread arena — the `grows` counter freezes.
//
// `--self-check` runs reduced-rep versions of the same checks (the CI
// kernels job's fast path); without it the full benchmark table prints too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "nn/frozen_tree_cnn.h"
#include "router/smart_router.h"
#include "vectordb/knowledge_base.h"
#include "vectordb/vector_store.h"

namespace {

using namespace htapex;
using namespace htapex::bench;

std::unique_ptr<Fixture>& SharedFixture() {
  static std::unique_ptr<Fixture> fixture = Fixture::Make();
  return fixture;
}

/// The evaluation workload as planned pairs (bind + both optimizers).
std::vector<PlanPair> WorkloadPairs(const HtapSystem& system, int n) {
  std::vector<PlanPair> pairs;
  for (const GeneratedQuery& q : TestWorkload(system, n)) {
    auto bound = system.Bind(q.sql);
    if (!bound.ok()) continue;
    auto plans = system.PlanBoth(*bound);
    if (!plans.ok()) continue;
    pairs.push_back(std::move(*plans));
  }
  return pairs;
}

/// Check 1: float32 inference is an implementation detail, not a behaviour
/// change — verdicts and retrievals must match the double master exactly.
bool CheckParity(Fixture* f, const std::vector<PlanPair>& pairs) {
  const SmartRouter& router = f->explainer->router();
  const KnowledgeBase& kb = f->explainer->knowledge_base();
  const int k = f->explainer->config().retrieval_k;

  std::vector<const PlanPair*> ptrs;
  for (const PlanPair& p : pairs) ptrs.push_back(&p);
  std::vector<RoutedPair> routed = router.RouteBatch(ptrs);

  double max_abs_diff = 0.0;
  size_t verdict_mismatches = 0, retrieval_mismatches = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    double p_master = router.ApProbabilityMaster(pairs[i]);
    bool verdict_master = p_master >= 0.5;
    bool verdict_frozen = routed[i].route == EngineKind::kAp;
    if (verdict_master != verdict_frozen) ++verdict_mismatches;

    std::vector<double> emb_master = router.EmbedMaster(pairs[i]);
    for (size_t j = 0; j < emb_master.size(); ++j) {
      max_abs_diff = std::max(
          max_abs_diff, std::fabs(emb_master[j] - routed[i].embedding[j]));
    }

    auto hits_master = kb.Retrieve(emb_master, k);
    auto hits_frozen = kb.Retrieve(routed[i].embedding, k);
    bool same = hits_master.size() == hits_frozen.size();
    for (size_t j = 0; same && j < hits_master.size(); ++j) {
      same = hits_master[j]->id == hits_frozen[j]->id;
    }
    if (!same) ++retrieval_mismatches;
  }
  std::printf(
      "parity: %zu pairs, %zu verdict mismatches, %zu retrieval mismatches, "
      "embedding max-abs-diff %.2e (bars: 0, 0, < 1e-4)\n",
      pairs.size(), verdict_mismatches, retrieval_mismatches, max_abs_diff);
  if (verdict_mismatches != 0 || retrieval_mismatches != 0 ||
      max_abs_diff >= 1e-4) {
    std::fprintf(stderr, "FAIL: float32 parity violated\n");
    return false;
  }
  return true;
}

/// Check 2a: SIMD float32 squared-L2 vs the double-precision scalar
/// reference (vector_store.h's exported SquaredL2) on embedding-sized and
/// larger vectors.
bool CheckSquaredL2Speedup(int reps) {
  Rng rng(0x51bd);
  const int dim = 256, count = 512;
  std::vector<std::vector<double>> vecs_d(count);
  std::vector<float> slab(static_cast<size_t>(count) * dim);
  std::vector<double> query_d(dim);
  std::vector<float> query_f(dim);
  for (int i = 0; i < count; ++i) {
    vecs_d[static_cast<size_t>(i)].resize(dim);
    for (int j = 0; j < dim; ++j) {
      double v = rng.UniformReal(-1, 1);
      vecs_d[static_cast<size_t>(i)][static_cast<size_t>(j)] = v;
      slab[static_cast<size_t>(i) * dim + j] = static_cast<float>(v);
    }
  }
  for (int j = 0; j < dim; ++j) {
    query_d[static_cast<size_t>(j)] = rng.UniformReal(-1, 1);
    query_f[static_cast<size_t>(j)] = static_cast<float>(query_d[static_cast<size_t>(j)]);
  }

  double sink = 0.0;
  double ms_double = 0.0, ms_simd = 0.0;
  BestMillisAb(
      reps,
      [&] {
        for (int pass = 0; pass < 20; ++pass) {
          for (int i = 0; i < count; ++i) {
            sink += SquaredL2(query_d, vecs_d[static_cast<size_t>(i)]);
          }
        }
      },
      [&] {
        for (int pass = 0; pass < 20; ++pass) {
          for (int i = 0; i < count; ++i) {
            sink += kernels::SquaredL2(
                query_f.data(), slab.data() + static_cast<size_t>(i) * dim,
                dim);
          }
        }
      },
      &ms_double, &ms_simd);
  benchmark::DoNotOptimize(sink);
  double speedup = ms_double / ms_simd;
  std::printf(
      "squared-L2 (%s, dim %d): scalar double %.3f ms, float32 kernel "
      "%.3f ms -> %.1fx (bar: >= 3x)\n",
      kernels::BackendName(kernels::ActiveBackend()), dim, ms_double, ms_simd,
      speedup);
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: squared-L2 speedup %.2fx < 3x\n", speedup);
    return false;
  }
  return true;
}

/// Check 2b: the batched float32 forward pass (blocked conv GEMMs) vs the
/// per-pair double-precision master, both over pre-featurized trees so the
/// comparison isolates the inference kernels (featurization is identical
/// on both sides and excluded; both sides extract embeddings too, matching
/// what the serving path consumes).
bool CheckForwardSpeedup(const std::vector<PlanPair>& pairs, int reps) {
  std::vector<PlanTreeFeatures> features(2 * pairs.size());
  std::vector<const PlanTreeFeatures*> tps(pairs.size());
  std::vector<const PlanTreeFeatures*> aps(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    features[2 * i] = FeaturizePlan(pairs[i].tp);
    features[2 * i + 1] = FeaturizePlan(pairs[i].ap);
    tps[i] = &features[2 * i];
    aps[i] = &features[2 * i + 1];
  }
  // Compute cost is weight-independent; a fresh model times the same as a
  // trained one.
  TreeCnn::Config config;
  config.feature_dim = kPlanFeatureDim;
  TreeCnn master(config);
  FrozenTreeCnn frozen(master);

  double sink = 0.0;
  double ms_master = 0.0, ms_frozen = 0.0;
  BestMillisAb(
      reps,
      [&] {
        std::vector<double> z;
        for (size_t i = 0; i < pairs.size(); ++i) {
          sink += master.PredictApFaster(*tps[i], *aps[i], &z);
        }
      },
      [&] {
        std::vector<double> p;
        std::vector<std::vector<double>> z;
        frozen.PredictBatch(tps, aps, &p, &z);
        sink += p.empty() ? 0.0 : p[0];
      },
      &ms_master, &ms_frozen);
  benchmark::DoNotOptimize(sink);
  double speedup = ms_master / ms_frozen;
  std::printf(
      "router forward (%s, %zu pairs): double master %.2f ms, frozen "
      "batched %.2f ms -> %.1fx (bar: >= 3x)\n",
      kernels::BackendName(kernels::ActiveBackend()), pairs.size(), ms_master,
      ms_frozen, speedup);
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: forward-pass speedup %.2fx < 3x\n", speedup);
    return false;
  }
  return true;
}

/// Check 3: once warm, the batched forward path carves everything out of
/// the (coalesced) thread arena — no further heap growth, ever.
bool CheckZeroSteadyStateAllocs(Fixture* f,
                                const std::vector<PlanPair>& pairs) {
  const SmartRouter& router = f->explainer->router();
  std::vector<const PlanPair*> ptrs;
  for (const PlanPair& p : pairs) ptrs.push_back(&p);
  for (int warm = 0; warm < 3; ++warm) (void)router.RouteBatch(ptrs);
  const uint64_t grows_warm = kernels::ThreadArena().stats().grows;
  const int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) (void)router.RouteBatch(ptrs);
  const uint64_t grows_after = kernels::ThreadArena().stats().grows;
  std::printf(
      "arena steady state: %llu grows after warmup, %llu after %d more "
      "batched passes (bar: equal)\n",
      static_cast<unsigned long long>(grows_warm),
      static_cast<unsigned long long>(grows_after), kRounds);
  if (grows_after != grows_warm) {
    std::fprintf(stderr,
                 "FAIL: steady-state forward passes grew the arena "
                 "(%llu -> %llu)\n",
                 static_cast<unsigned long long>(grows_warm),
                 static_cast<unsigned long long>(grows_after));
    return false;
  }
  return true;
}

void BM_SquaredL2(benchmark::State& state) {
  const auto backend = static_cast<kernels::Backend>(state.range(0));
  if (!kernels::ForceBackendForTest(backend)) {
    state.SkipWithError("backend unsupported on this CPU");
    return;
  }
  const int dim = static_cast<int>(state.range(1));
  Rng rng(0xd1f);
  std::vector<float> a(static_cast<size_t>(dim)), b(static_cast<size_t>(dim));
  for (int i = 0; i < dim; ++i) {
    a[static_cast<size_t>(i)] = static_cast<float>(rng.UniformReal(-1, 1));
    b[static_cast<size_t>(i)] = static_cast<float>(rng.UniformReal(-1, 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::SquaredL2(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(kernels::BackendName(backend));
}
BENCHMARK(BM_SquaredL2)
    ->ArgsProduct({{0 /*scalar*/, 1 /*avx2*/}, {16, 256}})
    ->Unit(benchmark::kNanosecond);

void BM_FrozenRouteBatch(benchmark::State& state) {
  Fixture* f = SharedFixture().get();
  if (f == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  const auto backend = static_cast<kernels::Backend>(state.range(0));
  if (!kernels::ForceBackendForTest(backend)) {
    state.SkipWithError("backend unsupported on this CPU");
    return;
  }
  static std::vector<PlanPair> pairs = WorkloadPairs(*f->system, 64);
  std::vector<const PlanPair*> ptrs;
  for (const PlanPair& p : pairs) ptrs.push_back(&p);
  const SmartRouter& router = f->explainer->router();
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.RouteBatch(ptrs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
  state.SetLabel(kernels::BackendName(backend));
}
BENCHMARK(BM_FrozenRouteBatch)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_MasterPredict(benchmark::State& state) {
  Fixture* f = SharedFixture().get();
  if (f == nullptr) {
    state.SkipWithError("fixture init failed");
    return;
  }
  static std::vector<PlanPair> pairs = WorkloadPairs(*f->system, 64);
  const SmartRouter& router = f->explainer->router();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        router.ApProbabilityMaster(pairs[i++ % pairs.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("double master");
}
BENCHMARK(BM_MasterPredict)->Unit(benchmark::kMicrosecond);

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
  const std::vector<PlanPair> pairs = WorkloadPairs(*f->system, 200);
  if (pairs.empty()) {
    std::fprintf(stderr, "FAIL: workload produced no plan pairs\n");
    return 1;
  }

  if (!self_check) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }

  const int reps = self_check ? 12 : 25;
  bool ok = true;
  for (kernels::Backend backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2,
        kernels::Backend::kNeon}) {
    if (!kernels::ForceBackendForTest(backend)) continue;
    std::printf("\n=== kernel self-checks%s (backend: %s) ===\n",
                self_check ? " (quick)" : "", kernels::BackendName(backend));
    ok = CheckParity(f, pairs) && ok;
    if (backend == kernels::Backend::kScalar) {
      std::printf("speedup gates: SIMD backends only\n");
    } else {
      ok = CheckSquaredL2Speedup(reps) && ok;
      ok = CheckForwardSpeedup(pairs, reps) && ok;
    }
    ok = CheckZeroSteadyStateAllocs(f, pairs) && ok;
  }
  std::printf("%s\n", ok ? "ALL CHECKS PASSED" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
