// Experiment R1 (paper Section III-A): smart-router characteristics. The
// paper reports high routing accuracy, a model size < 1 MB, and ~1 ms
// inference (later quoted < 0.1 ms average).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "engine/htap_system.h"
#include "router/smart_router.h"
#include "workload/query_generator.h"

namespace {

using namespace htapex;

struct RouterFixture {
  std::unique_ptr<HtapSystem> system;
  std::unique_ptr<SmartRouter> router;
  std::vector<PairExample> train, test;
  RouterTrainStats stats;

  static std::unique_ptr<RouterFixture> Make() {
    auto f = std::make_unique<RouterFixture>();
    f->system = std::make_unique<HtapSystem>();
    HtapConfig config;
    config.data_scale_factor = 0.0;
    if (!f->system->Init(config).ok()) return nullptr;
    f->router = std::make_unique<SmartRouter>(7);
    QueryGenerator gen(config.stats_scale_factor, 4242);
    int i = 0;
    for (const GeneratedQuery& gq : gen.GenerateMix(400)) {
      auto planned = f->system->Plan(gq.sql);
      if (!planned.ok()) return nullptr;
      PairExample ex = f->router->MakeExample(planned->outcome.plans,
                                              planned->outcome.faster);
      (++i % 5 == 0 ? f->test : f->train).push_back(std::move(ex));
    }
    f->stats = f->router->Train(f->train, /*epochs=*/60);
    return f;
  }
};

std::unique_ptr<RouterFixture>& SharedFixture() {
  static std::unique_ptr<RouterFixture> f = RouterFixture::Make();
  return f;
}

void BM_RouterInference(benchmark::State& state) {
  RouterFixture* f = SharedFixture().get();
  const PairExample& ex = f->test.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->router->EmbedFeatures(ex.tp, ex.ap));
  }
}
BENCHMARK(BM_RouterInference)->Unit(benchmark::kMicrosecond);

void BM_RouterTrainEpoch(benchmark::State& state) {
  RouterFixture* f = SharedFixture().get();
  SmartRouter fresh(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fresh.Train(f->train, /*epochs=*/1));
  }
}
BENCHMARK(BM_RouterTrainEpoch)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (SharedFixture() == nullptr) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  RouterFixture* f = SharedFixture().get();
  std::printf("\n=== R1: smart router (tree-CNN) characteristics ===\n");
  std::printf("%-28s %-14s %s\n", "metric", "this build", "paper");
  std::printf("%-28s %-14.1f %s\n", "train accuracy (%)",
              100.0 * f->stats.train_accuracy, "\"high accuracy\"");
  std::printf("%-28s %-14.1f %s\n", "held-out accuracy (%)",
              100.0 * f->router->EvaluateAccuracy(f->test), "-");
  std::printf("%-28s %-14zu %s\n", "model size (bytes)",
              f->router->model_bytes(), "< 1 MB");
  std::printf("%-28s %-14d %s\n", "pair-embedding dims",
              f->router->embedding_dim(), "16");
  std::printf("%-28s %-14.2f %s\n", "train wall time (s)",
              f->stats.wall_seconds, "\"quickly retrained\"");
  std::printf("(inference latency: see BM_RouterInference above; paper "
              "quotes ~1 ms / < 0.1 ms)\n");

  // Learning curve: how much labelled workload the router needs. The paper
  // notes the router "can be quickly retrained to adjust to changes in
  // query workloads"; small retraining sets already recover most accuracy.
  std::printf("\n--- learning curve (held-out accuracy vs training size) ---\n");
  for (size_t n : {20u, 40u, 80u, 160u, 320u}) {
    size_t take = std::min(n, f->train.size());
    std::vector<PairExample> subset(f->train.begin(),
                                    f->train.begin() + static_cast<long>(take));
    SmartRouter fresh(13);
    fresh.Train(subset, 60);
    std::printf("train n=%3zu  held-out accuracy %.1f%%\n", take,
                100.0 * fresh.EvaluateAccuracy(f->test));
  }
  return 0;
}
