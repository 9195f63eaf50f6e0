#ifndef HTAPEX_COMMON_RNG_H_
#define HTAPEX_COMMON_RNG_H_

#include <cstdint>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/hash.h"

namespace htapex {

/// Deterministic pseudo-random generator (xoshiro256** seeded via
/// splitmix64). All randomness in the library flows through explicit Rng
/// instances so every experiment is reproducible from its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) { Seed(seed); }

  void Seed(uint64_t seed) {
    for (auto& si : s_) {
      si = SplitMix64(seed);
      seed += kSplitMix64Gamma;
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi) {
    uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(NextU64() % range);
  }

  /// Uniform double in [lo, hi).
  double UniformReal(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) u1 = 1e-300;
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    return mean + stddev * z;
  }

  /// Picks an index in [0, weights.size()) proportionally to weights.
  size_t WeightedIndex(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    double r = NextDouble() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
      r -= weights[i];
      if (r <= 0) return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Picks one element (container must be non-empty).
  template <typename T>
  const T& Choice(const std::vector<T>& v) {
    return v[static_cast<size_t>(Uniform(0, static_cast<int64_t>(v.size()) - 1))];
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

}  // namespace htapex

#endif  // HTAPEX_COMMON_RNG_H_
