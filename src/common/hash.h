#ifndef HTAPEX_COMMON_HASH_H_
#define HTAPEX_COMMON_HASH_H_

#include <bit>
#include <cstdint>
#include <string_view>

namespace htapex {

/// The library's two hash primitives. Value::Hash, the executor's batch
/// hash kernels, Bloom sifts, fault draws, Rng seeding and the result-cache
/// and ring key all go through these, so a join table built from gathered
/// key columns, a sift built from rows and a replayed fault transcript all
/// agree bit for bit. Inline because they sit inside the join, sift and
/// cache-key loops.

/// splitmix64's increment: the 64-bit golden ratio.
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// The splitmix64 finalizer (Stafford's Mix13 variant): a bijective
/// avalanche of all 64 bits.
inline uint64_t Fmix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The bits a numeric Value hashes: its double representation, with -0.0
/// taken as 0.0 (they compare equal, so they must hash equal). Value::Hash
/// and the executor's bulk hash kernels share it.
inline uint64_t HashBits(double d) {
  return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
}

/// One splitmix64 output from state `x`: the golden-gamma step, then
/// Fmix64. The generator's next state is `x + kSplitMix64Gamma`.
inline uint64_t SplitMix64(uint64_t x) { return Fmix64(x + kSplitMix64Gamma); }

/// The library's FNV-1a starting value, the hash of no bytes. It is the
/// published offset basis 14695981039346656037 (0xcbf29ce484222325) with
/// its last decimal digit missing. Every string hash, fault draw, prompt
/// phrasing and cache or ring key derives from it, so it stays; pass the
/// published basis as `h` for standard FNV-1a.
inline constexpr uint64_t kFnv1a64Basis = 1469598103934665603ull;

/// 64-bit FNV-1a over `bytes`, continuing from the running hash `h`, so a
/// key made of several pieces hashes as their concatenation.
inline uint64_t Fnv1a64(std::string_view bytes, uint64_t h = kFnv1a64Basis) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace htapex

#endif  // HTAPEX_COMMON_HASH_H_
