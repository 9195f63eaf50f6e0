#include "engine/agg_state.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"

namespace htapex {

namespace {

uint64_t HashKey(const Value* const* key, size_t width) {
  uint64_t h = kSplitMix64Gamma;
  for (size_t i = 0; i < width; ++i) h = Fmix64(h ^ key[i]->Hash());
  return h;
}

}  // namespace

bool GroupMap::KeyEquals(size_t g, const Value* const* key) const {
  const Value* stored = Key(g);
  for (size_t i = 0; i < key_width_; ++i) {
    if (stored[i].Compare(*key[i]) != 0) return false;
  }
  return true;
}

void GroupMap::Rehash(size_t buckets) {
  buckets_.assign(buckets, 0);
  const size_t mask = buckets - 1;
  for (size_t g = 0; g < hashes_.size(); ++g) {
    size_t b = hashes_[g] & mask;
    while (buckets_[b] != 0) b = (b + 1) & mask;
    buckets_[b] = static_cast<uint32_t>(g + 1);
  }
}

size_t GroupMap::FindOrInsert(const Value* const* key) {
  if (buckets_.size() < 2 * (size() + 1)) {
    Rehash(std::max<size_t>(16, 2 * buckets_.size()));
  }
  const uint64_t h = HashKey(key, key_width_);
  const size_t mask = buckets_.size() - 1;
  for (size_t b = h & mask;; b = (b + 1) & mask) {
    const uint32_t slot = buckets_[b];
    if (slot == 0) {
      const size_t g = size();
      buckets_[b] = static_cast<uint32_t>(g + 1);
      hashes_.push_back(h);
      for (size_t i = 0; i < key_width_; ++i) keys_.push_back(*key[i]);
      states_.resize(states_.size() + num_aggs_);
      return g;
    }
    if (hashes_[slot - 1] == h && KeyEquals(slot - 1, key)) return slot - 1;
  }
}

std::vector<uint32_t> GroupMap::Order() const {
  std::vector<uint32_t> order(size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    const Value* ka = Key(a);
    const Value* kb = Key(b);
    for (size_t i = 0; i < key_width_; ++i) {
      const int c = ka[i].Compare(kb[i]);
      if (c != 0) return c < 0;
    }
    return a < b;
  });
  return order;
}

}  // namespace htapex
