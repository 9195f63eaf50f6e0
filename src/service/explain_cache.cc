#include "service/explain_cache.h"

#include <bit>
#include <cmath>
#include <string_view>

#include "common/hash.h"
#include "vectordb/vector_store.h"

namespace htapex {

uint64_t EmbeddingLatticeKey(const std::vector<double>& embedding) {
  // Keys hash each cell's little-endian bytes, which is its object
  // representation only on a little-endian host.
  static_assert(std::endian::native == std::endian::little);
  uint64_t h = kFnv1a64Basis;
  for (double v : embedding) {
    uint64_t cell =
        static_cast<uint64_t>(std::llround(v / kEmbeddingLatticeStep));
    h = Fnv1a64(
        std::string_view(reinterpret_cast<const char*>(&cell), sizeof(cell)),
        h);
  }
  return h;
}

std::shared_ptr<const CachedExplanation> ExplainCache::Lookup(
    const std::vector<double>& embedding) {
  const uint64_t key = EmbeddingLatticeKey(embedding);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++counts_.misses;
    return nullptr;
  }
  // Same lattice cell — confirm it is a genuine near-duplicate before
  // serving someone else's explanation.
  const std::shared_ptr<const CachedExplanation>& value = it->second->value;
  if (value->embedding.size() != embedding.size() ||
      SquaredL2(embedding, value->embedding) > kNearDuplicateSqDistance) {
    ++counts_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++counts_.hits;
  return value;
}

void ExplainCache::Insert(std::shared_ptr<const CachedExplanation> value) {
  const uint64_t key = EmbeddingLatticeKey(value->embedding);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Same cell already cached (e.g. two workers raced on the same query):
    // keep the newer explanation and refresh recency.
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(value)});
  map_[key] = lru_.begin();
  ++counts_.insertions;
  while (lru_.size() > kExplainCacheCapacity) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++counts_.evictions;
  }
}

ExplainCache::Stats ExplainCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = counts_;
  s.size = lru_.size();
  return s;
}

}  // namespace htapex
