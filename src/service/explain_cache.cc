#include "service/explain_cache.h"

#include <algorithm>
#include <cmath>

#include "vectordb/vector_store.h"

namespace htapex {

uint64_t EmbeddingLatticeKey(const std::vector<double>& embedding,
                             double quant_step) {
  if (quant_step <= 0.0) quant_step = ShardedExplainCache::Options().quant_step;
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (double v : embedding) {
    uint64_t cell = static_cast<uint64_t>(std::llround(v / quant_step));
    for (int i = 0; i < 8; ++i) {
      h ^= (cell >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

ShardedExplainCache::ShardedExplainCache(Options options)
    : options_(options) {
  // A zero is a misconfiguration, not a request for a degenerate cache:
  // fall back to the documented defaults (a caller who wants "no cache"
  // disables it at the service level), then keep the shard/capacity
  // relation consistent.
  if (options_.shards == 0) options_.shards = Options().shards;
  if (options_.capacity == 0) options_.capacity = Options().capacity;
  if (options_.capacity < options_.shards) options_.capacity = options_.shards;
  per_shard_capacity_ = options_.capacity / options_.shards;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const CachedExplanation> ShardedExplainCache::Lookup(
    const std::vector<double>& embedding) {
  const uint64_t key = KeyOf(embedding);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.counts.misses;
    return nullptr;
  }
  // Same lattice cell — confirm it is a genuine near-duplicate before
  // serving someone else's explanation.
  const std::shared_ptr<const CachedExplanation>& value = it->second->value;
  if (value->embedding.size() != embedding.size() ||
      SquaredL2(embedding, value->embedding) > options_.max_sq_distance) {
    ++shard.counts.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.counts.hits;
  return value;
}

void ShardedExplainCache::Insert(
    std::shared_ptr<const CachedExplanation> value) {
  const uint64_t key = KeyOf(value->embedding);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Same cell already cached (e.g. two workers raced on the same query):
    // keep the newer explanation and refresh recency.
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.map[key] = shard.lru.begin();
  ++shard.counts.insertions;
  while (shard.lru.size() > per_shard_capacity_) {
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.counts.evictions;
  }
}

ShardedExplainCache::Stats ShardedExplainCache::GetStats() const {
  Stats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    Stats counts = shard->counts;
    counts.size = shard->lru.size();
    s = MergeStats(s, counts);
  }
  return s;
}

size_t ShardedExplainCache::size() const { return GetStats().size; }

}  // namespace htapex
