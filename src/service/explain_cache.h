#ifndef HTAPEX_SERVICE_EXPLAIN_CACHE_H_
#define HTAPEX_SERVICE_EXPLAIN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/htap_explainer.h"
#include "obs/metrics.h"

namespace htapex {

/// The copyable slice of an ExplainResult a cache can serve: everything
/// downstream of the plan pair (analysis, retrieval, prompt, generation,
/// grade). The plan pair itself (move-only) is re-derived by the cheap
/// Prepare() stage on every request, so a hit combines fresh plans with a
/// cached explanation.
struct CachedExplanation {
  std::vector<double> embedding;  // exact embedding this entry was keyed on
  ExpertAnalysis truth;
  Prompt prompt;
  RetrievalResult retrieval;
  GeneratedExplanation generation;
  GradeResult grade;
};

/// The lattice key of a plan-pair embedding: each coordinate snapped to a
/// cell of step `quant_step` (llround(v / step)), then FNV-1a over the
/// cells. It keys both the result cache below and the shard ring
/// (ShardRouter::KeyOf), so two queries that would share a cache entry
/// always land on the same shard. `quant_step` <= 0 falls back to the
/// cache's default step.
uint64_t EmbeddingLatticeKey(const std::vector<double>& embedding,
                             double quant_step);

/// Sharded LRU cache keyed by quantized plan-pair embeddings.
///
/// Key scheme: EmbeddingLatticeKey. Plans whose embeddings land in the
/// same lattice cell are candidate near-duplicates; a hit is only declared
/// if the squared L2 distance between the query embedding and the cached
/// entry's *exact* embedding is within `max_sq_distance` — the
/// quantization gives O(1) lookup, the threshold guards against false
/// sharing of a key (a shared cell, or two cells whose 64-bit keys
/// collide). Near-identical pairs straddling a cell boundary miss; that
/// costs a regeneration, never a wrong answer.
///
/// Sharding: the key picks the shard; each shard has its own mutex and
/// LRU list, so concurrent workers rarely contend.
class ShardedExplainCache {
 public:
  struct Options {
    size_t capacity = 1024;  // total entries across all shards
    size_t shards = 8;
    /// Lattice step of the key.
    double quant_step = 0.05;
    /// Max squared L2 distance for a near-duplicate hit.
    double max_sq_distance = 1e-4;
  };

  explicit ShardedExplainCache(Options options);

  /// Returns the cached explanation for a near-duplicate embedding, or
  /// nullptr on miss. Refreshes LRU position on hit. Thread-safe.
  std::shared_ptr<const CachedExplanation> Lookup(
      const std::vector<double>& embedding);

  /// Inserts (or replaces) the entry for this embedding's lattice cell,
  /// evicting the shard's LRU entry when over capacity. Thread-safe.
  void Insert(std::shared_ptr<const CachedExplanation> value);

  using Stats = ResultCacheStats;
  Stats GetStats() const;

  size_t size() const;

  /// Effective options after construction-time clamping (zero shards or
  /// capacity fall back to the defaults above).
  const Options& options() const { return options_; }

 private:
  struct Entry {
    uint64_t key;
    std::shared_ptr<const CachedExplanation> value;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
    Stats counts;  // `size` unused; GetStats reads the LRU list
  };

  uint64_t KeyOf(const std::vector<double>& embedding) const {
    return EmbeddingLatticeKey(embedding, options_.quant_step);
  }
  Shard& ShardFor(uint64_t key) { return *shards_[key % shards_.size()]; }

  Options options_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace htapex

#endif  // HTAPEX_SERVICE_EXPLAIN_CACHE_H_
