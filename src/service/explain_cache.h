#ifndef HTAPEX_SERVICE_EXPLAIN_CACHE_H_
#define HTAPEX_SERVICE_EXPLAIN_CACHE_H_

#include <cstddef>
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

/// Entries the result cache holds before evicting its least recently used.
inline constexpr size_t kExplainCacheCapacity = 1024;
/// Lattice step of EmbeddingLatticeKey, per embedding coordinate.
inline constexpr double kEmbeddingLatticeStep = 0.05;
/// Largest squared L2 distance between two embeddings that still counts as
/// a near-duplicate cache hit.
inline constexpr double kNearDuplicateSqDistance = 1e-4;

/// The lattice key of a plan-pair embedding: each coordinate snapped to a
/// cell of kEmbeddingLatticeStep (llround(v / step)), then FNV-1a over the
/// cells. It keys both the result cache below and the shard ring, so two
/// queries that would share a cache entry always land on the same shard.
uint64_t EmbeddingLatticeKey(const std::vector<double>& embedding);

/// LRU cache of explanations keyed by quantized plan-pair embeddings.
///
/// Key scheme: EmbeddingLatticeKey. Plans whose embeddings land in the
/// same lattice cell are candidate near-duplicates; a hit is only declared
/// if the squared L2 distance between the query embedding and the cached
/// entry's *exact* embedding is within kNearDuplicateSqDistance — the
/// quantization gives O(1) lookup, the threshold guards against false
/// sharing of a key (a shared cell, or two cells whose 64-bit keys
/// collide). Near-identical pairs straddling a cell boundary miss; that
/// costs a regeneration, never a wrong answer.
///
/// One mutex guards the LRU list and its index; a probe holds it for one
/// hash lookup and one distance check.
class ExplainCache {
 public:
  /// Returns the cached explanation for a near-duplicate embedding, or
  /// nullptr on miss. Refreshes LRU position on hit. Thread-safe.
  std::shared_ptr<const CachedExplanation> Lookup(
      const std::vector<double>& embedding);

  /// Inserts (or replaces) the entry for this embedding's lattice cell,
  /// evicting the LRU entry when over kExplainCacheCapacity. Thread-safe.
  void Insert(std::shared_ptr<const CachedExplanation> value);

  using Stats = ResultCacheStats;
  Stats GetStats() const;

 private:
  struct Entry {
    uint64_t key;
    std::shared_ptr<const CachedExplanation> value;
  };

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> map_;
  Stats counts_;  // `size` unused; GetStats reads the LRU list
};

}  // namespace htapex

#endif  // HTAPEX_SERVICE_EXPLAIN_CACHE_H_
