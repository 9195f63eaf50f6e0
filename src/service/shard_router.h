#ifndef HTAPEX_SERVICE_SHARD_ROUTER_H_
#define HTAPEX_SERVICE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace htapex {

/// Consistent-hash ring placing plan-pair embeddings onto service shards.
///
/// The key is the result cache's (EmbeddingLatticeKey in explain_cache.h),
/// so two queries that would share a cache entry always land on the same
/// shard — cache affinity survives sharding for free, and a shard's local
/// cache only ever sees its own keyspace.
///
/// Placement is a classic ring of virtual nodes: each shard owns
/// kVnodesPerShard pseudo-random points (a pure function of kRingSeed,
/// shard id, and vnode ordinal — no global RNG), a key is owned by the
/// first vnode clockwise from its hash. Consequences the tests pin down:
///  - adding/removing one shard of N moves only ~1/N of the keyspace;
///  - ejecting a shard moves ONLY that shard's keys (each re-hashes to the
///    next live shard on its arc); every other key keeps its owner, so the
///    surviving shards' caches stay warm.
///
/// Liveness is per-shard atomics — Owner()/OwnerChain() skip dead shards
/// without locking. The ring itself is immutable after construction.
class ShardRouter {
 public:
  /// Virtual nodes per shard. More vnodes = smoother key distribution
  /// (spread ~ 1/sqrt(vnodes)) at O(N * vnodes) ring memory.
  static constexpr int kVnodesPerShard = 64;
  /// Seeds vnode placement: the same shard count gives the same ring in
  /// every process.
  static constexpr uint64_t kRingSeed = 42;

  /// A ring over `num_shards` shards (at least 1), all live.
  explicit ShardRouter(int num_shards);

  /// Owning shard among the *live* shards (first live vnode clockwise), or
  /// -1 when no shard is live.
  int Owner(uint64_t key) const;

  /// Owner ignoring liveness — the key's home when every shard is up. Used
  /// for initial data placement and the stability tests.
  int StaticOwner(uint64_t key) const;

  /// Up to `max_shards` distinct live shards in ring order from the key:
  /// the failover chain. Element 0 is Owner(key); later elements are the
  /// shards the key would re-hash to as earlier ones die.
  std::vector<int> OwnerChain(uint64_t key, int max_shards) const;

  /// First live shard after `shard` in index order (wrapping), or -1 when
  /// none other is live. Replication targets use index order, not ring
  /// order: every shard gets exactly one successor candidate sequence,
  /// independent of key placement.
  int NextLiveAfter(int shard) const;

  void SetLive(int shard, bool live);
  bool IsLive(int shard) const;
  int NumLive() const;
  int num_shards() const { return num_shards_; }

 private:
  struct VNode {
    uint64_t hash = 0;
    int shard = -1;
  };

  /// First vnode at or after `key` on the ring (wrapping).
  size_t RingLowerBound(uint64_t key) const;

  int num_shards_;
  std::vector<VNode> ring_;  // sorted by hash, immutable after construction
  std::unique_ptr<std::atomic<bool>[]> live_;
};

}  // namespace htapex

#endif  // HTAPEX_SERVICE_SHARD_ROUTER_H_
