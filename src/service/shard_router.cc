#include "service/shard_router.h"

#include <algorithm>

#include "common/fault.h"

namespace htapex {

ShardRouter::ShardRouter(int num_shards)
    : num_shards_(std::max(num_shards, 1)) {
  ring_.reserve(static_cast<size_t>(num_shards_) * kVnodesPerShard);
  for (int shard = 0; shard < num_shards_; ++shard) {
    for (int v = 0; v < kVnodesPerShard; ++v) {
      VNode node;
      // MixFaultSeed is the repo's splitmix64-style (seed, a, b, c) mixer;
      // reusing it keeps vnode placement a pure deterministic function of
      // (ring seed, shard, vnode) with well-scrambled high bits.
      node.hash = MixFaultSeed(kRingSeed, 0x5ba5d0c5ull,
                               static_cast<uint64_t>(shard),
                               static_cast<uint64_t>(v));
      node.shard = shard;
      ring_.push_back(node);
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const VNode& a, const VNode& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.shard < b.shard;  // tie-break keeps the ring deterministic
  });
  live_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<size_t>(num_shards_));
  for (int i = 0; i < num_shards_; ++i) {
    live_[static_cast<size_t>(i)].store(true, std::memory_order_relaxed);
  }
}

size_t ShardRouter::RingLowerBound(uint64_t key) const {
  size_t lo = 0, hi = ring_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (ring_[mid].hash < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == ring_.size() ? 0 : lo;  // wrap past the last vnode
}

int ShardRouter::Owner(uint64_t key) const {
  size_t start = RingLowerBound(key);
  for (size_t step = 0; step < ring_.size(); ++step) {
    const VNode& node = ring_[(start + step) % ring_.size()];
    if (IsLive(node.shard)) return node.shard;
  }
  return -1;
}

int ShardRouter::StaticOwner(uint64_t key) const {
  if (ring_.empty()) return -1;
  return ring_[RingLowerBound(key)].shard;
}

std::vector<int> ShardRouter::OwnerChain(uint64_t key, int max_shards) const {
  std::vector<int> chain;
  if (max_shards <= 0) return chain;
  size_t start = RingLowerBound(key);
  for (size_t step = 0; step < ring_.size(); ++step) {
    const VNode& node = ring_[(start + step) % ring_.size()];
    if (!IsLive(node.shard)) continue;
    bool seen = false;
    for (int s : chain) {
      if (s == node.shard) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    chain.push_back(node.shard);
    if (chain.size() >= static_cast<size_t>(max_shards)) break;
  }
  return chain;
}

int ShardRouter::NextLiveAfter(int shard) const {
  for (int step = 1; step < num_shards_; ++step) {
    int candidate = (shard + step) % num_shards_;
    if (IsLive(candidate)) return candidate;
  }
  return -1;
}

void ShardRouter::SetLive(int shard, bool live) {
  if (shard < 0 || shard >= num_shards_) return;
  live_[static_cast<size_t>(shard)].store(live, std::memory_order_release);
}

bool ShardRouter::IsLive(int shard) const {
  if (shard < 0 || shard >= num_shards_) return false;
  return live_[static_cast<size_t>(shard)].load(std::memory_order_acquire);
}

int ShardRouter::NumLive() const {
  int n = 0;
  for (int i = 0; i < num_shards_; ++i) {
    if (IsLive(i)) ++n;
  }
  return n;
}

}  // namespace htapex
