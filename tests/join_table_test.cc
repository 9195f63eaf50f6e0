#include "engine/join_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace htapex {
namespace {

/// Drains the table's chain for `hash` into a vector, head first.
std::vector<uint32_t> Chain(const JoinTable& table, uint64_t hash) {
  std::vector<uint32_t> out;
  for (uint32_t r = table.Probe(hash); r != JoinTable::kNone;
       r = table.Next(r)) {
    out.push_back(r);
  }
  return out;
}

/// The row-executor oracle's view: equal_range over a live multimap built
/// with the same insertion sequence. The executors rely on libstdc++
/// prepending equal keys (newest first); this helper returns whatever the
/// stdlib actually yields, so the exact-order comparison below pins the
/// JoinTable to the oracle even if that behaviour ever changed.
std::vector<uint32_t> OracleChain(
    const std::unordered_multimap<uint64_t, size_t>& table, uint64_t hash) {
  std::vector<uint32_t> out;
  auto [lo, hi] = table.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    out.push_back(static_cast<uint32_t>(it->second));
  }
  return out;
}

TEST(JoinTableTest, EmptyTableProbesToNone) {
  JoinTable table;
  EXPECT_EQ(table.Probe(0), JoinTable::kNone);
  EXPECT_EQ(table.Probe(0x123456789abcdef0ull), JoinTable::kNone);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), 0u);
}

TEST(JoinTableTest, DuplicateChainIsLifoLikeEqualRange) {
  JoinTable table;
  std::unordered_multimap<uint64_t, size_t> oracle;
  const uint64_t kHash = 0x9e3779b97f4a7c15ull;
  for (uint32_t r = 0; r < 12; ++r) {
    table.Insert(kHash, r);
    oracle.emplace(kHash, r);
  }
  std::vector<uint32_t> got = Chain(table, kHash);
  ASSERT_EQ(got.size(), 12u);
  // LIFO: newest insertion first.
  for (uint32_t i = 0; i < 12; ++i) EXPECT_EQ(got[i], 11 - i);
  EXPECT_EQ(got, OracleChain(oracle, kHash));
  EXPECT_EQ(table.size(), 12u);
  EXPECT_EQ(table.distinct_hashes(), 1u);
}

TEST(JoinTableTest, TagAndBucketCollisionsStayDistinct) {
  // Hashes crafted to collide on the bucket index (identical low bits far
  // beyond any capacity this test reaches) AND on the 7-bit tag (identical
  // top bits) while still being different hashes: the table must fall back
  // to the full 64-bit compare and keep the chains separate.
  JoinTable table;
  const uint64_t base = 0xfe00000000000a31ull;
  const uint64_t kStep = 1ull << 32;  // preserves low 32 and top 8 bits
  for (uint32_t h = 0; h < 4; ++h) {
    for (uint32_t r = 0; r < 3; ++r) {
      table.Insert(base + h * kStep, h * 8 + r);
    }
  }
  for (uint32_t h = 0; h < 4; ++h) {
    std::vector<uint32_t> got = Chain(table, base + h * kStep);
    ASSERT_EQ(got.size(), 3u) << h;
    EXPECT_EQ(got[0], h * 8 + 2);
    EXPECT_EQ(got[1], h * 8 + 1);
    EXPECT_EQ(got[2], h * 8 + 0);
  }
  EXPECT_EQ(table.Probe(base + 4 * kStep), JoinTable::kNone);
  EXPECT_EQ(table.distinct_hashes(), 4u);
}

TEST(JoinTableTest, ReservePreventsRehash) {
  JoinTable table;
  table.Reserve(1000);
  const size_t cap = table.capacity();
  EXPECT_GE(cap, 16u);
  for (uint32_t r = 0; r < 1000; ++r) table.Insert(r * 0x9e3779b97f4a7c15ull, r);
  EXPECT_EQ(table.capacity(), cap) << "build loop should never rehash";
  EXPECT_EQ(table.size(), 1000u);
}

/// Differential fuzz against the multimap oracle: random hash streams with
/// deliberately narrow hash spaces (heavy duplicate + collision pressure),
/// NULL-key gaps in the row sequence, growth across several resize
/// thresholds, and exact chain-order equivalence on hit and miss probes.
TEST(JoinTableTest, DifferentialFuzzAgainstMultimapOracle) {
  std::mt19937_64 rng(20260807u);
  // (num rows, hash-space size): small spaces force long duplicate chains
  // and bucket collisions; large ones exercise growth and the tag filter.
  const std::pair<uint32_t, uint64_t> kConfigs[] = {
      {40, 4},      {200, 13},     {500, 71},
      {3000, 257},  {5000, 40009}, {20000, ~0ull},
  };
  for (const auto& [rows, space] : kConfigs) {
    JoinTable table;
    std::unordered_multimap<uint64_t, size_t> oracle;
    if (rows % 2 == 0) table.Reserve(rows);  // alternate: pre-sized / grown
    std::vector<uint64_t> seen;
    for (uint32_t r = 0; r < rows; ++r) {
      if (rng() % 16 == 0) continue;  // NULL key: row index gap, no insert
      // Narrowing keeps the low bits (bucket index) clustered; spreading
      // the remainder across high bits also forces tag collisions.
      uint64_t h = rng();
      if (space != ~0ull) h = (h % space) | ((h % space) << 57);
      table.Insert(h, r);
      oracle.emplace(h, r);
      seen.push_back(h);
    }
    ASSERT_EQ(table.size(), oracle.size());
    // Every inserted hash must yield the oracle's chain, in order.
    for (uint64_t h : seen) {
      EXPECT_EQ(Chain(table, h), OracleChain(oracle, h));
    }
    // Miss probes (random + near-collisions of real hashes) agree too.
    for (int i = 0; i < 2000; ++i) {
      uint64_t h = rng();
      if (i % 2 == 1 && !seen.empty()) {
        h = seen[rng() % seen.size()] ^ (1ull << (rng() % 64));
      }
      EXPECT_EQ(Chain(table, h), OracleChain(oracle, h));
    }
  }
}

TEST(JoinTableTest, GrowthPreservesChainsAcrossThresholds) {
  // Insert straddling several doublings without Reserve; verify after
  // every growth step that earlier chains are still intact and ordered.
  JoinTable table;
  std::unordered_multimap<uint64_t, size_t> oracle;
  size_t last_cap = 0;
  for (uint32_t r = 0; r < 4096; ++r) {
    const uint64_t h = r % 97;  // long chains across many resizes
    table.Insert(h, r);
    oracle.emplace(h, r);
    if (table.capacity() != last_cap) {
      last_cap = table.capacity();
      for (uint64_t probe = 0; probe < 97; ++probe) {
        ASSERT_EQ(Chain(table, probe), OracleChain(oracle, probe))
            << "after growth to " << last_cap;
      }
    }
  }
  EXPECT_GE(last_cap, 128u);
}

}  // namespace
}  // namespace htapex
