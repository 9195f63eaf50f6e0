#ifndef HTAPEX_ENGINE_JOIN_TABLE_H_
#define HTAPEX_ENGINE_JOIN_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace htapex {

/// Flat open-addressing hash table for the vectorized hash-join probe —
/// the cache-conscious replacement for `std::unordered_multimap<uint64_t,
/// size_t>` in the vec executor's build sides.
///
/// Layout: one contiguous slot array (power-of-two capacity) holding one
/// slot per *distinct* key hash, probed linearly, plus a parallel byte
/// array of 7-bit tags (top hash bits, 0x80 occupancy bit) so most misses
/// resolve on a single byte compare without touching the 16-byte slot.
/// Duplicate hashes chain through a per-build-row `next` array.
///
/// Match-order contract: Probe()/Next() yield build rows for a hash in
/// LIFO insertion order (newest first). That is exactly the order
/// libstdc++'s unordered_multimap::equal_range yields after the same
/// insertion sequence (it prepends equal keys), which the row-executor
/// oracle relies on — so replacing the multimap cannot reorder join output
/// even for plans where downstream tie-breaks are order-sensitive. The
/// differential fuzz test (join_table_test.cc) pins this equivalence
/// against a live multimap, so a standard-library behaviour change
/// surfaces as a test failure instead of silent parity drift.
///
/// Like the multimap it replaces, the table stores hashes, not keys: the
/// caller keeps the build-key Values and confirms candidates with
/// Value::Compare. NULL keys are never inserted (they cannot join).
class JoinTable {
 public:
  /// Absent chain link / empty probe result.
  static constexpr uint32_t kNone = 0xffffffffu;

  JoinTable() = default;

  /// Pre-sizes for `expected_rows` insertions so the build loop never
  /// rehashes. Callable only on an empty table.
  void Reserve(size_t expected_rows);

  /// Inserts build row `row` under `hash`. Rows must be inserted with
  /// strictly increasing `row` values (0, 1, 2, ... with NULL-key gaps) —
  /// the chain array is indexed by row.
  void Insert(uint64_t hash, uint32_t row) {
    if (slots_.empty() || (used_ + 1) * 10 > capacity() * 7) Grow();
    if (next_.size() <= row) next_.resize(row + 1, kNone);
    const uint8_t tag = Tag(hash);
    size_t s = hash & mask_;
    while (true) {
      if (tags_[s] == 0) {
        tags_[s] = tag;
        slots_[s].hash = hash;
        slots_[s].head = row;
        next_[row] = kNone;
        ++used_;
        break;
      }
      if (tags_[s] == tag && slots_[s].hash == hash) {
        next_[row] = slots_[s].head;  // prepend: LIFO chain order
        slots_[s].head = row;
        break;
      }
      s = (s + 1) & mask_;
    }
    ++num_rows_;
  }

  /// Head of the chain of build rows stored under `hash`, or kNone.
  uint32_t Probe(uint64_t hash) const {
    if (slots_.empty()) return kNone;
    const uint8_t tag = Tag(hash);
    size_t s = hash & mask_;
    while (tags_[s] != 0) {
      if (tags_[s] == tag && slots_[s].hash == hash) return slots_[s].head;
      s = (s + 1) & mask_;
    }
    return kNone;
  }

  /// Next build row in the chain after `row`, or kNone.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Inserted rows (multimap size() equivalent).
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  /// Slot-array capacity (power of two; 0 before the first insert).
  size_t capacity() const { return slots_.size(); }
  /// Occupied slots == distinct hashes inserted.
  size_t distinct_hashes() const { return used_; }

 private:
  struct Slot {
    uint64_t hash;
    uint32_t head;
  };

  /// 7 top hash bits + the 0x80 occupancy bit (0 means empty). The bucket
  /// index uses the *low* bits, so tag and index stay independent.
  static uint8_t Tag(uint64_t hash) {
    return static_cast<uint8_t>(0x80u | (hash >> 57));
  }

  void Grow();

  std::vector<uint8_t> tags_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  size_t mask_ = 0;       // capacity - 1
  size_t used_ = 0;       // occupied slots
  size_t num_rows_ = 0;   // total insertions
};

}  // namespace htapex

#endif  // HTAPEX_ENGINE_JOIN_TABLE_H_
