#ifndef HTAPEX_STORAGE_BTREE_H_
#define HTAPEX_STORAGE_BTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/value.h"
#include "common/function_ref.h"

namespace htapex {

/// An in-memory B+-tree index mapping Value keys to row ids. Duplicate keys
/// are supported (secondary indexes); leaves are chained for ordered range
/// scans, which is what makes the TP engine's pipelined top-N-by-index plans
/// possible.
class BTreeIndex {
 public:
  static constexpr int kFanout = 64;  // max entries per node

  BTreeIndex();
  ~BTreeIndex();

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;
  BTreeIndex(BTreeIndex&&) = default;
  BTreeIndex& operator=(BTreeIndex&&) = default;

  /// Receives one entry (key, row id); returns false to stop the walk.
  using Visitor = FunctionRef<bool(const Value&, uint32_t)>;

  void Insert(const Value& key, uint32_t row_id);

  /// Visits entries with lo <= key <= hi in key order (either bound may be
  /// null for open intervals; inclusivity flags apply only when the bound is
  /// present). The visitor returns false to stop early — this is how LIMIT
  /// short-circuits an index scan. A point lookup is the range [key, key].
  void RangeScan(const Value* lo, bool lo_inclusive, const Value* hi,
                 bool hi_inclusive, Visitor visit) const;

  /// Visits all entries in ascending key order.
  void FullScan(Visitor visit) const {
    RangeScan(nullptr, true, nullptr, true, visit);
  }

  /// Visits all entries in DESCENDING key order (leaves are doubly linked),
  /// enabling streamed ORDER BY ... DESC LIMIT plans.
  void FullScanDesc(Visitor visit) const;

  size_t num_entries() const { return num_entries_; }
  int height() const;

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;

  /// Result of inserting into a subtree: when the child split, `split_key`
  /// and `new_node` describe the new right sibling to add to the parent.
  struct InsertResult {
    bool split = false;
    Value split_key;
    std::unique_ptr<Node> new_node;
  };

  InsertResult InsertInto(Node* node, const Value& key, uint32_t row_id);
  const LeafNode* FindLeaf(const Value& key) const;
  const LeafNode* LeftmostLeaf() const;
  const LeafNode* RightmostLeaf() const;

  std::unique_ptr<Node> root_;
  size_t num_entries_ = 0;
};

}  // namespace htapex

#endif  // HTAPEX_STORAGE_BTREE_H_
