#include "storage/btree.h"

#include <algorithm>
#include <cassert>

namespace htapex {

struct BTreeIndex::Node {
  bool is_leaf = false;
  explicit Node(bool leaf) : is_leaf(leaf) {}
  virtual ~Node() = default;
};

struct BTreeIndex::LeafNode : Node {
  LeafNode() : Node(true) {}
  std::vector<Value> keys;
  std::vector<uint32_t> row_ids;
  LeafNode* next = nullptr;
  LeafNode* prev = nullptr;
};

struct BTreeIndex::InternalNode : Node {
  InternalNode() : Node(false) {}
  // children.size() == keys.size() + 1; keys[i] is the smallest key in
  // children[i+1]'s subtree.
  std::vector<Value> keys;
  std::vector<std::unique_ptr<Node>> children;
};

BTreeIndex::BTreeIndex() : root_(std::make_unique<LeafNode>()) {}
BTreeIndex::~BTreeIndex() = default;

namespace {

/// First position whose key is >= `key`.
size_t LowerBound(const std::vector<Value>& keys, const Value& key) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (keys[mid].Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First position whose key is > `key`.
size_t UpperBound(const std::vector<Value>& keys, const Value& key) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (keys[mid].Compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BTreeIndex::InsertResult BTreeIndex::InsertInto(Node* node, const Value& key,
                                                uint32_t row_id) {
  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    size_t pos = UpperBound(leaf->keys, key);
    leaf->keys.insert(leaf->keys.begin() + pos, key);
    leaf->row_ids.insert(leaf->row_ids.begin() + pos, row_id);
    if (leaf->keys.size() <= kFanout) return {};
    // Split the leaf in half; the new right sibling keeps the upper half.
    auto right = std::make_unique<LeafNode>();
    size_t mid = leaf->keys.size() / 2;
    right->keys.assign(leaf->keys.begin() + mid, leaf->keys.end());
    right->row_ids.assign(leaf->row_ids.begin() + mid, leaf->row_ids.end());
    leaf->keys.resize(mid);
    leaf->row_ids.resize(mid);
    right->next = leaf->next;
    right->prev = leaf;
    if (right->next != nullptr) right->next->prev = right.get();
    leaf->next = right.get();
    InsertResult r;
    r.split = true;
    r.split_key = right->keys.front();
    r.new_node = std::move(right);
    return r;
  }
  auto* internal = static_cast<InternalNode*>(node);
  size_t child_idx = UpperBound(internal->keys, key);
  InsertResult child_result =
      InsertInto(internal->children[child_idx].get(), key, row_id);
  if (!child_result.split) return {};
  internal->keys.insert(internal->keys.begin() + child_idx,
                        child_result.split_key);
  internal->children.insert(internal->children.begin() + child_idx + 1,
                            std::move(child_result.new_node));
  if (internal->keys.size() <= kFanout) return {};
  // Split the internal node; the middle key moves up.
  auto right = std::make_unique<InternalNode>();
  size_t mid = internal->keys.size() / 2;
  Value up_key = internal->keys[mid];
  right->keys.assign(internal->keys.begin() + mid + 1, internal->keys.end());
  for (size_t i = mid + 1; i < internal->children.size(); ++i) {
    right->children.push_back(std::move(internal->children[i]));
  }
  internal->keys.resize(mid);
  internal->children.resize(mid + 1);
  InsertResult r;
  r.split = true;
  r.split_key = std::move(up_key);
  r.new_node = std::move(right);
  return r;
}

void BTreeIndex::Insert(const Value& key, uint32_t row_id) {
  InsertResult r = InsertInto(root_.get(), key, row_id);
  ++num_entries_;
  if (!r.split) return;
  auto new_root = std::make_unique<InternalNode>();
  new_root->keys.push_back(std::move(r.split_key));
  new_root->children.push_back(std::move(root_));
  new_root->children.push_back(std::move(r.new_node));
  root_ = std::move(new_root);
}

const BTreeIndex::LeafNode* BTreeIndex::FindLeaf(const Value& key) const {
  // Descend with LowerBound so we land on the *leftmost* leaf that can hold
  // `key`: duplicates may straddle a split boundary, where the separator key
  // equals `key` but earlier occurrences live in the left sibling.
  const Node* node = root_.get();
  while (!node->is_leaf) {
    const auto* internal = static_cast<const InternalNode*>(node);
    size_t idx = LowerBound(internal->keys, key);
    node = internal->children[idx].get();
  }
  return static_cast<const LeafNode*>(node);
}

const BTreeIndex::LeafNode* BTreeIndex::LeftmostLeaf() const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children.front().get();
  }
  return static_cast<const LeafNode*>(node);
}

void BTreeIndex::RangeScan(const Value* lo, bool lo_inclusive,
                           const Value* hi, bool hi_inclusive,
                           Visitor visit) const {
  const LeafNode* leaf = lo != nullptr ? FindLeaf(*lo) : LeftmostLeaf();
  size_t pos = 0;
  if (lo != nullptr) {
    pos = lo_inclusive ? LowerBound(leaf->keys, *lo) : UpperBound(leaf->keys, *lo);
  }
  while (leaf != nullptr) {
    for (size_t i = pos; i < leaf->keys.size(); ++i) {
      const Value& k = leaf->keys[i];
      if (hi != nullptr) {
        int c = k.Compare(*hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return;
      }
      if (!visit(k, leaf->row_ids[i])) return;
    }
    leaf = leaf->next;
    pos = 0;
  }
}

const BTreeIndex::LeafNode* BTreeIndex::RightmostLeaf() const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children.back().get();
  }
  return static_cast<const LeafNode*>(node);
}

void BTreeIndex::FullScanDesc(Visitor visit) const {
  const LeafNode* leaf = RightmostLeaf();
  while (leaf != nullptr) {
    for (size_t i = leaf->keys.size(); i > 0; --i) {
      if (!visit(leaf->keys[i - 1], leaf->row_ids[i - 1])) return;
    }
    leaf = leaf->prev;
  }
}

int BTreeIndex::height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    ++h;
    node = static_cast<const InternalNode*>(node)->children.front().get();
  }
  return h;
}

}  // namespace htapex
