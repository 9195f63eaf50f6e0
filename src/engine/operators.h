#ifndef HTAPEX_ENGINE_OPERATORS_H_
#define HTAPEX_ENGINE_OPERATORS_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/agg_state.h"
#include "plan/plan_node.h"
#include "plan/pt_graph.h"
#include "sql/expr.h"

namespace htapex {

/// The operators and helpers shared by the row-at-a-time Executor and the
/// vectorized VecExecutor. Each operator exists once, here; both executors'
/// dispatch calls it, so the cross-executor parity guarantees (identical
/// predicate order, slot merging, join match order, sort tie-breaks and
/// aggregate semantics) are structural rather than accidental.

/// Per-node execution statistics (EXPLAIN ANALYZE style): actual output
/// cardinality of every operator, including the inline-probed inner side
/// of index nested-loop joins. Both executors (row-at-a-time and
/// vectorized) record identical per-node cardinalities for the same plan.
struct ExecStats {
  std::map<const PlanNode*, size_t> actual_rows;
};

/// A query result: named columns plus rows of values.
struct QueryResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  /// Canonical text form for cross-engine result comparison (rows sorted).
  std::string Fingerprint() const;
};

using Rows = std::vector<Row>;

/// The mutable state of one Execute call. It lives on the caller's stack
/// and every operator that needs it takes it explicitly, so the executors
/// hold no per-call state and concurrent Execute calls share nothing
/// mutable.
struct ExecContext {
  int total_slots = 0;         // composite row width of the plan
  ExecStats* stats = nullptr;  // per-node actual rows, when requested
  /// Bloom filters built by sift-producing hash joins, keyed by sift_id;
  /// consumed by the kSiftedScan nodes below them.
  std::map<int, BloomFilter> sift_filters;

  void Record(const PlanNode& node, size_t rows) {
    if (stats != nullptr) stats->actual_rows[&node] = rows;
  }
};

/// Executes a child subtree through the calling executor, which records
/// the child's ExecStats.
using ChildRunner = std::function<Result<Rows>(const PlanNode& child)>;

/// Applies every predicate on `node` to `row`, in listed order with
/// short-circuit; all must pass.
inline Result<bool> PassesPredicates(const PlanNode& node, const Row& row) {
  for (const auto& p : node.predicates) {
    Result<bool> pass = EvalPredicate(*p, row);
    if (!pass.ok()) return pass;
    if (!*pass) return false;
  }
  return true;
}

/// Collects the slot ranges filled by the subtree rooted at `node` (used to
/// merge join sides).
inline void CollectScanRanges(const PlanNode& node,
                              std::vector<std::pair<int, int>>* ranges) {
  if (node.slot_offset >= 0) {
    ranges->emplace_back(node.slot_offset, node.slot_count);
  }
  for (const auto& c : node.children) CollectScanRanges(*c, ranges);
}

/// Copies the collected slot ranges from `src` into `dst`.
inline void MergeSlots(const std::vector<std::pair<int, int>>& ranges,
                       const Row& src, Row* dst) {
  for (const auto& [off, count] : ranges) {
    for (int i = 0; i < count; ++i) {
      (*dst)[static_cast<size_t>(off + i)] = src[static_cast<size_t>(off + i)];
    }
  }
}

/// Evaluates hash join `join`'s build key over every `build` row into
/// `keys` (a NULL key stays NULL: it can never join) and calls
/// insert(hash, i) for each non-null key in build-row order — the
/// insertion sequence that gives both executors' hash tables the same
/// match order. A sift-producing join's Bloom filter is built from the
/// same hash stream and registered in `ctx`.
template <typename Insert>
Status HashBuildKeys(const PlanNode& join, const Rows& build,
                     ExecContext* ctx, std::vector<Value>* keys,
                     Insert&& insert) {
  BloomFilter* bloom = nullptr;
  if (join.sift_id >= 0) {
    bloom = &ctx->sift_filters
                 .emplace(join.sift_id,
                          BloomFilter(build.size(), join.sift_bits_per_key))
                 .first->second;
  }
  keys->resize(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    HTAPEX_ASSIGN_OR_RETURN(Value k, EvalExpr(*join.right_key, build[i]));
    if (k.is_null()) continue;
    const uint64_t h = k.Hash();
    insert(h, i);
    if (bloom != nullptr) bloom->Insert(h);
    (*keys)[i] = std::move(k);
  }
  return Status::OK();
}

/// Folds one input row into its group of `agg`'s group map.
Status AccumulateRow(const PlanNode& agg, const Row& row, GroupMap* groups);

/// One output row per group, in key order. A scalar aggregation (no group
/// keys) over an empty input still yields one row.
Rows FinalizeGroups(const PlanNode& agg, const GroupMap& groups);

// Operators over materialized children. Each runs its children through
// `run`, in the order the row executor always has.
Result<Rows> RunFilter(const PlanNode& node, const ChildRunner& run);
Result<Rows> RunNestedLoopJoin(const PlanNode& node, const ChildRunner& run);
/// Build side first (see the definition); the hash table is an
/// unordered_multimap, the match-order oracle for the vectorized JoinTable.
Result<Rows> RunHashJoin(const PlanNode& node, const ChildRunner& run,
                         ExecContext* ctx);
Result<Rows> RunAggregate(const PlanNode& node, const ChildRunner& run);
Result<Rows> RunSort(const PlanNode& node, const ChildRunner& run);
Result<Rows> RunTopN(const PlanNode& node, const ChildRunner& run);
Result<Rows> RunLimit(const PlanNode& node, const ChildRunner& run);
Result<Rows> RunProject(const PlanNode& node, const ChildRunner& run);

}  // namespace htapex

#endif  // HTAPEX_ENGINE_OPERATORS_H_
