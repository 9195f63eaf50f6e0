#ifndef HTAPEX_ENGINE_OPERATORS_H_
#define HTAPEX_ENGINE_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/function_ref.h"
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
///
/// Execution is push-based (produce/consume): an operator hands each output
/// row to its consumer, a RowSink, and the consumer answers whether it wants
/// more. A pushed row is valid only for the duration of the call; operators
/// fill one reused row and push it by reference. Copies happen only where a
/// row must outlive the call: the rows a Sort keeps, the rows that enter a
/// Top-N heap, a hash join's build side, a nested-loop join's inner side,
/// aggregation groups and the final result. The row executor's scans copy
/// only the plan's read set, the slots some expression reads
/// (ExecContext::read_slots); every other slot of a composite row stays
/// NULL.

/// Per-node execution statistics (EXPLAIN ANALYZE style). Both executors
/// (row-at-a-time and vectorized) record identical statistics for the same
/// plan, node for node.
struct ExecStats {
  /// Rows each operator pushed to its consumer, including the
  /// inline-probed inner side of index nested-loop joins.
  std::map<const PlanNode*, size_t> actual_rows;
  /// The operators a satisfied consumer stopped before they finished: the
  /// nodes below a Limit whose window filled, down to the nearest operator
  /// that had already consumed its whole input (a Sort, an aggregation, a
  /// join's build side). Their actual_rows count the rows pushed until
  /// then, so they are not the counterpart of an estimate.
  std::set<const PlanNode*> stopped;
};

/// A query result: named columns plus rows of values.
struct QueryResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  /// Canonical text form for cross-engine result comparison (rows sorted).
  /// Integers print whole; doubles print as %.6g, so Int(3) and
  /// Double(3.0) from different engines compare equal.
  std::string Fingerprint() const;
};

using Rows = std::vector<Row>;

/// Receives one pushed row, valid only for the duration of the call (a
/// consumer that keeps it copies it). Returns whether the consumer wants
/// more rows; a producer that hears false stops.
using RowSink = FunctionRef<Result<bool>(const Row&)>;

/// The row count a consumer takes when nothing bounds it.
inline constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

struct ExecContext;

/// An executor's dispatch: pushes `node`'s output rows into the sink and
/// returns false when the sink stopped it, true when the node finished.
/// `bound` is the most rows the consumer will take (kUnbounded when not
/// known); an executor may use it to stop work early, and still pushes rows
/// until the consumer says stop.
using PlanDispatch =
    FunctionRef<Result<bool>(const PlanNode&, ExecContext*, RowSink, size_t)>;

/// The mutable state of one Execute call. It lives on the caller's stack
/// and every operator that needs it takes it explicitly, so the executors
/// hold no per-call state and concurrent Execute calls share nothing
/// mutable.
struct ExecContext {
  ExecContext(int slots, ExecStats* exec_stats, PlanDispatch executor)
      : total_slots(slots), stats(exec_stats), dispatch(executor) {}

  int total_slots = 0;         // composite row width of the plan
  ExecStats* stats = nullptr;  // per-node statistics, when requested
  /// The plan's read set, one flag per composite-row slot: 1 where some
  /// predicate, join or sift key, sort or group key, aggregate or
  /// projection of the plan reads the slot, and everywhere when the result
  /// rows are composite rows (no Project, no aggregation).
  std::vector<uint8_t> read_slots;
  /// Bloom filters built by sift-producing hash joins, keyed by sift_id;
  /// consumed by the kSiftedScan nodes below them.
  std::map<int, BloomFilter> sift_filters;
  /// The calling executor, through which shared operators run children.
  PlanDispatch dispatch;

  /// Runs `node` through the calling executor into `sink` and records its
  /// ExecStats: the rows it pushed, and whether the sink stopped it.
  Result<bool> Run(const PlanNode& node, RowSink sink,
                   size_t bound = kUnbounded);

  /// Copies a child's whole output, for the operators that must keep it
  /// (a hash join's build side, a nested-loop join's inner side).
  Result<Rows> Materialize(const PlanNode& node);

  bool IsRead(int slot) const {
    return read_slots[static_cast<size_t>(slot)] != 0;
  }
  /// The ordinals of scan `node`'s table columns in the read set: the
  /// columns its scan copies.
  std::vector<int> ReadColumns(const PlanNode& node) const {
    std::vector<int> columns;
    for (int c = 0; c < node.slot_count; ++c) {
      if (IsRead(node.slot_offset + c)) columns.push_back(c);
    }
    return columns;
  }

  void Record(const PlanNode& node, size_t rows, bool was_stopped) {
    if (stats == nullptr) return;
    stats->actual_rows[&node] = rows;
    if (was_stopped) stats->stopped.insert(&node);
  }
};

/// Runs `plan` from its root through `dispatch` and collects the result:
/// the Execute of both executors. Computes the plan's read set first.
Result<QueryResultSet> ExecutePlan(const PhysicalPlan& plan,
                                   std::vector<std::string> output_names,
                                   ExecStats* stats, PlanDispatch dispatch);

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
                 .emplace(join.sift_id, BloomFilter(build.size()))
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

/// Folds one input row into its group of `agg`'s group map; `key` is the
/// caller's scratch. Column-ref group keys and aggregate arguments are read
/// in place; a group's key is copied only when the group is new.
Status AccumulateRow(const PlanNode& agg, const Row& row, KeyRefs* key,
                     GroupMap* groups);

/// Merges the partial groups `part` (one morsel's) into `total`: each
/// group's partial states merge into its total, so a group merges its
/// parts in the order the calls come in.
Status MergeGroups(const PlanNode& agg, const GroupMap& part,
                   GroupMap* total);

/// Pushes one output row per group, in key order (GroupMap::Order). A
/// scalar aggregation (no group keys) over an empty input still yields one
/// row.
Result<bool> PushGroups(const PlanNode& agg, const GroupMap& groups,
                        RowSink out);

/// The bounded heap of a Top-N node: keeps the offset + limit first rows
/// under the total order (sort keys, input sequence), which is exactly the
/// prefix a stable sort would give. The kept rows' sort keys live in one
/// flat array of sort-key-width slots, and the heap orders small (slot,
/// sequence) entries; a row that evicts the worst kept row overwrites that
/// row's slot in place. An offered row's column-ref sort keys are read in
/// place, so a row that does not enter is not copied at all. Heaps fed
/// disjoint parts of one input merge, in any order, into the heap of the
/// whole input, provided sequence numbers follow input order across them.
class TopNHeap {
 public:
  /// With `keep_rows` false, only the sort keys of a kept row are kept,
  /// and the caller rebuilds the row from its sequence number when Emit
  /// hands it back (late materialization).
  explicit TopNHeap(const PlanNode& node, bool keep_rows = true);

  /// Offers `row`, the input row with sequence number `seq`. Under LIMIT 0
  /// nothing is kept and no sort key is evaluated.
  Status Offer(const Row& row, uint64_t seq);
  /// Offers every row `other` kept.
  void Merge(TopNHeap&& other);
  /// Hands each kept row (empty without keep_rows), in order from the
  /// offset on, to `emit`, with its sequence number; stops when `emit`
  /// answers false.
  Result<bool> Emit(FunctionRef<Result<bool>(const Row&, uint64_t)> emit);

 private:
  struct Entry {
    uint32_t slot = 0;  // the row's sort keys and row, in keys_ and rows_
    uint64_t seq = 0;
  };

  const Value* Key(uint32_t slot) const {
    return keys_.data() + static_cast<size_t>(slot) * width_;
  }
  bool Precedes(const Entry& a, const Entry& b) const;
  /// True when the row with sort keys `key` and sequence number `seq`
  /// would enter: the heap has room, or it precedes the worst kept row.
  bool Enters(const Value* const* key, uint64_t seq) const;
  /// Writes `key` into a free slot, or over the worst kept row's, pushes
  /// the entry and returns its slot.
  uint32_t Place(const Value* const* key, uint64_t seq);
  template <typename R>
  void StoreRow(uint32_t slot, R&& row) {
    if (slot == rows_.size()) {
      rows_.push_back(std::forward<R>(row));
    } else {
      rows_[slot] = std::forward<R>(row);
    }
  }

  const PlanNode* node_;
  bool keep_rows_ = true;
  size_t width_ = 0;  // sort keys per row
  size_t offset_ = 0;
  size_t keep_ = 0;  // offset + limit; kUnbounded without a limit
  /// Max-heap under Precedes: the front is the worst row kept.
  std::vector<Entry> heap_;
  std::vector<Value> keys_;  // width_ sort keys per slot
  std::vector<Row> rows_;    // per slot, with keep_rows
  KeyRefs key_;  // the offered row's sort keys
};

/// The row window of a Limit node: skips `offset` rows, passes `limit`, and
/// answers "no more" to its producer as soon as the window's last row has
/// been pushed, so the producer pushes exactly offset + limit rows. An
/// empty window (LIMIT 0 OFFSET 0) answers "no" to the first row, so the
/// input still runs until then, and an evaluation error before that row
/// surfaces as it would without the limit.
class LimitWindow {
 public:
  explicit LimitWindow(const PlanNode& node);

  /// The rows the producer pushes before the window answers "no":
  /// offset + limit, at least 1 (kUnbounded without a limit).
  size_t bound() const { return std::max<size_t>(end_, 1); }
  /// True once the window's own consumer said stop.
  bool consumer_stopped() const { return consumer_stopped_; }

  Result<bool> Push(const Row& row, RowSink out);

 private:
  size_t offset_ = 0;
  size_t end_ = kUnbounded;
  size_t seen_ = 0;
  bool consumer_stopped_ = false;
};

/// The shared operators: Filter, nested-loop and hash joins (build side
/// first, into an unordered_multimap, the match-order oracle for the
/// vectorized JoinTable), aggregation, Sort, Top-N, Limit and Project.
/// Each runs its children through ctx->Run and pushes its output
/// into `out`; the return value is the dispatch contract's.
Result<bool> PushOperator(const PlanNode& node, ExecContext* ctx, RowSink out,
                          size_t bound);

}  // namespace htapex

#endif  // HTAPEX_ENGINE_OPERATORS_H_
