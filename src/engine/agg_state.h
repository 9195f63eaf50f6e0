#ifndef HTAPEX_ENGINE_AGG_STATE_H_
#define HTAPEX_ENGINE_AGG_STATE_H_

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "sql/expr.h"
#include "storage/table_data.h"

namespace htapex {

/// Three-way comparison of two rows' evaluated sort keys under `keys`
/// (keys.size() values from each pointer): negative when `a` precedes `b`.
/// Shared so the Sort, the bounded TopN heap, and the vectorized executor
/// order ties identically.
inline int CompareSortKeys(const std::vector<SortKey>& keys, const Value* a,
                           const Value* b) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return keys[i].descending ? -c : c;
  }
  return 0;
}

/// Aggregate accumulator for one group. Shared between the row-at-a-time
/// executor and the vectorized executor so both accumulate each value
/// identically (including the int→double SUM promotion point).
struct AggState {
  int64_t count = 0;        // rows (for COUNT(*)) or non-null args
  double sum = 0.0;
  bool sum_is_int = true;
  /// The exact sum of the integer terms: fewer than 2^64 int64 terms
  /// cannot overflow 128 bits, so it does not depend on the order the
  /// terms and partial sums arrive in. FinalizeAgg checks that a SUM fits
  /// int64.
  __int128 isum = 0;
  Value min, max;    // tracked only by MIN and MAX respectively
  bool any = false;  // some non-null argument was accumulated
  // DISTINCT aggregates track the values already seen.
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };
  std::set<Value, ValueLess> seen;
};

/// Folds one already-evaluated argument value into `s`. `v` must be
/// non-null (null arguments are skipped by the callers); `distinct`
/// dedupes through the seen-set. SUM and AVG of a string are an execution
/// error.
inline Status AccumulateAggValue(const Expr& agg, const Value& v,
                                 AggState* s) {
  const bool sums =
      agg.agg_kind == AggKind::kSum || agg.agg_kind == AggKind::kAvg;
  if (sums && v.is_string()) {
    return Status::ExecutionError(std::string(AggKindName(agg.agg_kind)) +
                                  " of a string: " + agg.ToString());
  }
  if (agg.distinct && !s->seen.insert(v).second) {
    return Status::OK();  // duplicate under DISTINCT: ignore
  }
  ++s->count;
  if (sums) {
    if (v.is_int() && s->sum_is_int) {
      s->isum += v.AsInt();
    } else {
      if (s->sum_is_int) {
        s->sum = static_cast<double>(s->isum);
        s->sum_is_int = false;
      }
      s->sum += v.AsDouble();
    }
  } else if (agg.agg_kind == AggKind::kMin) {
    if (!s->any || v.Compare(s->min) < 0) s->min = v;
  } else if (agg.agg_kind == AggKind::kMax) {
    if (!s->any || v.Compare(s->max) > 0) s->max = v;
  }
  s->any = true;
  return Status::OK();
}

/// Points at the row's value when `e` is a column ref of the row (read in
/// place); nullptr otherwise, and then `e` must be evaluated.
inline const Value* ColumnRefValue(const Expr& e, const Row& row) {
  if (e.kind != ExprKind::kColumnRef || e.flat_slot < 0 ||
      static_cast<size_t>(e.flat_slot) >= row.size()) {
    return nullptr;
  }
  return &row[static_cast<size_t>(e.flat_slot)];
}

/// A row's values of a list of key expressions (group keys, sort keys), in
/// scratch reused across rows: a pointer per key, into the row for a column
/// ref and into `computed` for any other expression, which is evaluated.
struct KeyRefs {
  std::vector<const Value*> at;
  Row computed;

  explicit KeyRefs(size_t width = 0) : at(width), computed(width) {}
  /// Points at[i] at the value of `e` in `row`.
  Status Resolve(size_t i, const Expr& e, const Row& row) {
    at[i] = ColumnRefValue(e, row);
    if (at[i] != nullptr) return Status::OK();
    Result<Value> v = EvalExpr(e, row);
    if (!v.ok()) return v.status();
    computed[i] = std::move(v).value();
    at[i] = &computed[i];
    return Status::OK();
  }
};

/// Accumulates the aggregate's argument in `row`: a column ref is read in
/// place, anything else evaluated.
inline Status AccumulateAgg(const Expr& agg, const Row& row, AggState* s) {
  if (agg.count_star) {
    ++s->count;
    return Status::OK();
  }
  if (const Value* in_place = ColumnRefValue(*agg.children[0], row)) {
    if (in_place->is_null()) return Status::OK();
    return AccumulateAggValue(agg, *in_place, s);
  }
  Result<Value> v = EvalExpr(*agg.children[0], row);
  if (!v.ok()) return v.status();
  if (v->is_null()) return Status::OK();
  return AccumulateAggValue(agg, *v, s);
}

/// Merges partial state `other` into `s` (for per-morsel partial
/// aggregation). Equivalent to replaying other's inputs into `s`, except
/// SUM accumulation order: integer sums are exact, but a double sum of
/// partials can round differently from the row-order sum, and the
/// fingerprint's %.6g formatting does not always hide it (the seed-105
/// exec_mix query in perfbench/WORKLOADS.md differs in the 6th digit).
inline Status MergeAggState(const Expr& agg, const AggState& other,
                            AggState* s) {
  if (agg.count_star) {
    s->count += other.count;
    return Status::OK();
  }
  if (agg.distinct) {
    // Union of seen-sets, re-accumulating only unseen values.
    for (const Value& v : other.seen) {
      HTAPEX_RETURN_IF_ERROR(AccumulateAggValue(agg, v, s));
    }
    return Status::OK();
  }
  s->count += other.count;
  if (agg.agg_kind == AggKind::kSum || agg.agg_kind == AggKind::kAvg) {
    if (other.sum_is_int && s->sum_is_int) {
      s->isum += other.isum;
    } else {
      if (s->sum_is_int) {
        s->sum = static_cast<double>(s->isum);
        s->sum_is_int = false;
      }
      s->sum += other.sum_is_int ? static_cast<double>(other.isum) : other.sum;
    }
  }
  if (!other.any) return Status::OK();
  if (agg.agg_kind == AggKind::kMin &&
      (!s->any || other.min.Compare(s->min) < 0)) {
    s->min = other.min;
  }
  if (agg.agg_kind == AggKind::kMax &&
      (!s->any || other.max.Compare(s->max) > 0)) {
    s->max = other.max;
  }
  s->any = true;
  return Status::OK();
}

/// The aggregate's value. An integer SUM whose exact total does not fit
/// int64 is an execution error, as int64 arithmetic overflow is.
inline Result<Value> FinalizeAgg(const Expr& agg, const AggState& s) {
  switch (agg.agg_kind) {
    case AggKind::kCount:
      return Value::Int(s.count);
    case AggKind::kSum:
      if (!s.any) return Value::Null();
      if (!s.sum_is_int) return Value::Double(s.sum);
      if (s.isum < std::numeric_limits<int64_t>::min() ||
          s.isum > std::numeric_limits<int64_t>::max()) {
        return Status::ExecutionError("integer overflow: " + agg.ToString());
      }
      return Value::Int(static_cast<int64_t>(s.isum));
    case AggKind::kAvg:
      if (s.count == 0) return Value::Null();
      return Value::Double((s.sum_is_int ? static_cast<double>(s.isum) : s.sum) /
                           static_cast<double>(s.count));
    case AggKind::kMin:
      return s.any ? s.min : Value::Null();
    case AggKind::kMax:
      return s.any ? s.max : Value::Null();
  }
  return Value::Null();
}

/// The groups of one aggregation, in flat arrays: every group's key values
/// in one row-major array, its AggStates (one per aggregate) in another,
/// found through an open-addressing hash table of group indices. Keys are
/// equal when every column compares equal (Value::Compare == 0), which
/// Value::Hash agrees with, so Int(3) and Double(3.0), or 0.0 and -0.0,
/// are one group; a group keeps the key it was first found with. Both
/// executors emit groups in key order (Order: lexicographic under
/// Value::Compare), so the output does not depend on the order groups were
/// found in.
class GroupMap {
 public:
  GroupMap() = default;
  GroupMap(size_t key_width, size_t num_aggs)
      : key_width_(key_width), num_aggs_(num_aggs) {}

  size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }
  size_t key_width() const { return key_width_; }

  /// The index of the group whose key equals the key_width() values
  /// `key[i]` point at. A new group copies the key and starts with
  /// default AggStates.
  size_t FindOrInsert(const Value* const* key);

  /// Group `g`'s key_width() key values.
  const Value* Key(size_t g) const { return keys_.data() + g * key_width_; }
  /// Group `g`'s AggStates, one per aggregate; valid until the next insert.
  AggState* States(size_t g) { return states_.data() + g * num_aggs_; }
  const AggState* States(size_t g) const {
    return states_.data() + g * num_aggs_;
  }

  /// The group indices in lexicographic order of their keys.
  std::vector<uint32_t> Order() const;

 private:
  bool KeyEquals(size_t g, const Value* const* key) const;
  void Rehash(size_t buckets);

  size_t key_width_ = 0;
  size_t num_aggs_ = 0;
  std::vector<Value> keys_;       // size() * key_width_, group-major
  std::vector<AggState> states_;  // size() * num_aggs_, group-major
  std::vector<uint64_t> hashes_;  // each group's key hash
  /// Open addressing with linear probing: group index + 1, 0 when empty;
  /// a power of two at least twice size().
  std::vector<uint32_t> buckets_;
};

}  // namespace htapex

#endif  // HTAPEX_ENGINE_AGG_STATE_H_
