#ifndef HTAPEX_ENGINE_AGG_STATE_H_
#define HTAPEX_ENGINE_AGG_STATE_H_

#include <map>
#include <set>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "sql/expr.h"
#include "storage/table_data.h"

namespace htapex {

/// Three-way comparison of evaluated sort-key rows under `keys`: negative
/// when `a` precedes `b`. Shared so the row executor's sort, its bounded
/// TopN heap, and the vectorized executor order ties identically.
inline int CompareSortKeyRows(const std::vector<SortKey>& keys, const Row& a,
                              const Row& b) {
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
  int64_t isum = 0;
  Value min, max;
  bool any = false;
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
/// dedupes through the seen-set.
inline void AccumulateAggValue(const Expr& agg, const Value& v, AggState* s) {
  if (agg.distinct && !s->seen.insert(v).second) {
    return;  // duplicate under DISTINCT: ignore
  }
  ++s->count;
  if (agg.agg_kind == AggKind::kSum || agg.agg_kind == AggKind::kAvg) {
    if (v.is_int() && s->sum_is_int) {
      s->isum += v.AsInt();
    } else {
      if (s->sum_is_int) {
        s->sum = static_cast<double>(s->isum);
        s->sum_is_int = false;
      }
      s->sum += v.AsDouble();
    }
  }
  if (!s->any) {
    s->min = v;
    s->max = v;
    s->any = true;
  } else {
    if (v.Compare(s->min) < 0) s->min = v;
    if (v.Compare(s->max) > 0) s->max = v;
  }
}

/// Evaluates the aggregate's argument against `row` and accumulates it.
inline Status AccumulateAgg(const Expr& agg, const Row& row, AggState* s) {
  if (agg.count_star) {
    ++s->count;
    return Status::OK();
  }
  Result<Value> v = EvalExpr(*agg.children[0], row);
  if (!v.ok()) return v.status();
  if (v->is_null()) return Status::OK();
  AccumulateAggValue(agg, *v, s);
  return Status::OK();
}

/// Merges partial state `other` into `s` (for per-morsel partial
/// aggregation). Equivalent to replaying other's inputs into `s`, except
/// SUM accumulation order: integer sums stay exact, but a double sum of
/// partials can round differently from the row-order sum, and the
/// fingerprint's %.6g formatting does not always hide it (the seed-105
/// exec_mix query in perfbench/WORKLOADS.md differs in the 6th digit).
inline void MergeAggState(const Expr& agg, const AggState& other, AggState* s) {
  if (agg.count_star) {
    s->count += other.count;
    return;
  }
  if (agg.distinct) {
    // Union of seen-sets, re-accumulating only unseen values.
    for (const Value& v : other.seen) AccumulateAggValue(agg, v, s);
    return;
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
  if (other.any) {
    if (!s->any) {
      s->min = other.min;
      s->max = other.max;
      s->any = true;
    } else {
      if (other.min.Compare(s->min) < 0) s->min = other.min;
      if (other.max.Compare(s->max) > 0) s->max = other.max;
    }
  }
}

inline Value FinalizeAgg(const Expr& agg, const AggState& s) {
  switch (agg.agg_kind) {
    case AggKind::kCount:
      return Value::Int(s.count);
    case AggKind::kSum:
      if (!s.any) return Value::Null();
      return s.sum_is_int ? Value::Int(s.isum) : Value::Double(s.sum);
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

/// Lexicographic row ordering (group-key maps; deterministic output order).
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

/// Group key -> one AggState per aggregate; ordered, so grouped output
/// comes out in the same key order from both executors.
using GroupMap = std::map<Row, std::vector<AggState>, RowLess>;

}  // namespace htapex

#endif  // HTAPEX_ENGINE_AGG_STATE_H_
