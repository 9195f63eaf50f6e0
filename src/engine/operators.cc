#include "engine/operators.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"

namespace htapex {

std::string QueryResultSet::Fingerprint() const {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += "|";
      // Normalize numerics through double formatting so Int(3)/Double(3.0)
      // from different engines compare equal.
      if (row[i].is_null()) {
        line += "NULL";
      } else if (row[i].is_string()) {
        line += row[i].AsString();
      } else {
        line += StrFormat("%.6g", row[i].AsDouble());
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return Join(lines, "\n");
}

Status AccumulateRow(const PlanNode& agg, const Row& row, GroupMap* groups) {
  Row key;
  key.reserve(agg.group_keys.size());
  for (const auto& g : agg.group_keys) {
    HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, row));
    key.push_back(std::move(v));
  }
  auto [it, inserted] =
      groups->try_emplace(std::move(key), agg.aggregates.size());
  for (size_t a = 0; a < agg.aggregates.size(); ++a) {
    HTAPEX_RETURN_IF_ERROR(
        AccumulateAgg(*agg.aggregates[a], row, &it->second[a]));
  }
  return Status::OK();
}

Rows FinalizeGroups(const PlanNode& agg, const GroupMap& groups) {
  Rows out;
  if (groups.empty() && agg.group_keys.empty()) {
    Row row;
    for (const auto& a : agg.aggregates) row.push_back(FinalizeAgg(*a, {}));
    out.push_back(std::move(row));
    return out;
  }
  for (const auto& [key, states] : groups) {
    Row row = key;
    for (size_t a = 0; a < agg.aggregates.size(); ++a) {
      row.push_back(FinalizeAgg(*agg.aggregates[a], states[a]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> RunFilter(const PlanNode& node, const ChildRunner& run) {
  HTAPEX_ASSIGN_OR_RETURN(Rows in, run(*node.children[0]));
  Rows out;
  for (Row& row : in) {
    HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, row));
    if (pass) out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> RunNestedLoopJoin(const PlanNode& node, const ChildRunner& run) {
  HTAPEX_ASSIGN_OR_RETURN(Rows outer, run(*node.children[0]));
  HTAPEX_ASSIGN_OR_RETURN(Rows inner, run(*node.children[1]));
  std::vector<std::pair<int, int>> inner_ranges;
  CollectScanRanges(*node.children[1], &inner_ranges);
  Rows out;
  for (const Row& o : outer) {
    for (const Row& i : inner) {
      Row merged = o;
      MergeSlots(inner_ranges, i, &merged);
      if (node.left_key != nullptr) {
        HTAPEX_ASSIGN_OR_RETURN(Value lk, EvalExpr(*node.left_key, merged));
        HTAPEX_ASSIGN_OR_RETURN(Value rk, EvalExpr(*node.right_key, merged));
        if (lk.is_null() || rk.is_null() || lk.Compare(rk) != 0) continue;
      }
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
      if (pass) out.push_back(std::move(merged));
    }
  }
  return out;
}

Result<Rows> RunHashJoin(const PlanNode& node, const ChildRunner& run,
                         ExecContext* ctx) {
  // The build side always runs first: a sift producer's Bloom filter must
  // exist before the kSiftedScan at the bottom of the probe spine scans,
  // and an empty build side short-circuits the probe side entirely — these
  // are inner joins, so an empty build means an empty join no matter what
  // the probe side would produce. The skipped probe subtree records no
  // ExecStats, and the vectorized pipeline's empty-build cut mirrors that
  // node-for-node.
  HTAPEX_ASSIGN_OR_RETURN(Rows build, run(*node.children[1]));
  std::vector<std::pair<int, int>> build_ranges;
  CollectScanRanges(*node.children[1], &build_ranges);
  if (build.empty()) return Rows{};

  if (node.left_key == nullptr || node.right_key == nullptr) {
    // Degenerate cross join.
    HTAPEX_ASSIGN_OR_RETURN(Rows probe, run(*node.children[0]));
    Rows out;
    for (const Row& p : probe) {
      for (const Row& b : build) {
        Row merged = p;
        MergeSlots(build_ranges, b, &merged);
        HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
        if (pass) out.push_back(std::move(merged));
      }
    }
    return out;
  }

  std::unordered_multimap<uint64_t, size_t> table;
  table.reserve(build.size());
  std::vector<Value> build_keys;
  HTAPEX_RETURN_IF_ERROR(HashBuildKeys(
      node, build, ctx, &build_keys,
      [&table](uint64_t hash, size_t i) { table.emplace(hash, i); }));
  HTAPEX_ASSIGN_OR_RETURN(Rows probe, run(*node.children[0]));
  Rows out;
  out.reserve(probe.size());
  for (const Row& p : probe) {
    HTAPEX_ASSIGN_OR_RETURN(Value k, EvalExpr(*node.left_key, p));
    if (k.is_null()) continue;
    auto [lo, hi] = table.equal_range(k.Hash());
    for (auto it = lo; it != hi; ++it) {
      if (build_keys[it->second].Compare(k) != 0) continue;
      Row merged = p;
      MergeSlots(build_ranges, build[it->second], &merged);
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
      if (pass) out.push_back(std::move(merged));
    }
  }
  return out;
}

Result<Rows> RunAggregate(const PlanNode& node, const ChildRunner& run) {
  HTAPEX_ASSIGN_OR_RETURN(Rows in, run(*node.children[0]));
  GroupMap groups;
  for (const Row& row : in) {
    HTAPEX_RETURN_IF_ERROR(AccumulateRow(node, row, &groups));
  }
  return FinalizeGroups(node, groups);
}

Result<Rows> RunSort(const PlanNode& node, const ChildRunner& run) {
  HTAPEX_ASSIGN_OR_RETURN(Rows in, run(*node.children[0]));
  std::vector<std::pair<Row, Row>> keyed;  // (sort-key values, payload row)
  keyed.reserve(in.size());
  for (Row& row : in) {
    Row key;
    key.reserve(node.sort_keys.size());
    for (const auto& k : node.sort_keys) {
      HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*k.expr, row));
      key.push_back(std::move(v));
    }
    keyed.emplace_back(std::move(key), std::move(row));
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&node](const std::pair<Row, Row>& a,
                           const std::pair<Row, Row>& b) {
                     return CompareSortKeyRows(node.sort_keys, a.first,
                                               b.first) < 0;
                   });
  Rows out;
  out.reserve(keyed.size());
  for (auto& [key, row] : keyed) out.push_back(std::move(row));
  return out;
}

Result<Rows> RunTopN(const PlanNode& node, const ChildRunner& run) {
  size_t start = static_cast<size_t>(std::max<int64_t>(node.offset, 0));
  if (node.limit < 0) {
    // No limit: nothing to bound, degenerate to a full sort + offset slice.
    HTAPEX_ASSIGN_OR_RETURN(Rows sorted, RunSort(node, run));
    Rows out;
    for (size_t i = start; i < sorted.size(); ++i) {
      out.push_back(std::move(sorted[i]));
    }
    return out;
  }
  // Bounded heap of the offset+limit first rows under the sort order —
  // the work the latency model charges. The (keys, input index) total
  // order makes this exactly equivalent to stable_sort + slice.
  HTAPEX_ASSIGN_OR_RETURN(Rows in, run(*node.children[0]));
  size_t keep = start + static_cast<size_t>(node.limit);
  if (keep == 0) return Rows{};
  struct Entry {
    Row key;
    Row row;
    size_t idx;
  };
  auto precedes = [&node](const Entry& a, const Entry& b) {
    int c = CompareSortKeyRows(node.sort_keys, a.key, b.key);
    if (c != 0) return c < 0;
    return a.idx < b.idx;  // ties resolve to earlier input, as stable_sort
  };
  // Max-heap under `precedes`: front is the worst row currently kept.
  std::vector<Entry> heap;
  heap.reserve(std::min(keep, in.size()) + 1);
  for (size_t i = 0; i < in.size(); ++i) {
    Row key;
    key.reserve(node.sort_keys.size());
    for (const auto& k : node.sort_keys) {
      HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*k.expr, in[i]));
      key.push_back(std::move(v));
    }
    Entry e{std::move(key), std::move(in[i]), i};
    if (heap.size() < keep) {
      heap.push_back(std::move(e));
      std::push_heap(heap.begin(), heap.end(), precedes);
    } else if (precedes(e, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), precedes);
      heap.back() = std::move(e);
      std::push_heap(heap.begin(), heap.end(), precedes);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), precedes);
  Rows out;
  for (size_t i = start; i < heap.size(); ++i) {
    out.push_back(std::move(heap[i].row));
  }
  return out;
}

Result<Rows> RunLimit(const PlanNode& node, const ChildRunner& run) {
  HTAPEX_ASSIGN_OR_RETURN(Rows in, run(*node.children[0]));
  size_t start = static_cast<size_t>(std::max<int64_t>(node.offset, 0));
  size_t count = node.limit < 0 ? in.size() : static_cast<size_t>(node.limit);
  Rows out;
  for (size_t i = start; i < in.size() && out.size() < count; ++i) {
    out.push_back(std::move(in[i]));
  }
  return out;
}

Result<Rows> RunProject(const PlanNode& node, const ChildRunner& run) {
  HTAPEX_ASSIGN_OR_RETURN(Rows in, run(*node.children[0]));
  Rows out;
  out.reserve(in.size());
  for (const Row& row : in) {
    Row projected;
    projected.reserve(node.projections.size());
    for (const auto& p : node.projections) {
      HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, row));
      projected.push_back(std::move(v));
    }
    out.push_back(std::move(projected));
  }
  return out;
}

}  // namespace htapex
