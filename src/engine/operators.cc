#include "engine/operators.h"

#include <algorithm>
#include <charconv>
#include <numeric>
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
      if (row[i].is_null()) {
        line += "NULL";
      } else if (row[i].is_string()) {
        line += row[i].AsString();
      } else if (row[i].is_int()) {
        // Whole, so counts that differ in the last digit differ here too.
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), row[i].AsInt());
        line.append(buf, res.ptr);
      } else {
        // The engines add doubles in different orders; six digits hide the
        // difference, and Double(3.0) still prints as Int(3) does.
        line += StrFormat("%.6g", row[i].AsDouble());
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return Join(lines, "\n");
}

Result<bool> ExecContext::Run(const PlanNode& node, RowSink sink,
                              size_t bound) {
  size_t pushed = 0;
  auto counted = [&pushed, sink](const Row& row) -> Result<bool> {
    ++pushed;
    return sink(row);
  };
  Result<bool> more = dispatch(node, this, counted, bound);
  if (more.ok()) Record(node, pushed, !*more);
  return more;
}

Result<Rows> ExecContext::Materialize(const PlanNode& node) {
  Rows rows;
  auto keep = [&rows](const Row& row) -> Result<bool> {
    rows.push_back(row);
    return true;
  };
  HTAPEX_RETURN_IF_ERROR(Run(node, keep).status());
  return rows;
}

namespace {

/// Marks the slots the column refs of `e` read.
void MarkRead(const Expr* e, std::vector<uint8_t>* read) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef && e->flat_slot >= 0 &&
      e->flat_slot < static_cast<int>(read->size())) {
    (*read)[static_cast<size_t>(e->flat_slot)] = 1;
  }
  for (const auto& c : e->children) MarkRead(c.get(), read);
}

/// Marks the slots every expression of the subtree at `node` reads. Above
/// an aggregation, refs index the aggregation's output row, so marking
/// them as composite slots over-approximates, harmlessly.
void MarkNodeReads(const PlanNode& node, std::vector<uint8_t>* read) {
  for (const auto& p : node.predicates) MarkRead(p.get(), read);
  MarkRead(node.left_key.get(), read);
  MarkRead(node.right_key.get(), read);
  for (const SiftProbe& sp : node.sift_probes) MarkRead(sp.key.get(), read);
  for (const SortKey& k : node.sort_keys) MarkRead(k.expr.get(), read);
  for (const auto& g : node.group_keys) MarkRead(g.get(), read);
  for (const auto& a : node.aggregates) MarkRead(a.get(), read);
  for (const auto& p : node.projections) MarkRead(p.get(), read);
  for (const auto& c : node.children) MarkNodeReads(*c, read);
}

/// True when `plan`'s result rows are its composite rows: no Project or
/// aggregation between the root and the scans and joins.
bool ResultIsComposite(const PhysicalPlan& plan) {
  for (const PlanNode* n = plan.root.get(); n != nullptr;
       n = n->children.empty() ? nullptr : n->children[0].get()) {
    switch (n->op) {
      case PlanOp::kProject:
      case PlanOp::kGroupAggregate:
      case PlanOp::kHashAggregate:
        return false;
      case PlanOp::kFilter:
      case PlanOp::kSort:
      case PlanOp::kTopN:
      case PlanOp::kLimit:
      case PlanOp::kExchange:
        continue;
      default:
        return true;
    }
  }
  return true;
}

}  // namespace

Result<QueryResultSet> ExecutePlan(const PhysicalPlan& plan,
                                   std::vector<std::string> output_names,
                                   ExecStats* stats, PlanDispatch dispatch) {
  ExecContext ctx(plan.total_slots, stats, dispatch);
  const bool all = ResultIsComposite(plan);
  ctx.read_slots.assign(static_cast<size_t>(std::max(plan.total_slots, 0)),
                        all ? 1 : 0);
  if (!all) MarkNodeReads(*plan.root, &ctx.read_slots);
  QueryResultSet result{std::move(output_names), {}};
  auto keep = [&result](const Row& row) -> Result<bool> {
    result.rows.push_back(row);
    return true;
  };
  HTAPEX_RETURN_IF_ERROR(ctx.Run(*plan.root, keep).status());
  return result;
}

Status AccumulateRow(const PlanNode& agg, const Row& row, Row* key,
                     GroupMap* groups) {
  key->clear();
  for (const auto& g : agg.group_keys) {
    HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, row));
    key->push_back(std::move(v));
  }
  auto it = groups->find(*key);
  if (it == groups->end()) {
    it = groups->try_emplace(*key, agg.aggregates.size()).first;
  }
  for (size_t a = 0; a < agg.aggregates.size(); ++a) {
    HTAPEX_RETURN_IF_ERROR(
        AccumulateAgg(*agg.aggregates[a], row, &it->second[a]));
  }
  return Status::OK();
}

Result<bool> PushGroups(const PlanNode& agg, const GroupMap& groups,
                        RowSink out) {
  Row row;
  if (groups.empty() && agg.group_keys.empty()) {
    for (const auto& a : agg.aggregates) row.push_back(FinalizeAgg(*a, {}));
    return out(row);
  }
  for (const auto& [key, states] : groups) {
    row.assign(key.begin(), key.end());
    for (size_t a = 0; a < agg.aggregates.size(); ++a) {
      row.push_back(FinalizeAgg(*agg.aggregates[a], states[a]));
    }
    HTAPEX_ASSIGN_OR_RETURN(bool more, out(row));
    if (!more) return false;
  }
  return true;
}

TopNHeap::TopNHeap(const PlanNode& node)
    : node_(&node),
      offset_(static_cast<size_t>(std::max<int64_t>(node.offset, 0))),
      keep_(node.limit < 0 ? kUnbounded
                           : offset_ + static_cast<size_t>(node.limit)) {}

bool TopNHeap::Precedes(const Entry& a, const Entry& b) const {
  int c = CompareSortKeys(node_->sort_keys, a.key.data(), b.key.data());
  if (c != 0) return c < 0;
  return a.seq < b.seq;  // ties resolve to earlier input, as stable_sort
}

void TopNHeap::Insert(Entry&& e) {
  auto precedes = [this](const Entry& a, const Entry& b) {
    return Precedes(a, b);
  };
  if (heap_.size() < keep_) {
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), precedes);
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), precedes);
  heap_.back() = std::move(e);
  std::push_heap(heap_.begin(), heap_.end(), precedes);
}

Status TopNHeap::Offer(const Row& row, uint64_t seq, bool keep_row) {
  if (keep_ == 0) return Status::OK();
  scratch_.key.clear();
  for (const auto& k : node_->sort_keys) {
    HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*k.expr, row));
    scratch_.key.push_back(std::move(v));
  }
  scratch_.seq = seq;
  if (heap_.size() >= keep_ && !Precedes(scratch_, heap_.front())) {
    return Status::OK();
  }
  if (keep_row) scratch_.row = row;
  Insert(std::move(scratch_));
  return Status::OK();
}

void TopNHeap::Merge(TopNHeap&& other) {
  if (keep_ == 0) return;
  for (Entry& e : other.heap_) {
    if (heap_.size() < keep_ || Precedes(e, heap_.front())) {
      Insert(std::move(e));
    }
  }
  other.heap_.clear();
}

Result<bool> TopNHeap::Emit(
    FunctionRef<Result<bool>(const Row&, uint64_t)> emit) {
  std::sort_heap(heap_.begin(), heap_.end(),
                 [this](const Entry& a, const Entry& b) {
                   return Precedes(a, b);
                 });
  for (size_t i = offset_; i < heap_.size(); ++i) {
    HTAPEX_ASSIGN_OR_RETURN(bool more, emit(heap_[i].row, heap_[i].seq));
    if (!more) return false;
  }
  return true;
}

LimitWindow::LimitWindow(const PlanNode& node)
    : offset_(static_cast<size_t>(std::max<int64_t>(node.offset, 0))),
      end_(node.limit < 0 ? kUnbounded
                          : offset_ + static_cast<size_t>(node.limit)) {}

Result<bool> LimitWindow::Push(const Row& row, RowSink out) {
  if (seen_ >= end_) return false;  // LIMIT 0: the window is empty
  if (seen_++ < offset_) return seen_ < end_;
  HTAPEX_ASSIGN_OR_RETURN(bool more, out(row));
  if (!more) {
    consumer_stopped_ = true;
    return false;
  }
  return seen_ < end_;
}

namespace {

Result<bool> PushFilter(const PlanNode& node, ExecContext* ctx, RowSink out) {
  auto in = [&node, out](const Row& row) -> Result<bool> {
    HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, row));
    if (!pass) return true;
    return out(row);
  };
  return ctx->Run(*node.children[0], in);
}

Result<bool> PushNestedLoopJoin(const PlanNode& node, ExecContext* ctx,
                                RowSink out) {
  // The inner side is kept first, so the outer side can stream past it.
  HTAPEX_ASSIGN_OR_RETURN(Rows inner, ctx->Materialize(*node.children[1]));
  std::vector<std::pair<int, int>> inner_ranges;
  CollectScanRanges(*node.children[1], &inner_ranges);
  Row merged;  // one scratch row per outer row
  auto probe = [&](const Row& o) -> Result<bool> {
    if (inner.empty()) return true;
    merged = o;
    for (const Row& i : inner) {
      MergeSlots(inner_ranges, i, &merged);
      if (node.left_key != nullptr) {
        HTAPEX_ASSIGN_OR_RETURN(Value lk, EvalExpr(*node.left_key, merged));
        HTAPEX_ASSIGN_OR_RETURN(Value rk, EvalExpr(*node.right_key, merged));
        if (lk.is_null() || rk.is_null() || lk.Compare(rk) != 0) continue;
      }
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
      if (!pass) continue;
      HTAPEX_ASSIGN_OR_RETURN(bool more, out(merged));
      if (!more) return false;
    }
    return true;
  };
  return ctx->Run(*node.children[0], probe);
}

Result<bool> PushHashJoin(const PlanNode& node, ExecContext* ctx,
                          RowSink out) {
  // The build side always runs first: a sift producer's Bloom filter must
  // exist before the kSiftedScan at the bottom of the probe spine scans,
  // and an empty build side short-circuits the probe side entirely — these
  // are inner joins, so an empty build means an empty join no matter what
  // the probe side would produce. The skipped probe subtree records no
  // ExecStats, and the vectorized pipeline's empty-build cut mirrors that
  // node-for-node.
  HTAPEX_ASSIGN_OR_RETURN(Rows build, ctx->Materialize(*node.children[1]));
  if (build.empty()) return true;
  std::vector<std::pair<int, int>> build_ranges;
  CollectScanRanges(*node.children[1], &build_ranges);
  Row merged;  // one scratch row per probe row

  if (node.left_key == nullptr || node.right_key == nullptr) {
    // Degenerate cross join.
    auto probe = [&](const Row& p) -> Result<bool> {
      merged = p;
      for (const Row& b : build) {
        MergeSlots(build_ranges, b, &merged);
        HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
        if (!pass) continue;
        HTAPEX_ASSIGN_OR_RETURN(bool more, out(merged));
        if (!more) return false;
      }
      return true;
    };
    return ctx->Run(*node.children[0], probe);
  }

  std::unordered_multimap<uint64_t, size_t> table;
  table.reserve(build.size());
  std::vector<Value> build_keys;
  HTAPEX_RETURN_IF_ERROR(HashBuildKeys(
      node, build, ctx, &build_keys,
      [&table](uint64_t hash, size_t i) { table.emplace(hash, i); }));
  auto probe = [&](const Row& p) -> Result<bool> {
    HTAPEX_ASSIGN_OR_RETURN(Value k, EvalExpr(*node.left_key, p));
    if (k.is_null()) return true;
    auto [lo, hi] = table.equal_range(k.Hash());
    bool filled = false;
    for (auto it = lo; it != hi; ++it) {
      if (build_keys[it->second].Compare(k) != 0) continue;
      if (!filled) {
        merged = p;
        filled = true;
      }
      MergeSlots(build_ranges, build[it->second], &merged);
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
      if (!pass) continue;
      HTAPEX_ASSIGN_OR_RETURN(bool more, out(merged));
      if (!more) return false;
    }
    return true;
  };
  return ctx->Run(*node.children[0], probe);
}

Result<bool> PushAggregate(const PlanNode& node, ExecContext* ctx,
                           RowSink out) {
  GroupMap groups;
  Row key;
  auto fold = [&](const Row& row) -> Result<bool> {
    HTAPEX_RETURN_IF_ERROR(AccumulateRow(node, row, &key, &groups));
    return true;
  };
  HTAPEX_RETURN_IF_ERROR(ctx->Run(*node.children[0], fold).status());
  return PushGroups(node, groups, out);
}

Result<bool> PushSort(const PlanNode& node, ExecContext* ctx, RowSink out) {
  // A full sort, as the latency model charges: every input row is kept,
  // its sort keys evaluated once into one flat vector, and the rows'
  // positions are stable-sorted by them. Only what it emits is bounded, by
  // a Limit above that stops it.
  const size_t width = node.sort_keys.size();
  Rows rows;
  std::vector<Value> keys;
  auto keep = [&](const Row& row) -> Result<bool> {
    for (const auto& k : node.sort_keys) {
      HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*k.expr, row));
      keys.push_back(std::move(v));
    }
    rows.push_back(row);
    return true;
  };
  HTAPEX_RETURN_IF_ERROR(ctx->Run(*node.children[0], keep).status());
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&node, &keys, width](size_t a, size_t b) {
                     return CompareSortKeys(node.sort_keys,
                                            keys.data() + a * width,
                                            keys.data() + b * width) < 0;
                   });
  for (size_t i : order) {
    HTAPEX_ASSIGN_OR_RETURN(bool more, out(rows[i]));
    if (!more) return false;
  }
  return true;
}

Result<bool> PushTopN(const PlanNode& node, ExecContext* ctx, RowSink out) {
  // Bounded heap of the offset+limit first rows under the sort order — the
  // work the latency model charges.
  TopNHeap heap(node);
  uint64_t seq = 0;
  auto offer = [&](const Row& row) -> Result<bool> {
    HTAPEX_RETURN_IF_ERROR(heap.Offer(row, seq++));
    return true;
  };
  HTAPEX_RETURN_IF_ERROR(ctx->Run(*node.children[0], offer).status());
  return heap.Emit([out](const Row& row, uint64_t) { return out(row); });
}

Result<bool> PushLimit(const PlanNode& node, ExecContext* ctx, RowSink out) {
  LimitWindow window(node);
  auto in = [&window, out](const Row& row) { return window.Push(row, out); };
  HTAPEX_RETURN_IF_ERROR(
      ctx->Run(*node.children[0], in, window.bound()).status());
  return !window.consumer_stopped();
}

Result<bool> PushProject(const PlanNode& node, ExecContext* ctx, RowSink out,
                         size_t bound) {
  Row projected(node.projections.size());
  auto in = [&](const Row& row) -> Result<bool> {
    for (size_t i = 0; i < node.projections.size(); ++i) {
      HTAPEX_ASSIGN_OR_RETURN(projected[i],
                              EvalExpr(*node.projections[i], row));
    }
    return out(projected);
  };
  return ctx->Run(*node.children[0], in, bound);
}

}  // namespace

Result<bool> PushOperator(const PlanNode& node, ExecContext* ctx, RowSink out,
                          size_t bound) {
  switch (node.op) {
    case PlanOp::kFilter:
      return PushFilter(node, ctx, out);
    case PlanOp::kNestedLoopJoin:
      return PushNestedLoopJoin(node, ctx, out);
    case PlanOp::kHashJoin:
      return PushHashJoin(node, ctx, out);
    case PlanOp::kGroupAggregate:
    case PlanOp::kHashAggregate:
      return PushAggregate(node, ctx, out);
    case PlanOp::kSort:
      return PushSort(node, ctx, out);
    case PlanOp::kTopN:
      return PushTopN(node, ctx, out);
    case PlanOp::kLimit:
      return PushLimit(node, ctx, out);
    case PlanOp::kProject:
      return PushProject(node, ctx, out, bound);
    case PlanOp::kExchange:
      return ctx->Run(*node.children[0], out, bound);
    case PlanOp::kTableScan:
    case PlanOp::kIndexScan:
    case PlanOp::kIndexNestedLoopJoin:
    case PlanOp::kColumnScan:
    case PlanOp::kSiftedScan:
      break;
  }
  return Status::Internal(std::string("no shared operator for ") +
                          PlanOpName(node.op));
}

}  // namespace htapex
