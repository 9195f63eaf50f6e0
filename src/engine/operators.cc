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

Status AccumulateRow(const PlanNode& agg, const Row& row, KeyRefs* key,
                     GroupMap* groups) {
  for (size_t i = 0; i < agg.group_keys.size(); ++i) {
    HTAPEX_RETURN_IF_ERROR(key->Resolve(i, *agg.group_keys[i], row));
  }
  AggState* states = groups->States(groups->FindOrInsert(key->at.data()));
  for (size_t a = 0; a < agg.aggregates.size(); ++a) {
    HTAPEX_RETURN_IF_ERROR(AccumulateAgg(*agg.aggregates[a], row, &states[a]));
  }
  return Status::OK();
}

Status MergeGroups(const PlanNode& agg, const GroupMap& part,
                   GroupMap* total) {
  std::vector<const Value*> key(part.key_width());
  for (size_t g = 0; g < part.size(); ++g) {
    for (size_t i = 0; i < key.size(); ++i) key[i] = part.Key(g) + i;
    AggState* states = total->States(total->FindOrInsert(key.data()));
    for (size_t a = 0; a < agg.aggregates.size(); ++a) {
      HTAPEX_RETURN_IF_ERROR(
          MergeAggState(*agg.aggregates[a], part.States(g)[a], &states[a]));
    }
  }
  return Status::OK();
}

Result<bool> PushGroups(const PlanNode& agg, const GroupMap& groups,
                        RowSink out) {
  Row row;
  if (groups.empty() && agg.group_keys.empty()) {
    for (const auto& a : agg.aggregates) {
      HTAPEX_ASSIGN_OR_RETURN(Value v, FinalizeAgg(*a, AggState{}));
      row.push_back(std::move(v));
    }
    return out(row);
  }
  for (uint32_t g : groups.Order()) {
    const Value* key = groups.Key(g);
    row.assign(key, key + groups.key_width());
    const AggState* states = groups.States(g);
    for (size_t a = 0; a < agg.aggregates.size(); ++a) {
      HTAPEX_ASSIGN_OR_RETURN(Value v,
                              FinalizeAgg(*agg.aggregates[a], states[a]));
      row.push_back(std::move(v));
    }
    HTAPEX_ASSIGN_OR_RETURN(bool more, out(row));
    if (!more) return false;
  }
  return true;
}

TopNHeap::TopNHeap(const PlanNode& node, bool keep_rows)
    : node_(&node),
      keep_rows_(keep_rows),
      width_(node.sort_keys.size()),
      offset_(static_cast<size_t>(std::max<int64_t>(node.offset, 0))),
      keep_(node.limit < 0 ? kUnbounded
                           : offset_ + static_cast<size_t>(node.limit)),
      key_(width_) {}

bool TopNHeap::Precedes(const Entry& a, const Entry& b) const {
  int c = CompareSortKeys(node_->sort_keys, Key(a.slot), Key(b.slot));
  if (c != 0) return c < 0;
  return a.seq < b.seq;  // ties resolve to earlier input, as stable_sort
}

bool TopNHeap::Enters(const Value* const* key, uint64_t seq) const {
  if (heap_.size() < keep_) return true;
  const Entry& worst = heap_.front();
  const Value* kept = Key(worst.slot);
  for (size_t i = 0; i < width_; ++i) {
    int c = key[i]->Compare(kept[i]);
    if (c != 0) return (node_->sort_keys[i].descending ? -c : c) < 0;
  }
  return seq < worst.seq;
}

uint32_t TopNHeap::Place(const Value* const* key, uint64_t seq) {
  auto precedes = [this](const Entry& a, const Entry& b) {
    return Precedes(a, b);
  };
  uint32_t slot;
  if (heap_.size() < keep_) {
    slot = static_cast<uint32_t>(heap_.size());
    for (size_t i = 0; i < width_; ++i) keys_.push_back(*key[i]);
    heap_.push_back({slot, seq});
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), precedes);
    slot = heap_.back().slot;
    Value* kept = keys_.data() + static_cast<size_t>(slot) * width_;
    for (size_t i = 0; i < width_; ++i) kept[i] = *key[i];
    heap_.back().seq = seq;
  }
  std::push_heap(heap_.begin(), heap_.end(), precedes);
  return slot;
}

Status TopNHeap::Offer(const Row& row, uint64_t seq) {
  if (keep_ == 0) return Status::OK();
  for (size_t i = 0; i < width_; ++i) {
    HTAPEX_RETURN_IF_ERROR(key_.Resolve(i, *node_->sort_keys[i].expr, row));
  }
  if (!Enters(key_.at.data(), seq)) return Status::OK();
  const uint32_t slot = Place(key_.at.data(), seq);
  if (keep_rows_) StoreRow(slot, row);
  return Status::OK();
}

void TopNHeap::Merge(TopNHeap&& other) {
  if (keep_ == 0) return;
  for (const Entry& e : other.heap_) {
    const Value* key = other.Key(e.slot);
    for (size_t i = 0; i < width_; ++i) key_.at[i] = key + i;
    if (!Enters(key_.at.data(), e.seq)) continue;
    const uint32_t slot = Place(key_.at.data(), e.seq);
    if (keep_rows_) StoreRow(slot, std::move(other.rows_[e.slot]));
  }
  other.heap_.clear();
}

Result<bool> TopNHeap::Emit(
    FunctionRef<Result<bool>(const Row&, uint64_t)> emit) {
  std::sort_heap(heap_.begin(), heap_.end(),
                 [this](const Entry& a, const Entry& b) {
                   return Precedes(a, b);
                 });
  const Row none;
  for (size_t i = offset_; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    HTAPEX_ASSIGN_OR_RETURN(bool more,
                            emit(keep_rows_ ? rows_[e.slot] : none, e.seq));
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
  GroupMap groups(node.group_keys.size(), node.aggregates.size());
  KeyRefs key(node.group_keys.size());
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
