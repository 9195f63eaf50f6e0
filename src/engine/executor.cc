#include "engine/executor.h"

#include <algorithm>

#include "storage/btree.h"

namespace htapex {

namespace {

/// Copies the `columns` of table row `base` into `row` at `slot_offset`.
void CopyColumns(const Value* base, const std::vector<int>& columns,
                 int slot_offset, Row* row) {
  for (int c : columns) {
    (*row)[static_cast<size_t>(slot_offset + c)] = base[c];
  }
}

}  // namespace

Result<bool> Executor::PushTableScan(const PlanNode& node,
                                     const ExecContext& ctx,
                                     RowSink out) const {
  HTAPEX_ASSIGN_OR_RETURN(const TableData* data,
                          row_store_.GetTable(node.relation));
  const std::vector<int> columns = ctx.ReadColumns(node);
  Row row(static_cast<size_t>(ctx.total_slots), Value::Null());
  for (size_t r = 0; r < data->num_rows(); ++r) {
    CopyColumns(data->RowAt(r), columns, node.slot_offset, &row);
    HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, row));
    if (!pass) continue;
    HTAPEX_ASSIGN_OR_RETURN(bool more, out(row));
    if (!more) return false;
  }
  return true;
}

Result<bool> Executor::PushIndexScan(const PlanNode& node,
                                     const ExecContext& ctx,
                                     RowSink out) const {
  HTAPEX_ASSIGN_OR_RETURN(const TableData* data,
                          row_store_.GetTable(node.relation));
  const BTreeIndex* index = row_store_.GetIndex(node.index_name);
  if (index == nullptr) {
    return Status::ExecutionError("index not built: " + node.index_name);
  }
  const std::vector<int> columns = ctx.ReadColumns(node);
  Row row(static_cast<size_t>(ctx.total_slots), Value::Null());
  // Fetches one row into the composite row, tests it and pushes it. False
  // once the scan must end: its consumer stopped it, or an error did.
  Status st = Status::OK();
  bool more = true;
  auto emit = [&](uint32_t row_id) {
    CopyColumns(data->RowAt(row_id), columns, node.slot_offset, &row);
    Result<bool> step = PassesPredicates(node, row);
    if (step.ok() && *step) {
      step = out(row);
      if (step.ok()) more = *step;
    }
    if (!step.ok()) st = step.status();
    return st.ok() && more;
  };
  auto visit = [&emit](const Value&, uint32_t row_id) { return emit(row_id); };

  if (node.predicates.empty()) {
    // Ordered full scan (top-N by index order), ascending or descending;
    // a Limit above ends the walk once its window is full.
    bool desc = !node.sort_keys.empty() && node.sort_keys[0].descending;
    if (desc) {
      index->FullScanDesc(visit);
    } else {
      index->FullScan(visit);
    }
    HTAPEX_RETURN_IF_ERROR(st);
    return more;
  }

  // Derive probe values / ranges from the (sargable) index condition.
  const Expr& p = *node.predicates[0];
  if (p.kind == ExprKind::kComparison && p.cmp_op == CompareOp::kEq) {
    const Value& key = p.children[1]->literal;
    index->RangeScan(&key, true, &key, true, visit);
  } else if (p.kind == ExprKind::kIn) {
    for (size_t i = 1; i < p.children.size() && st.ok() && more; ++i) {
      const Value& key = p.children[i]->literal;
      index->RangeScan(&key, true, &key, true, visit);
    }
  } else if (p.kind == ExprKind::kBetween) {
    const Value& lo = p.children[1]->literal;
    const Value& hi = p.children[2]->literal;
    index->RangeScan(&lo, true, &hi, true, visit);
  } else if (p.kind == ExprKind::kComparison) {
    const Value& lit = p.children[1]->literal;
    bool lo_incl = p.cmp_op == CompareOp::kGe;
    bool hi_incl = p.cmp_op == CompareOp::kLe;
    const Value* lo = nullptr;
    const Value* hi = nullptr;
    if (p.cmp_op == CompareOp::kGt || p.cmp_op == CompareOp::kGe) lo = &lit;
    if (p.cmp_op == CompareOp::kLt || p.cmp_op == CompareOp::kLe) hi = &lit;
    index->RangeScan(lo, lo_incl, hi, hi_incl, visit);
  } else {
    return Status::ExecutionError("unsupported index condition: " +
                                  p.ToString());
  }
  HTAPEX_RETURN_IF_ERROR(st);
  return more;
}

Result<bool> Executor::PushColumnScan(const PlanNode& node,
                                      const ExecContext& ctx,
                                      RowSink out) const {
  HTAPEX_ASSIGN_OR_RETURN(const ColumnTable* table,
                          column_store_.GetTable(node.relation));
  HTAPEX_ASSIGN_OR_RETURN(const TableSchema* schema,
                          catalog_.GetTable(node.relation));
  // Ordinals of the columns this scan materializes: those it reads that
  // are in the read set.
  std::vector<int> ordinals;
  for (const auto& name : node.columns_read) {
    int c = schema->ColumnIndex(name);
    if (c < 0) return Status::ExecutionError("unknown column: " + name);
    if (ctx.IsRead(node.slot_offset + c)) ordinals.push_back(c);
  }
  // Zone-checkable predicates with their column ordinals.
  std::vector<std::pair<const Expr*, int>> zone_preds;
  for (const auto& p : node.predicates) {
    if (IsZoneCheckable(*p)) {
      zone_preds.emplace_back(p.get(), p->children[0]->bound_column);
    }
  }
  // A sifted scan's Bloom probes run after its own predicates, in producer
  // order: rows whose join key is definitely absent from a producing join's
  // filter (or NULL, which can never join) are dropped. The producing hash
  // joins sit above this scan on the probe spine and build first, so every
  // referenced filter exists by the time the scan runs.
  std::vector<const BloomFilter*> filters;
  for (const SiftProbe& sp : node.sift_probes) {
    auto it = ctx.sift_filters.find(sp.sift_id);
    if (it == ctx.sift_filters.end()) {
      return Status::ExecutionError("sift filter not built before scan");
    }
    filters.push_back(&it->second);
  }

  Row row(static_cast<size_t>(ctx.total_slots), Value::Null());
  const size_t seg_rows = ColumnVector::kSegmentRows;
  size_t num_rows = table->num_rows;
  for (size_t seg_start = 0; seg_start < num_rows; seg_start += seg_rows) {
    size_t seg = seg_start / seg_rows;
    bool skip = false;
    for (const auto& [p, col] : zone_preds) {
      if (!SegmentMayMatch(table->columns[static_cast<size_t>(col)], seg, *p)) {
        skip = true;
        break;
      }
    }
    if (skip) continue;
    size_t seg_end = std::min(seg_start + seg_rows, num_rows);
    for (size_t r = seg_start; r < seg_end; ++r) {
      for (int c : ordinals) {
        row[static_cast<size_t>(node.slot_offset + c)] =
            table->columns[static_cast<size_t>(c)].Get(r);
      }
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, row));
      for (size_t i = 0; pass && i < filters.size(); ++i) {
        HTAPEX_ASSIGN_OR_RETURN(Value k,
                                EvalExpr(*node.sift_probes[i].key, row));
        pass = !k.is_null() && filters[i]->MayContain(k.Hash());
      }
      if (!pass) continue;
      HTAPEX_ASSIGN_OR_RETURN(bool more, out(row));
      if (!more) return false;
    }
  }
  return true;
}

Result<bool> Executor::PushIndexNestedLoopJoin(const PlanNode& node,
                                               ExecContext* ctx,
                                               RowSink out) const {
  // Locate the index-scan access node (possibly under a Filter).
  const PlanNode* inner = node.children[1].get();
  const PlanNode* filter = nullptr;
  if (inner->op == PlanOp::kFilter) {
    filter = inner;
    inner = inner->children[0].get();
  }
  if (inner->op != PlanOp::kIndexScan) {
    return Status::ExecutionError(
        "index nested loop join requires an IndexScan inner side");
  }
  HTAPEX_ASSIGN_OR_RETURN(const TableData* data,
                          row_store_.GetTable(inner->relation));
  const BTreeIndex* index = row_store_.GetIndex(inner->index_name);
  if (index == nullptr) {
    return Status::ExecutionError("index not built: " + inner->index_name);
  }
  if (node.left_key == nullptr || node.right_key == nullptr) {
    return Status::ExecutionError("index nested loop join requires join keys");
  }
  // The inner side is probed inline (never dispatched through Run), so
  // count its output here for EXPLAIN-ANALYZE parity with other operators.
  size_t index_rows = 0;
  size_t filter_rows = 0;
  // The probe copies the outer row's read slots once per outer row, then
  // each match's read inner columns, into one scratch row.
  std::vector<std::pair<int, int>> outer_ranges;
  CollectScanRanges(*node.children[0], &outer_ranges);
  std::vector<size_t> outer_slots;
  for (const auto& [off, count] : outer_ranges) {
    for (int s = off; s < off + count; ++s) {
      if (ctx->IsRead(s)) outer_slots.push_back(static_cast<size_t>(s));
    }
  }
  const std::vector<int> inner_columns = ctx->ReadColumns(*inner);
  Row merged(static_cast<size_t>(ctx->total_slots), Value::Null());
  // Tests one match of outer row `o` and pushes it; false once the consumer
  // is satisfied.
  auto match = [&](const Row& o, bool first, uint32_t row_id) -> Result<bool> {
    if (first) {
      for (size_t s : outer_slots) merged[s] = o[s];
    }
    ++index_rows;
    CopyColumns(data->RowAt(row_id), inner_columns, inner->slot_offset,
                &merged);
    if (filter != nullptr) {
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(*filter, merged));
      if (!pass) return true;
    }
    ++filter_rows;
    HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
    if (!pass) return true;
    return out(merged);
  };
  auto probe = [&](const Row& o) -> Result<bool> {
    HTAPEX_ASSIGN_OR_RETURN(Value key, EvalExpr(*node.left_key, o));
    if (key.is_null()) return true;
    Status st = Status::OK();
    bool first = true;
    bool more = true;
    index->RangeScan(&key, true, &key, true,
                     [&](const Value&, uint32_t row_id) {
                       Result<bool> step = match(o, first, row_id);
                       first = false;
                       if (!step.ok()) {
                         st = step.status();
                         return false;
                       }
                       more = *step;
                       return more;
                     });
    HTAPEX_RETURN_IF_ERROR(st);
    return more;  // false once satisfied: stop probing
  };
  HTAPEX_ASSIGN_OR_RETURN(bool more, ctx->Run(*node.children[0], probe));
  ctx->Record(*inner, index_rows, !more);
  if (filter != nullptr) ctx->Record(*filter, filter_rows, !more);
  return more;
}

Result<bool> Executor::Dispatch(const PlanNode& node, ExecContext* ctx,
                                RowSink out, size_t bound) const {
  switch (node.op) {
    case PlanOp::kTableScan:
      return PushTableScan(node, *ctx, out);
    case PlanOp::kIndexScan:
      return PushIndexScan(node, *ctx, out);
    case PlanOp::kColumnScan:
    case PlanOp::kSiftedScan:
      return PushColumnScan(node, *ctx, out);
    case PlanOp::kIndexNestedLoopJoin:
      return PushIndexNestedLoopJoin(node, ctx, out);
    default:
      return PushOperator(node, ctx, out, bound);
  }
}

Result<QueryResultSet> Executor::Execute(const PhysicalPlan& plan,
                                         std::vector<std::string> output_names,
                                         ExecStats* stats) const {
  auto dispatch = [this](const PlanNode& node, ExecContext* ctx, RowSink out,
                         size_t bound) {
    return Dispatch(node, ctx, out, bound);
  };
  return ExecutePlan(plan, std::move(output_names), stats, dispatch);
}

}  // namespace htapex
