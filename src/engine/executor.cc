#include "engine/executor.h"

#include <algorithm>

#include "storage/btree.h"

namespace htapex {

Row Executor::MakeComposite(const PlanNode& scan, const Row& base_row,
                            int total_slots) const {
  Row out(static_cast<size_t>(total_slots), Value::Null());
  for (size_t c = 0; c < base_row.size(); ++c) {
    out[static_cast<size_t>(scan.slot_offset) + c] = base_row[c];
  }
  return out;
}

Result<Rows> Executor::RunTableScan(const PlanNode& node,
                                    int total_slots) const {
  HTAPEX_ASSIGN_OR_RETURN(const TableData* data,
                          row_store_.GetTable(node.relation));
  Rows out;
  for (const Row& base : data->rows) {
    Row row = MakeComposite(node, base, total_slots);
    HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, row));
    if (pass) out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> Executor::RunIndexScan(const PlanNode& node,
                                    int total_slots) const {
  HTAPEX_ASSIGN_OR_RETURN(const TableData* data,
                          row_store_.GetTable(node.relation));
  const BTreeIndex* index = row_store_.GetIndex(node.index_name);
  if (index == nullptr) {
    return Status::ExecutionError("index not built: " + node.index_name);
  }
  Rows out;
  auto emit = [&](uint32_t row_id) -> Status {
    Row row = MakeComposite(node, data->rows[row_id], total_slots);
    Result<bool> pass = PassesPredicates(node, row);
    if (!pass.ok()) return pass.status();
    if (*pass) out.push_back(std::move(row));
    return Status::OK();
  };

  if (node.predicates.empty()) {
    // Ordered full scan (top-N by index order), ascending or descending.
    bool desc = !node.sort_keys.empty() && node.sort_keys[0].descending;
    Status st = Status::OK();
    auto visit = [&](const Value&, uint32_t row_id) {
      st = emit(row_id);
      return st.ok();
    };
    if (desc) {
      index->FullScanDesc(visit);
    } else {
      index->FullScan(visit);
    }
    HTAPEX_RETURN_IF_ERROR(st);
    return out;
  }

  // Derive probe values / ranges from the (sargable) index condition.
  const Expr& p = *node.predicates[0];
  Status st = Status::OK();
  if (p.kind == ExprKind::kComparison && p.cmp_op == CompareOp::kEq) {
    for (uint32_t row_id : index->PointLookup(p.children[1]->literal)) {
      HTAPEX_RETURN_IF_ERROR(emit(row_id));
    }
  } else if (p.kind == ExprKind::kIn) {
    for (size_t i = 1; i < p.children.size(); ++i) {
      for (uint32_t row_id : index->PointLookup(p.children[i]->literal)) {
        HTAPEX_RETURN_IF_ERROR(emit(row_id));
      }
    }
  } else if (p.kind == ExprKind::kBetween) {
    const Value lo = p.children[1]->literal;
    const Value hi = p.children[2]->literal;
    index->RangeScan(&lo, true, &hi, true, [&](const Value&, uint32_t row_id) {
      st = emit(row_id);
      return st.ok();
    });
    HTAPEX_RETURN_IF_ERROR(st);
  } else if (p.kind == ExprKind::kComparison) {
    const Value& lit = p.children[1]->literal;
    bool lo_incl = p.cmp_op == CompareOp::kGe;
    bool hi_incl = p.cmp_op == CompareOp::kLe;
    const Value* lo = nullptr;
    const Value* hi = nullptr;
    if (p.cmp_op == CompareOp::kGt || p.cmp_op == CompareOp::kGe) lo = &lit;
    if (p.cmp_op == CompareOp::kLt || p.cmp_op == CompareOp::kLe) hi = &lit;
    index->RangeScan(lo, lo_incl, hi, hi_incl,
                     [&](const Value&, uint32_t row_id) {
                       st = emit(row_id);
                       return st.ok();
                     });
    HTAPEX_RETURN_IF_ERROR(st);
  } else {
    return Status::ExecutionError("unsupported index condition: " +
                                  p.ToString());
  }
  return out;
}

Result<Rows> Executor::RunColumnScan(const PlanNode& node,
                                     int total_slots) const {
  HTAPEX_ASSIGN_OR_RETURN(const ColumnTable* table,
                          column_store_.GetTable(node.relation));
  HTAPEX_ASSIGN_OR_RETURN(const TableSchema* schema,
                          catalog_.GetTable(node.relation));
  // Ordinals of the columns this scan materializes.
  std::vector<int> ordinals;
  for (const auto& name : node.columns_read) {
    int c = schema->ColumnIndex(name);
    if (c < 0) return Status::ExecutionError("unknown column: " + name);
    ordinals.push_back(c);
  }
  // Zone-checkable predicates with their column ordinals.
  std::vector<std::pair<const Expr*, int>> zone_preds;
  for (const auto& p : node.predicates) {
    if (IsZoneCheckable(*p)) {
      zone_preds.emplace_back(p.get(), p->children[0]->bound_column);
    }
  }

  Rows out;
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
      Row row(static_cast<size_t>(total_slots), Value::Null());
      for (int c : ordinals) {
        row[static_cast<size_t>(node.slot_offset + c)] =
            table->columns[static_cast<size_t>(c)].Get(r);
      }
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, row));
      if (pass) out.push_back(std::move(row));
    }
  }
  return out;
}

Result<Rows> Executor::RunSiftedScan(const PlanNode& node,
                                     const ExecContext& ctx) const {
  // RunColumnScan semantics, then each sift probe in producer order: rows
  // whose join key is definitely absent from a producing join's Bloom
  // filter (or NULL, which can never join) are dropped. The producing hash
  // joins sit above this scan on the probe spine and run their build sides
  // first, so every referenced filter exists by the time the scan runs.
  std::vector<const BloomFilter*> filters;
  filters.reserve(node.sift_probes.size());
  for (const SiftProbe& sp : node.sift_probes) {
    auto it = ctx.sift_filters.find(sp.sift_id);
    if (it == ctx.sift_filters.end()) {
      return Status::ExecutionError("sift filter not built before scan");
    }
    filters.push_back(&it->second);
  }
  HTAPEX_ASSIGN_OR_RETURN(Rows in, RunColumnScan(node, ctx.total_slots));
  Rows out;
  for (Row& row : in) {
    bool keep = true;
    for (size_t i = 0; i < node.sift_probes.size(); ++i) {
      HTAPEX_ASSIGN_OR_RETURN(Value k,
                              EvalExpr(*node.sift_probes[i].key, row));
      if (k.is_null() || !filters[i]->MayContain(k.Hash())) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> Executor::RunIndexNestedLoopJoin(const PlanNode& node,
                                              ExecContext* ctx) const {
  HTAPEX_ASSIGN_OR_RETURN(Rows outer, Run(*node.children[0], ctx));
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
  Rows out;
  // The inner side is probed inline (never dispatched through Run), so
  // count its output here for EXPLAIN-ANALYZE parity with other operators.
  size_t index_rows = 0;
  size_t filter_rows = 0;
  for (const Row& o : outer) {
    HTAPEX_ASSIGN_OR_RETURN(Value key, EvalExpr(*node.left_key, o));
    if (key.is_null()) continue;
    for (uint32_t row_id : index->PointLookup(key)) {
      ++index_rows;
      Row merged = o;
      const Row& base = data->rows[row_id];
      for (size_t c = 0; c < base.size(); ++c) {
        merged[static_cast<size_t>(inner->slot_offset) + c] = base[c];
      }
      if (filter != nullptr) {
        HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(*filter, merged));
        if (!pass) continue;
      }
      ++filter_rows;
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
      if (pass) out.push_back(std::move(merged));
    }
  }
  ctx->Record(*inner, index_rows);
  if (filter != nullptr) ctx->Record(*filter, filter_rows);
  return out;
}

Result<Rows> Executor::Run(const PlanNode& node, ExecContext* ctx) const {
  Result<Rows> rows = RunDispatch(node, ctx);
  if (rows.ok()) ctx->Record(node, rows->size());
  return rows;
}

Result<Rows> Executor::RunDispatch(const PlanNode& node,
                                   ExecContext* ctx) const {
  ChildRunner run = [this, ctx](const PlanNode& child) {
    return Run(child, ctx);
  };
  switch (node.op) {
    case PlanOp::kTableScan:
      return RunTableScan(node, ctx->total_slots);
    case PlanOp::kIndexScan:
      return RunIndexScan(node, ctx->total_slots);
    case PlanOp::kColumnScan:
      return RunColumnScan(node, ctx->total_slots);
    case PlanOp::kSiftedScan:
      return RunSiftedScan(node, *ctx);
    case PlanOp::kFilter:
      return RunFilter(node, run);
    case PlanOp::kNestedLoopJoin:
      return RunNestedLoopJoin(node, run);
    case PlanOp::kIndexNestedLoopJoin:
      return RunIndexNestedLoopJoin(node, ctx);
    case PlanOp::kHashJoin:
      return RunHashJoin(node, run, ctx);
    case PlanOp::kGroupAggregate:
    case PlanOp::kHashAggregate:
      return RunAggregate(node, run);
    case PlanOp::kSort:
      return RunSort(node, run);
    case PlanOp::kTopN:
      return RunTopN(node, run);
    case PlanOp::kLimit:
      return RunLimit(node, run);
    case PlanOp::kProject:
      return RunProject(node, run);
    case PlanOp::kExchange:
      return run(*node.children[0]);
  }
  return Status::Internal("unknown plan operator");
}

Result<QueryResultSet> Executor::Execute(const PhysicalPlan& plan,
                                         std::vector<std::string> output_names,
                                         ExecStats* stats) const {
  ExecContext ctx{plan.total_slots, stats, {}};
  HTAPEX_ASSIGN_OR_RETURN(Rows rows, Run(*plan.root, &ctx));
  return QueryResultSet{std::move(output_names), std::move(rows)};
}

}  // namespace htapex
