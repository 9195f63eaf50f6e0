#include "plan/planner_util.h"

#include <algorithm>
#include <cmath>

namespace htapex {

double Log2(double x) { return std::log2(std::max(x, 2.0)); }

std::vector<std::string> ReferencedColumns(const BoundQuery& query,
                                           int table_idx) {
  std::set<std::string> cols;
  auto visit = [&](const Expr& e) {
    std::vector<const Expr*> refs;
    e.CollectColumnRefs(&refs);
    for (const Expr* r : refs) {
      if (r->bound_table == table_idx) cols.insert(r->column_name);
    }
  };
  for (const auto& item : query.stmt.items) visit(*item.expr);
  for (const auto& c : query.conjuncts) visit(*c.expr);
  for (const auto& g : query.stmt.group_by) visit(*g);
  if (query.stmt.having != nullptr) visit(*query.stmt.having);
  for (const auto& o : query.stmt.order_by) visit(*o.expr);
  return {cols.begin(), cols.end()};
}

std::vector<int> SingleTableConjuncts(const BoundQuery& query, int table_idx) {
  std::vector<int> out;
  for (size_t i = 0; i < query.conjuncts.size(); ++i) {
    const auto& c = query.conjuncts[i];
    if (c.tables.size() == 1 && c.tables[0] == table_idx) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::unique_ptr<PlanNode> MakeScanNode(PlanOp op, const BoundQuery& query,
                                       int t, double base_rows) {
  const BoundTable& bt = query.table(t);
  auto scan = std::make_unique<PlanNode>(op);
  scan->relation = bt.ref.table;
  scan->table_idx = t;
  scan->slot_offset = bt.flat_offset;
  scan->slot_count = static_cast<int>(bt.schema->num_columns());
  scan->base_rows = base_rows;
  return scan;
}

double AttachConjuncts(const BoundQuery& query, const CardinalityEstimator& est,
                       const std::vector<int>& ids, PlanNode* node) {
  double sel = 1.0;
  for (int ci : ids) {
    const ConjunctInfo& c = query.conjuncts[static_cast<size_t>(ci)];
    node->predicates.push_back(c.expr->Clone());
    sel *= est.ConjunctSelectivity(query, c);
  }
  return sel;
}

std::unique_ptr<PlanNode> AddFilter(std::unique_ptr<PlanNode> child,
                                    const BoundQuery& query,
                                    const CardinalityEstimator& est,
                                    const std::vector<int>& ids,
                                    double filter_row) {
  if (ids.empty()) return child;
  auto filter = std::make_unique<PlanNode>(PlanOp::kFilter);
  double in_rows = child->estimated_rows;
  double sel = AttachConjuncts(query, est, ids, filter.get());
  filter->estimated_rows = std::max(in_rows * sel, 1.0);
  filter->total_cost = child->total_cost + in_rows * filter_row;
  filter->children.push_back(std::move(child));
  return filter;
}

JoinEdge AnalyzeJoinEdge(const BoundQuery& query,
                         const CardinalityEstimator& est,
                         const std::set<int>& left, const std::set<int>& right) {
  JoinEdge edge;
  std::vector<int> crossing;
  double best_ndv = -1.0;
  for (size_t i = 0; i < query.conjuncts.size(); ++i) {
    const auto& c = query.conjuncts[i];
    if (!c.is_equi_join) continue;
    bool crosses = (left.count(c.left_table) > 0 && right.count(c.right_table) > 0) ||
                   (right.count(c.left_table) > 0 && left.count(c.right_table) > 0);
    if (!crosses) continue;
    crossing.push_back(static_cast<int>(i));
    double ndv = std::max(est.ColumnNdv(query, *c.left_column),
                          est.ColumnNdv(query, *c.right_column));
    if (ndv > best_ndv) {
      best_ndv = ndv;
      edge.hash_conjunct = static_cast<int>(i);
    }
  }
  for (int jci : crossing) {
    if (jci == edge.hash_conjunct) continue;
    edge.extra_equi.push_back(jci);
    const auto& c = query.conjuncts[jci];
    double ndv = std::max(est.ColumnNdv(query, *c.left_column),
                          est.ColumnNdv(query, *c.right_column));
    edge.extra_selectivity /= std::max(ndv, 1.0);
  }
  for (size_t i = 0; i < query.conjuncts.size(); ++i) {
    const auto& c = query.conjuncts[i];
    if (c.is_equi_join || c.tables.size() <= 1) continue;
    bool touches_left = false, touches_right = false, all_in = true;
    for (int t : c.tables) {
      if (left.count(t) > 0) {
        touches_left = true;
      } else if (right.count(t) > 0) {
        touches_right = true;
      } else {
        all_in = false;
        break;
      }
    }
    if (all_in && touches_left && touches_right) {
      edge.residuals.push_back(static_cast<int>(i));
      edge.extra_selectivity *= CardinalityEstimator::kDefaultSelectivity;
    }
  }
  return edge;
}

double EdgeOutputRows(const BoundQuery& query, const CardinalityEstimator& est,
                      const JoinEdge& edge, double outer_rows,
                      double inner_rows) {
  double out;
  if (edge.hash_conjunct >= 0) {
    out = est.JoinOutputRows(
        query, query.conjuncts[static_cast<size_t>(edge.hash_conjunct)],
        outer_rows, inner_rows);
  } else {
    out = outer_rows * inner_rows;
  }
  return std::max(out * edge.extra_selectivity, 1.0);
}

std::vector<GreedyStep> GreedyJoinOrder(const BoundQuery& query,
                                        const CardinalityEstimator& est,
                                        const std::vector<double>& rows,
                                        int start) {
  const int n = query.num_tables();
  std::vector<GreedyStep> steps;
  std::set<int> joined = {start};
  double current_rows = rows[static_cast<size_t>(start)];
  while (static_cast<int>(joined.size()) < n) {
    GreedyStep best;
    bool best_connected = false;
    for (int t = 0; t < n; ++t) {
      if (joined.count(t) > 0) continue;
      JoinEdge edge = AnalyzeJoinEdge(query, est, joined, {t});
      bool connected = edge.hash_conjunct >= 0;
      double out = EdgeOutputRows(query, est, edge, current_rows,
                                  rows[static_cast<size_t>(t)]);
      bool better = best.table < 0 || (connected && !best_connected) ||
                    (connected == best_connected && out < best.out_rows);
      if (better) {
        best = GreedyStep{t, std::move(edge), current_rows, out};
        best_connected = connected;
      }
    }
    joined.insert(best.table);
    current_rows = best.out_rows;
    steps.push_back(std::move(best));
  }
  return steps;
}

JoinKeys EdgeKeys(const BoundQuery& query, const JoinEdge& edge,
                  const std::set<int>& inner_tables) {
  if (edge.hash_conjunct < 0) return {};
  const ConjunctInfo& c =
      query.conjuncts[static_cast<size_t>(edge.hash_conjunct)];
  if (inner_tables.count(c.left_table) > 0) {
    return {c.right_column, c.left_column};
  }
  return {c.left_column, c.right_column};
}

std::unique_ptr<PlanNode> MakeJoinNode(PlanOp op, const BoundQuery& query,
                                       const JoinEdge& edge,
                                       const JoinKeys& keys, double out_rows) {
  auto join = std::make_unique<PlanNode>(op);
  if (keys.outer != nullptr) {
    join->left_key = keys.outer->Clone();
    join->right_key = keys.inner->Clone();
  }
  for (int ci : edge.extra_equi) {
    join->predicates.push_back(
        query.conjuncts[static_cast<size_t>(ci)].expr->Clone());
  }
  for (int ci : edge.residuals) {
    join->predicates.push_back(
        query.conjuncts[static_cast<size_t>(ci)].expr->Clone());
  }
  join->estimated_rows = std::max(out_rows, 1.0);
  return join;
}

double HashJoinCost(const HashJoinRates& rates, double probe_cost,
                    double probe_rows, double build_cost, double build_rows,
                    double out_rows) {
  return probe_cost + build_cost + build_rows * rates.build_row +
         probe_rows * rates.probe_row + out_rows * rates.output_row;
}

std::unique_ptr<Expr> MakeSlotRef(int slot, DataType type, std::string label) {
  auto e = std::make_unique<Expr>(ExprKind::kColumnRef);
  e->column_name = std::move(label);
  e->flat_slot = slot;
  e->bound_table = -1;
  e->bound_column = -1;
  e->result_type = type;
  return e;
}

Result<std::unique_ptr<Expr>> RewriteForOutput(const Expr& expr,
                                               const OutputSlotMap& slots) {
  auto it = slots.find(expr.ToString());
  if (it != slots.end()) {
    return MakeSlotRef(it->second, expr.result_type, expr.ToString());
  }
  if (expr.kind == ExprKind::kAggregate) {
    return Status::PlanError(
        "aggregate not present in aggregation output: " + expr.ToString());
  }
  if (expr.kind == ExprKind::kColumnRef) {
    return Status::PlanError(
        "column above aggregation is not a group key: " + expr.ToString());
  }
  auto out = expr.Clone();
  for (size_t i = 0; i < out->children.size(); ++i) {
    std::unique_ptr<Expr> rewritten;
    HTAPEX_ASSIGN_OR_RETURN(rewritten,
                            RewriteForOutput(*expr.children[i], slots));
    out->children[i] = std::move(rewritten);
  }
  return Result<std::unique_ptr<Expr>>(std::move(out));
}

std::vector<const Expr*> CollectAggregates(const BoundQuery& query) {
  std::vector<const Expr*> out;
  std::set<std::string> seen;
  auto collect = [&](const Expr& e, auto&& self) -> void {
    if (e.kind == ExprKind::kAggregate) {
      if (seen.insert(e.ToString()).second) out.push_back(&e);
      return;
    }
    for (const auto& c : e.children) self(*c, self);
  };
  for (const auto& item : query.stmt.items) collect(*item.expr, collect);
  for (const auto& o : query.stmt.order_by) collect(*o.expr, collect);
  if (query.stmt.having != nullptr) collect(*query.stmt.having, collect);
  return out;
}

std::vector<std::string> OutputNames(const BoundQuery& query) {
  std::vector<std::string> names;
  names.reserve(query.stmt.items.size());
  for (const auto& item : query.stmt.items) {
    names.push_back(item.alias.empty() ? item.expr->ToString() : item.alias);
  }
  return names;
}

Result<std::unique_ptr<PlanNode>> AddAggregation(
    std::unique_ptr<PlanNode> child, PlanOp op, const BoundQuery& query,
    const CardinalityEstimator& est, double agg_row, OutputSlotMap* slots) {
  if (!query.has_aggregates && !query.is_grouped) {
    return Result<std::unique_ptr<PlanNode>>(std::move(child));
  }
  auto agg = std::make_unique<PlanNode>(op);
  double in_rows = child->estimated_rows;
  int slot = 0;
  for (const auto& g : query.stmt.group_by) {
    agg->group_keys.push_back(g->Clone());
    (*slots)[g->ToString()] = slot++;
  }
  for (const Expr* a : CollectAggregates(query)) {
    agg->aggregates.push_back(a->Clone());
    (*slots)[a->ToString()] = slot++;
  }
  double groups = 1.0;
  for (const auto& g : agg->group_keys) {
    std::vector<const Expr*> refs;
    g->CollectColumnRefs(&refs);
    groups *= refs.empty() ? 10.0 : est.ColumnNdv(query, *refs[0]);
  }
  groups = std::min(groups, in_rows);
  agg->estimated_rows = std::max(groups, 1.0);
  agg->total_cost = child->total_cost + in_rows * agg_row;
  agg->children.push_back(std::move(child));
  if (query.stmt.having == nullptr) {
    return Result<std::unique_ptr<PlanNode>>(std::move(agg));
  }
  auto having = std::make_unique<PlanNode>(PlanOp::kFilter);
  std::unique_ptr<Expr> pred;
  HTAPEX_ASSIGN_OR_RETURN(pred, RewriteForOutput(*query.stmt.having, *slots));
  having->predicates.push_back(std::move(pred));
  having->estimated_rows = std::max(
      agg->estimated_rows * CardinalityEstimator::kDefaultSelectivity, 1.0);
  having->total_cost = agg->total_cost;
  having->children.push_back(std::move(agg));
  return Result<std::unique_ptr<PlanNode>>(std::move(having));
}

namespace {

/// `e` as evaluated above the aggregation, if there is one.
Result<std::unique_ptr<Expr>> FinalExpr(const Expr& e,
                                        const OutputSlotMap& slots) {
  if (slots.empty()) return e.Clone();
  return RewriteForOutput(e, slots);
}

}  // namespace

Result<std::vector<SortKey>> OrderByKeys(const BoundQuery& query,
                                         const OutputSlotMap& slots) {
  std::vector<SortKey> keys;
  for (const auto& o : query.stmt.order_by) {
    std::unique_ptr<Expr> key;
    HTAPEX_ASSIGN_OR_RETURN(key, FinalExpr(*o.expr, slots));
    keys.push_back(SortKey{std::move(key), o.descending});
  }
  return keys;
}

Result<std::unique_ptr<PlanNode>> AddSort(std::unique_ptr<PlanNode> child,
                                          const BoundQuery& query,
                                          const OutputSlotMap& slots,
                                          double sort_row_log) {
  if (query.stmt.order_by.empty()) {
    return Result<std::unique_ptr<PlanNode>>(std::move(child));
  }
  auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
  HTAPEX_ASSIGN_OR_RETURN(sort->sort_keys, OrderByKeys(query, slots));
  double rows = child->estimated_rows;
  sort->estimated_rows = rows;
  sort->total_cost = child->total_cost + rows * Log2(rows) * sort_row_log;
  sort->children.push_back(std::move(child));
  return Result<std::unique_ptr<PlanNode>>(std::move(sort));
}

std::unique_ptr<PlanNode> AddLimit(std::unique_ptr<PlanNode> child,
                                   const SelectStatement& stmt) {
  if (!stmt.limit.has_value() && !stmt.offset.has_value()) return child;
  auto limit = std::make_unique<PlanNode>(PlanOp::kLimit);
  limit->limit = stmt.limit.value_or(-1);
  limit->offset = stmt.offset.value_or(0);
  double out = child->estimated_rows;
  if (stmt.limit.has_value()) {
    out = std::min(out, static_cast<double>(*stmt.limit));
  }
  limit->estimated_rows = std::max(out, 1.0);
  limit->total_cost = child->total_cost;
  limit->children.push_back(std::move(child));
  return limit;
}

Result<std::unique_ptr<PlanNode>> AddProjection(
    std::unique_ptr<PlanNode> child, const BoundQuery& query,
    const OutputSlotMap& slots, double output_row) {
  bool identity = !slots.empty() && query.stmt.items.size() == slots.size();
  for (size_t pos = 0; identity && pos < query.stmt.items.size(); ++pos) {
    auto it = slots.find(query.stmt.items[pos].expr->ToString());
    identity = it != slots.end() && it->second == static_cast<int>(pos);
  }
  if (identity) return Result<std::unique_ptr<PlanNode>>(std::move(child));

  auto project = std::make_unique<PlanNode>(PlanOp::kProject);
  for (const auto& item : query.stmt.items) {
    std::unique_ptr<Expr> e;
    HTAPEX_ASSIGN_OR_RETURN(e, FinalExpr(*item.expr, slots));
    project->projections.push_back(std::move(e));
  }
  project->estimated_rows = child->estimated_rows;
  project->total_cost =
      child->total_cost + child->estimated_rows * output_row;
  project->children.push_back(std::move(child));
  return Result<std::unique_ptr<PlanNode>>(std::move(project));
}

}  // namespace htapex
