#include "tp/tp_optimizer.h"

#include <algorithm>
#include <set>

#include "plan/cardinality.h"
#include "plan/planner_util.h"

namespace htapex {

namespace {

// Cost constants, in TP-internal row units.
constexpr double kSeqRow = 0.01;        // read one row sequentially
constexpr double kFilterRow = 0.001;    // evaluate predicates on one row
constexpr double kIndexDescend = 0.3;   // per B+-tree level during a probe
constexpr double kIndexFetch = 0.02;    // fetch one matching row via index
constexpr double kSortRowLog = 0.005;   // n*log2(n) multiplier
constexpr double kAggRow = 0.01;        // aggregate one row
constexpr double kOutputRow = 0.001;    // emit one row
// The force_hash_join counterfactual's hash join: insert one build row,
// probe one row, emit one joined row.
constexpr HashJoinRates kHashRates{0.02, 0.01, kOutputRow};

/// Builder holding the per-query planning state.
class TpPlanBuilder {
 public:
  TpPlanBuilder(const Catalog& catalog, const TpCostParams& params,
                const BoundQuery& query)
      : catalog_(catalog), params_(params), query_(query), est_(catalog) {}

  Result<PhysicalPlan> Build() {
    std::unique_ptr<PlanNode> root = BuildJoinTree();
    HTAPEX_ASSIGN_OR_RETURN(
        root, AddAggregation(std::move(root), PlanOp::kGroupAggregate, query_,
                             est_, kAggRow, &agg_slots_));
    HTAPEX_ASSIGN_OR_RETURN(root, AddOrderLimitProject(std::move(root)));
    PhysicalPlan plan;
    plan.engine = EngineKind::kTp;
    plan.root = std::move(root);
    plan.total_slots = query_.total_slots;
    return plan;
  }

 private:
  /// A B+-tree probe of `idx` on table `t` fetching `rows` rows: one
  /// descent plus one fetch per row.
  std::unique_ptr<PlanNode> IndexScan(int t, const IndexDef& idx,
                                      double rows) const {
    auto scan = MakeScanNode(PlanOp::kIndexScan, query_, t,
                             est_.BaseTableRows(query_, t));
    scan->index_name = idx.name;
    scan->index_column = idx.leading_column();
    scan->estimated_rows = rows;
    scan->total_cost = Log2(scan->base_rows) * kIndexDescend +
                       rows * kIndexFetch;
    return scan;
  }

  /// Builds the access path for one table: IndexScan when a sargable
  /// predicate matches an index (most selective one wins), else TableScan.
  /// Remaining single-table predicates go into a Filter node above, in the
  /// Table II style Filter{Table Scan}. Records in used_index_ whether
  /// the path probes an index.
  std::unique_ptr<PlanNode> BuildAccessPath(int t) {
    const BoundTable& bt = query_.table(t);
    double base_rows = est_.BaseTableRows(query_, t);
    std::vector<int> singles = SingleTableConjuncts(query_, t);

    int best_conjunct = -1;
    const IndexDef* best_index = nullptr;
    double best_sel = 1.0;
    for (int ci : singles) {
      const ConjunctInfo& c = query_.conjuncts[static_cast<size_t>(ci)];
      if (!c.sargable || c.sarg_column == nullptr) continue;
      const IndexDef* idx =
          catalog_.FindIndexOnColumn(bt.ref.table, c.sarg_column->column_name);
      if (idx == nullptr) continue;
      double sel = est_.ConjunctSelectivity(query_, c);
      // An index pays off only for selective predicates.
      if (sel < 0.15 && sel < best_sel) {
        best_sel = sel;
        best_conjunct = ci;
        best_index = idx;
      }
    }

    std::unique_ptr<PlanNode> scan;
    used_index_[static_cast<size_t>(t)] = best_index != nullptr;
    if (best_index != nullptr) {
      scan = IndexScan(t, *best_index, std::max(base_rows * best_sel, 1.0));
      scan->predicates.push_back(
          query_.conjuncts[static_cast<size_t>(best_conjunct)].expr->Clone());
    } else {
      scan = MakeScanNode(PlanOp::kTableScan, query_, t, base_rows);
      scan->estimated_rows = base_rows;
      scan->total_cost = base_rows * kSeqRow;
    }
    std::vector<int> residual;
    for (int ci : singles) {
      if (ci != best_conjunct) residual.push_back(ci);
    }
    return AddFilter(std::move(scan), query_, est_, residual,
                     kFilterRow);
  }

  /// Left-deep greedy join tree starting from the smallest filtered table.
  std::unique_ptr<PlanNode> BuildJoinTree() {
    const int n = query_.num_tables();
    std::vector<std::unique_ptr<PlanNode>> access(static_cast<size_t>(n));
    std::vector<double> rows(static_cast<size_t>(n));
    used_index_.assign(static_cast<size_t>(n), false);
    for (int t = 0; t < n; ++t) {
      access[static_cast<size_t>(t)] = BuildAccessPath(t);
      rows[static_cast<size_t>(t)] = est_.FilteredTableRows(query_, t);
    }
    int start = static_cast<int>(std::min_element(rows.begin(), rows.end()) -
                                 rows.begin());
    std::unique_ptr<PlanNode> current =
        std::move(access[static_cast<size_t>(start)]);
    for (const GreedyStep& step : GreedyJoinOrder(query_, est_, rows, start)) {
      current = BuildJoin(std::move(current), step,
                          std::move(access[static_cast<size_t>(step.table)]));
    }
    return current;
  }

  /// Joins `outer` with `step.table`. When that table has an index on its
  /// join column, probe it per outer row (index nested loop); otherwise
  /// rescan its access path `inner` per outer row (plain nested loop). TP
  /// never hash-joins, except in the force_hash_join counterfactual.
  std::unique_ptr<PlanNode> BuildJoin(std::unique_ptr<PlanNode> outer,
                                      const GreedyStep& step,
                                      std::unique_ptr<PlanNode> inner) {
    const int t = step.table;
    JoinKeys keys = EdgeKeys(query_, step.edge, {t});
    const IndexDef* probe_index =
        keys.inner == nullptr
            ? nullptr
            : catalog_.FindIndexOnColumn(query_.table(t).ref.table,
                                         keys.inner->column_name);
    PlanOp op = PlanOp::kNestedLoopJoin;
    double cost;
    if (params_.force_hash_join && keys.inner != nullptr) {
      // Counterfactual mode: TP executes the equi-join as a hash join over
      // its row-store access paths.
      op = PlanOp::kHashJoin;
      cost = HashJoinCost(kHashRates, outer->total_cost, step.outer_rows,
                          inner->total_cost, est_.FilteredTableRows(query_, t),
                          step.out_rows);
    } else {
      if (probe_index != nullptr) {
        // Rebuild the inner side as an index probe: matches-per-probe is
        // the inner's rows divided by the join column's distinct count.
        double ndv = est_.ColumnNdv(query_, *keys.inner);
        double per_probe = std::max(
            est_.BaseTableRows(query_, t) / std::max(ndv, 1.0), 1.0);
        inner = AddFilter(IndexScan(t, *probe_index, per_probe), query_, est_,
                          SingleTableConjuncts(query_, t), kFilterRow);
        op = PlanOp::kIndexNestedLoopJoin;
      }
      // The inner side runs once per outer row; rescanning an in-memory
      // access path costs what scanning it once does.
      cost = outer->total_cost + step.outer_rows * inner->total_cost +
             step.out_rows * kOutputRow;
    }
    auto join = MakeJoinNode(op, query_, step.edge, keys, step.out_rows);
    join->total_cost = cost;
    join->children.push_back(std::move(outer));
    join->children.push_back(std::move(inner));
    return join;
  }

  Result<std::unique_ptr<PlanNode>> AddOrderLimitProject(
      std::unique_ptr<PlanNode> child) {
    const SelectStatement& stmt = query_.stmt;

    // Top-N by index order: single table, no grouping, ascending ORDER BY
    // on an indexed bare column — the B+-tree delivers rows pre-sorted, so
    // LIMIT can stop the scan early. This is TP's signature win on top-N.
    bool topn_by_index = false;
    if (!stmt.order_by.empty() && stmt.limit.has_value() &&
        !query_.has_aggregates && !query_.is_grouped &&
        query_.num_tables() == 1 && stmt.order_by.size() == 1 &&
        stmt.order_by[0].expr->kind == ExprKind::kColumnRef) {
      const Expr& key = *stmt.order_by[0].expr;
      const IndexDef* idx =
          catalog_.FindIndexOnColumn(query_.table(0).ref.table, key.column_name);
      if (idx != nullptr && !used_index_[0]) {
        // Replace a full-scan access path with an ordered index scan +
        // filters. An access path that already probes a (selective) index
        // stays, with or without a residual Filter above it.
        auto scan = IndexScan(0, *idx, est_.BaseTableRows(query_, 0));
        scan->sort_keys.push_back(
            SortKey{key.Clone(), stmt.order_by[0].descending});
        child = AddFilter(std::move(scan), query_, est_,
                          SingleTableConjuncts(query_, 0), kFilterRow);
        topn_by_index = true;
      }
    }
    if (!topn_by_index) {
      HTAPEX_ASSIGN_OR_RETURN(child, AddSort(std::move(child), query_,
                                             agg_slots_, kSortRowLog));
    }
    child = AddLimit(std::move(child), stmt);
    return AddProjection(std::move(child), query_, agg_slots_,
                         kOutputRow);
  }

  const Catalog& catalog_;
  const TpCostParams& params_;
  const BoundQuery& query_;
  CardinalityEstimator est_;
  OutputSlotMap agg_slots_;
  std::vector<bool> used_index_;  // per table: its access path is an index
};

}  // namespace

Result<PhysicalPlan> TpOptimizer::Plan(const BoundQuery& query) const {
  if (query.num_tables() == 0) {
    return Status::PlanError("query has no tables");
  }
  TpPlanBuilder builder(catalog_, params_, query);
  return builder.Build();
}

}  // namespace htapex
