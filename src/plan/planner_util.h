#ifndef HTAPEX_PLAN_PLANNER_UTIL_H_
#define HTAPEX_PLAN_PLANNER_UTIL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "plan/cardinality.h"
#include "plan/plan_node.h"
#include "sql/binder.h"

namespace htapex {

/// Plan-building toolkit shared by the TP and AP optimizers: query
/// structure analysis, the greedy join order, the scan, filter, join,
/// aggregation, sort, limit and projection nodes both engines build the
/// same way, and the cost formulas they share. Each function takes the
/// engine's operator kind and cost constants as arguments; what really
/// differs between the engines (access paths, join operators, top-N, DP
/// and predicate transfer) stays in the optimizers.

/// log2(x) with x clamped to at least 2: the n·log n factor of sorts and
/// heaps and the descent term of a B+-tree probe. The latency model uses
/// it too.
double Log2(double x);

/// Column names of `table_idx` referenced anywhere in the query (select,
/// predicates, group/order keys). This is what a columnar scan must read.
std::vector<std::string> ReferencedColumns(const BoundQuery& query,
                                           int table_idx);

/// Indices of conjuncts that touch exactly {table_idx}.
std::vector<int> SingleTableConjuncts(const BoundQuery& query, int table_idx);

/// A scan node of kind `op` over table `t` with the fields every access
/// path shares: relation, FROM-list index, composite-row slots, base rows.
/// Estimate and cost are the caller's.
std::unique_ptr<PlanNode> MakeScanNode(PlanOp op, const BoundQuery& query,
                                       int t, double base_rows);

/// Clones conjuncts `ids` into `node->predicates`, in order, and returns
/// their combined selectivity.
double AttachConjuncts(const BoundQuery& query, const CardinalityEstimator& est,
                       const std::vector<int>& ids, PlanNode* node);

/// A Filter over `child` applying conjuncts `ids`: the child's rows times
/// their selectivity (floored at one row), costed `filter_row` per input
/// row. `child` itself when `ids` is empty.
std::unique_ptr<PlanNode> AddFilter(std::unique_ptr<PlanNode> child,
                                    const BoundQuery& query,
                                    const CardinalityEstimator& est,
                                    const std::vector<int>& ids,
                                    double filter_row);

/// Everything a join between two disjoint table sets has to know about the
/// conjuncts crossing that edge. Shared by the greedy and DP enumerators in
/// both optimizers so their cardinality arithmetic cannot drift apart.
struct JoinEdge {
  /// The crossing equi conjunct used as the hash key: the most selective
  /// one, i.e. the one with the highest max(ndv(left), ndv(right)) — ties
  /// broken by lowest conjunct index. -1 when no equi conjunct crosses
  /// (cross join).
  int hash_conjunct = -1;
  /// Remaining crossing equi conjuncts, in conjunct-index order. Applied as
  /// post-join filter predicates.
  std::vector<int> extra_equi;
  /// Non-equi multi-table conjuncts that become executable once the two
  /// sides are joined: every referenced table is in left∪right and at least
  /// one is on each side.
  std::vector<int> residuals;
  /// Combined selectivity of extra_equi (1/max key NDV each) and residuals
  /// (kDefaultSelectivity each) — everything the hash conjunct alone does
  /// not account for. Multiply into JoinOutputRows of the hash conjunct.
  double extra_selectivity = 1.0;
};

JoinEdge AnalyzeJoinEdge(const BoundQuery& query,
                         const CardinalityEstimator& est,
                         const std::set<int>& left, const std::set<int>& right);

/// Output estimate of joining `outer_rows` x `inner_rows` along `edge`:
/// JoinOutputRows of the hash conjunct (the plain product for a cross
/// join), times the edge's extra selectivity, floored at one row.
double EdgeOutputRows(const BoundQuery& query, const CardinalityEstimator& est,
                      const JoinEdge& edge, double outer_rows,
                      double inner_rows);

/// One join of a greedy join order: `table` joins everything joined before
/// it (`outer_rows` estimated rows) along `edge`, giving `out_rows`.
struct GreedyStep {
  int table = -1;
  JoinEdge edge;
  double outer_rows = 0.0;
  double out_rows = 0.0;
};

/// The greedy connected-first join order from table `start`, one step per
/// other table. Each step takes, among the tables not joined yet, the one
/// whose join with everything joined so far has the smallest
/// EdgeOutputRows; a table connected by an equi conjunct always beats a
/// cross join, and ties go to the lowest table index. `rows[t]` is table
/// t's filtered row estimate.
std::vector<GreedyStep> GreedyJoinOrder(const BoundQuery& query,
                                        const CardinalityEstimator& est,
                                        const std::vector<double>& rows,
                                        int start);

/// The hash conjunct's two key columns, oriented by side: `outer` belongs
/// to the side that is not `inner_tables`. Both null for a cross join.
struct JoinKeys {
  const Expr* outer = nullptr;
  const Expr* inner = nullptr;
};
JoinKeys EdgeKeys(const BoundQuery& query, const JoinEdge& edge,
                  const std::set<int>& inner_tables);

/// A join node of kind `op` along `edge`: left_key/right_key are clones of
/// `keys` (outer first), the edge's extra equi conjuncts and residual
/// filters become join-level predicates, and `out_rows` floored at one row
/// is its estimate. Cost and children are the caller's.
std::unique_ptr<PlanNode> MakeJoinNode(PlanOp op, const BoundQuery& query,
                                       const JoinEdge& edge,
                                       const JoinKeys& keys, double out_rows);

/// Per-row constants of the hash-join cost formula, in one engine's units.
struct HashJoinRates {
  double build_row = 0.0;   // insert one build row into the hash table
  double probe_row = 0.0;   // probe one row
  double output_row = 0.0;  // emit one joined row
};

/// Modelled cost of a hash join: both inputs' costs, one insert per build
/// row, one probe per probe row and one emit per output row.
double HashJoinCost(const HashJoinRates& rates, double probe_cost,
                    double probe_rows, double build_cost, double build_rows,
                    double out_rows);

/// Maps expression text to an output slot; used to rewrite expressions that
/// sit above an aggregation (whose output layout is [group keys..., aggs...]).
using OutputSlotMap = std::map<std::string, int>;

/// Rewrites `expr` so that any subtree whose text appears in `slots` becomes
/// a bare slot reference into the aggregate's output layout. Fails when an
/// aggregate subtree is not present in the map.
Result<std::unique_ptr<Expr>> RewriteForOutput(const Expr& expr,
                                               const OutputSlotMap& slots);

/// Makes a bare slot-reference expression (used by RewriteForOutput).
std::unique_ptr<Expr> MakeSlotRef(int slot, DataType type, std::string label);

/// Collects the distinct aggregate expressions appearing in select items
/// and ORDER BY of `query`, in first-appearance order.
std::vector<const Expr*> CollectAggregates(const BoundQuery& query);

/// Result column names: alias when present, expression text otherwise.
std::vector<std::string> OutputNames(const BoundQuery& query);

/// The aggregation tail over `child`, or `child` itself when the query
/// neither aggregates nor groups. An aggregate node of kind `op` outputs
/// [group keys..., aggregates...], the layout recorded in `*slots`; it is
/// estimated at the product of the group keys' NDVs (10 for a key without
/// columns) capped by its input, and costed `agg_row` per input row. A
/// HAVING clause becomes a Filter over that layout at the default
/// selectivity.
Result<std::unique_ptr<PlanNode>> AddAggregation(
    std::unique_ptr<PlanNode> child, PlanOp op, const BoundQuery& query,
    const CardinalityEstimator& est, double agg_row, OutputSlotMap* slots);

/// The ORDER BY keys, rewritten onto the aggregation output layout when
/// `slots` is non-empty.
Result<std::vector<SortKey>> OrderByKeys(const BoundQuery& query,
                                         const OutputSlotMap& slots);

/// A full Sort of `child` by the ORDER BY keys, costed
/// n·Log2(n)·`sort_row_log`; `child` itself without an ORDER BY.
Result<std::unique_ptr<PlanNode>> AddSort(std::unique_ptr<PlanNode> child,
                                          const BoundQuery& query,
                                          const OutputSlotMap& slots,
                                          double sort_row_log);

/// A Limit node for LIMIT/OFFSET over `child`, estimated at min(rows,
/// limit) floored at one row; `child` itself when the query has neither.
std::unique_ptr<PlanNode> AddLimit(std::unique_ptr<PlanNode> child,
                                   const SelectStatement& stmt);

/// The select-list projection over `child`, costed `output_row` per row.
/// Skipped when the aggregation output already is the select list in order
/// (so Example 1's root stays the Group aggregate, as in Table II).
Result<std::unique_ptr<PlanNode>> AddProjection(
    std::unique_ptr<PlanNode> child, const BoundQuery& query,
    const OutputSlotMap& slots, double output_row);

}  // namespace htapex

#endif  // HTAPEX_PLAN_PLANNER_UTIL_H_
