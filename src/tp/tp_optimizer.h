#ifndef HTAPEX_TP_TP_OPTIMIZER_H_
#define HTAPEX_TP_TP_OPTIMIZER_H_

#include "catalog/catalog.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "sql/binder.h"

namespace htapex {

/// Plan-shape switches of the TP (row-store) optimizer. Its cost constants
/// are fixed in tp_optimizer.cc, in TP-internal "row units" — deliberately
/// on a different scale from the AP optimizer's units; the two must never
/// be compared (the paper's prompts forbid it).
struct TpCostParams {
  /// Counterfactual knob for the M2c ablation: when true, equi-joins use a
  /// hash join instead of (index) nested loops. The real TP engine has no
  /// hash join — this quantifies how much of the TP/AP gap is the join
  /// strategy versus the row-store scan itself.
  bool force_hash_join = false;
};

/// The TP engine's optimizer: row-store access paths (table scan or B+-tree
/// index scan), left-deep nested-loop joins (index-probing the inner table
/// when an index on the join column exists), sort-based ordering, and
/// stream ("Group") aggregation. TP has no hash join — the engine-level
/// asymmetry at the heart of the paper's Example 1.
class TpOptimizer {
 public:
  explicit TpOptimizer(const Catalog& catalog, TpCostParams params = {})
      : catalog_(catalog), params_(params) {}

  Result<PhysicalPlan> Plan(const BoundQuery& query) const;

 private:
  const Catalog& catalog_;
  TpCostParams params_;
};

}  // namespace htapex

#endif  // HTAPEX_TP_TP_OPTIMIZER_H_
