#ifndef HTAPEX_TP_TP_OPTIMIZER_H_
#define HTAPEX_TP_TP_OPTIMIZER_H_

#include "catalog/catalog.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "sql/binder.h"

namespace htapex {

/// Cost constants of the TP (row-store) optimizer. Units are TP-internal
/// "row units" — deliberately on a different scale from the AP optimizer's
/// units; the two must never be compared (the paper's prompts forbid it).
struct TpCostParams {
  double seq_row = 0.01;         // read one row sequentially
  double filter_row = 0.001;     // evaluate predicates on one row
  double index_descend = 0.3;    // per B+-tree level during a probe
  double index_fetch = 0.02;     // fetch one matching row via index
  double sort_row_log = 0.005;   // n*log2(n) multiplier
  double agg_row = 0.01;         // aggregate one row
  double output_row = 0.001;     // emit one row
  double hash_build_row = 0.02;  // counterfactual hash join (see below)
  double hash_probe_row = 0.01;

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
