#ifndef HTAPEX_AP_AP_OPTIMIZER_H_
#define HTAPEX_AP_AP_OPTIMIZER_H_

#include "catalog/catalog.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "sql/binder.h"

namespace htapex {

/// Largest join the AP optimizer orders by bitset DP: its table has one
/// entry per table subset (2^10) and it tries every split (3^10). Larger
/// joins take the greedy order.
inline constexpr int kApDpMaxTables = 10;

/// Plan-shape switches of the AP (column-store) optimizer. Its cost
/// constants are fixed in ap_optimizer.cc, in AP-internal "vector units" —
/// a different scale from TP's units by construction; the two engines'
/// costs are not comparable (the paper emphasizes this).
struct ApCostParams {
  /// Join enumeration: bitset DP over all partitions (connected first,
  /// cross-join fallback) up to kApDpMaxTables tables; the greedy chain
  /// beyond that, and always when enable_dp is off (the `bad_join_order`
  /// counterfactual).
  bool enable_dp = true;
  /// Bloom-filter predicate transfer (see plan/pt_graph.h); off is the
  /// `missing_sift` counterfactual.
  bool sift = true;
};

/// The AP engine's optimizer: columnar scans with predicate pushdown (only
/// referenced columns are read), cost-based bitset-DP join ordering (bushy
/// trees allowed) with Bloom-filter predicate transfer onto probe-spine
/// scans, hash aggregation, and bounded-heap Top-N. AP has no B+-tree
/// indexes and no nested-loop joins — the mirror image of the TP engine.
class ApOptimizer {
 public:
  explicit ApOptimizer(const Catalog& catalog, ApCostParams params = {})
      : catalog_(catalog), params_(params) {}

  Result<PhysicalPlan> Plan(const BoundQuery& query) const;

 private:
  const Catalog& catalog_;
  ApCostParams params_;
};

}  // namespace htapex

#endif  // HTAPEX_AP_AP_OPTIMIZER_H_
