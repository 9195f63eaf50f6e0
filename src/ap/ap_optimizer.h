#ifndef HTAPEX_AP_AP_OPTIMIZER_H_
#define HTAPEX_AP_AP_OPTIMIZER_H_

#include "catalog/catalog.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "plan/pt_graph.h"
#include "sql/binder.h"

namespace htapex {

/// Largest join the AP optimizer orders by bitset DP: its table has one
/// entry per table subset (2^10) and it tries every split (3^10). Larger
/// joins take the greedy order.
inline constexpr int kApDpMaxTables = 10;

/// Cost constants of the AP (column-store) optimizer. Units are AP-internal
/// "vector units" — a different scale from TP's units by construction; the
/// two engines' costs are not comparable (the paper emphasizes this).
struct ApCostParams {
  double scan_value = 0.0005;     // read one column value
  double hash_build_row = 0.002;  // insert one row into a join hash table
  double hash_probe_row = 0.001;  // probe one row
  double agg_row = 0.0015;        // hash-aggregate one row
  double sort_row_log = 0.002;    // n*log2(n) multiplier
  double topn_row = 0.0008;       // bounded-heap push
  double output_row = 0.0005;     // emit one row
  double startup = 30.0;          // distributed dispatch overhead
  double bloom_build_row = 0.001;   // insert one build key into a sift filter
  double bloom_probe_row = 0.0002;  // probe one scan row against one filter
  /// Join enumeration: bitset DP over all partitions (connected first,
  /// cross-join fallback) up to kApDpMaxTables tables; the greedy chain
  /// beyond that, and always when enable_dp is off (the `bad_join_order`
  /// counterfactual).
  bool enable_dp = true;
  /// Bloom-filter predicate-transfer policy (see plan/pt_graph.h).
  SiftParams sift;
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
