#ifndef HTAPEX_PLAN_PLAN_NODE_H_
#define HTAPEX_PLAN_PLAN_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sql/expr.h"

namespace htapex {

/// Which engine produced a plan.
enum class EngineKind { kTp, kAp };

const char* EngineName(EngineKind e);  // "TP" / "AP"

/// Physical operators across both engines. The node-type strings rendered
/// into EXPLAIN output match the paper's Table II ("Nested loop inner
/// join", "Columnar scan", "Hash aggregate", ...).
enum class PlanOp {
  // Shared / TP-side operators.
  kTableScan,            // row-store full scan
  kIndexScan,            // B+-tree lookup or range scan
  kFilter,               // row-at-a-time predicate
  kNestedLoopJoin,       // inner join, rescan inner per outer row
  kIndexNestedLoopJoin,  // inner join via index probe on inner
  kSort,                 // full sort
  kLimit,                // LIMIT/OFFSET
  kGroupAggregate,       // sort-based / streaming aggregation
  kProject,              // expression projection
  // AP-side operators.
  kColumnScan,     // columnar scan, reads only referenced columns
  kSiftedScan,     // columnar scan filtered by join-key Bloom filters
  kHashJoin,       // build + probe hash join
  kHashAggregate,  // hash-based aggregation
  kTopN,           // bounded heap ORDER BY + LIMIT
  // Reserved for explicit distributed fan-in nodes; the current AP plans
  // fold dispatch cost into LatencyParams::ap_startup_ms instead, but the
  // executor and latency model handle the node (pass-through) so plans
  // from a future distributed optimizer stay loadable.
  kExchange,
};

/// EXPLAIN node-type string, e.g. "Nested loop inner join".
const char* PlanOpName(PlanOp op);

struct SortKey {
  std::unique_ptr<Expr> expr;
  bool descending = false;
};

/// One Bloom-filter probe a kSiftedScan applies: rows whose `key` is
/// definitely absent from the Bloom filter built by the hash join tagged
/// `sift_id` are dropped before they enter the probe pipeline. False
/// positives are removed by the join itself, so results are unchanged.
struct SiftProbe {
  int sift_id = -1;
  std::unique_ptr<Expr> key;  // probe-side join key (a scan-table column)
  /// Modeled fraction of scan rows surviving this probe (fp included).
  double expected_selectivity = 1.0;
};

/// A node of a physical plan tree. Nodes own clones of all expressions, so
/// a plan is self-contained once built.
struct PlanNode {
  PlanOp op;
  explicit PlanNode(PlanOp o) : op(o) {}

  /// Engine-specific cost units — deliberately NOT comparable across
  /// engines (the paper stresses this; prompts forbid comparing them).
  double total_cost = 0.0;
  /// Estimated output cardinality at the statistics scale factor.
  double estimated_rows = 1.0;
  /// For scan nodes: base-relation cardinality (before any predicates).
  double base_rows = 0.0;

  // Scans.
  std::string relation;      // base table name
  int table_idx = -1;        // index into the bound FROM list
  int slot_offset = -1;      // first composite-row slot this table fills
  int slot_count = 0;        // number of columns of this table
  std::string index_name;    // kIndexScan / kIndexNestedLoopJoin
  std::string index_column;  // leading column of that index
  std::vector<std::string> columns_read;  // kColumnScan: referenced columns

  // Filter / residual predicates (conjuncts).
  std::vector<std::unique_ptr<Expr>> predicates;

  // Joins: equi-join key pair (null for pure cross/NL joins).
  std::unique_ptr<Expr> left_key;
  std::unique_ptr<Expr> right_key;
  /// kHashJoin: >= 0 when this join's build side feeds a Bloom filter to a
  /// kSiftedScan below its probe side (the scan's SiftProbe carries the
  /// matching id).
  int sift_id = -1;

  // kSiftedScan: Bloom probes applied after this scan's own predicates, in
  // producer-join order from the bottom of the probe spine upward.
  std::vector<SiftProbe> sift_probes;

  // Sort / TopN / Limit.
  std::vector<SortKey> sort_keys;
  int64_t limit = -1;   // -1 = none
  int64_t offset = 0;

  // Aggregation.
  std::vector<std::unique_ptr<Expr>> group_keys;
  std::vector<std::unique_ptr<Expr>> aggregates;

  // Projection.
  std::vector<std::unique_ptr<Expr>> projections;

  std::vector<std::unique_ptr<PlanNode>> children;

  /// Indented one-line-per-node rendering for debugging.
  std::string ToTreeString(int indent = 0) const;

  /// Number of nodes in this subtree.
  int TreeSize() const;
};

/// A complete plan for one engine.
struct PhysicalPlan {
  EngineKind engine = EngineKind::kTp;
  std::unique_ptr<PlanNode> root;
  int total_slots = 0;  // composite-row width for execution

  /// EXPLAIN text in the paper's Table II format, a Python-dict flavoured
  /// JSON object per node, written in one pass over the tree:
  /// {'Node Type': ..., 'Total Cost': ..., 'Plan Rows': ..., 'Plans': [...]}.
  std::string Explain() const;
};

/// Plan-pair container: the unit the explainer reasons about.
struct PlanPair {
  PhysicalPlan tp;
  PhysicalPlan ap;
};

}  // namespace htapex

#endif  // HTAPEX_PLAN_PLAN_NODE_H_
