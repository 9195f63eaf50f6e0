#ifndef HTAPEX_LLM_PLAN_READER_H_
#define HTAPEX_LLM_PLAN_READER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "plan/plan_node.h"

namespace htapex {

/// What a language model can "see" in one EXPLAIN plan text: operator
/// names, index usage, scan widths, conditions, limits. The simulated LLM
/// reasons only over these surface features plus the prompt's knowledge —
/// it has no access to the engine internals — which keeps the simulation
/// honest about what a real LLM pipeline exchanges.
struct PlanSurface {
  /// Node kinds present, read from 'Node Type' through PlanOpName; names
  /// no engine emits are ignored.
  std::set<PlanOp> node_types;
  std::set<std::string> relations;
  std::vector<std::string> index_columns;  // from 'Index Column' fields
  std::vector<std::string> conditions;     // from 'Condition' fields
  int num_joins = 0;
  int max_columns_read = 0;      // widest 'Columns' list (columnar scans)
  double max_plan_rows = 0.0;    // largest 'Plan Rows' anywhere
  double max_table_rows = 0.0;   // largest 'Table Rows' (base relation size)
  /// Largest nested-loop data volume: outer 'Plan Rows' x rows the inner
  /// side touches per iteration (per-probe matches for index NLJ, base
  /// table rows for plain NLJ). Derivable from the plan text alone.
  double max_loop_join_volume = 0.0;
  double root_cost = 0.0;        // 'Total Cost' at the root
  bool has_limit = false;
  int64_t limit = -1;
  int64_t offset = 0;
  bool ordered_index_scan = false;  // Index Scan carrying a Sort Key
  bool has_sort = false;
  bool has_topn = false;
  bool condition_applies_function = false;  // e.g. substring(col,...) in a condition

  bool HasNode(PlanOp op) const { return node_types.count(op) > 0; }
  bool operator==(const PlanSurface&) const = default;
};

/// Both sides of a plan pair.
struct PairSurface {
  PlanSurface tp;
  PlanSurface ap;
};

/// Parses one EXPLAIN JSON text (Table II flavour accepted) from
/// ParseJson's events, without building a document. Reads what JsonValue's
/// getters would read from the parsed text: a member's last occurrence wins
/// and a member of the wrong type reads as absent.
Result<PlanSurface> ReadPlanSurface(const std::string& plan_json);

/// Parses both plans of a pair.
Result<PairSurface> ReadPairSurface(const std::string& tp_plan_json,
                                    const std::string& ap_plan_json);

/// The categorical performance signature of a plan pair — the bits the
/// simulated LLM compares between the question and retrieved knowledge.
struct PairSignature {
  bool tp_plain_nlj = false;
  bool tp_index_join = false;
  bool tp_heavy_loop_join = false;  // nested-loop volume above ~1M rows
  bool tp_small_index_access = false;
  bool tp_ordered_stream_limit = false;
  bool tp_big_sort = false;
  bool big_offset = false;
  bool function_predicate = false;
  bool multi_join = false;
  bool grouped_agg = false;
  bool tiny_work = false;   // biggest cardinality anywhere is small
  bool ap_topn = false;
  EngineKind faster = EngineKind::kTp;

  /// Similarity in [0,1]: weighted agreement of the signature bits, zeroed
  /// when the execution results disagree (an explanation for the wrong
  /// winner is never a usable precedent).
  double Similarity(const PairSignature& other) const;
};

PairSignature ComputeSignature(const PairSurface& surface, EngineKind faster);

}  // namespace htapex

#endif  // HTAPEX_LLM_PLAN_READER_H_
