#include "llm/plan_reader.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "common/json.h"
#include "common/string_util.h"

namespace htapex {

namespace {

/// The operator whose PlanOpName is `name`, if any (kExchange is the last
/// PlanOp).
std::optional<PlanOp> PlanOpFromName(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(PlanOp::kExchange); ++i) {
    PlanOp op = static_cast<PlanOp>(i);
    if (name == PlanOpName(op)) return op;
  }
  return std::nullopt;
}

void WalkPlan(const JsonValue& node, PlanSurface* out, bool is_root) {
  std::optional<PlanOp> op = PlanOpFromName(node.GetString("Node Type"));
  if (op.has_value()) out->node_types.insert(*op);
  const bool nested_loop =
      op == PlanOp::kNestedLoopJoin || op == PlanOp::kIndexNestedLoopJoin;
  if (nested_loop || op == PlanOp::kHashJoin) ++out->num_joins;
  if (op == PlanOp::kSort) out->has_sort = true;
  if (op == PlanOp::kTopN) {
    out->has_topn = true;
    out->has_limit = true;
  }
  std::string relation = node.GetString("Relation Name");
  if (!relation.empty()) out->relations.insert(relation);
  std::string index_col = node.GetString("Index Column");
  if (!index_col.empty()) out->index_columns.push_back(index_col);
  std::string condition = node.GetString("Condition");
  if (!condition.empty()) {
    out->conditions.push_back(condition);
    if (ContainsIgnoreCase(condition, "substring(") ||
        ContainsIgnoreCase(condition, "lower(") ||
        ContainsIgnoreCase(condition, "upper(") ||
        ContainsIgnoreCase(condition, "year(")) {
      out->condition_applies_function = true;
    }
  }
  double rows = node.GetDouble("Plan Rows");
  out->max_plan_rows = std::max(out->max_plan_rows, rows);
  out->max_table_rows =
      std::max(out->max_table_rows, node.GetDouble("Table Rows"));
  if (is_root) out->root_cost = node.GetDouble("Total Cost");
  const JsonValue* limit = node.Find("Limit");
  if (limit != nullptr && limit->is_number()) {
    out->has_limit = true;
    out->limit = limit->int_value();
  }
  const JsonValue* offset = node.Find("Offset");
  if (offset != nullptr && offset->is_number()) {
    out->offset = std::max(out->offset, offset->int_value());
  }
  if (op == PlanOp::kIndexScan && node.Find("Sort Key") != nullptr) {
    out->ordered_index_scan = true;
  }
  const JsonValue* columns = node.Find("Columns");
  if (columns != nullptr && columns->is_array()) {
    out->max_columns_read = std::max(
        out->max_columns_read, static_cast<int>(columns->array().size()));
  }
  const JsonValue* plans = node.Find("Plans");
  if (plans != nullptr && plans->is_array()) {
    for (const JsonValue& child : plans->array()) {
      WalkPlan(child, out, /*is_root=*/false);
    }
    if (nested_loop && plans->array().size() == 2) {
      const JsonValue& outer = plans->array()[0];
      const JsonValue& inner = plans->array()[1];
      double outer_rows = outer.GetDouble("Plan Rows");
      // For an index NLJ the inner 'Plan Rows' is matches-per-probe; for a
      // plain NLJ the inner side is rescanned, so its base table size (or
      // output) is the per-iteration volume.
      double inner_rows = op == PlanOp::kIndexNestedLoopJoin
                              ? inner.GetDouble("Plan Rows")
                              : std::max(inner.GetDouble("Table Rows"),
                                         inner.GetDouble("Plan Rows"));
      out->max_loop_join_volume =
          std::max(out->max_loop_join_volume, outer_rows * inner_rows);
    }
  }
}

}  // namespace

Result<PlanSurface> ReadPlanSurface(const std::string& plan_json) {
  JsonValue root;
  HTAPEX_ASSIGN_OR_RETURN(root, JsonValue::Parse(plan_json));
  PlanSurface surface;
  WalkPlan(root, &surface, /*is_root=*/true);
  return surface;
}

Result<PairSurface> ReadPairSurface(const std::string& tp_plan_json,
                                    const std::string& ap_plan_json) {
  PairSurface pair;
  HTAPEX_ASSIGN_OR_RETURN(pair.tp, ReadPlanSurface(tp_plan_json));
  HTAPEX_ASSIGN_OR_RETURN(pair.ap, ReadPlanSurface(ap_plan_json));
  return pair;
}

PairSignature ComputeSignature(const PairSurface& s, EngineKind faster) {
  PairSignature sig;
  sig.faster = faster;
  sig.tp_plain_nlj = s.tp.HasNode(PlanOp::kNestedLoopJoin);
  sig.tp_index_join = s.tp.HasNode(PlanOp::kIndexNestedLoopJoin);
  sig.tp_heavy_loop_join = s.tp.max_loop_join_volume > 300'000;
  sig.tp_small_index_access =
      s.tp.HasNode(PlanOp::kIndexScan) && s.tp.max_plan_rows < 10'000;
  sig.tp_ordered_stream_limit =
      s.tp.ordered_index_scan && s.tp.has_limit && !s.tp.has_sort;
  sig.tp_big_sort = s.tp.has_sort && s.tp.max_plan_rows > 100'000;
  sig.big_offset = std::max(s.tp.offset, s.ap.offset) > 10'000;
  sig.function_predicate =
      s.tp.condition_applies_function || s.ap.condition_applies_function;
  sig.multi_join = s.ap.num_joins >= 2 || s.tp.num_joins >= 2;
  sig.grouped_agg = s.ap.HasNode(PlanOp::kHashAggregate);
  // "Tiny" means both engines touch little data: no big base relation is
  // scanned end to end and no big intermediate result exists.
  sig.tiny_work =
      std::max(s.tp.max_plan_rows, s.ap.max_plan_rows) < 100'000 &&
      std::max(s.tp.max_table_rows, s.ap.max_table_rows) < 30'000'000;
  sig.ap_topn = s.ap.has_topn;
  return sig;
}

double PairSignature::Similarity(const PairSignature& other) const {
  if (faster != other.faster) return 0.0;
  struct Weighted {
    bool a;
    bool b;
    double w;
  };
  const Weighted bits[] = {
      {tp_plain_nlj, other.tp_plain_nlj, 2.0},
      {tp_index_join, other.tp_index_join, 2.0},
      {tp_heavy_loop_join, other.tp_heavy_loop_join, 2.5},
      {tp_small_index_access, other.tp_small_index_access, 1.5},
      {tp_ordered_stream_limit, other.tp_ordered_stream_limit, 2.0},
      {tp_big_sort, other.tp_big_sort, 1.5},
      {big_offset, other.big_offset, 1.5},
      {function_predicate, other.function_predicate, 1.5},
      {multi_join, other.multi_join, 1.0},
      {grouped_agg, other.grouped_agg, 0.5},
      {tiny_work, other.tiny_work, 1.5},
      {ap_topn, other.ap_topn, 1.0},
  };
  double total = 0.0, agree = 0.0;
  for (const Weighted& bit : bits) {
    total += bit.w;
    if (bit.a == bit.b) agree += bit.w;
  }
  return agree / total;
}

}  // namespace htapex
