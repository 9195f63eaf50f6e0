#include "plan/plan_node.h"

#include <cmath>
#include <string_view>

#include "common/json.h"
#include "common/string_util.h"

namespace htapex {

const char* EngineName(EngineKind e) {
  return e == EngineKind::kTp ? "TP" : "AP";
}

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kTableScan:
      return "Table Scan";
    case PlanOp::kIndexScan:
      return "Index Scan";
    case PlanOp::kFilter:
      return "Filter";
    case PlanOp::kNestedLoopJoin:
      return "Nested loop inner join";
    case PlanOp::kIndexNestedLoopJoin:
      return "Index nested loop join";
    case PlanOp::kSort:
      return "Sort";
    case PlanOp::kLimit:
      return "Limit";
    case PlanOp::kGroupAggregate:
      return "Group aggregate";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kColumnScan:
      return "Columnar scan";
    case PlanOp::kSiftedScan:
      return "Sifted columnar scan";
    case PlanOp::kHashJoin:
      return "Hash join";
    case PlanOp::kHashAggregate:
      return "Hash aggregate";
    case PlanOp::kTopN:
      return "Top-N";
  }
  return "?";
}

namespace {

/// Appends the member separator and the quoted `key` of a Table II member.
void AppendKey(std::string* out, std::string_view key) {
  *out += ", ";
  AppendJsonString(out, key, '\'');
  *out += ": ";
}

/// Appends `exprs` joined by `sep` as one quoted string.
template <typename Exprs, typename ToText>
void AppendJoined(std::string* out, const Exprs& exprs, std::string_view sep,
                  ToText to_text) {
  std::string text;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) text += sep;
    text += to_text(exprs[i]);
  }
  AppendJsonString(out, text, '\'');
}

/// Writes one node and its subtree. Members appear in a fixed order and
/// only when set.
void ExplainNode(const PlanNode& node, std::string* out) {
  constexpr char kQuote = '\'';
  *out += "{'Node Type': ";
  AppendJsonString(out, PlanOpName(node.op), kQuote);
  // Costs render with one decimal at most three significant digits like the
  // paper's examples (5213.0, 2.75, 290.0).
  AppendKey(out, "Total Cost");
  AppendJsonNumber(out, std::round(node.total_cost * 100.0) / 100.0);
  AppendKey(out, "Plan Rows");
  const double rows = node.estimated_rows < 1.0 ? 1.0 : node.estimated_rows;
  AppendJsonInt(out, static_cast<int64_t>(std::llround(rows)));
  if (!node.relation.empty()) {
    AppendKey(out, "Relation Name");
    AppendJsonString(out, node.relation, kQuote);
    if (node.base_rows > 0) {
      AppendKey(out, "Table Rows");
      AppendJsonInt(out, static_cast<int64_t>(node.base_rows));
    }
  }
  if (!node.index_name.empty()) {
    AppendKey(out, "Index Name");
    AppendJsonString(out, node.index_name, kQuote);
    AppendKey(out, "Index Column");
    AppendJsonString(out, node.index_column, kQuote);
  }
  if (!node.columns_read.empty()) {
    AppendKey(out, "Columns");
    out->push_back('[');
    for (size_t i = 0; i < node.columns_read.size(); ++i) {
      if (i > 0) *out += ", ";
      AppendJsonString(out, node.columns_read[i], kQuote);
    }
    out->push_back(']');
  }
  const auto expr_text = [](const std::unique_ptr<Expr>& e) {
    return e->ToString();
  };
  if (!node.predicates.empty()) {
    AppendKey(out, "Condition");
    AppendJoined(out, node.predicates, " AND ", expr_text);
  }
  if (node.left_key != nullptr && node.right_key != nullptr) {
    AppendKey(out, "Join Cond");
    AppendJsonString(
        out, node.left_key->ToString() + " = " + node.right_key->ToString(),
        kQuote);
  }
  if (node.sift_id >= 0) {
    AppendKey(out, "Sift Id");
    AppendJsonInt(out, node.sift_id);
  }
  if (!node.sift_probes.empty()) {
    AppendKey(out, "Sift Key");
    AppendJoined(out, node.sift_probes, ", ",
                 [](const SiftProbe& p) { return p.key->ToString(); });
  }
  if (!node.sort_keys.empty()) {
    AppendKey(out, "Sort Key");
    AppendJoined(out, node.sort_keys, ", ", [](const SortKey& k) {
      return k.descending ? k.expr->ToString() + " DESC" : k.expr->ToString();
    });
  }
  if (node.limit >= 0) {
    AppendKey(out, "Limit");
    AppendJsonInt(out, node.limit);
  }
  if (node.offset > 0) {
    AppendKey(out, "Offset");
    AppendJsonInt(out, node.offset);
  }
  if (!node.group_keys.empty()) {
    AppendKey(out, "Group Key");
    AppendJoined(out, node.group_keys, ", ", expr_text);
  }
  if (!node.children.empty()) {
    AppendKey(out, "Plans");
    out->push_back('[');
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) *out += ", ";
      ExplainNode(*node.children[i], out);
    }
    out->push_back(']');
  }
  out->push_back('}');
}

}  // namespace

std::string PhysicalPlan::Explain() const {
  std::string out;
  out.reserve(1024);
  ExplainNode(*root, &out);
  return out;
}

std::string PlanNode::ToTreeString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += PlanOpName(op);
  if (!relation.empty()) out += " on " + relation;
  if (!index_name.empty()) out += " using " + index_name;
  out += StrFormat(" (cost=%.2f rows=%.0f)", total_cost, estimated_rows);
  out += "\n";
  for (const auto& c : children) out += c->ToTreeString(indent + 1);
  return out;
}

int PlanNode::TreeSize() const {
  int n = 1;
  for (const auto& c : children) n += c->TreeSize();
  return n;
}

}  // namespace htapex
