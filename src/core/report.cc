#include "core/report.h"

#include <map>

#include "common/string_util.h"
#include "engine/latency_model.h"

namespace htapex {

namespace {

/// Tree rendering with the latency model's per-node self-time annotation.
void RenderAnnotatedPlan(const HtapExplainer& explainer,
                         const PhysicalPlan& plan, std::string* out) {
  std::vector<NodeLatency> breakdown;
  explainer.system().LatencyMs(plan, &breakdown);
  // Map node -> self latency for annotation during the tree walk.
  std::map<const PlanNode*, double> self_ms;
  for (const NodeLatency& nl : breakdown) self_ms[nl.node] = nl.self_millis;
  auto walk = [&](const PlanNode& node, int depth, auto&& recurse) -> void {
    out->append(static_cast<size_t>(depth) * 2, ' ');
    *out += PlanOpName(node.op);
    if (!node.relation.empty()) *out += " on " + node.relation;
    if (!node.index_name.empty()) *out += " using " + node.index_name;
    *out += StrFormat("  (rows=%.0f", node.estimated_rows);
    auto it = self_ms.find(&node);
    if (it != self_ms.end() && it->second >= 0.005) {
      *out += ", self=" + FormatMillis(it->second);
    }
    *out += ")\n";
    for (const auto& c : node.children) recurse(*c, depth + 1, recurse);
  };
  walk(*plan.root, 0, walk);
}

}  // namespace

std::string RenderExplainReport(const HtapExplainer& explainer,
                                const ExplainResult& result) {
  std::string md;
  md += "# Query performance explanation\n\n";
  md += "```sql\n" + result.outcome.sql + "\n```\n\n";
  md += StrFormat(
      "**Result:** %s is faster — TP %s vs AP %s (%.1fx), modelled at the "
      "%.0f GB statistics scale.\n\n",
      EngineName(result.outcome.faster),
      FormatMillis(result.outcome.tp_latency_ms).c_str(),
      FormatMillis(result.outcome.ap_latency_ms).c_str(),
      result.outcome.speedup(),
      explainer.system().config().stats_scale_factor);

  md += "## Explanation\n\n" + result.generation.text + "\n\n";

  md += "## TP plan (per-node modelled self time)\n\n```\n";
  RenderAnnotatedPlan(explainer, result.outcome.plans.tp, &md);
  md += "```\n\n## AP plan\n\n```\n";
  RenderAnnotatedPlan(explainer, result.outcome.plans.ap, &md);
  md += "```\n\n";

  md += StrFormat("## Retrieved knowledge (top %zu by plan-pair embedding)\n\n",
                  result.retrieval.items.size());
  if (result.retrieval.items.empty()) {
    md += "_none (RAG disabled or empty knowledge base)_\n\n";
  }
  for (size_t i = 0; i < result.retrieval.items.size(); ++i) {
    const KnowledgeItem& k = result.retrieval.items[i];
    md += StrFormat("%zu. `%s` — %s faster. Expert: %s\n", i + 1,
                    k.sql.c_str(), EngineName(k.faster),
                    k.expert_explanation.c_str());
  }
  md += "\n";

  md += "## Response-time components\n\n";
  md += StrFormat("| component | time |\n|---|---|\n");
  md += StrFormat("| router encoding (measured) | %s |\n",
                  FormatMillis(result.router_encode_ms).c_str());
  md += StrFormat("| knowledge-base search (measured) | %s |\n",
                  FormatMillis(result.retrieval.search_ms).c_str());
  md += StrFormat("| LLM thinking (simulated) | %s |\n",
                  FormatMillis(result.generation.timing.thinking_ms).c_str());
  md += StrFormat("| LLM generation (simulated) | %s |\n",
                  FormatMillis(result.generation.timing.generation_ms).c_str());
  md += StrFormat("| end to end | %s |\n",
                  FormatMillis(result.end_to_end_ms()).c_str());
  return md;
}

}  // namespace htapex
