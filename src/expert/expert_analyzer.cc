#include "expert/expert_analyzer.h"

#include <algorithm>

#include "engine/latency_model.h"

namespace htapex {

namespace {

bool HasOp(const PlanNode& node, PlanOp op) {
  if (node.op == op) return true;
  for (const auto& c : node.children) {
    if (HasOp(*c, op)) return true;
  }
  return false;
}

const PlanNode* FindOp(const PlanNode& node, PlanOp op) {
  if (node.op == op) return &node;
  for (const auto& c : node.children) {
    const PlanNode* found = FindOp(*c, op);
    if (found != nullptr) return found;
  }
  return nullptr;
}

/// Node with the largest self-latency contribution.
const PlanNode* DominantNode(const std::vector<NodeLatency>& breakdown) {
  const PlanNode* best = nullptr;
  double best_ms = -1.0;
  for (const NodeLatency& nl : breakdown) {
    if (nl.self_millis > best_ms) {
      best_ms = nl.self_millis;
      best = nl.node;
    }
  }
  return best;
}

int64_t PlanOffset(const PlanNode& node) {
  if (node.offset > 0) return node.offset;
  for (const auto& c : node.children) {
    int64_t o = PlanOffset(*c);
    if (o > 0) return o;
  }
  return 0;
}

void AddUnique(std::vector<PerfFactor>* v, PerfFactor f) {
  if (std::find(v->begin(), v->end(), f) == v->end()) v->push_back(f);
}

/// Largest estimated hash-join output anywhere in the tree.
double MaxHashJoinRows(const PlanNode& node) {
  double m = node.op == PlanOp::kHashJoin ? node.estimated_rows : 0.0;
  for (const auto& c : node.children) m = std::max(m, MaxHashJoinRows(*c));
  return m;
}

/// A hash join whose build side is small enough that a Bloom-filter sift
/// of the probe side would have been cheap to produce.
bool HasSmallBuildHashJoin(const PlanNode& node) {
  if (node.op == PlanOp::kHashJoin && node.sift_id < 0 &&
      node.left_key != nullptr &&
      node.children[1]->estimated_rows < 500'000 &&
      node.children[0]->estimated_rows > 100'000) {
    return true;
  }
  for (const auto& c : node.children) {
    if (HasSmallBuildHashJoin(*c)) return true;
  }
  return false;
}

}  // namespace

ExpertAnalysis ExpertAnalyzer::Analyze(const HtapQueryOutcome& outcome,
                                       const BoundQuery& query) const {
  ExpertAnalysis analysis;
  analysis.faster = outcome.faster;

  std::vector<NodeLatency> tp_breakdown, ap_breakdown;
  EstimateLatencyMs(outcome.plans.tp, latency_, &tp_breakdown);
  EstimateLatencyMs(outcome.plans.ap, latency_, &ap_breakdown);
  const PlanNode* tp_root = outcome.plans.tp.root.get();
  const PlanNode* ap_root = outcome.plans.ap.root.get();
  const PlanNode* tp_hot = DominantNode(tp_breakdown);

  // Does any predicate wrap an indexed column in a function? (Example 1's
  // substring(c_phone,...) with an index on c_phone.)
  bool function_defeated_index = false;
  for (const ConjunctInfo& c : query.conjuncts) {
    if (!c.function_over_column) continue;
    std::vector<const Expr*> refs;
    c.expr->CollectColumnRefs(&refs);
    for (const Expr* r : refs) {
      const BoundTable& bt = query.table(r->bound_table);
      if (catalog_.FindIndexOnColumn(bt.ref.table, r->column_name) != nullptr) {
        function_defeated_index = true;
      }
    }
  }

  if (outcome.faster == EngineKind::kAp) {
    // The primary factor is whatever burns TP's time: dispatch on the node
    // with the largest self-latency contribution.
    PlanOp hot_op = tp_hot != nullptr ? tp_hot->op : PlanOp::kTableScan;
    switch (hot_op) {
      case PlanOp::kNestedLoopJoin:
        analysis.primary = PerfFactor::kNoIndexNestedLoop;
        break;
      case PlanOp::kIndexNestedLoopJoin:
        analysis.primary = PerfFactor::kIndexProbeJoinLargeOuter;
        break;
      case PlanOp::kSort:
        analysis.primary = HasOp(*ap_root, PlanOp::kTopN)
                               ? PerfFactor::kFullSortVsTopN
                               : PerfFactor::kColumnarScanWidth;
        break;
      case PlanOp::kGroupAggregate:
        analysis.primary = PerfFactor::kHashAggLargeInput;
        break;
      default:
        // Scans / filters dominate: either a pagination problem or the
        // plain row-store vs column-store scan asymmetry.
        analysis.primary = PlanOffset(*tp_root) > 10'000
                               ? PerfFactor::kLargeOffsetScan
                               : PerfFactor::kColumnarScanWidth;
    }
    if ((analysis.primary == PerfFactor::kNoIndexNestedLoop ||
         analysis.primary == PerfFactor::kIndexProbeJoinLargeOuter) &&
        HasOp(*ap_root, PlanOp::kHashJoin)) {
      AddUnique(&analysis.secondary, PerfFactor::kHashJoinAdvantage);
    }
    // Columnar-width advantage is a common secondary when AP scans narrow
    // projections of large tables.
    if (analysis.primary != PerfFactor::kColumnarScanWidth) {
      const PlanNode* scan = FindOp(*ap_root, PlanOp::kColumnScan);
      if (scan != nullptr && scan->base_rows > 100'000 &&
          scan->columns_read.size() <= 4) {
        AddUnique(&analysis.secondary, PerfFactor::kColumnarScanWidth);
      }
    }
    if (analysis.primary != PerfFactor::kHashAggLargeInput) {
      const PlanNode* agg = FindOp(*ap_root, PlanOp::kHashAggregate);
      if (agg != nullptr && agg->children[0]->estimated_rows > 1'000'000) {
        AddUnique(&analysis.secondary, PerfFactor::kHashAggLargeInput);
      }
    }
    if (function_defeated_index) {
      AddUnique(&analysis.secondary, PerfFactor::kFunctionDefeatsIndex);
    }
  } else {
    // TP faster.
    const PlanNode* ordered_scan = FindOp(*tp_root, PlanOp::kIndexScan);
    bool streaming_topn = ordered_scan != nullptr &&
                          !ordered_scan->sort_keys.empty() &&
                          HasOp(*tp_root, PlanOp::kLimit);
    bool small_index_access =
        ordered_scan != nullptr && ordered_scan->estimated_rows < 1'000;
    if (streaming_topn) {
      analysis.primary = PerfFactor::kTopNIndexOrderStreaming;
    } else if (small_index_access) {
      analysis.primary = PerfFactor::kIndexPointLookup;
    } else {
      analysis.primary = PerfFactor::kApStartupOverhead;
    }
    if (analysis.primary != PerfFactor::kApStartupOverhead &&
        outcome.ap_latency_ms < 4.0 * latency_.ap_startup_ms) {
      AddUnique(&analysis.secondary, PerfFactor::kApStartupOverhead);
    }
    // AP lost: cite plan-quality defects on the AP side that a cost-based
    // join order and predicate transfer would normally prevent.
    double worst_join = MaxHashJoinRows(*ap_root);
    if (worst_join > 100'000.0 &&
        worst_join > 10.0 * std::max(ap_root->estimated_rows, 1.0)) {
      AddUnique(&analysis.secondary, PerfFactor::kBadJoinOrder);
    }
    if (!HasOp(*ap_root, PlanOp::kSiftedScan) &&
        HasSmallBuildHashJoin(*ap_root)) {
      AddUnique(&analysis.secondary, PerfFactor::kMissingSift);
    }
  }

  analysis.explanation = RenderExpertExplanation(analysis);
  return analysis;
}

std::string RenderExpertExplanation(const ExpertAnalysis& analysis) {
  const char* winner = EngineName(analysis.faster);
  const char* loser =
      analysis.faster == EngineKind::kAp ? "TP" : "AP";
  std::string text;
  switch (analysis.primary) {
    case PerfFactor::kNoIndexNestedLoop:
    case PerfFactor::kIndexProbeJoinLargeOuter:
    case PerfFactor::kFullSortVsTopN:
    case PerfFactor::kLargeOffsetScan:
      text = std::string(winner) + " is faster than " + loser + " because " +
             loser + " has to use " + PerfFactorPhrase(analysis.primary) + ".";
      break;
    case PerfFactor::kHashJoinAdvantage:
    case PerfFactor::kColumnarScanWidth:
    case PerfFactor::kHashAggLargeInput:
    case PerfFactor::kIndexPointLookup:
    case PerfFactor::kTopNIndexOrderStreaming:
      text = std::string(winner) + " is faster because its " +
             PerfFactorPhrase(analysis.primary) + ".";
      break;
    case PerfFactor::kApStartupOverhead:
      text = std::string(winner) + " is faster because on the " + loser +
             " side " + PerfFactorPhrase(analysis.primary) + ".";
      break;
    case PerfFactor::kFunctionDefeatsIndex:
      text = std::string(winner) + " is faster: " +
             PerfFactorPhrase(analysis.primary) + ".";
      break;
    case PerfFactor::kBadJoinOrder:
    case PerfFactor::kMissingSift:
      text = std::string(winner) + " is faster because on the " + loser +
             " side " + PerfFactorPhrase(analysis.primary) + ".";
      break;
  }
  for (PerfFactor f : analysis.secondary) {
    text += " In addition, ";
    text += PerfFactorPhrase(f);
    text += ".";
  }
  return text;
}

}  // namespace htapex
