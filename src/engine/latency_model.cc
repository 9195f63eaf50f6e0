#include "engine/latency_model.h"

#include <algorithm>

#include "plan/planner_util.h"

namespace htapex {

namespace {

/// Walks a plan tree bottom-up, charging each operator an analytic latency
/// from its (base/estimated) cardinalities and the engine's LatencyParams.
/// Scans carry their base-relation cardinality in PlanNode::base_rows;
/// nested-loop joins charge their inner side once per outer row.
class LatencyWalker {
 public:
  LatencyWalker(EngineKind engine, const LatencyParams& p,
                std::vector<NodeLatency>* breakdown)
      : engine_(engine), p_(p), breakdown_(breakdown) {}

  /// Returns inclusive latency in microseconds.
  double Walk(const PlanNode& node) {
    size_t slot = 0;
    if (breakdown_ != nullptr) {
      slot = breakdown_->size();
      breakdown_->push_back(NodeLatency{&node, 0, 0});
    }
    double child_us = 0.0;
    double self_us = 0.0;

    switch (node.op) {
      case PlanOp::kTableScan: {
        self_us = node.base_rows * p_.tp_seq_row_us;
        break;
      }
      case PlanOp::kColumnScan:
      case PlanOp::kSiftedScan: {
        // Pushed predicates reduce output, but the scan still reads every
        // value of each referenced column (zone maps prune some segments;
        // modelled as a modest discount for selective predicates).
        double values = node.base_rows * static_cast<double>(
                                   std::max<size_t>(node.columns_read.size(), 1));
        double prune = node.predicates.empty() ? 1.0 : 0.9;
        self_us = values * p_.ap_value_us * prune / p_.ap_parallelism;
        // A sifted scan additionally tests every base row against each
        // Bloom filter transferred onto it.
        if (!node.sift_probes.empty()) {
          self_us += node.base_rows * p_.ap_bloom_probe_row_us *
                     static_cast<double>(node.sift_probes.size()) /
                     p_.ap_parallelism;
        }
        break;
      }
      case PlanOp::kIndexScan: {
        // Standalone probe: descend + fetch matches. (As the inner of an
        // index NLJ this is charged per outer row by the join case.)
        double levels = 3.0 + Log2(node.base_rows) / 4.0;
        self_us = levels * p_.tp_index_level_us +
                  node.estimated_rows * p_.tp_index_fetch_us;
        break;
      }
      case PlanOp::kFilter: {
        child_us = Walk(*node.children[0]);
        self_us = node.children[0]->estimated_rows * p_.tp_filter_row_us;
        break;
      }
      case PlanOp::kNestedLoopJoin: {
        child_us = Walk(*node.children[0]);
        double outer_rows = node.children[0]->estimated_rows;
        // The inner side is rescanned once per outer row.
        double inner_once = Walk(*node.children[1]);
        self_us = outer_rows * inner_once +
                  node.estimated_rows * p_.tp_output_row_us;
        break;
      }
      case PlanOp::kIndexNestedLoopJoin: {
        child_us = Walk(*node.children[0]);
        double outer_rows = node.children[0]->estimated_rows;
        // Probe cost per outer row: B+-tree descent + per-match fetch +
        // residual filtering.
        const PlanNode* inner = node.children[1].get();
        const PlanNode* filter = nullptr;
        if (inner->op == PlanOp::kFilter) {
          filter = inner;
          inner = inner->children[0].get();
        }
        double per_probe_matches = inner->estimated_rows;
        double levels = 3.0 + Log2(inner->base_rows) / 4.0;
        double probe_us = levels * p_.tp_index_level_us +
                          per_probe_matches * p_.tp_index_fetch_us;
        if (filter != nullptr) {
          probe_us += per_probe_matches * p_.tp_filter_row_us;
        }
        self_us = outer_rows * probe_us +
                  node.estimated_rows * p_.tp_output_row_us;
        // Record inner-side nodes in the breakdown without charging them.
        if (breakdown_ != nullptr) Walk(*node.children[1]);
        break;
      }
      case PlanOp::kHashJoin: {
        child_us = Walk(*node.children[0]) + Walk(*node.children[1]);
        double probe_rows = node.children[0]->estimated_rows;
        double build_rows = node.children[1]->estimated_rows;
        if (engine_ == EngineKind::kAp) {
          self_us = (build_rows * p_.ap_hash_build_row_us +
                     probe_rows * p_.ap_hash_probe_row_us +
                     node.estimated_rows * p_.ap_output_row_us) /
                    p_.ap_parallelism;
          // A sift-producing join also populates a Bloom filter while
          // building its hash table.
          if (node.sift_id >= 0) {
            self_us += build_rows * p_.ap_bloom_build_row_us /
                       p_.ap_parallelism;
          }
        } else {
          // Counterfactual TP hash join: single node, row-at-a-time tuples.
          self_us = build_rows * p_.tp_hash_build_row_us +
                    probe_rows * p_.tp_hash_probe_row_us +
                    node.estimated_rows * p_.tp_output_row_us;
        }
        break;
      }
      case PlanOp::kGroupAggregate: {
        child_us = Walk(*node.children[0]);
        self_us = node.children[0]->estimated_rows * p_.tp_agg_row_us;
        break;
      }
      case PlanOp::kHashAggregate: {
        child_us = Walk(*node.children[0]);
        self_us = node.children[0]->estimated_rows * p_.ap_agg_row_us /
                  p_.ap_parallelism;
        break;
      }
      case PlanOp::kSort: {
        child_us = Walk(*node.children[0]);
        double n = node.children[0]->estimated_rows;
        double per_row =
            engine_ == EngineKind::kTp ? p_.tp_sort_row_us : p_.ap_sort_row_us;
        self_us = n * Log2(n) * per_row;
        if (engine_ == EngineKind::kAp) self_us /= p_.ap_parallelism;
        break;
      }
      case PlanOp::kTopN: {
        child_us = Walk(*node.children[0]);
        double n = node.children[0]->estimated_rows;
        double k = static_cast<double>(std::max<int64_t>(node.limit, 1) +
                                       std::max<int64_t>(node.offset, 0));
        self_us = n * Log2(k) * p_.ap_topn_row_us / p_.ap_parallelism;
        break;
      }
      case PlanOp::kLimit: {
        child_us = Walk(*node.children[0]);
        // LIMIT over an ordered pipeline stops early: the child subtree's
        // cost scales by the fraction of rows actually consumed when the
        // child delivers rows in a streaming fashion (index-ordered scans).
        if (IsStreamingPipeline(*node.children[0])) {
          double child_rows = node.children[0]->estimated_rows;
          double need = static_cast<double>(
              std::max<int64_t>(node.limit, 1) +
              std::max<int64_t>(node.offset, 0));
          double frac = std::min(1.0, need / std::max(child_rows, 1.0));
          // Early termination: only `frac` of the child work happens, plus
          // a fixed initial B+-tree descent.
          child_us = child_us * frac + 12.0 * p_.tp_index_level_us;
        }
        self_us = 0.0;
        break;
      }
      case PlanOp::kProject: {
        child_us = Walk(*node.children[0]);
        double per_row = engine_ == EngineKind::kTp ? p_.tp_output_row_us
                                                    : p_.ap_output_row_us;
        self_us = node.children[0]->estimated_rows * per_row;
        break;
      }
      case PlanOp::kExchange: {
        child_us = Walk(*node.children[0]);
        self_us = 0.0;
        break;
      }
    }

    double total = child_us + self_us;
    if (breakdown_ != nullptr) {
      (*breakdown_)[slot].millis = total / 1000.0;
      (*breakdown_)[slot].self_millis = self_us / 1000.0;
    }
    return total;
  }

 private:
  /// True when the subtree delivers rows incrementally in its output order
  /// (index-ordered scan optionally wrapped in filters), so a LIMIT above
  /// it can stop early. Sorts, aggregates, and joins break the stream.
  static bool IsStreamingPipeline(const PlanNode& node) {
    if (node.op == PlanOp::kIndexScan) return !node.sort_keys.empty();
    if (node.op == PlanOp::kFilter) {
      return IsStreamingPipeline(*node.children[0]);
    }
    return false;
  }

  EngineKind engine_;
  const LatencyParams& p_;
  std::vector<NodeLatency>* breakdown_;
};

}  // namespace

double EstimateLatencyMs(const PhysicalPlan& plan, const LatencyParams& params,
                         std::vector<NodeLatency>* breakdown) {
  LatencyWalker walker(plan.engine, params, breakdown);
  double us = walker.Walk(*plan.root);
  double startup =
      plan.engine == EngineKind::kTp ? params.tp_startup_ms : params.ap_startup_ms;
  return us / 1000.0 + startup;
}

}  // namespace htapex
