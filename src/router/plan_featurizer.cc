#include "router/plan_featurizer.h"

#include <cmath>

namespace htapex {

namespace {

constexpr int kNumOps = 14;  // PlanOp enum cardinality
static_assert(kNumOps == static_cast<int>(PlanOp::kTopN) + 1,
              "the operator one-hot covers every PlanOp");

/// Feature layout per node:
///   [0..13]  operator one-hot
///   [14]     log10(1 + estimated_rows) / 9   (normalized cardinality)
///   [15]     log10(1 + base_rows) / 9        (scan input size)
///   [16]     uses an index (index_name set)
///   [17]     min(#predicates, 4) / 4
///   [18]     min(#columns_read, 16) / 16     (columnar scan width)
///   [19]     has LIMIT, with log-scaled magnitude folded in
///   [20]     has sort keys (ordered delivery)
struct FeatureWriter {
  PlanTreeFeatures* out;

  void Visit(const PlanNode& node, int parent_child_slot[2]) {
    (void)parent_child_slot;
    int idx = out->num_nodes++;
    out->x.resize(static_cast<size_t>(out->num_nodes * kPlanFeatureDim), 0.0);
    out->left.push_back(-1);
    out->right.push_back(-1);
    double* f = &out->x[static_cast<size_t>(idx * kPlanFeatureDim)];
    int op = static_cast<int>(node.op);
    if (op >= 0 && op < kNumOps) f[op] = 1.0;
    f[14] = std::log10(1.0 + std::max(node.estimated_rows, 0.0)) / 9.0;
    f[15] = std::log10(1.0 + std::max(node.base_rows, 0.0)) / 9.0;
    f[16] = node.index_name.empty() ? 0.0 : 1.0;
    f[17] = std::min<double>(static_cast<double>(node.predicates.size()), 4.0) / 4.0;
    f[18] = std::min<double>(static_cast<double>(node.columns_read.size()), 16.0) / 16.0;
    f[19] = node.limit >= 0
                ? (1.0 + std::log10(1.0 + static_cast<double>(node.limit) +
                                    static_cast<double>(node.offset))) /
                      9.0
                : 0.0;
    f[20] = node.sort_keys.empty() ? 0.0 : 1.0;

    // Binarize: first child -> left, second -> right; deeper fan-out (which
    // our operators never produce) would chain on the right.
    int child_slots[2] = {-1, -1};
    for (size_t c = 0; c < node.children.size() && c < 2; ++c) {
      int child_idx = out->num_nodes;  // next visit index (pre-order)
      Visit(*node.children[c], child_slots);
      if (c == 0) {
        out->left[static_cast<size_t>(idx)] = child_idx;
      } else {
        out->right[static_cast<size_t>(idx)] = child_idx;
      }
    }
  }
};

}  // namespace

PlanTreeFeatures FeaturizePlan(const PhysicalPlan& plan) {
  static_assert(kPlanFeatureDim == kNumOps + 7, "feature layout out of sync");
  PlanTreeFeatures out;
  out.feature_dim = kPlanFeatureDim;
  FeatureWriter writer{&out};
  int dummy[2] = {-1, -1};
  writer.Visit(*plan.root, dummy);
  return out;
}

}  // namespace htapex
