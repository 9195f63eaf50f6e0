#include "plan/pt_graph.h"

#include <algorithm>
#include <cmath>

namespace htapex {

namespace {

/// SplitMix64 finalizer: derives the second hash stream for double hashing
/// from the key hash without touching Value::Hash itself.
uint64_t Remix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

BloomFilter::BloomFilter(size_t expected_keys) {
  double bits = std::max(
      64.0, static_cast<double>(expected_keys) * kSiftBitsPerKey);
  num_bits_ = static_cast<size_t>(bits);
  words_.assign((num_bits_ + 63) / 64, 0);
  num_hashes_ = static_cast<int>(std::lround(0.6931 * kSiftBitsPerKey));
}

void BloomFilter::Insert(uint64_t hash) {
  uint64_t h1 = hash;
  uint64_t h2 = Remix(hash) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
    words_[bit >> 6] |= 1ull << (bit & 63);
  }
}

bool BloomFilter::MayContain(uint64_t hash) const {
  uint64_t h1 = hash;
  uint64_t h2 = Remix(hash) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
    if ((words_[bit >> 6] & (1ull << (bit & 63))) == 0) return false;
  }
  return true;
}

double BloomFilter::ExpectedFpRate() {
  double k = std::round(0.6931 * kSiftBitsPerKey);
  return std::pow(1.0 - std::exp(-k / kSiftBitsPerKey), k);
}

namespace {

// Joins whose build side exceeds this many (estimated) rows do not sift:
// the filter itself would rival the hash table.
constexpr double kSiftMaxBuildRows = 500000.0;
// Only sift when the modeled surviving fraction (matches + false
// positives) is at most this.
constexpr double kSiftMaxSelectivity = 0.5;
// Scans estimated below this many rows are not worth sifting.
constexpr double kSiftMinScanRows = 1000.0;

/// Sifts the probe spine rooted at `top` (a kHashJoin): collects the
/// children[0] chain down to a scan, then, bottom-up, attaches a SiftProbe
/// for every spine join whose probe key is a column of the scan's table and
/// whose transfer is modeled profitable. `next_id` numbers producers
/// uniquely across the whole plan.
int SiftSpine(const BoundQuery& query, const CardinalityEstimator& est,
              PlanNode* top, int* next_id) {
  std::vector<PlanNode*> spine;  // top-down
  PlanNode* node = top;
  while (node->op == PlanOp::kHashJoin) {
    spine.push_back(node);
    node = node->children[0].get();
  }
  if (node->op != PlanOp::kColumnScan && node->op != PlanOp::kSiftedScan) {
    return 0;
  }
  PlanNode* scan = node;

  int applied = 0;
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    PlanNode* join = *it;
    if (join->left_key == nullptr || join->right_key == nullptr) continue;
    if (join->left_key->kind != ExprKind::kColumnRef ||
        join->left_key->bound_table != scan->table_idx) {
      continue;
    }
    if (scan->estimated_rows < kSiftMinScanRows) continue;
    const PlanNode& build = *join->children[1];
    if (build.estimated_rows > kSiftMaxBuildRows) continue;

    double build_keys =
        std::min(build.estimated_rows, est.ColumnNdv(query, *join->right_key));
    double probe_ndv = std::max(est.ColumnNdv(query, *join->left_key), 1.0);
    double match_sel = std::min(1.0, build_keys / probe_ndv);
    double fp = BloomFilter::ExpectedFpRate();
    double eff_sel = std::min(1.0, match_sel + (1.0 - match_sel) * fp);
    if (eff_sel > kSiftMaxSelectivity) continue;

    SiftProbe probe;
    probe.sift_id = (*next_id)++;
    probe.key = join->left_key->Clone();
    probe.expected_selectivity = eff_sel;
    scan->op = PlanOp::kSiftedScan;
    scan->sift_probes.push_back(std::move(probe));
    join->sift_id = scan->sift_probes.back().sift_id;

    // The sift removes rows that could never match this join, so the scan
    // and every spine join strictly below the producer shrink; the
    // producer's own output (and everything above) is unchanged. The
    // joins below are the ones this bottom-up walk has already passed.
    scan->estimated_rows = std::max(scan->estimated_rows * eff_sel, 1.0);
    for (auto below = spine.rbegin(); below != it; ++below) {
      (*below)->estimated_rows =
          std::max((*below)->estimated_rows * eff_sel, 1.0);
    }
    ++applied;
  }
  return applied;
}

int Walk(const BoundQuery& query, const CardinalityEstimator& est,
         PlanNode* node, int* next_id) {
  if (node->op == PlanOp::kHashJoin) {
    int applied = SiftSpine(query, est, node, next_id);
    // The spine's probe chain is fully handled above; build subtrees sift
    // their own spines independently.
    PlanNode* spine_node = node;
    while (spine_node->op == PlanOp::kHashJoin) {
      applied += Walk(query, est, spine_node->children[1].get(), next_id);
      spine_node = spine_node->children[0].get();
    }
    return applied;
  }
  int applied = 0;
  for (auto& c : node->children) {
    applied += Walk(query, est, c.get(), next_id);
  }
  return applied;
}

}  // namespace

int ApplyPredicateTransfer(const BoundQuery& query,
                           const CardinalityEstimator& est, PlanNode* root) {
  int next_id = 0;
  return Walk(query, est, root, &next_id);
}

}  // namespace htapex
