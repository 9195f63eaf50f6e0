#ifndef HTAPEX_PLAN_PT_GRAPH_H_
#define HTAPEX_PLAN_PT_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "plan/cardinality.h"
#include "plan/plan_node.h"
#include "sql/binder.h"

namespace htapex {

/// Predicate transfer ("sifting"), after wing's
/// src/plan/predicate_transfer/pt_graph.*: the build side of a hash join
/// already materializes every join-key value, so it can hand a Bloom filter
/// of those key hashes down to the probe-side base-table scan. Rows whose
/// key is definitely absent can never find a join partner and are dropped
/// at the scan — a semi-join reduction that shrinks every operator between
/// the scan and the join. Bloom false positives survive the sift but are
/// removed by the join itself, so query results are byte-identical with and
/// without sifting.
///
/// This implementation restricts transfers to the probe spine: a join may
/// sift only the bottom-most scan of its own probe (children[0]) chain, and
/// only when its probe key is a bare column of that scan's table. That keeps
/// execution trivially well-ordered in both executors — every Bloom producer
/// is an ancestor of its consumer, so all filters exist before the scan
/// runs — and still covers the common star shapes where every join keys on
/// the fact table. Bushy plans are handled by recursing into build subtrees,
/// each of which sifts its own spine independently.

/// Bloom bits per build-side key: k = 7 hash probes and ~0.8% false
/// positives, far below the rate at which a sift stops paying for itself.
inline constexpr double kSiftBitsPerKey = 10.0;

/// Blocked split Bloom filter with double hashing. Deterministic: identical
/// key-hash insertion sequences produce identical filters, which the
/// row-vs-vectorized parity contract relies on.
class BloomFilter {
 public:
  /// Sizes the filter for `expected_keys` insertions at kSiftBitsPerKey
  /// bits each; the number of hash probes k is the standard
  /// ln(2)*kSiftBitsPerKey.
  explicit BloomFilter(size_t expected_keys);

  void Insert(uint64_t hash);
  bool MayContain(uint64_t hash) const;

  /// Modeled false-positive rate (1 - e^{-k/bpk})^k of a filter sized for
  /// its key count at bpk = kSiftBitsPerKey.
  static double ExpectedFpRate();

  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }

 private:
  std::vector<uint64_t> words_;
  size_t num_bits_ = 0;
  int num_hashes_ = 1;
};

/// Walks the plan tree and applies profitable Bloom-filter transfers:
/// probe-spine scans become kSiftedScan with one SiftProbe per producing
/// join (bottom-up spine order), producers get matching sift_id tags, and
/// estimated_rows of every node strictly below a producer is scaled by the
/// transfer selectivity. Costs are NOT recomputed here — the optimizer that
/// owns the cost formulas re-costs the tree afterwards. Returns the number
/// of transfers applied.
int ApplyPredicateTransfer(const BoundQuery& query,
                           const CardinalityEstimator& est, PlanNode* root);

}  // namespace htapex

#endif  // HTAPEX_PLAN_PT_GRAPH_H_
