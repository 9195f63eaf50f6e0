#ifndef HTAPEX_ROUTER_SMART_ROUTER_H_
#define HTAPEX_ROUTER_SMART_ROUTER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/frozen_tree_cnn.h"
#include "nn/tree_cnn.h"
#include "plan/plan_node.h"
#include "router/plan_featurizer.h"

namespace htapex {

/// Training report for the router.
struct RouterTrainStats {
  double final_loss = 0.0;
  double train_accuracy = 0.0;
  double wall_seconds = 0.0;
};

/// One routed plan pair out of SmartRouter::RouteBatch.
struct RoutedPair {
  double p_ap = 0.0;        // probability AP is faster
  EngineKind route = EngineKind::kTp;
  std::vector<double> embedding;  // pair embedding (2E dims)
};

/// ByteHTAP's "smart router": a lightweight tree-CNN classifier that
/// predicts which engine will run a query faster, and whose penultimate
/// layer provides the 16-dim plan-pair embeddings used as knowledge-base
/// keys (Section III of the paper). Model size is ~100 KB, inference is
/// sub-millisecond — matching the paper's "<1 MB, ~1 ms" characterization.
///
/// Training runs on the double-precision master (`TreeCnn`); inference runs
/// on a frozen float32 snapshot (`FrozenTreeCnn`) that is re-frozen after
/// every weight change. The `*Master` variants route/embed through the
/// double master — they exist so tests and bench_kernels can assert the
/// parity contract (identical verdicts and top-K, embeddings within 1e-4).
///
/// Concurrency contract (RCU-style snapshot publication): readers
/// (RouteBatch, ApProbability, Embed*, EvaluateAccuracy) grab the frozen
/// shared_ptr once and run the whole call against that immutable snapshot —
/// an in-flight call never observes torn weights, no matter how many
/// publications race past it. Publication (RefreshFrozen, via
/// Train/Load/CloneWeightsFrom/AdoptMaster) builds the snapshot off to the
/// side — stamped with a monotone version and a CRC32 over its tensors —
/// and swaps the pointer under a mutex whose critical section is just that
/// pointer copy, so the handoff is a provable happens-before edge (a plain
/// atomic<shared_ptr> publication is flagged by TSan: libstdc++'s load()
/// unlocks its spinlock with relaxed ordering). Master-side mutators are
/// NOT thread-safe against each other; the lifecycle manager serializes
/// them.
class SmartRouter {
 public:
  explicit SmartRouter(uint64_t seed = 7);

  /// Builds one training/evaluation example from a plan pair + label.
  PairExample MakeExample(const PlanPair& plans, EngineKind faster) const;

  /// Trains with Adam + minibatches; deterministic for a fixed seed.
  RouterTrainStats Train(const std::vector<PairExample>& dataset, int epochs,
                         int batch_size = 16, double learning_rate = 5e-3);

  /// Probability that AP is the faster engine for this plan pair.
  double ApProbability(const PlanPair& plans) const;
  /// Routing decision.
  EngineKind Route(const PlanPair& plans) const;

  /// Routes + embeds a batch of plan pairs in one frozen forward pass (all
  /// plan nodes of a conv layer go through one GEMM); HtapExplainer::Prepare
  /// passes one pair. Output is index-aligned with `pairs`.
  std::vector<RoutedPair> RouteBatch(
      const std::vector<const PlanPair*>& pairs) const;

  /// The 16-dim plan-pair embedding (concatenated per-plan encodings).
  std::vector<double> Embed(const PlanPair& plans) const;
  /// Embedding from already-featurized trees (e.g. stored examples).
  std::vector<double> EmbedFeatures(const PlanTreeFeatures& tp,
                                    const PlanTreeFeatures& ap) const;
  int embedding_dim() const { return cnn_->pair_embedding_dim(); }

  /// Double-precision master paths — the parity reference for the frozen
  /// float32 inference above.
  double ApProbabilityMaster(const PlanPair& plans) const;
  std::vector<double> EmbedMaster(const PlanPair& plans) const;

  /// Fraction of examples routed correctly.
  double EvaluateAccuracy(const std::vector<PairExample>& dataset) const;

  /// Double-precision master footprint (the Save/Load format).
  size_t model_bytes() const { return cnn_->ByteSize(); }
  /// Float32 serving-snapshot footprint (the paper's < 1 MB budget).
  size_t frozen_model_bytes() const { return frozen_snapshot()->ByteSize(); }
  Status Save(const std::string& path) const { return cnn_->Save(path); }
  Status Load(const std::string& path);

  /// Copies trained master weights from another router and re-freezes the
  /// float32 snapshot. Used by the sharded tier: the
  /// routing explainer trains once, every shard clones — so all shards
  /// embed identically and the consistent-hash key is shard-independent.
  void CloneWeightsFrom(const SmartRouter& other);

  /// The live serving snapshot. Safe to call from any thread; the returned
  /// snapshot stays valid (and immutable) for as long as the caller holds
  /// it, even across concurrent publications.
  std::shared_ptr<const FrozenTreeCnn> frozen_snapshot() const {
    std::lock_guard<std::mutex> lock(frozen_mu_);
    return frozen_;
  }
  /// Monotone publication counter of the live snapshot (1 = the snapshot
  /// frozen at construction).
  uint64_t frozen_version() const { return frozen_snapshot()->version(); }
  /// CRC32 of the live snapshot's float32 tensors (see FrozenTreeCnn::crc).
  uint32_t frozen_crc() const { return frozen_snapshot()->crc(); }

  /// Retains a full copy of the master (weights + optimizer state) for
  /// later restoration — the lifecycle manager's rollback keepsake.
  std::unique_ptr<TreeCnn> CloneMaster() const {
    return std::make_unique<TreeCnn>(*cnn_);
  }
  /// Adopts `master`'s weights (a validated candidate, or a retained
  /// pre-swap copy on rollback) and atomically publishes a fresh frozen
  /// snapshot. Fails on architecture mismatch without touching the serving
  /// model. Restoring a retained master republishes bit-identical tensors:
  /// the new snapshot's CRC equals the retained snapshot's CRC.
  Status AdoptMaster(const TreeCnn& master);

 private:
  /// Atomically publishes a fresh frozen snapshot of the master weights.
  void RefreshFrozen();

  std::unique_ptr<TreeCnn> cnn_;
  mutable std::mutex frozen_mu_;  // guards only the pointer handoff below
  std::shared_ptr<const FrozenTreeCnn> frozen_;
  uint64_t next_frozen_version_ = 0;
  uint64_t seed_;
};

}  // namespace htapex

#endif  // HTAPEX_ROUTER_SMART_ROUTER_H_
