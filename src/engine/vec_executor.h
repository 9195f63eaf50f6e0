#ifndef HTAPEX_ENGINE_VEC_EXECUTOR_H_
#define HTAPEX_ENGINE_VEC_EXECUTOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/kernels.h"
#include "common/result.h"
#include "engine/agg_state.h"
#include "engine/join_table.h"
#include "engine/morsel.h"
#include "engine/operators.h"
#include "plan/plan_node.h"
#include "storage/column_store.h"

namespace htapex {

/// Vectorized, morsel-driven executor for AP (columnar) plans.
///
/// Scan→hash-join pipelines run morsel-parallel: workers claim
/// segment-aligned row ranges from a shared dispatcher, evaluate scan
/// predicates as column-at-a-time masks over borrowed column spans
/// (kernels::MaskCmp* et al., per-morsel Arena scratch), and probe the
/// shared (read-only) flat JoinTables built once before the parallel
/// region: probe keys for a whole morsel are gathered through the
/// selection vector, bulk-hashed (kernels::HashI64/F64/Bytes) and probed
/// with software prefetch; tuples travel the join spine as (scan offset,
/// build indices) and composite rows materialize once, at the sink.
/// Aggregations directly above a pipeline fold into it as per-morsel
/// partial states merged at the pipeline breaker. Every other operator
/// (sort, top-N, projection, non-pipeline joins and aggregations) is the
/// row executor's own implementation, shared through operators.h.
///
/// Parity contract: for any AP plan this executor produces byte-identical
/// QueryResultSet::Fingerprint() output and identical per-node ExecStats
/// to the row-at-a-time Executor (the oracle), independent of worker
/// count: morsel results merge in morsel index order and group maps are
/// ordered. One exception is known: a double SUM adds per-morsel partial
/// sums, so its rounding can differ from the oracle's row-order sum in the
/// last bits, and the fingerprint's %.6g formatting does not always hide
/// that (perfbench/WORKLOADS.md, the seed-105 exec_mix query).
///
/// Execute is const and reentrant: per-call state lives in an ExecContext
/// on the caller's stack, and concurrent parallel regions take turns on
/// the one worker pool.
class VecExecutor {
 public:
  /// Morsel granularity: 4 column-store segments, keeping zone-map pruning
  /// segment-granular inside a morsel.
  static constexpr size_t kMorselRows = 4 * ColumnVector::kSegmentRows;

  VecExecutor(const Catalog& catalog, const ColumnStore& column_store)
      : catalog_(catalog), column_store_(column_store) {}

  /// Worker count for morsel-parallel regions. 0 (default) = auto
  /// (hardware concurrency capped at 4); 1 runs morsels inline on the
  /// calling thread; >1 uses a persistent worker pool.
  void set_num_workers(int n) { requested_workers_ = n; }
  int effective_workers() const;

  /// Runs an AP plan; `output_names` labels the result columns. When
  /// `stats` is provided, per-node actual cardinalities are recorded.
  /// TP-only operators (row scans, index probes) are rejected.
  Result<QueryResultSet> Execute(const PhysicalPlan& plan,
                                 std::vector<std::string> output_names,
                                 ExecStats* stats = nullptr) const;

 private:
  /// Where a join's probe key comes from, resolved once per pipeline so
  /// the batch probe can gather/hash whole morsels without EvalExpr.
  enum class KeySource {
    kScanColumn,   // plain ref to a scan column the pipeline reads
    kBuildColumn,  // ref into an earlier (lower) join's build rows
    kComputed,     // anything else: per-tuple EvalExpr fallback
  };

  /// One hash-join build side, constructed before the parallel region and
  /// probed read-only by all workers.
  struct BuiltJoin {
    const PlanNode* node = nullptr;
    Rows build_rows;
    std::vector<Value> build_keys;
    JoinTable flat;
    std::vector<std::pair<int, int>> build_ranges;
    bool cross = false;  // no equi-keys: degenerate cross join
    // Probe-key resolution (ResolveKeySources).
    KeySource key_source = KeySource::kComputed;
    int key_ordinal = -1;   // kScanColumn: schema ordinal in spec.table
    int key_src_join = -1;  // kBuildColumn: earlier join index (bottom-up)
    int key_src_slot = -1;  // kBuildColumn: flat slot in that build row
    /// kBuildColumn: per-source-build-row key hash / null flag, computed
    /// once per pipeline so probing is a pair of array loads per tuple.
    std::vector<uint64_t> src_hashes;
    std::vector<uint8_t> src_nulls;
  };

  /// What each morsel feeds at the pipeline breaker.
  enum class SinkKind {
    kRows,      // materialized rows, merged in morsel order
    kGroups,    // per-morsel partial group maps (generic fused aggregation)
    kTypedAgg,  // per-morsel partial AggStates over raw column spans, as
                // the one group of a scalar aggregation
  };

  /// A compiled scan(→join)* pipeline.
  struct PipelineSpec {
    const PlanNode* scan = nullptr;
    const ColumnTable* table = nullptr;
    std::vector<int> ordinals;      // schema ordinals of scan.columns_read
    std::vector<BuiltJoin> joins;   // bottom-up (scan-adjacent first)
    std::vector<const PlanNode*> nodes;  // [scan, joins bottom-up] for stats
    SinkKind sink = SinkKind::kRows;
    const PlanNode* agg = nullptr;  // fused aggregate (kGroups/kTypedAgg)
    /// Resolved Bloom filters for a kSiftedScan, aligned with
    /// scan->sift_probes, plus the matching key-column ordinals. All
    /// filters are built with the join build sides, before the parallel
    /// region, and probed read-only by the morsel workers.
    std::vector<const BloomFilter*> scan_sifts;
    std::vector<int> sift_ordinals;
    /// True when a spine join's build side came back empty: the inner join
    /// above it is empty no matter what the probe side holds, so the
    /// pipeline stops building there and never runs the scan or the morsel
    /// loop. `joins` then holds only the top-down prefix that was built
    /// (the cut join last) and `nodes` mirrors it — exactly the node set
    /// the row executor touches when its build-first RunHashJoin returns
    /// early.
    bool empty_cut = false;
  };

  /// Per-morsel output slot, merged in morsel index order.
  struct MorselOut {
    Rows rows;
    GroupMap groups;
    std::vector<size_t> counts;  // per spec.nodes entry
    Status status = Status::OK();
  };

  Result<Rows> Run(const PlanNode& node, ExecContext* ctx) const;
  Result<Rows> RunDispatch(const PlanNode& node, ExecContext* ctx) const;

  /// True when `node` roots a hash-join chain whose probe spine bottoms
  /// out in a column scan (the morsel-parallel pipeline shape).
  static bool IsPipelineChain(const PlanNode& node);

  Status BuildPipeline(const PlanNode& root, ExecContext* ctx,
                       PipelineSpec* spec) const;
  /// Resolves each equi-join's probe-key source for the batch probe.
  void ResolveKeySources(PipelineSpec* spec) const;
  /// Fused typed sift, gathered key hashing, flat-table probing with
  /// prefetch, late materialization at the sink.
  Status ProcessMorsel(const PipelineSpec& spec, const Morsel& morsel,
                       int total_slots, kernels::Arena* arena,
                       MorselOut* out) const;
  Status TypedAggMorsel(const PipelineSpec& spec, const struct VecBatch& batch,
                        kernels::Arena* arena, MorselOut* out) const;
  /// Runs the morsel loop over `spec` (inline or on the worker pool),
  /// filling one MorselOut per morsel.
  void RunMorselLoop(const PipelineSpec& spec, int total_slots,
                     std::vector<MorselOut>* outs) const;
  static void RecordPipelineStats(const PipelineSpec& spec,
                                  const std::vector<MorselOut>& outs,
                                  ExecContext* ctx);

  Result<Rows> RunPipeline(const PlanNode& root, ExecContext* ctx) const;
  /// Aggregation fused into the pipeline below it.
  Result<Rows> RunFusedAggregate(const PlanNode& node, ExecContext* ctx) const;
  static bool TypedAggEligible(const PlanNode& node, const PipelineSpec& spec);

  const Catalog& catalog_;
  const ColumnStore& column_store_;
  int requested_workers_ = 0;
  /// Guards pool_ and admits one parallel region at a time, since
  /// WorkerPool::Run is not reentrant.
  mutable std::mutex pool_mu_;
  /// Built on the first parallel region, so plan-only systems spawn no
  /// threads; persists across Execute calls; rebuilt on size change.
  mutable std::unique_ptr<WorkerPool> pool_;
};

}  // namespace htapex

#endif  // HTAPEX_ENGINE_VEC_EXECUTOR_H_
