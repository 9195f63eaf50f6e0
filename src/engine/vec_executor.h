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
/// selection vector, bulk-hashed (kernels::HashI64/F64/Bytes) and probed;
/// tuples travel the join spine as (scan offset, build indices), and a
/// pipeline ends at the operator that consumes it:
///   - an aggregation folds each morsel into partial states, merged at the
///     pipeline breaker in morsel order;
///   - a Top-N keeps one bounded TopNHeap per worker holding sort keys
///     only, tagged with (morsel, position) sequence numbers, the oracle's
///     input order, so the worker heaps merge in any order into the heap of
///     the whole input; only the rows the window emits are materialized;
///   - any other consumer (Limit, Project, Sort, ...) receives the tuples in
///     morsel order, each materialized into one reused composite row and
///     pushed by reference (operators.h). The morsels' tuple lists are
///     buffered and pushed in morsel order after the morsel loop, and a
///     Limit's bound (offset + limit) stops workers from claiming morsels
///     once the morsels completed in order hold that many tuples.
/// Every other operator is the row executor's own implementation, shared
/// through operators.h.
///
/// Parity contract: for any AP plan this executor produces byte-identical
/// QueryResultSet::Fingerprint() output, identical per-node ExecStats
/// (actual rows and the stopped set) and the same StatusCode as the
/// row-at-a-time Executor (the oracle), independent of worker count:
/// morsel results merge in morsel index order, groups come out in key
/// order, and when a consumer stops a pipeline mid-morsel each pipeline
/// node records the tuples up to the stopping tuple's ancestor at its
/// level, the rows
/// the oracle's scan and joins pushed before they heard "stop". A morsel
/// keeps only the tuples that precede its first evaluation error in the
/// oracle's row-at-a-time order, and the error surfaces only if the
/// consumer still wants rows after them. One exception is known: a double
/// SUM adds per-morsel partial sums, so its rounding can differ from the
/// oracle's row-order sum in the last bits, and the fingerprint's %.6g
/// formatting does not always hide that (perfbench/WORKLOADS.md, the
/// seed-105 exec_mix query).
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
  /// Where a join's probe key comes from, resolved once per pipeline. A
  /// hash join's keys are bare column refs (the binder makes hash
  /// conjuncts only of `column = column`), and the probe side reads them.
  enum class KeySource {
    kScanColumn,   // a scan column the pipeline reads
    kBuildColumn,  // a slot of an earlier (lower) join's build rows
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
    KeySource key_source = KeySource::kScanColumn;
    int key_ordinal = -1;   // kScanColumn: schema ordinal in spec.table
    int key_src_join = -1;  // kBuildColumn: earlier join index (bottom-up)
    int key_src_slot = -1;  // kBuildColumn: flat slot in that build row
  };

  /// What each morsel feeds at the pipeline breaker.
  enum class SinkKind {
    kRows,      // surviving tuples, pushed to the consumer in morsel order
    kGroups,    // per-morsel partial group maps (generic fused aggregation)
    kTypedAgg,  // per-morsel partial AggStates over raw column spans, as
                // the one group of a scalar aggregation
    kTopN,      // surviving tuples' sort keys, offered to the worker's
                // bounded Top-N heap
  };

  /// The pipeline slots FillRow writes: the scan columns at `ordinals`
  /// and the build ranges of the joins at `joins`.
  struct SlotSet {
    std::vector<int> ordinals;
    std::vector<size_t> joins;
  };

  /// A compiled scan(→join)* pipeline.
  struct PipelineSpec {
    const PlanNode* scan = nullptr;
    const ColumnTable* table = nullptr;
    std::vector<int> ordinals;      // schema ordinals of scan.columns_read
    std::vector<BuiltJoin> joins;   // bottom-up (scan-adjacent first)
    std::vector<const PlanNode*> nodes;  // [scan, joins bottom-up] for stats
    SlotSet row_slots;  // every slot the pipeline fills
    SlotSet key_slots;  // kTopN: the slots its sort keys read
    SinkKind sink = SinkKind::kRows;
    /// The consuming aggregation (kGroups/kTypedAgg) or Top-N (kTopN).
    const PlanNode* consumer = nullptr;
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
    /// the row executor touches when its build-first hash join returns
    /// early.
    bool empty_cut = false;
  };

  /// Per-morsel output slot, merged in morsel index order.
  struct MorselOut {
    size_t begin = 0;  // the morsel's first table row
    /// kRows/kTopN: the surviving tuples, late-materialized: each one's
    /// scan offset (from `begin`) and, per join (bottom-up), its build row.
    std::vector<uint32_t> offs;
    std::vector<std::vector<uint32_t>> bidx;
    /// kRows/kTopN: per join (bottom-up), each output tuple's index among
    /// the tuples of the level below (the scan's for the first join).
    std::vector<std::vector<uint32_t>> parents;
    GroupMap groups;
    std::vector<size_t> counts;  // per spec.nodes entry
    /// The morsel's first evaluation error in the oracle's order; the tuple
    /// lists then hold only the tuples that precede it.
    Status status = Status::OK();
    bool done = false;  // set under the bounded loop's frontier lock
  };

  /// The PlanDispatch of this executor.
  Result<bool> Dispatch(const PlanNode& node, ExecContext* ctx, RowSink out,
                        size_t bound) const;

  /// True when `node` roots a hash-join chain whose probe spine bottoms
  /// out in a column scan (the morsel-parallel pipeline shape).
  static bool IsPipelineChain(const PlanNode& node);

  Status BuildPipeline(const PlanNode& root, ExecContext* ctx,
                       PipelineSpec* spec) const;
  /// Resolves each equi-join's probe-key source for the batch probe;
  /// Internal for a key that is neither.
  static Status ResolveKeySources(PipelineSpec* spec);
  /// Fused typed sift, gathered key hashing, flat-table probing, then the
  /// morsel's sink. Returns the morsel's first evaluation error in the
  /// oracle's order, with the tuple lists cut before it.
  Status ProcessMorsel(const PipelineSpec& spec, const Morsel& morsel,
                       int total_slots, kernels::Arena* arena,
                       MorselOut* out) const;
  Status TypedAggMorsel(const PipelineSpec& spec, const struct VecBatch& batch,
                        kernels::Arena* arena, MorselOut* out) const;
  /// Resets `out` and runs ProcessMorsel on the calling thread's arena;
  /// a kTopN morsel then offers its tuples' sort keys to `heap`.
  void RunMorsel(const PipelineSpec& spec, const Morsel& morsel,
                 int total_slots, MorselOut* out, TopNHeap* heap) const;
  /// Runs the morsels of `spec` (inline with one worker or one morsel, on
  /// the worker pool otherwise), sizing `outs` to one MorselOut per morsel;
  /// a kTopN pipeline has one heap per worker in `heaps`. With a `bound`,
  /// stops claiming morsels once the morsels completed in morsel order
  /// hold that many tuples (or one holds an error); returns how many
  /// leading morsels were completed.
  size_t RunMorselLoop(const PipelineSpec& spec, int total_slots,
                       size_t bound, std::vector<MorselOut>* outs,
                       std::vector<TopNHeap>* heaps = nullptr) const;
  /// Materializes a kRows morsel's tuples into `row` one at a time and
  /// pushes them, adding the rows each pipeline node pushed to `totals`;
  /// then returns the morsel's error, if it holds one.
  Result<bool> PushMorsel(const PipelineSpec& spec, const MorselOut& mo,
                          Row* row, RowSink out,
                          std::vector<size_t>* totals) const;
  /// Writes `slots` of tuple `t` of a morsel's tuple lists into `row`.
  static void FillRow(const PipelineSpec& spec, const SlotSet& slots,
                      size_t base, const std::vector<uint32_t>& offs,
                      const std::vector<std::vector<uint32_t>>& bidx,
                      size_t t, Row* row);
  static void RecordPipelineStats(const PipelineSpec& spec,
                                  const std::vector<size_t>& totals,
                                  bool stopped, ExecContext* ctx);
  /// Totals of whole morsels' counts, after checking their statuses in
  /// morsel order.
  static Status SumCounts(const PipelineSpec& spec,
                          const std::vector<MorselOut>& outs,
                          std::vector<size_t>* totals);

  Result<bool> RunPipeline(const PlanNode& root, ExecContext* ctx,
                           size_t bound, RowSink out) const;
  /// Aggregation fused into the pipeline below it.
  Result<bool> RunFusedAggregate(const PlanNode& node, ExecContext* ctx,
                                 RowSink out) const;
  /// Top-N fused into the pipeline below it.
  Result<bool> RunFusedTopN(const PlanNode& node, ExecContext* ctx,
                            RowSink out) const;
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
