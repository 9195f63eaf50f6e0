#ifndef HTAPEX_ENGINE_VEC_BATCH_H_
#define HTAPEX_ENGINE_VEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/kernels.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "storage/column_store.h"

namespace htapex {

/// A batch of column-store rows flowing through the vectorized executor:
/// a [begin, end) row range of one base table plus a selection vector of
/// surviving offsets. Column data is *borrowed* from the (immutable during
/// execution) ColumnStore — the batch never copies payloads; survivors are
/// gathered only when an operator needs them.
struct VecBatch {
  const ColumnTable* table = nullptr;
  size_t begin = 0;
  size_t end = 0;  // exclusive
  /// Offsets (relative to `begin`) of rows passing all scan predicates,
  /// ascending — preserving base-table order, which downstream operators
  /// rely on for cross-executor parity.
  std::vector<uint32_t> sel;

  size_t rows() const { return end - begin; }
};

/// Evaluates all of `scan`'s predicate conjuncts over the batch's row range
/// and fills `batch->sel` with the survivors. Zone-map pruning runs first
/// per contained segment (shared SegmentMayMatch semantics); when every
/// conjunct is sargable-numeric the whole predicate lowers onto the
/// kernels::MaskCmp* batch primitives, otherwise the scan falls back to
/// per-row EvalPredicate over a composite row (all conjuncts, listed
/// order) — byte-for-byte the row executor's semantics and error order
/// either way. `ordinals` are the schema column
/// ordinals of scan.columns_read (precomputed by the caller); mask scratch
/// comes from `arena` (valid only until its next Reset).
Status ComputeScanSelection(const PlanNode& scan,
                            const std::vector<int>& ordinals, int total_slots,
                            kernels::Arena* arena, VecBatch* batch);

/// Gathers the selected, non-null values of an int/date column into `out`
/// (caller-sized to batch.sel.size()); returns the gathered count.
size_t GatherNonNullI64(const ColumnVector& col, const VecBatch& batch,
                        int64_t* out);

/// Same for a double column.
size_t GatherNonNullF64(const ColumnVector& col, const VecBatch& batch,
                        double* out);

/// Gathers the join/sift key hashes of `col` for the `n` rows at
/// `base + offs[i]` — non-compacting, so `hashes`/`nulls` stay aligned with
/// the offset vector. `hashes[i]` is exactly what Value::Hash() produces
/// for the stored value (bulk kernels::HashI64/HashF64 for numeric
/// columns, kernels::HashBytes per string); it is garbage where
/// `nulls[i] != 0` and must not be consulted there. Numeric gathers carve
/// a temporary span out of `arena`.
void GatherKeyHashes(const ColumnVector& col, size_t base,
                     const uint32_t* offs, size_t n, kernels::Arena* arena,
                     uint64_t* hashes, uint8_t* nulls);

}  // namespace htapex

#endif  // HTAPEX_ENGINE_VEC_BATCH_H_
