#ifndef HTAPEX_ENGINE_EXECUTOR_H_
#define HTAPEX_ENGINE_EXECUTOR_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/operators.h"
#include "plan/plan_node.h"
#include "storage/column_store.h"
#include "storage/row_store.h"

namespace htapex {

/// Executes physical plans from either engine against the in-process
/// storage, one row at a time: TP operators read the RowStore (B+-tree
/// probes), AP operators read the ColumnStore (zone-map pruning). Rows are
/// pushed to each operator's consumer by reference (operators.h); a scan
/// fills one reused composite row with the columns of its table in the
/// plan's read set, and a Limit above stops it once its window is full, so
/// an ordered Index Scan under LIMIT reads offset + limit rows. The latency
/// model (latency_model.h), not wall time, provides the at-scale timings
/// the explainer reasons about.
class Executor {
 public:
  Executor(const Catalog& catalog, const RowStore& row_store,
           const ColumnStore& column_store)
      : catalog_(catalog), row_store_(row_store), column_store_(column_store) {}

  /// Runs the plan; `output_names` labels the result columns. When `stats`
  /// is provided, per-node statistics are recorded into it.
  Result<QueryResultSet> Execute(const PhysicalPlan& plan,
                                 std::vector<std::string> output_names,
                                 ExecStats* stats = nullptr) const;

 private:
  /// The PlanDispatch of this executor.
  Result<bool> Dispatch(const PlanNode& node, ExecContext* ctx, RowSink out,
                        size_t bound) const;

  // The row store and column scans and the index nested-loop join are the
  // row executor's own; every other operator is shared (operators.h).
  Result<bool> PushTableScan(const PlanNode& node, const ExecContext& ctx,
                             RowSink out) const;
  Result<bool> PushIndexScan(const PlanNode& node, const ExecContext& ctx,
                             RowSink out) const;
  /// A kColumnScan, or a kSiftedScan that also drops the rows whose join
  /// key a producing join's Bloom filter rules out.
  Result<bool> PushColumnScan(const PlanNode& node, const ExecContext& ctx,
                              RowSink out) const;
  Result<bool> PushIndexNestedLoopJoin(const PlanNode& node, ExecContext* ctx,
                                       RowSink out) const;

  const Catalog& catalog_;
  const RowStore& row_store_;
  const ColumnStore& column_store_;
};

}  // namespace htapex

#endif  // HTAPEX_ENGINE_EXECUTOR_H_
