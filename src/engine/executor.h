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
/// storage: TP operators read the RowStore (whole rows, B+-tree probes),
/// AP operators read the ColumnStore (referenced columns, zone-map
/// pruning). Execution is materializing — correctness-oriented; the
/// latency model (latency_model.h), not wall time, provides the
/// at-scale timings the explainer reasons about.
class Executor {
 public:
  Executor(const Catalog& catalog, const RowStore& row_store,
           const ColumnStore& column_store)
      : catalog_(catalog), row_store_(row_store), column_store_(column_store) {}

  /// Runs the plan; `output_names` labels the result columns. When `stats`
  /// is provided, per-node actual cardinalities are recorded into it.
  Result<QueryResultSet> Execute(const PhysicalPlan& plan,
                                 std::vector<std::string> output_names,
                                 ExecStats* stats = nullptr) const;

 private:
  Result<Rows> Run(const PlanNode& node, ExecContext* ctx) const;
  Result<Rows> RunDispatch(const PlanNode& node, ExecContext* ctx) const;

  // The row store and column scans and the index nested-loop join are the
  // row executor's own; every other operator is shared (operators.h).
  Result<Rows> RunTableScan(const PlanNode& node, int total_slots) const;
  Result<Rows> RunIndexScan(const PlanNode& node, int total_slots) const;
  Result<Rows> RunColumnScan(const PlanNode& node, int total_slots) const;
  Result<Rows> RunSiftedScan(const PlanNode& node,
                             const ExecContext& ctx) const;
  Result<Rows> RunIndexNestedLoopJoin(const PlanNode& node,
                                      ExecContext* ctx) const;

  /// Fetches one base-table row into the composite layout.
  Row MakeComposite(const PlanNode& scan, const Row& base_row,
                    int total_slots) const;

  const Catalog& catalog_;
  const RowStore& row_store_;
  const ColumnStore& column_store_;
};

}  // namespace htapex

#endif  // HTAPEX_ENGINE_EXECUTOR_H_
