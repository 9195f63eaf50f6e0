#ifndef HTAPEX_ENGINE_HTAP_SYSTEM_H_
#define HTAPEX_ENGINE_HTAP_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ap/ap_optimizer.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/executor.h"
#include "engine/latency_model.h"
#include "engine/vec_executor.h"
#include "obs/trace.h"
#include "storage/column_store.h"
#include "storage/row_store.h"
#include "tp/tp_optimizer.h"

namespace htapex {

/// An explicit executor choice for ExecuteWithMode. The row-at-a-time
/// executor is the semantic oracle; the vectorized morsel-driven executor
/// is the fast path for AP plans and is held to byte-identical results and
/// per-node ExecStats.
enum class ExecMode { kRow, kVectorized };

/// Configuration of the in-process HTAP system.
struct HtapConfig {
  /// Scale factor the optimizers and the latency model reason about
  /// (TPC-H SF=100 is the paper's 100 GB setting).
  double stats_scale_factor = 100.0;
  /// Scale factor of the physically generated/loaded data (small, so both
  /// engines really execute queries and can be cross-checked). <= 0
  /// disables data loading (plan-only mode).
  double data_scale_factor = 0.01;
  uint64_t datagen_seed = 20260705;
  LatencyParams latency;
  TpCostParams tp_cost;
  ApCostParams ap_cost;
  /// Morsel workers for the vectorized executor; 0 = auto (see
  /// VecExecutor::set_num_workers).
  int vec_workers = 0;
};

/// Outcome of running one query through both engines.
struct HtapQueryOutcome {
  std::string sql;
  PlanPair plans;
  double tp_latency_ms = 0.0;  // modelled at stats scale
  double ap_latency_ms = 0.0;
  EngineKind faster = EngineKind::kTp;
  /// Real execution results at the data scale factor (absent in plan-only
  /// mode). Both engines' results are cross-checked for equality.
  std::optional<QueryResultSet> tp_result;
  std::optional<QueryResultSet> ap_result;
  bool results_match = true;
  std::vector<std::string> output_names;

  double speedup() const {
    double lo = std::min(tp_latency_ms, ap_latency_ms);
    return lo <= 0 ? 1.0 : std::max(tp_latency_ms, ap_latency_ms) / lo;
  }
};

/// The ByteHTAP-like substrate: one SQL front end, a shared catalog, a
/// row-store TP engine and a column-store AP engine with *separate*
/// optimizers and non-comparable cost models, plus an analytic latency
/// model that provides execution times at the statistics scale.
class HtapSystem {
 public:
  HtapSystem() = default;

  HtapSystem(const HtapSystem&) = delete;
  HtapSystem& operator=(const HtapSystem&) = delete;

  /// Builds the TPC-H catalog and (unless plan-only) generates and loads
  /// data into both storage engines.
  Status Init(const HtapConfig& config);

  const Catalog& catalog() const { return catalog_; }
  Catalog& mutable_catalog() { return catalog_; }
  const HtapConfig& config() const { return config_; }
  bool data_loaded() const { return data_loaded_; }

  /// Direct access to the vectorized executor (benchmarks flip the worker
  /// count between runs; tests pin it). Valid after Init.
  VecExecutor* vec_executor() const { return vec_executor_.get(); }

  /// Creates a secondary index (catalog + physical build in the row store),
  /// e.g. the paper's user-added index on customer.c_phone.
  Status CreateIndex(const IndexDef& def);
  Status DropIndex(const std::string& name);

  /// Parses and binds. When `trace` is non-null the parse and bind stages
  /// each report a wall-timed span on it.
  Result<BoundQuery> Bind(std::string_view sql, Trace* trace = nullptr) const;

  /// Plans the query on both engines (per-engine optimizer spans on
  /// `trace` when non-null).
  Result<PlanPair> PlanBoth(const BoundQuery& query,
                            Trace* trace = nullptr) const;

  /// Modelled latency of a plan at the statistics scale factor.
  double LatencyMs(const PhysicalPlan& plan,
                   std::vector<NodeLatency>* breakdown = nullptr) const;

  /// Executes a plan against the loaded data; optional EXPLAIN ANALYZE
  /// style per-node actual cardinalities. AP plans run on the vectorized
  /// executor, TP plans on the row executor.
  Result<QueryResultSet> Execute(const PhysicalPlan& plan,
                                 const BoundQuery& query,
                                 ExecStats* stats = nullptr) const;

  /// Executes with an explicit executor choice (parity tests and
  /// benchmarks compare against the row oracle). kVectorized requires an
  /// AP plan.
  Result<QueryResultSet> ExecuteWithMode(ExecMode mode,
                                         const PhysicalPlan& plan,
                                         const BoundQuery& query,
                                         ExecStats* stats = nullptr) const;

  /// Full pipeline: bind, plan both, model latencies, execute both (when
  /// data is loaded) and cross-check results.
  Result<HtapQueryOutcome> RunQuery(std::string_view sql) const;

 private:
  HtapConfig config_;
  Catalog catalog_;
  RowStore row_store_;
  ColumnStore column_store_;
  std::unique_ptr<TpOptimizer> tp_optimizer_;
  std::unique_ptr<ApOptimizer> ap_optimizer_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<VecExecutor> vec_executor_;
  bool data_loaded_ = false;
};

}  // namespace htapex

#endif  // HTAPEX_ENGINE_HTAP_SYSTEM_H_
