#include "engine/htap_system.h"

#include "common/logging.h"

#include "catalog/tpch.h"
#include "plan/planner_util.h"
#include "sql/parser.h"
#include "storage/datagen.h"

namespace htapex {

Status HtapSystem::Init(const HtapConfig& config) {
  config_ = config;
  HTAPEX_RETURN_IF_ERROR(
      tpch::BuildCatalog(&catalog_, config.stats_scale_factor));
  tp_optimizer_ = std::make_unique<TpOptimizer>(catalog_, config.tp_cost);
  ap_optimizer_ = std::make_unique<ApOptimizer>(catalog_, config.ap_cost);
  executor_ = std::make_unique<Executor>(catalog_, row_store_, column_store_);
  vec_executor_ = std::make_unique<VecExecutor>(catalog_, column_store_);
  vec_executor_->set_num_workers(config.vec_workers);
  if (config.data_scale_factor > 0) {
    TpchDataGenerator gen(config.data_scale_factor);
    for (const auto& table : catalog_.TableNames()) {
      HTAPEX_ASSIGN_OR_RETURN(TableData data, gen.Generate(table));
      HTAPEX_RETURN_IF_ERROR(column_store_.LoadTable(catalog_, data));
      size_t rows = data.num_rows();
      HTAPEX_RETURN_IF_ERROR(row_store_.LoadTable(catalog_, std::move(data)));
      HTAPEX_LOG(Info) << "loaded " << table << ": " << rows
                       << " rows into both stores";
    }
    data_loaded_ = true;
  }
  HTAPEX_LOG(Info) << "HTAP system ready (stats SF=" << config.stats_scale_factor
                   << ", data SF=" << config.data_scale_factor << ")";
  return Status::OK();
}

Status HtapSystem::CreateIndex(const IndexDef& def) {
  HTAPEX_RETURN_IF_ERROR(catalog_.AddIndex(def));
  if (data_loaded_) {
    return row_store_.BuildIndex(catalog_, def.name);
  }
  return Status::OK();
}

Status HtapSystem::DropIndex(const std::string& name) {
  return catalog_.DropIndex(name);
}

Result<BoundQuery> HtapSystem::Bind(std::string_view sql,
                                    Trace* trace) const {
  HTAPEX_RETURN_IF_ERROR(CheckStatementBytes(sql));
  SelectStatement stmt;
  {
    ScopedWallSpan span(trace, spanname::kParse);
    HTAPEX_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  }
  ScopedWallSpan span(trace, spanname::kBind);
  return htapex::Bind(catalog_, std::move(stmt));
}

Result<PlanPair> HtapSystem::PlanBoth(const BoundQuery& query,
                                      Trace* trace) const {
  PlanPair pair;
  {
    ScopedWallSpan span(trace, spanname::kTpOptimize);
    HTAPEX_ASSIGN_OR_RETURN(pair.tp, tp_optimizer_->Plan(query));
  }
  ScopedWallSpan span(trace, spanname::kApOptimize);
  HTAPEX_ASSIGN_OR_RETURN(pair.ap, ap_optimizer_->Plan(query));
  return pair;
}

double HtapSystem::LatencyMs(const PhysicalPlan& plan,
                             std::vector<NodeLatency>* breakdown) const {
  return EstimateLatencyMs(plan, config_.latency, breakdown);
}

Result<QueryResultSet> HtapSystem::Execute(const PhysicalPlan& plan,
                                           const BoundQuery& query,
                                           ExecStats* stats) const {
  ExecMode mode = plan.engine == EngineKind::kAp ? ExecMode::kVectorized
                                                 : ExecMode::kRow;
  return ExecuteWithMode(mode, plan, query, stats);
}

Result<QueryResultSet> HtapSystem::ExecuteWithMode(ExecMode mode,
                                                   const PhysicalPlan& plan,
                                                   const BoundQuery& query,
                                                   ExecStats* stats) const {
  if (!data_loaded_) {
    return Status::ExecutionError("no data loaded (plan-only mode)");
  }
  if (mode == ExecMode::kVectorized) {
    if (plan.engine != EngineKind::kAp) {
      return Status::ExecutionError(
          "vectorized executor only runs AP plans");
    }
    return vec_executor_->Execute(plan, OutputNames(query), stats);
  }
  return executor_->Execute(plan, OutputNames(query), stats);
}

Result<PlannedQuery> HtapSystem::Plan(std::string_view sql,
                                      Trace* trace) const {
  PlannedQuery planned;
  HTAPEX_ASSIGN_OR_RETURN(planned.query, Bind(sql, trace));
  HtapQueryOutcome& outcome = planned.outcome;
  outcome.sql = std::string(sql);
  HTAPEX_ASSIGN_OR_RETURN(outcome.plans, PlanBoth(planned.query, trace));
  {
    ScopedWallSpan span(trace, spanname::kRoute);
    outcome.tp_latency_ms = LatencyMs(outcome.plans.tp);
    outcome.ap_latency_ms = LatencyMs(outcome.plans.ap);
    outcome.faster = outcome.tp_latency_ms <= outcome.ap_latency_ms
                         ? EngineKind::kTp
                         : EngineKind::kAp;
  }
  return planned;
}

Result<HtapQueryOutcome> HtapSystem::RunQuery(std::string_view sql) const {
  HTAPEX_ASSIGN_OR_RETURN(PlannedQuery planned, Plan(sql));
  HtapQueryOutcome& outcome = planned.outcome;
  if (data_loaded_) {
    HTAPEX_ASSIGN_OR_RETURN(QueryResultSet tp_result,
                            Execute(outcome.plans.tp, planned.query));
    HTAPEX_ASSIGN_OR_RETURN(QueryResultSet ap_result,
                            Execute(outcome.plans.ap, planned.query));
    outcome.results_match =
        tp_result.Fingerprint() == ap_result.Fingerprint();
    outcome.tp_result = std::move(tp_result);
    outcome.ap_result = std::move(ap_result);
  }
  return std::move(outcome);
}

}  // namespace htapex
