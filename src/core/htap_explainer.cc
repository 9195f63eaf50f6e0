#include "core/htap_explainer.h"

#include "common/logging.h"

#include "common/sim_clock.h"
#include "common/string_util.h"
#include "workload/query_generator.h"

namespace htapex {

namespace {

// Router training workload: queries generated, and epochs over them.
constexpr int kRouterTrainQueries = 320;
constexpr int kRouterTrainEpochs = 60;

LlmPersona ConfigPersona(const ExplainerConfig& config) {
  return config.persona == "gpt4" ? Gpt4Persona() : DoubaoPersona();
}

}  // namespace

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull:
      return "full";
    case DegradationLevel::kBaselineFallback:
      return "baseline_fallback";
    case DegradationLevel::kPlanDiffOnly:
      return "plan_diff_only";
    case DegradationLevel::kFailed:
      return "failed";
  }
  return "unknown";
}

HtapExplainer::HtapExplainer(const HtapSystem* system, ExplainerConfig config)
    : system_(system),
      config_(std::move(config)),
      router_(config_.seed),
      kb_(router_.embedding_dim()),
      retriever_(&kb_),
      expert_(system->catalog(), system->config().latency) {
  prompt_builder_.set_user_context(config_.user_context);
  // Fault spec: explicit config wins; empty falls through to the
  // HTAPEX_FAULTS environment (the chaos-CI hook); "off" forces clean runs.
  std::string spec = config_.faults;
  uint64_t fault_seed = config_.fault_seed;
  if (spec.empty()) {
    spec = FaultInjector::EnvSpec();
    fault_seed = FaultInjector::EnvSeed(fault_seed);
  } else if (spec == "off") {
    spec.clear();
  }
  Status st = ConfigureFaults(spec, fault_seed);
  if (!st.ok()) {
    // A constructor cannot propagate the error; refusing to inject is the
    // safe interpretation of a malformed spec.
    HTAPEX_LOG(Warning) << "ignoring malformed fault spec '" << spec
                     << "': " << st;
    (void)ConfigureFaults("", fault_seed);
  }
}

Status HtapExplainer::ConfigureFaults(const std::string& spec,
                                      uint64_t fault_seed) {
  // "off" is accepted here too so callers sweeping fault levels (benches)
  // can use the same spellings ExplainerConfig::faults accepts.
  HTAPEX_ASSIGN_OR_RETURN(
      faults_, FaultInjector::Parse(spec == "off" ? "" : spec, fault_seed));
  kb_.set_fault_injector(&faults_);
  ResetStats(resilience_metrics_);
  RebuildResilientLlms();
  if (faults_.enabled()) {
    HTAPEX_LOG(Info) << "fault injection active: " << faults_.ToString()
                     << " (seed " << faults_.seed() << ")";
  }
  return Status::OK();
}

void HtapExplainer::RebuildResilientLlms() {
  ResiliencePolicy policy = config_.resilience;
  policy.seed = faults_.enabled() ? faults_.seed() : config_.fault_seed;
  if (config_.use_rag) {
    primary_ = std::make_unique<ResilientLlm>(
        MakeRagLlm(ConfigPersona(config_)), "rag", policy, &faults_,
        &resilience_metrics_);
    fallback_ = std::make_unique<ResilientLlm>(
        MakeDbgPtLlm(ConfigPersona(config_)), "baseline", policy, &faults_,
        &resilience_metrics_);
  } else {
    primary_ = std::make_unique<ResilientLlm>(
        MakeDbgPtLlm(ConfigPersona(config_)), "baseline", policy, &faults_,
        &resilience_metrics_);
    fallback_.reset();
  }
}

Result<RouterTrainStats> HtapExplainer::TrainRouter() {
  QueryGenerator gen(system_->config().stats_scale_factor,
                     config_.seed ^ 0xa11ce);
  std::vector<PairExample> dataset;
  auto queries = gen.GenerateMix(kRouterTrainQueries);
  dataset.reserve(queries.size());
  for (const GeneratedQuery& gq : queries) {
    BoundQuery query;
    HTAPEX_ASSIGN_OR_RETURN(query, system_->Bind(gq.sql));
    PlanPair plans;
    HTAPEX_ASSIGN_OR_RETURN(plans, system_->PlanBoth(query));
    EngineKind faster = system_->LatencyMs(plans.tp) <= system_->LatencyMs(plans.ap)
                            ? EngineKind::kTp
                            : EngineKind::kAp;
    dataset.push_back(router_.MakeExample(plans, faster));
  }
  RouterTrainStats stats = router_.Train(dataset, kRouterTrainEpochs);
  HTAPEX_LOG(Info) << "router trained on " << dataset.size() << " queries: "
                   << 100.0 * stats.train_accuracy << "% train accuracy in "
                   << stats.wall_seconds << "s";
  return stats;
}

Result<ExpertAnalysis> HtapExplainer::AnalyzeCase(
    const HtapQueryOutcome& outcome, const BoundQuery& query) const {
  return expert_.Analyze(outcome, query);
}

Status HtapExplainer::AddToKnowledgeBase(const std::vector<std::string>& sqls) {
  for (const std::string& sql : sqls) {
    BoundQuery query;
    HTAPEX_ASSIGN_OR_RETURN(query, system_->Bind(sql));
    HtapQueryOutcome outcome;
    outcome.sql = sql;
    HTAPEX_ASSIGN_OR_RETURN(outcome.plans, system_->PlanBoth(query));
    outcome.tp_latency_ms = system_->LatencyMs(outcome.plans.tp);
    outcome.ap_latency_ms = system_->LatencyMs(outcome.plans.ap);
    outcome.faster = outcome.tp_latency_ms <= outcome.ap_latency_ms
                         ? EngineKind::kTp
                         : EngineKind::kAp;
    ExpertAnalysis truth = expert_.Analyze(outcome, query);
    KbEntry entry;
    entry.sql = sql;
    entry.embedding = router_.Embed(outcome.plans);
    entry.tp_plan_json = outcome.plans.tp.Explain();
    entry.ap_plan_json = outcome.plans.ap.Explain();
    entry.faster = outcome.faster;
    entry.tp_latency_ms = outcome.tp_latency_ms;
    entry.ap_latency_ms = outcome.ap_latency_ms;
    entry.expert_explanation = truth.explanation;
    HTAPEX_RETURN_IF_ERROR(InsertWithRetry(std::move(entry)));
  }
  return Status::OK();
}

Status HtapExplainer::CurateKnowledgeBase(uint64_t* expired,
                                          uint64_t* backfilled) {
  // Collect first, mutate after: Expire/backfill invalidate the Entries()
  // pointers, and backfilled entries must not be re-validated this pass.
  struct StaleEntry {
    int id;
    std::string sql;
  };
  std::vector<StaleEntry> stale;
  for (const KbEntry* entry : kb_.Entries()) {
    Result<BoundQuery> bound = system_->Bind(entry->sql);
    if (!bound.ok()) continue;  // schema drifted from under the entry; skip
    Result<PlanPair> plans = system_->PlanBoth(*bound);
    if (!plans.ok()) continue;
    EngineKind fresh =
        system_->LatencyMs(plans->tp) <= system_->LatencyMs(plans->ap)
            ? EngineKind::kTp
            : EngineKind::kAp;
    if (fresh != entry->faster) stale.push_back({entry->id, entry->sql});
  }
  for (const StaleEntry& entry : stale) {
    HTAPEX_RETURN_IF_ERROR(kb_.Expire(entry.id));
    if (expired != nullptr) *expired += 1;
    // Re-annotate under the current regime: fresh plans, fresh latencies,
    // fresh expert explanation, fresh embedding from the current router.
    HTAPEX_RETURN_IF_ERROR(AddToKnowledgeBase({entry.sql}));
    if (backfilled != nullptr) *backfilled += 1;
  }
  return Status::OK();
}

Status HtapExplainer::InsertWithRetry(KbEntry entry) {
  // Transient (injected) write contention is retried a bounded number of
  // times; each retry is a fresh deterministic draw, so a fixed seed
  // yields a fixed bootstrap transcript.
  constexpr int kMaxInsertAttempts = 4;
  Status st;
  for (int attempt = 0; attempt < kMaxInsertAttempts; ++attempt) {
    st = kb_.Insert(entry).status();
    if (st.code() != StatusCode::kUnavailable) return st;
    resilience_metrics_.kb_insert_retries.Inc();
  }
  return st;
}

std::vector<std::string> HtapExplainer::DefaultKnowledgeSqls() const {
  // The paper's Section IV: 20 representative queries, selected to cover
  // the workload's performance-distinction patterns (joins and top-N
  // queries, plus the selective access paths that make TP win). The KB
  // generator uses its own seed so knowledge queries are similar to — but
  // never identical with — test queries.
  QueryGenerator gen(system_->config().stats_scale_factor,
                     config_.seed ^ 0xcb15ull);

  struct PatternCount {
    QueryPattern pattern;
    int count;
  };
  const PatternCount plan[] = {
      {QueryPattern::kPointLookup, 2},     {QueryPattern::kSelectiveRange, 2},
      {QueryPattern::kJoinSmall, 2},       {QueryPattern::kJoinLarge, 2},
      {QueryPattern::kJoinFunctionPred, 3},{QueryPattern::kTopNIndexed, 2},
      {QueryPattern::kTopNUnindexed, 2},   {QueryPattern::kTopNLargeOffset, 2},
      {QueryPattern::kGroupByAggregate, 2},{QueryPattern::kJoinStarChain, 1},
  };
  std::vector<std::string> sqls;
  for (const PatternCount& pc : plan) {
    for (int i = 0; i < pc.count; ++i) {
      sqls.push_back(gen.Generate(pc.pattern, /*variant=*/i).sql);
    }
  }
  return sqls;
}

Status HtapExplainer::BuildDefaultKnowledgeBase() {
  return AddToKnowledgeBase(DefaultKnowledgeSqls());
}

Result<PreparedQuery> HtapExplainer::PreparePlans(const std::string& sql,
                                                  Trace* trace) const {
  PreparedQuery prepared;
  HTAPEX_ASSIGN_OR_RETURN(prepared.query, system_->Bind(sql, trace));
  prepared.outcome.sql = sql;
  HTAPEX_ASSIGN_OR_RETURN(prepared.outcome.plans,
                          system_->PlanBoth(prepared.query, trace));
  {
    ScopedWallSpan span(trace, spanname::kRoute);
    prepared.outcome.tp_latency_ms =
        system_->LatencyMs(prepared.outcome.plans.tp);
    prepared.outcome.ap_latency_ms =
        system_->LatencyMs(prepared.outcome.plans.ap);
    prepared.outcome.faster =
        prepared.outcome.tp_latency_ms <= prepared.outcome.ap_latency_ms
            ? EngineKind::kTp
            : EngineKind::kAp;
  }
  return prepared;
}

std::vector<Result<PreparedQuery>> HtapExplainer::PrepareBatch(
    const std::vector<std::string>& sqls,
    const std::vector<Trace*>& traces) const {
  std::vector<Result<PreparedQuery>> out;
  out.reserve(sqls.size());
  std::vector<size_t> planned;  // indices that bound + planned cleanly
  for (size_t i = 0; i < sqls.size(); ++i) {
    Trace* trace = i < traces.size() ? traces[i] : nullptr;
    out.push_back(PreparePlans(sqls[i], trace));
    if (out.back().ok()) planned.push_back(i);
  }
  if (planned.empty()) return out;
  // One frozen forward pass covers every planned pair in the drain.
  // Pointers are taken only now, after `out` stopped growing.
  std::vector<const PlanPair*> pairs;
  pairs.reserve(planned.size());
  for (size_t i : planned) pairs.push_back(&out[i]->outcome.plans);
  WallTimer encode_timer;
  std::vector<RoutedPair> routed = router_.RouteBatch(pairs);
  double per_query_ms =
      encode_timer.ElapsedMillis() / static_cast<double>(planned.size());
  for (size_t j = 0; j < planned.size(); ++j) {
    PreparedQuery& prepared = *out[planned[j]];
    prepared.embedding = std::move(routed[j].embedding);
    prepared.p_ap = routed[j].p_ap;
    prepared.encode_ms = per_query_ms;
    // Recorded rather than scoped: the span must carry the same measured
    // value end_to_end_ms() charges as router_encode_ms.
    Trace* trace = planned[j] < traces.size() ? traces[planned[j]] : nullptr;
    if (trace != nullptr) {
      trace->AddSpan(spanname::kEmbed, per_query_ms, /*simulated=*/false);
    }
  }
  return out;
}

Result<PreparedQuery> HtapExplainer::Prepare(const std::string& sql,
                                             Trace* trace) const {
  std::vector<Result<PreparedQuery>> batch = PrepareBatch({sql}, {trace});
  return std::move(batch[0]);
}

Result<ExplainResult> HtapExplainer::ExplainPrepared(PreparedQuery prepared,
                                                     double budget_ms,
                                                     Trace* trace) {
  ExplainResult result;
  {
    ScopedWallSpan span(trace, spanname::kAnalyze);
    result.truth = expert_.Analyze(prepared.outcome, prepared.query);
  }
  result.outcome = std::move(prepared.outcome);
  result.embedding = std::move(prepared.embedding);
  result.router_encode_ms = prepared.encode_ms;

  if (config_.use_rag) {
    result.retrieval = retriever_.Retrieve(result.embedding, config_.retrieval_k);
  }
  // Recorded with the retriever's own measured search time — the same
  // value end_to_end_ms() charges (zero when RAG is off).
  if (trace != nullptr) {
    trace->AddSpan(spanname::kRetrieve, result.retrieval.search_ms,
                   /*simulated=*/false);
  }

  {
    ScopedWallSpan span(trace, spanname::kPrompt);
    result.prompt = prompt_builder_.Build(
        result.retrieval.items, result.outcome.sql,
        result.outcome.plans.tp.Explain(), result.outcome.plans.ap.Explain(),
        result.outcome.faster);
  }

  // The degradation ladder: primary model -> DBG-PT baseline -> local
  // plan-diff report. Each rung runs behind its own deadline/retry/breaker
  // stack; whatever time a failed rung burned is charged to the request and
  // subtracted from the remaining budget. One "generate" span covers the
  // whole ladder: ResilientLlm advances the trace timeline for every
  // simulated ms it charges, so the span's duration comes out equal to
  // generation time + resilience overhead; attempt/backoff/fallback detail
  // lands on it as events.
  int gen_span = trace != nullptr ? trace->Begin(spanname::kGenerate) : -1;
  double spent = 0.0;
  auto call = primary_->Explain(result.prompt, budget_ms, &spent, trace);
  double total_spent = spent;
  if (call.ok()) {
    result.generation = std::move(call->explanation);
    result.llm_attempts = call->attempts;
    result.resilience_ms = call->overhead_ms;
    result.degradation = DegradationLevel::kFull;
  } else {
    int attempts = config_.resilience.max_attempts;  // pessimistic floor
    std::string reason = call.status().ToString();
    bool answered = false;
    if (fallback_ != nullptr) {
      resilience_metrics_.fallbacks_baseline.Inc();
      double remaining =
          budget_ms > 0.0 ? std::max(0.0, budget_ms - total_spent) : 0.0;
      // A zero remaining budget must not mean "unlimited" for the fallback.
      if (budget_ms <= 0.0 || remaining > 0.0) {
        if (trace != nullptr) {
          trace->Event("fallback_baseline", call.status().ToString());
        }
        spent = 0.0;
        auto fb = fallback_->Explain(result.prompt, remaining, &spent, trace);
        total_spent += spent;
        if (fb.ok()) {
          result.generation = std::move(fb->explanation);
          result.llm_attempts = attempts + fb->attempts;
          result.resilience_ms = total_spent - result.generation.timing.total_ms();
          result.degradation = DegradationLevel::kBaselineFallback;
          result.degradation_reason = std::move(reason);
          answered = true;
        } else {
          reason += "; " + fb.status().ToString();
        }
      } else {
        reason += "; baseline skipped: budget exhausted";
      }
    }
    if (!answered) {
      // Local, LLM-free, always succeeds, costs nothing beyond what the
      // failed rungs already burned.
      resilience_metrics_.fallbacks_plan_diff.Inc();
      if (trace != nullptr) trace->Event("fallback_plan_diff", reason);
      result.generation = MakePlanDiffExplanation(result.prompt);
      result.llm_attempts = attempts;
      result.resilience_ms = total_spent;
      result.degradation = DegradationLevel::kPlanDiffOnly;
      result.degradation_reason = std::move(reason);
    }
  }
  if (trace != nullptr) trace->End(gen_span, /*simulated=*/true);
  {
    ScopedWallSpan span(trace, spanname::kGrade);
    result.grade = grader_.Grade(result.truth, result.generation.claims);
  }
  return result;
}

Result<ExplainResult> HtapExplainer::Explain(const std::string& sql,
                                             Trace* trace) {
  PreparedQuery prepared;
  HTAPEX_ASSIGN_OR_RETURN(prepared, Prepare(sql, trace));
  return ExplainPrepared(std::move(prepared), /*budget_ms=*/0.0, trace);
}

Status HtapExplainer::IncorporateCorrection(const ExplainResult& result) {
  KbEntry entry;
  entry.sql = result.outcome.sql;
  entry.embedding = result.embedding;
  entry.tp_plan_json = result.outcome.plans.tp.Explain();
  entry.ap_plan_json = result.outcome.plans.ap.Explain();
  entry.faster = result.outcome.faster;
  entry.tp_latency_ms = result.outcome.tp_latency_ms;
  entry.ap_latency_ms = result.outcome.ap_latency_ms;
  // The expert's corrected explanation replaces the model's output.
  entry.expert_explanation = result.truth.explanation;
  return InsertWithRetry(std::move(entry));
}

std::string HtapExplainer::AnswerFollowUp(const ExplainResult& result,
                                          const std::string& question) const {
  // Rule-grounded conversational answers for the follow-ups the paper
  // discusses (Section VI-B's closing example and the cost instruction).
  if (ContainsIgnoreCase(question, "index") &&
      (ContainsIgnoreCase(question, "substring") ||
       ContainsIgnoreCase(question, "function") ||
       ContainsIgnoreCase(question, "phone") ||
       ContainsIgnoreCase(question, "not") ||
       ContainsIgnoreCase(question, "why"))) {
    return "Many database systems cannot utilize an index on a column when "
           "a function such as SUBSTRING is applied directly to the indexed "
           "column: the B+-tree orders raw column values, so the engine "
           "cannot translate a predicate over SUBSTRING(c_phone, 1, 2) into "
           "a key range. The predicate is therefore evaluated row by row "
           "against every candidate. To make it indexable you would need a "
           "functional index on the expression, or a derived column storing "
           "the phone prefix.";
  }
  if (ContainsIgnoreCase(question, "cost")) {
    return "The cost numbers in the two plans come from different "
           "optimizers with different cost models and units, so they are "
           "not comparable across engines. A TP cost of 5000 and an AP cost "
           "of 200 say nothing about relative runtime; only the plan "
           "structure and the measured latencies do.";
  }
  if (ContainsIgnoreCase(question, "faster") ||
      ContainsIgnoreCase(question, "why")) {
    return StrFormat(
        "%s was faster here primarily because of this factor: %s.",
        EngineName(result.outcome.faster),
        PerfFactorPhrase(result.truth.primary));
  }
  return "Could you narrow the question down to an aspect of the two plans "
         "(join methods, index usage, storage format, LIMIT/OFFSET)? I can "
         "expand on any part of the explanation.";
}

}  // namespace htapex
