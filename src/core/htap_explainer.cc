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
  Result<FaultInjector> faults =
      FaultInjector::FromConfig(config_.faults, config_.fault_seed);
  if (!faults.ok()) {
    // A constructor cannot propagate the error; refusing to inject is the
    // safe interpretation of a malformed spec.
    HTAPEX_LOG(Warning) << "ignoring malformed fault spec: "
                        << faults.status();
  }
  InstallFaults(faults.ok() ? std::move(faults).value() : FaultInjector());
}

Status HtapExplainer::ConfigureFaults(const std::string& spec,
                                      uint64_t fault_seed) {
  // "off" is accepted here too so callers sweeping fault levels (benches)
  // can use the same spellings ExplainerConfig::faults accepts.
  HTAPEX_ASSIGN_OR_RETURN(
      FaultInjector faults,
      FaultInjector::Parse(spec == "off" ? "" : spec, fault_seed));
  InstallFaults(std::move(faults));
  return Status::OK();
}

void HtapExplainer::InstallFaults(FaultInjector faults) {
  faults_ = std::move(faults);
  kb_.set_fault_injector(&faults_);
  ResetStats(resilience_metrics_);
  RebuildResilientLlms();
  if (faults_.enabled()) {
    HTAPEX_LOG(Info) << "fault injection active: " << faults_.ToString()
                     << " (seed " << faults_.seed() << ")";
  }
}

void HtapExplainer::RebuildResilientLlms() {
  const uint64_t seed =
      faults_.enabled() ? faults_.seed() : config_.fault_seed;
  if (config_.use_rag) {
    primary_ = std::make_unique<ResilientLlm>(
        MakeRagLlm(ConfigPersona(config_)), "rag", seed, &faults_,
        &resilience_metrics_);
    fallback_ = std::make_unique<ResilientLlm>(
        MakeDbgPtLlm(ConfigPersona(config_)), "baseline", seed, &faults_,
        &resilience_metrics_);
  } else {
    primary_ = std::make_unique<ResilientLlm>(
        MakeDbgPtLlm(ConfigPersona(config_)), "baseline", seed, &faults_,
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
    HTAPEX_ASSIGN_OR_RETURN(PlannedQuery planned, system_->Plan(gq.sql));
    dataset.push_back(
        router_.MakeExample(planned.outcome.plans, planned.outcome.faster));
  }
  RouterTrainStats stats = router_.Train(dataset, kRouterTrainEpochs);
  HTAPEX_LOG(Info) << "router trained on " << dataset.size() << " queries: "
                   << 100.0 * stats.train_accuracy << "% train accuracy in "
                   << stats.wall_seconds << "s";
  return stats;
}

Status HtapExplainer::AddToKnowledgeBase(const std::vector<std::string>& sqls) {
  for (const std::string& sql : sqls) {
    HTAPEX_ASSIGN_OR_RETURN(PlannedQuery planned, system_->Plan(sql));
    const HtapQueryOutcome& outcome = planned.outcome;
    ExpertAnalysis truth = expert_.Analyze(outcome, planned.query);
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
    Result<PlannedQuery> planned = system_->Plan(entry->sql);
    if (!planned.ok()) continue;  // schema drifted from under the entry; skip
    if (planned->outcome.faster != entry->faster) {
      stale.push_back({entry->id, entry->sql});
    }
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

Result<PreparedQuery> HtapExplainer::Prepare(const std::string& sql,
                                             Trace* trace) const {
  PreparedQuery prepared;
  HTAPEX_ASSIGN_OR_RETURN(static_cast<PlannedQuery&>(prepared),
                          system_->Plan(sql, trace));
  WallTimer encode_timer;
  std::vector<RoutedPair> routed =
      router_.RouteBatch({&prepared.outcome.plans});
  prepared.encode_ms = encode_timer.ElapsedMillis();
  prepared.embedding = std::move(routed[0].embedding);
  prepared.p_ap = routed[0].p_ap;
  // Recorded rather than scoped: the span must carry the same measured
  // value end_to_end_ms() charges as router_encode_ms.
  if (trace != nullptr) {
    trace->AddSpan(spanname::kEmbed, prepared.encode_ms, /*simulated=*/false);
  }
  return prepared;
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
    result.resilience_ms = call->overhead_ms;
    result.degradation = DegradationLevel::kFull;
  } else {
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
