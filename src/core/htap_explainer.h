#ifndef HTAPEX_CORE_HTAP_EXPLAINER_H_
#define HTAPEX_CORE_HTAP_EXPLAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "engine/htap_system.h"
#include "expert/expert_analyzer.h"
#include "expert/grader.h"
#include "llm/llm.h"
#include "llm/resilient_llm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rag/retriever.h"
#include "router/smart_router.h"
#include "sql/binder.h"
#include "vectordb/knowledge_base.h"

namespace htapex {

/// Configuration of the explanation framework.
struct ExplainerConfig {
  /// Top-K similar plan pairs to retrieve (the paper's default is 2).
  int retrieval_k = 2;
  /// "doubao" or "gpt4" — the simulated pre-trained model persona.
  std::string persona = "doubao";
  /// false = DBG-PT-style baseline: no knowledge retrieved, RAG sections
  /// removed from the prompt (the paper's Section VI-D comparison setup).
  bool use_rag = true;
  uint64_t seed = 7;
  /// Fault-injection spec (see common/fault.h), e.g.
  /// "llm.transient_error:p=0.2;llm.timeout:p=0.1,lat=500". Empty reads the
  /// HTAPEX_FAULTS environment variable; "off" disables even the env spec.
  std::string faults;
  /// Seed for fault draws and backoff jitter (HTAPEX_FAULT_SEED overrides
  /// when the spec came from the environment).
  uint64_t fault_seed = 42;
  /// Additional user context appended to prompts (Table I's third section).
  std::string user_context =
      "Beyond the default indexes on primary and foreign keys, an "
      "additional index has been created on the c_phone column in the "
      "customer table.";
};

/// How much of the full RAG pipeline a result actually exercised. The
/// explanation service degrades stepwise instead of failing: RAG model ->
/// DBG-PT baseline (the paper's Section VI-D comparator, exactly the
/// knowledge-free mode it already characterizes) -> local plan-diff report.
/// Accuracy benches segment by this tag so degraded answers never pollute
/// the full-pipeline numbers.
enum class DegradationLevel {
  kFull = 0,             // RAG-grounded explanation (the configured model)
  kBaselineFallback,     // RAG exhausted/short-circuited; DBG-PT answered
  kPlanDiffOnly,         // both models failed; structural plan diff
};
const char* DegradationLevelName(DegradationLevel level);

/// Everything produced while explaining one query.
struct ExplainResult {
  HtapQueryOutcome outcome;        // plans, modelled latencies, faster engine
  ExpertAnalysis truth;            // ground-truth analysis (for evaluation)
  Prompt prompt;                   // what the model saw
  RetrievalResult retrieval;       // what the retriever returned
  GeneratedExplanation generation; // what the model produced
  GradeResult grade;               // expert grading vs truth
  std::vector<double> embedding;   // the 16-dim plan-pair encoding
  double router_encode_ms = 0.0;   // measured embedding time
  /// Service-layer result cache: whether this explanation was served from
  /// the embedding-keyed cache, and the measured probe time. A miss also
  /// pays the probe, so both paths report it.
  bool from_cache = false;
  double cache_lookup_ms = 0.0;
  /// Which rung of the degradation ladder produced this answer and the
  /// simulated time burned on failed attempts + backoff + fallback chains.
  /// Empty reason for kFull.
  DegradationLevel degradation = DegradationLevel::kFull;
  double resilience_ms = 0.0;
  std::string degradation_reason;
  /// Per-request span tree (see obs/trace.h) when the producing pipeline
  /// ran with tracing on; null otherwise. ExplainService attaches one to
  /// every result it serves, cache hits included.
  std::shared_ptr<const Trace> trace;
  /// End-to-end (paper Section VI-B): encode + cache probe + search +
  /// thinking + generation, plus any resilience overhead (failed attempts,
  /// backoff, fallback chains). Cache hits zero out the search/generation
  /// components (nothing was searched or generated), so hit latencies stay
  /// honest next to miss latencies.
  double end_to_end_ms() const {
    return router_encode_ms + cache_lookup_ms + retrieval.search_ms +
           generation.timing.total_ms() + resilience_ms;
  }
};

/// Stage one of Explain(): everything derivable from the SQL alone — the
/// planned query (HtapSystem::Plan) plus the plan-pair embedding. Cheap
/// relative to stage two (no expert analysis, retrieval, or generation),
/// which lets a service probe its result cache by embedding before
/// committing to the expensive stage.
struct PreparedQuery : PlannedQuery {
  std::vector<double> embedding;
  double encode_ms = 0.0;  // measured embedding wall time
  /// Router verdict from the same frozen forward pass that produced the
  /// embedding: P(AP faster). The model lifecycle compares it against the
  /// measured outcome without paying a second inference.
  double p_ap = 0.5;
};

/// The paper's 20 representative knowledge-base queries (Section IV), drawn
/// from a workload at statistics scale `stats_scale_factor` with the
/// explainer seed `seed`. HtapExplainer::BuildDefaultKnowledgeBase inserts
/// them; the sharded tier partitions them across shards by ring ownership.
std::vector<std::string> DefaultKnowledgeSqls(double stats_scale_factor,
                                              uint64_t seed);

/// The paper's contribution, end to end: a RAG-augmented LLM framework that
/// explains TP/AP performance differences. Owns the smart router (tree-CNN
/// classifier + plan-pair encoder), the vector knowledge base with
/// expert-curated explanations, the prompt builder (Table I), and the
/// simulated pre-trained LLM.
class HtapExplainer {
 public:
  /// `system` must outlive the explainer.
  HtapExplainer(const HtapSystem* system, ExplainerConfig config);

  /// Trains the smart router on a generated workload labelled by the
  /// latency model (the router's original routing task, which is what
  /// makes its embeddings performance-aware).
  Result<RouterTrainStats> TrainRouter();

  /// Expert-annotates the given queries and inserts them as knowledge-base
  /// entries.
  Status AddToKnowledgeBase(const std::vector<std::string>& sqls);

  /// The paper's 20 representative queries: a deterministic selection that
  /// covers the workload's performance-distinction patterns.
  Status BuildDefaultKnowledgeBase();

  /// Drift-triggered knowledge curation: re-plans every live entry's SQL
  /// under the system's *current* latency model and, where the stored
  /// faster-engine verdict no longer holds, expires the stale entry and
  /// backfills a freshly expert-annotated replacement (embedded by the
  /// current router). Writes to the knowledge base — callers running
  /// concurrently with retrieval must hold the same exclusive lock as
  /// IncorporateCorrection (ExplainService's curation hook does). Reports
  /// how many entries were expired / backfilled; never touches entries
  /// whose verdicts still hold.
  Status CurateKnowledgeBase(uint64_t* expired, uint64_t* backfilled);

  /// Full pipeline for one query: plan both engines, embed the pair,
  /// retrieve top-K knowledge, prompt the model, grade the output.
  /// Equivalent to Prepare() followed by ExplainPrepared(). A non-null
  /// `trace` receives one span per pipeline stage (taxonomy in
  /// obs/trace.h); the caller owns the trace's lifetime.
  Result<ExplainResult> Explain(const std::string& sql,
                                Trace* trace = nullptr);

  /// Stage one: bind, plan both engines, model latencies, then one frozen
  /// router forward pass that embeds the pair and scores the route. Read-
  /// only on the explainer (safe to run concurrently with other
  /// Prepare/ExplainPrepared calls). Spans: parse, bind, tp_optimize,
  /// ap_optimize, route, embed; the embed span carries the measured encode
  /// time end_to_end_ms() charges.
  Result<PreparedQuery> Prepare(const std::string& sql,
                                Trace* trace = nullptr) const;

  /// Stage two: expert analysis, knowledge retrieval, prompting,
  /// generation, grading. Reads the knowledge base — callers running this
  /// concurrently with IncorporateCorrection must hold a reader lock
  /// (ExplainService does).
  ///
  /// The generation step runs through the resilience layer: per-attempt
  /// deadlines, bounded jittered retries and a circuit breaker on the RAG
  /// model; on exhaustion it degrades to the DBG-PT baseline, then to a
  /// local plan-diff report — the result's `degradation` tag records which
  /// rung answered. `budget_ms` > 0 caps the simulated time the LLM chain
  /// may burn (DeadlineExceeded once no rung could run within it; the
  /// plan-diff rung is free and always fits). Spans on a non-null `trace`:
  /// analyze, retrieve, prompt, generate (with per-attempt / fallback
  /// events), grade.
  Result<ExplainResult> ExplainPrepared(PreparedQuery prepared,
                                        double budget_ms = 0.0,
                                        Trace* trace = nullptr);

  /// The expert feedback loop: after a non-accurate explanation, the expert
  /// corrects it and the corrected entry joins the knowledge base for
  /// future retrieval (Section III-B). Transient (fault-injected) KB write
  /// failures are retried a bounded number of times.
  Status IncorporateCorrection(const ExplainResult& result);

  /// Replaces the active fault spec and rebuilds the resilient LLM
  /// wrappers (fresh breakers, zeroed resilience counters). NOT
  /// thread-safe: call only while no explanations are in flight. Benches
  /// use this to sweep fault rates without retraining the router.
  Status ConfigureFaults(const std::string& spec, uint64_t fault_seed);

  /// Point-in-time copy of the resilience counters.
  ResilienceStats ResilienceSnapshot() const {
    return LoadStats(resilience_metrics_);
  }
  const FaultInjector& faults() const { return faults_; }
  /// Breaker state of the primary (RAG) dependency.
  BreakerState primary_breaker_state() const {
    return primary_->breaker_state();
  }

  /// Conversational follow-up (Section VI-B's closing example): answers a
  /// user's follow-up question about a produced explanation.
  std::string AnswerFollowUp(const ExplainResult& result,
                             const std::string& question) const;

  const SmartRouter& router() const { return router_; }
  SmartRouter& mutable_router() { return router_; }
  const KnowledgeBase& knowledge_base() const { return kb_; }
  KnowledgeBase& mutable_knowledge_base() { return kb_; }
  const ExplainerConfig& config() const { return config_; }
  const HtapSystem& system() const { return *system_; }

 private:
  /// Makes `faults` the active injector: KB writes and both LLM wrappers
  /// draw from it, and the resilience counters start from zero.
  void InstallFaults(FaultInjector faults);
  /// (Re)creates the resilient wrappers around fresh model instances —
  /// primary follows config_.use_rag; fallback is the DBG-PT baseline
  /// (null when the primary already is the baseline).
  void RebuildResilientLlms();
  /// KB insert with bounded retries on injected transient write faults.
  Status InsertWithRetry(KbEntry entry);

  const HtapSystem* system_;
  ExplainerConfig config_;
  SmartRouter router_;
  KnowledgeBase kb_;
  Retriever retriever_;
  PromptBuilder prompt_builder_;
  FaultInjector faults_;
  ResilienceMetrics resilience_metrics_;
  std::unique_ptr<ResilientLlm> primary_;
  std::unique_ptr<ResilientLlm> fallback_;  // DBG-PT; null when !use_rag
  ExpertAnalyzer expert_;
  ExpertGrader grader_;
};

}  // namespace htapex

#endif  // HTAPEX_CORE_HTAP_EXPLAINER_H_
