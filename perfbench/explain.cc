// The two explain-request workloads.
//
// explain_cold: HtapExplainer::Explain on distinct SQL, one client, closed
// loop, no service and no result cache (the paper's request path).
// serve_feedback: ExplainService with its result cache, request tracing and
// batched drains, a durable 2,000-entry knowledge base, a skewed request
// stream over ~4x the cache, and expert corrections on a fixed share of
// fresh answers (the deployed feedback loop).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "ap/ap_optimizer.h"
#include "common/rng.h"
#include "core/htap_explainer.h"
#include "durable/durable_kb.h"
#include "expert/expert_analyzer.h"
#include "expert/grader.h"
#include "llm/llm.h"
#include "llm/prompt.h"
#include "perfbench.h"
#include "rag/retriever.h"
#include "service/explain_service.h"
#include "tp/tp_optimizer.h"

namespace perfbench {
namespace {

using htapex::ExplanationGrade;

// Seed tags: each generated input stream derives its seed from --seed.
constexpr uint64_t kTagColdPool = 1;
constexpr uint64_t kTagServePool = 2;
constexpr uint64_t kTagGrowth = 3;
constexpr uint64_t kTagStream = 4;
constexpr uint64_t kTagCorrect = 5;

/// Full set-ups per run; setup_s is their median.
constexpr int kSetupRepetitions = 3;
/// Speed-probe samples taken after each set-up.
constexpr int kSetupProbes = 8;
/// explain_cold: distinct queries cycled through by the timed loop.
constexpr size_t kColdPool = 4096;
constexpr size_t kColdWarmup = 128;
/// serve_feedback sizes (WORKLOADS.md explains each choice).
constexpr size_t kServePool = 4096;
constexpr size_t kGrowthQueries = 1980;
constexpr double kZipfExponent = 0.8;
/// One worker: with two, throughput followed the VM's momentary
/// parallelism (runs at 3.1x measured parallelism lost 40-50%), which the
/// single-threaded speed probe cannot scale away.
constexpr int kServiceWorkers = 1;
/// Eight drains deep, so the worker never waits for the generator thread.
/// With 16 outstanding, the generator's scheduling on a shared VM showed in
/// the tail: op_ms_p90 spread 45% over ten runs.
constexpr size_t kOutstanding = 64;
constexpr size_t kServeWarmup = 2048;
constexpr uint64_t kCorrectOneIn = 64;
constexpr size_t kRetrieveProbes = 512;

struct ExplainStack {
  std::unique_ptr<htapex::HtapSystem> system;
  std::unique_ptr<htapex::HtapExplainer> explainer;
};

htapex::ExplainerConfig BenchExplainerConfig() {
  htapex::ExplainerConfig config;
  // Pinned: an empty spec would read HTAPEX_FAULTS from the environment.
  config.faults = "off";
  return config;
}

/// Plan-only system at the paper's SF 100 statistics, a trained router and
/// the paper's 20-entry knowledge base.
std::unique_ptr<ExplainStack> MakeExplainStack(RunResult* result) {
  auto stack = std::make_unique<ExplainStack>();
  stack->system = std::make_unique<htapex::HtapSystem>();
  htapex::HtapConfig config;
  config.stats_scale_factor = 100.0;
  config.data_scale_factor = 0.0;
  htapex::Status st = stack->system->Init(config);
  if (!st.ok()) {
    result->Fail("system init: " + st.ToString());
    return nullptr;
  }
  stack->explainer = std::make_unique<htapex::HtapExplainer>(
      stack->system.get(), BenchExplainerConfig());
  if (stack->explainer->faults().enabled()) {
    result->Fail("fault injection is active despite faults=off");
    return nullptr;
  }
  auto trained = stack->explainer->TrainRouter();
  if (!trained.ok()) {
    result->Fail("router training: " + trained.status().ToString());
    return nullptr;
  }
  st = stack->explainer->BuildDefaultKnowledgeBase();
  if (!st.ok()) {
    result->Fail("knowledge base: " + st.ToString());
    return nullptr;
  }
  return stack;
}

/// A served explanation must be the full RAG answer: faults are off, so
/// any degradation is a defect.
bool ExplanationOk(const htapex::Result<htapex::ExplainResult>& r) {
  return r.ok() && r->degradation == htapex::DegradationLevel::kFull &&
         !r->generation.text.empty();
}

// ---------------------------------------------------------------- explain_cold

/// The public stages Explain composes, called one by one under spans and
/// configured like the explainer (same router, KB, persona, user context).
class StagedExplainer {
 public:
  explicit StagedExplainer(const htapex::HtapExplainer& explainer)
      : explainer_(explainer),
        system_(explainer.system()),
        tp_(system_.catalog(), system_.config().tp_cost),
        ap_(system_.catalog(), system_.config().ap_cost),
        analyzer_(system_.catalog(), system_.config().latency),
        retriever_(&explainer.knowledge_base()),
        llm_(htapex::MakeRagLlm(explainer.config().persona == "gpt4"
                                    ? htapex::Gpt4Persona()
                                    : htapex::DoubaoPersona())) {
    prompts_.set_user_context(explainer.config().user_context);
  }

  /// Runs one request; `*ok` is false when a stage returned an error.
  ExplanationGrade Run(const std::string& sql, uint64_t request, SpanLog* log,
                       bool* ok) {
    *ok = false;
    const int root = log->Begin("explain", -1, request);
    int s = log->Begin("sql.bind", root, request);
    auto bound = system_.Bind(sql);
    log->End(s);
    if (!bound.ok()) return End(log, root);
    htapex::HtapQueryOutcome outcome;
    outcome.sql = sql;
    s = log->Begin("tp.plan", root, request);
    auto tp = tp_.Plan(*bound);
    log->End(s);
    s = log->Begin("ap.plan", root, request);
    auto ap = ap_.Plan(*bound);
    log->End(s);
    if (!tp.ok() || !ap.ok()) return End(log, root);
    outcome.plans.tp = std::move(*tp);
    outcome.plans.ap = std::move(*ap);
    s = log->Begin("engine.latency_model", root, request);
    outcome.tp_latency_ms = system_.LatencyMs(outcome.plans.tp);
    outcome.ap_latency_ms = system_.LatencyMs(outcome.plans.ap);
    log->End(s);
    outcome.faster = outcome.tp_latency_ms <= outcome.ap_latency_ms
                         ? htapex::EngineKind::kTp
                         : htapex::EngineKind::kAp;
    s = log->Begin("router.route", root, request);
    std::vector<htapex::RoutedPair> routed =
        explainer_.router().RouteBatch({&outcome.plans});
    log->End(s);
    if (routed.size() != 1) return End(log, root);
    s = log->Begin("expert.analyze", root, request);
    htapex::ExpertAnalysis truth = analyzer_.Analyze(outcome, *bound);
    log->End(s);
    s = log->Begin("rag.retrieve", root, request);
    htapex::RetrievalResult retrieval = retriever_.Retrieve(
        routed[0].embedding, explainer_.config().retrieval_k);
    log->End(s);
    s = log->Begin("llm.prompt", root, request);
    htapex::Prompt prompt = prompts_.Build(
        std::move(retrieval.items), sql, outcome.plans.tp.Explain(),
        outcome.plans.ap.Explain(), outcome.faster);
    log->End(s);
    s = log->Begin("llm.generate", root, request);
    htapex::GeneratedExplanation generated = llm_->Explain(prompt);
    log->End(s);
    s = log->Begin("expert.grade", root, request);
    htapex::GradeResult grade = grader_.Grade(truth, generated.claims);
    log->End(s);
    log->End(root);
    *ok = true;
    return grade.grade;
  }

 private:
  static ExplanationGrade End(SpanLog* log, int root) {
    log->End(root);
    return ExplanationGrade::kNone;
  }

  const htapex::HtapExplainer& explainer_;
  const htapex::HtapSystem& system_;
  htapex::TpOptimizer tp_;
  htapex::ApOptimizer ap_;
  htapex::ExpertAnalyzer analyzer_;
  htapex::Retriever retriever_;
  htapex::PromptBuilder prompts_;
  std::unique_ptr<htapex::SimulatedLlm> llm_;
  htapex::ExpertGrader grader_;
};

void TracedExplainCold(const Options& options,
                       const std::vector<std::string>& pool,
                       htapex::HtapExplainer* explainer, RunResult* result) {
  // Untraced half: Explain() exactly as the untraced run calls it.
  std::vector<ExplanationGrade> grades;
  std::vector<double> op_ms;
  const auto t0 = Clock::now();
  while (SecondsSince(t0) < options.seconds / 2) {
    const auto a = Clock::now();
    auto r = explainer->Explain(pool[grades.size() % pool.size()]);
    op_ms.push_back(MillisSince(a));
    ++result->attempted;
    if (!ExplanationOk(r)) {
      ++result->failed;
      grades.push_back(ExplanationGrade::kNone);
      continue;
    }
    grades.push_back(r->grade.grade);
  }
  const double untraced_s = SecondsSince(t0);

  // Traced half: the same queries through the staged pipeline; grades must
  // match the untraced answers one for one.
  StagedExplainer staged(*explainer);
  SpanLog log;
  uint64_t mismatches = 0;
  const auto t1 = Clock::now();
  for (size_t i = 0; i < grades.size(); ++i) {
    bool ok = false;
    ExplanationGrade g = staged.Run(pool[i % pool.size()], i, &log, &ok);
    ++result->attempted;
    if (!ok) ++result->failed;
    if (g != grades[i]) ++mismatches;
  }
  const double traced_s = SecondsSince(t1);
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) + " of " +
                 std::to_string(grades.size()) +
                 " traced grades differ from the untraced run");
  }

  auto& m = result->per_layer;
  for (const char* stage :
       {"sql.bind", "tp.plan", "ap.plan", "engine.latency_model",
        "router.route", "expert.analyze", "rag.retrieve", "llm.prompt",
        "llm.generate", "expert.grade"}) {
    m.push_back({std::string(stage) + "_us", log.MeanSelfMicros(stage), "us"});
  }
  const double coverage = log.CoveragePct("explain");
  if (coverage < 90.0) {
    result->Fail("stage spans cover only " + std::to_string(coverage) +
                 "% of traced request time (< 90%)");
  }
  m.push_back({"trace.coverage_pct", coverage, "%"});
  m.push_back({"trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0),
               "%"});
  m.push_back({"op_ms_p99", Percentile(op_ms, 0.99), "ms"});
  log.Dump(options.work_dir + "/spans-explain_cold.jsonl");
}

}  // namespace

RunResult RunExplainCold(const Options& options) {
  RunResult result;
  const std::vector<std::string> pool =
      DistinctMix(100.0, DeriveSeed(options.seed, kTagColdPool), kColdPool);

  std::unique_ptr<ExplainStack> stack;
  std::vector<double> setup_s;
  SpeedProbe setup_probe;
  SpeedProbe probe;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = MakeExplainStack(&result);
    if (stack == nullptr) return result;
    for (size_t i = 0; i < kColdWarmup; ++i) {
      if (!ExplanationOk(stack->explainer->Explain(pool[i]))) {
        result.Fail("warm-up explanation failed");
        return result;
      }
    }
    setup_s.push_back(SecondsSince(t0));
    for (int k = 0; k < kSetupProbes; ++k) setup_probe.Sample();
  }
  result.info.push_back({"pool_queries", static_cast<double>(pool.size()),
                         "count"});

  if (options.trace) {
    TracedExplainCold(options, pool, stack->explainer.get(), &result);
    return result;
  }

  std::vector<double> op_ms;
  op_ms.reserve(1 << 16);
  uint64_t accurate = 0;
  const double cpu0 = ProcessCpuSeconds();
  const double probe0 = probe.spent_s();
  const auto t0 = Clock::now();
  for (size_t i = 0; SecondsSince(t0) < options.seconds; ++i) {
    probe.MaybeSample();
    const auto a = Clock::now();
    auto r = stack->explainer->Explain(pool[i % pool.size()]);
    op_ms.push_back(MillisSince(a));
    ++result.attempted;
    if (!ExplanationOk(r)) {
      ++result.failed;
    } else if (r->grade.grade == ExplanationGrade::kAccurate) {
      ++accurate;
    }
  }
  // The probe ran on the op thread: its time is neither wall nor CPU of
  // the ops.
  const double probed_s = probe.spent_s() - probe0;
  const double wall_s = SecondsSince(t0) - probed_s;
  const double cpu_s = ProcessCpuSeconds() - cpu0 - probed_s;
  result.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  AddTimeMetrics(setup_s, setup_probe, op_ms, wall_s, cpu_s, probe, &result);
  result.end_to_end.push_back(
      {"quality_pct",
       100.0 * static_cast<double>(accurate) /
           static_cast<double>(result.attempted),
       "%"});
  result.info.push_back({"op_ms_p99", Percentile(op_ms, 0.99), "ms"});
  result.info.push_back({"ops", static_cast<double>(op_ms.size()), "count"});
  return result;
}

// ------------------------------------------------------------- serve_feedback

namespace {

/// Zipf-skewed request stream over a seeded permutation of the pool, so
/// which queries are hot changes with the seed but the skew does not.
class RequestStream {
 public:
  RequestStream(size_t pool_size, uint64_t seed) : rng_(seed) {
    cdf_.reserve(pool_size);
    double total = 0.0;
    for (size_t rank = 1; rank <= pool_size; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    order_.resize(pool_size);
    for (size_t i = 0; i < pool_size; ++i) order_[i] = i;
    for (size_t i = pool_size; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.NextU64() % i]);
    }
  }

  size_t Next() {
    const double u = rng_.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  htapex::Rng rng_;
  std::vector<double> cdf_;
  std::vector<size_t> order_;
};

/// Members are destroyed bottom-up: the service stops before the durable
/// layer detaches, and both before the explainer goes.
struct ServeStack {
  ServeStack(size_t pool_size, uint64_t stream_seed)
      : stream(pool_size, stream_seed) {}

  std::unique_ptr<ExplainStack> base;
  std::unique_ptr<htapex::DurableKnowledgeBase> durable;
  std::unique_ptr<htapex::ExplainService> service;
  RequestStream stream;
  std::string wal_dir;
  size_t start_entries = 0;
  uint64_t next_request = 0;
};

/// What one pass of the load generator observed.
struct LoopStats {
  std::vector<double> op_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> write_ms;
  std::vector<std::vector<double>> probe_embeddings;
  uint64_t requests = 0;
  uint64_t accurate = 0;
  uint64_t acked = 0;
  double wall_s = 0.0;
};

const char* CanonicalSpanName(const std::string& name) {
  for (const char* canonical : htapex::TraceMetrics::SpanNames()) {
    if (name == canonical) return canonical;
  }
  return "other";
}

/// Adds the request's span with the service's own wall-timed stages (from
/// the trace every served result carries) laid end to end as children.
void RecordRequestSpans(const htapex::ExplainResult& r, uint64_t request,
                        Clock::time_point submitted, Clock::time_point ready,
                        SpanLog* log) {
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  const int root = log->Add("request", ns(submitted), ns(ready), -1, request);
  if (r.trace == nullptr) return;
  int64_t at = ns(submitted);
  for (const htapex::Span& span : r.trace->spans()) {
    if (span.simulated || span.parent >= 0) continue;
    const int64_t dur = static_cast<int64_t>(span.dur_ms * 1e6);
    log->Add(CanonicalSpanName(span.name), at, at + dur, root, request);
    at += dur;
  }
}

/// The load generator: one thread keeps kOutstanding requests in flight
/// until `seconds` pass or `max_requests` were sent, then drains. A fixed
/// share of fresh answers gets an expert correction, chosen by request
/// index, so KB growth per request never depends on the program's speed.
void DriveService(const std::vector<std::string>& pool, double seconds,
                  uint64_t max_requests, uint64_t correct_seed,
                  ServeStack* stack, RunResult* result, LoopStats* stats,
                  SpanLog* log, SpeedProbe* probe) {
  struct Pending {
    std::future<htapex::Result<htapex::ExplainResult>> future;
    Clock::time_point submitted;
    uint64_t index = 0;
  };
  std::deque<Pending> inflight;
  uint64_t sent = 0;
  const auto t0 = Clock::now();
  auto last_ready = t0;
  for (;;) {
    while (inflight.size() < kOutstanding && sent < max_requests &&
           SecondsSince(t0) < seconds) {
      Pending p;
      p.index = stack->next_request++;
      p.submitted = Clock::now();
      p.future = stack->service->Submit(pool[stack->stream.Next()]);
      inflight.push_back(std::move(p));
      ++sent;
    }
    if (inflight.empty()) break;
    if (probe != nullptr) probe->MaybeSample();
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    htapex::Result<htapex::ExplainResult> r = p.future.get();
    last_ready = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(last_ready - p.submitted)
            .count();
    ++result->attempted;
    ++stats->requests;
    stats->op_ms.push_back(ms);
    if (!ExplanationOk(r)) {
      ++result->failed;
      continue;
    }
    (r->from_cache ? stats->hit_ms : stats->miss_ms).push_back(ms);
    if (r->grade.grade == ExplanationGrade::kAccurate) ++stats->accurate;
    if (log != nullptr) {
      RecordRequestSpans(*r, p.index, p.submitted, last_ready, log);
    }
    if (r->from_cache) continue;
    if (stats->probe_embeddings.size() < kRetrieveProbes) {
      stats->probe_embeddings.push_back(r->embedding);
    }
    if (correct_seed != 0 &&
        DeriveSeed(correct_seed, p.index) % kCorrectOneIn == 0) {
      const int span =
          log != nullptr ? log->Begin("correction", -1, p.index) : -1;
      const auto w0 = Clock::now();
      htapex::Status st = stack->service->IncorporateCorrection(*r);
      stats->write_ms.push_back(MillisSince(w0));
      if (log != nullptr) log->End(span);
      ++result->attempted;
      if (st.ok()) {
        ++stats->acked;
      } else {
        ++result->failed;
      }
    }
  }
  stats->wall_s = std::chrono::duration<double>(last_ready - t0).count();
}

/// Plan-only explain stack, KB grown to ~2,000 expert-annotated entries,
/// made durable (fsync per append), fronted by the service, warmed up.
std::unique_ptr<ServeStack> MakeServeStack(
    const Options& options, const std::vector<std::string>& pool,
    const std::vector<std::string>& growth, RunResult* result) {
  auto stack = std::make_unique<ServeStack>(
      pool.size(), DeriveSeed(options.seed, kTagStream));
  stack->base = MakeExplainStack(result);
  if (stack->base == nullptr) return nullptr;
  htapex::HtapExplainer* explainer = stack->base->explainer.get();
  htapex::Status st = explainer->AddToKnowledgeBase(growth);
  if (!st.ok()) {
    result->Fail("knowledge-base growth: " + st.ToString());
    return nullptr;
  }
  stack->start_entries = explainer->knowledge_base().size();
  stack->wal_dir = options.work_dir + "/kb-wal-" + std::to_string(getpid());
  std::filesystem::remove_all(stack->wal_dir);
  htapex::DurabilityOptions durability;
  durability.dir = stack->wal_dir;
  stack->durable = std::make_unique<htapex::DurableKnowledgeBase>(durability);
  auto attached =
      stack->durable->Attach(&explainer->mutable_knowledge_base());
  if (!attached.ok()) {
    result->Fail("durable attach: " + attached.status().ToString());
    return nullptr;
  }
  htapex::ServiceConfig config;
  config.num_workers = kServiceWorkers;
  config.durable = stack->durable.get();
  stack->service = std::make_unique<htapex::ExplainService>(explainer, config);
  RunResult warmup;
  LoopStats warm;
  DriveService(pool, 1e9, kServeWarmup, /*correct_seed=*/0, stack.get(),
               &warmup, &warm, nullptr, nullptr);
  if (warmup.failed > 0) {
    result->Fail("warm-up requests failed");
    return nullptr;
  }
  return stack;
}

/// Stops the service the way a crash would (no clean-shutdown snapshot),
/// then recovers the WAL directory into a fresh KB. It must hold the start
/// entries plus every acknowledged correction. Returns the recovery time.
double CheckRecovery(ServeStack* stack, uint64_t acked, RunResult* result) {
  const htapex::KnowledgeBase& live = stack->base->explainer->knowledge_base();
  const size_t expected = stack->start_entries + acked;
  if (live.size() != expected) {
    result->Fail("live KB holds " + std::to_string(live.size()) +
                 " entries, expected " + std::to_string(expected));
  }
  stack->service->Kill();
  stack->service.reset();
  stack->durable.reset();
  htapex::KnowledgeBase recovered(live.dim(), live.index_mode());
  htapex::DurabilityOptions durability;
  durability.dir = stack->wal_dir;
  htapex::DurableKnowledgeBase reopened(durability);
  const auto t0 = Clock::now();
  auto info = reopened.Attach(&recovered);
  const double recovery_ms = MillisSince(t0);
  if (!info.ok()) {
    result->Fail("recovery: " + info.status().ToString());
  } else if (recovered.size() != expected) {
    result->Fail("recovered KB holds " + std::to_string(recovered.size()) +
                 " entries, expected " + std::to_string(expected));
  }
  reopened.Detach();
  std::filesystem::remove_all(stack->wal_dir);
  return recovery_ms;
}

}  // namespace

RunResult RunServeFeedback(const Options& options) {
  RunResult result;
  const std::vector<std::string> pool =
      DistinctMix(100.0, DeriveSeed(options.seed, kTagServePool), kServePool);
  const std::vector<std::string> growth = DistinctMix(
      100.0, DeriveSeed(options.seed, kTagGrowth), kGrowthQueries);
  const uint64_t correct_seed = DeriveSeed(options.seed, kTagCorrect) | 1;

  std::unique_ptr<ServeStack> stack;
  std::vector<double> setup_s;
  SpeedProbe setup_probe;
  SpeedProbe probe;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (stack != nullptr) {
      stack->service.reset();
      stack->durable.reset();
      std::filesystem::remove_all(stack->wal_dir);
      stack.reset();
    }
    const auto t0 = Clock::now();
    stack = MakeServeStack(options, pool, growth, &result);
    if (stack == nullptr) return result;
    setup_s.push_back(SecondsSince(t0));
    for (int k = 0; k < kSetupProbes; ++k) setup_probe.Sample();
  }
  htapex::ExplainService& service = *stack->service;
  result.info.push_back({"kb_entries_start",
                         static_cast<double>(stack->start_entries), "count"});

  const auto cache0 = service.CacheStats();
  const auto durable0 = stack->durable->StatsSnapshot();
  const double cpu0 = ProcessCpuSeconds();
  const double probe0 = probe.spent_s();
  LoopStats untraced;
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  DriveService(pool, untraced_seconds, UINT64_MAX, correct_seed, stack.get(),
               &result, &untraced, nullptr, options.trace ? nullptr : &probe);
  // The workers keep serving while the generator probes, so only the
  // probe's CPU comes off.
  const double cpu_s = ProcessCpuSeconds() - cpu0 - (probe.spent_s() - probe0);

  LoopStats traced;
  SpanLog log;
  const auto cache1 = service.CacheStats();
  if (options.trace) {
    DriveService(pool, options.seconds / 2, UINT64_MAX, correct_seed,
                 stack.get(), &result, &traced, &log, nullptr);
  }
  const auto cache2 = service.CacheStats();
  const auto durable2 = stack->durable->StatsSnapshot();
  const uint64_t acked = untraced.acked + traced.acked;
  const size_t end_entries =
      stack->base->explainer->knowledge_base().size();

  if (options.trace) {
    // Direct retrieval on the KB as it stands after the run (service
    // drained, so no lock is needed).
    htapex::Retriever retriever(&stack->base->explainer->knowledge_base());
    const int k = stack->base->explainer->config().retrieval_k;
    for (size_t i = 0; i < traced.probe_embeddings.size(); ++i) {
      const int span = log.Begin("rag.retrieve", -1, i);
      htapex::RetrievalResult r =
          retriever.Retrieve(traced.probe_embeddings[i], k);
      log.End(span);
      if (r.items.empty()) result.Fail("direct retrieval returned nothing");
    }
  }
  const double recovery_ms = CheckRecovery(stack.get(), acked, &result);

  std::vector<double> write_ms = untraced.write_ms;
  write_ms.insert(write_ms.end(), traced.write_ms.begin(),
                  traced.write_ms.end());
  if (acked == 0) result.Fail("no correction was acknowledged");
  const double writes = static_cast<double>(std::max<uint64_t>(1, acked));

  if (!options.trace) {
    result.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    AddTimeMetrics(setup_s, setup_probe, untraced.op_ms, untraced.wall_s,
                   cpu_s, probe, &result);
    result.end_to_end.push_back(
        {"quality_pct",
         100.0 * static_cast<double>(untraced.accurate) /
             static_cast<double>(std::max<uint64_t>(1, untraced.requests)),
         "%"});
    const double probes = static_cast<double>(
        (cache2.hits - cache0.hits) + (cache2.misses - cache0.misses));
    result.info.push_back(
        {"op_ms_p99", Percentile(untraced.op_ms, 0.99), "ms"});
    result.info.push_back({"write_ms_p50", Percentile(write_ms, 0.5), "ms"});
    result.info.push_back(
        {"cache_hit_pct",
         100.0 * static_cast<double>(cache2.hits - cache0.hits) /
             std::max(1.0, probes),
         "%"});
    result.info.push_back(
        {"cache_entries", static_cast<double>(cache2.size), "count"});
    result.info.push_back(
        {"cache_evictions",
         static_cast<double>(cache2.evictions - cache0.evictions), "count"});
    result.info.push_back(
        {"requests", static_cast<double>(untraced.requests), "count"});
    result.info.push_back(
        {"corrections_acked", static_cast<double>(acked), "count"});
    result.info.push_back(
        {"kb_entries_end", static_cast<double>(end_entries), "count"});
    result.info.push_back({"recovery_ms", recovery_ms, "ms"});
    return result;
  }

  auto& m = result.per_layer;
  const double probes = static_cast<double>(
      (cache2.hits - cache1.hits) + (cache2.misses - cache1.misses));
  m.push_back({"service.hit_ms_p50", Percentile(traced.hit_ms, 0.5), "ms"});
  m.push_back({"service.miss_ms_p50", Percentile(traced.miss_ms, 0.5), "ms"});
  m.push_back({"service.cache_hit_pct",
               100.0 * static_cast<double>(cache2.hits - cache1.hits) /
                   std::max(1.0, probes),
               "%"});
  m.push_back({"service.cache_evictions",
               1000.0 * static_cast<double>(cache2.evictions -
                                            cache1.evictions) /
                   std::max(1.0, probes),
               "1/kreq"});
  m.push_back({"rag.retrieve_us", log.MeanSelfMicros("rag.retrieve"), "us"});
  m.push_back({"vectordb.kb_entries", static_cast<double>(end_entries),
               "count"});
  m.push_back({"write_ms_p50", Percentile(write_ms, 0.5), "ms"});
  m.push_back({"durable.fsyncs_per_write",
               static_cast<double>(durable2.wal_fsyncs - durable0.wal_fsyncs) /
                   writes,
               "count"});
  m.push_back({"durable.wal_bytes_per_write",
               static_cast<double>(durable2.wal_bytes - durable0.wal_bytes) /
                   writes,
               "B"});
  m.push_back({"durable.recovery_ms", recovery_ms, "ms"});
  m.push_back({"op_ms_p99", Percentile(untraced.op_ms, 0.99), "ms"});
  m.push_back({"trace.coverage_pct", log.CoveragePct("request"), "%"});
  const double untraced_per_req =
      untraced.wall_s / std::max<double>(1.0, untraced.requests);
  const double traced_per_req =
      traced.wall_s / std::max<double>(1.0, traced.requests);
  m.push_back({"trace.overhead_pct",
               100.0 * (traced_per_req / untraced_per_req - 1.0), "%"});
  log.Dump(options.work_dir + "/spans-serve_feedback.jsonl");
  return result;
}

}  // namespace perfbench
