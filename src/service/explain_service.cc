#include "service/explain_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/kernels.h"
#include "common/logging.h"
#include "common/sim_clock.h"
#include "durable/durable_kb.h"
#include "obs/exposition.h"
#include "sql/parser.h"

namespace htapex {

ExplainService::ExplainService(HtapExplainer* explainer, ServiceConfig config)
    : explainer_(explainer),
      config_([&] {
        if (config.num_workers < 1) config.num_workers = 1;
        return config;
      }()) {
  if (config_.lifecycle.enabled) {
    lifecycle_ = std::make_unique<ModelLifecycleManager>(
        &explainer_->mutable_router(), config_.lifecycle);
    lifecycle_->set_fault_injector(&explainer_->faults());
    // Curation writes to the knowledge base, so it takes the same
    // exclusive lock as IncorporateCorrection — in-flight retrievals
    // drain first, new ones wait out the curation pass.
    lifecycle_->set_curation_hook([this](uint64_t* expired,
                                         uint64_t* backfilled) {
      std::unique_lock<std::shared_mutex> kb_lock(kb_mutex_);
      return explainer_->CurateKnowledgeBase(expired, backfilled);
    });
    Status opened = lifecycle_->Open();
    if (!opened.ok()) {
      // A dead feedback log never stops serving: the lifecycle runs
      // memory-only and the failure is visible in its stats.
      HTAPEX_LOG(Warning) << "lifecycle feedback log unavailable: "
                          << opened.message();
    }
  }
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExplainService::~ExplainService() { Shutdown(); }

void ExplainService::Shutdown() { ShutdownInternal(/*kill=*/false); }

void ExplainService::Kill() { ShutdownInternal(/*kill=*/true); }

Status ExplainService::DrainStatus() const {
  if (config_.shard_id >= 0) {
    return Status::Unavailable("shard " + std::to_string(config_.shard_id) +
                               " is draining");
  }
  return Status::Unavailable("service is shutting down");
}

void ExplainService::ShutdownInternal(bool kill) {
  // On kill the backlog is seized before workers wake: a crashed shard
  // must not quietly finish its queue.
  std::deque<Request> doomed;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) return;
    stopping_ = true;
    if (kill) doomed.swap(queue_);
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Workers drain the queue before exiting, so this is normally empty; the
  // sweep guarantees that even if a worker died early (e.g. a throwing
  // explainer) no promise is ever abandoned — every future resolves.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (Request& req : queue_) doomed.push_back(std::move(req));
    queue_.clear();
  }
  for (Request& req : doomed) {
    metrics_.completed.Inc();
    metrics_.degraded_failed.Inc();
    req.promise.set_value(DrainStatus());
  }
  if (!kill && config_.durable != nullptr &&
      config_.durable->mutations_since_snapshot() > 0) {
    // Clean-shutdown snapshot (best effort — the WAL already holds every
    // mutation): the next startup recovers without replaying the log. A
    // kill skips this: simulated crashes leave disk exactly as-is.
    config_.durable->Snapshot();
  }
}

std::future<Result<ExplainResult>> ExplainService::Reject(Status status) {
  metrics_.requests.Inc();
  metrics_.errors.Inc();
  metrics_.degraded_failed.Inc();
  metrics_.completed.Inc();
  std::promise<Result<ExplainResult>> promise;
  promise.set_value(std::move(status));
  return promise.get_future();
}

std::future<Result<ExplainResult>> ExplainService::Submit(std::string sql,
                                                          double budget_ms) {
  if (Status st = CheckStatementBytes(sql); !st.ok()) return Reject(st);
  Request req;
  req.sql = std::move(sql);
  req.budget_ms = budget_ms > 0.0 ? budget_ms : 0.0;
  std::future<Result<ExplainResult>> future = req.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    space_cv_.wait(lock, [this] {
      return stopping_ || queue_.size() < kServiceQueueCapacity;
    });
    if (stopping_) {
      req.promise.set_value(DrainStatus());
      return future;
    }
    req.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(req));
  }
  metrics_.requests.Inc();
  queue_cv_.notify_one();
  return future;
}

Result<ExplainResult> ExplainService::ExplainSync(const std::string& sql,
                                                  double budget_ms) {
  return Submit(sql, budget_ms).get();
}

void ExplainService::WorkerLoop() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_one();
    Result<ExplainResult> result = Process(req);
    RecordDegradation(result);
    // Count before fulfilling the promise so a caller who wakes from the
    // future already sees this request in Stats().
    metrics_.completed.Inc();
    req.promise.set_value(std::move(result));
    // Advance the lifecycle at most one step per request (on top of its own
    // sample-count cadence). try-locked: if another worker is mid-cycle
    // this worker skips rather than waits.
    if (lifecycle_ != nullptr) lifecycle_->MaybeTick();
  }
}

Result<ExplainResult> ExplainService::Process(const Request& req) {
  auto waited_ms = [&req] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - req.enqueued)
        .count();
  };
  const double queued_ms = waited_ms();
  if (req.budget_ms > 0.0 && req.budget_ms - queued_ms <= 0.0) {
    // The budget died in the queue: shed the request before any
    // binding/planning/embedding is spent on it.
    metrics_.early_rejections.Inc();
    return Status::DeadlineExceeded("request budget exhausted while queued");
  }
  std::shared_ptr<Trace> trace;
  if (config_.tracing) {
    trace = std::make_shared<Trace>(
        next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1, req.sql);
    // Always present (even ~0 ms) so every trace has the same span set
    // for a given pipeline path — the determinism tests rely on that.
    trace->AddSpan(spanname::kQueueWait, queued_ms, /*simulated=*/false);
  }
  Result<PreparedQuery> prepared = explainer_->Prepare(req.sql, trace.get());
  if (!prepared.ok()) {
    metrics_.errors.Inc();
    return prepared.status();
  }
  if (lifecycle_ != nullptr) {
    // Execution feedback: the measured outcome plus the router verdict
    // from the same frozen pass that served the request. Only touches the
    // lifecycle's internally-locked buffer, so it never waits behind a
    // retrain cycle.
    lifecycle_->RecordOutcome(prepared->outcome.plans,
                              prepared->outcome.faster, prepared->p_ap);
  }
  double left = 0.0;
  if (req.budget_ms > 0.0) {
    // Re-check: stage one ran on this worker's wall clock, so a budget
    // that survived the queue can still run out here. ExplainPrepared
    // reads a budget <= 0 as unbounded, so an exhausted one ends here.
    left = req.budget_ms - waited_ms();
    if (left <= 0.0) {
      metrics_.early_rejections.Inc();
      return Status::DeadlineExceeded("request budget exhausted while queued");
    }
  }
  return ProcessPrepared(std::move(prepared).value(), left, std::move(trace));
}

void ExplainService::RecordDegradation(const Result<ExplainResult>& result) {
  if (!result.ok()) {
    metrics_.degraded_failed.Inc();
    return;
  }
  switch (result->degradation) {
    case DegradationLevel::kFull:
      metrics_.degraded_full.Inc();
      break;
    case DegradationLevel::kBaselineFallback:
      metrics_.degraded_baseline.Inc();
      break;
    case DegradationLevel::kPlanDiffOnly:
      metrics_.degraded_plan_diff.Inc();
      break;
    case DegradationLevel::kFailed:
      metrics_.degraded_failed.Inc();
      break;
  }
}

Result<ExplainResult> ExplainService::ProcessPrepared(
    PreparedQuery prepared, double budget_ms, std::shared_ptr<Trace> trace) {
  metrics_.encode.Record(prepared.encode_ms);
  if (lifecycle_ != nullptr && trace != nullptr) {
    // Which snapshot generation served this request — post-incident trace
    // reads can line a latency shift up against a hot-swap boundary.
    trace->Event("router_version",
                 "v" + std::to_string(explainer_->router().frozen_version()));
  }

  double lookup_ms = 0.0;
  if (config_.cache_enabled) {
    WallTimer probe;
    std::shared_ptr<const CachedExplanation> hit =
        cache_.Lookup(prepared.embedding);
    lookup_ms = probe.ElapsedMillis();
    metrics_.cache_lookup.Record(lookup_ms);
    if (trace != nullptr) {
      trace->AddSpan(spanname::kCacheLookup, lookup_ms, /*simulated=*/false);
      if (hit != nullptr) trace->Event("cache_hit");
    }
    if (hit != nullptr) {
      // Fresh plans + cached explanation. Search/generation timings are
      // zeroed: nothing was searched or generated for this request, and
      // end_to_end_ms() must reflect what this request actually cost.
      ExplainResult result;
      result.outcome = std::move(prepared.outcome);
      result.embedding = std::move(prepared.embedding);
      result.router_encode_ms = prepared.encode_ms;
      result.truth = hit->truth;
      result.prompt = hit->prompt;
      result.retrieval = hit->retrieval;
      result.retrieval.search_ms = 0.0;
      result.generation = hit->generation;
      result.generation.timing = LlmTiming{};
      result.grade = hit->grade;
      result.from_cache = true;
      result.cache_lookup_ms = lookup_ms;
      metrics_.end_to_end.Record(result.end_to_end_ms());
      FinalizeTrace(std::move(trace), &result);
      return result;
    }
  }

  Result<ExplainResult> result = [&] {
    std::shared_lock<std::shared_mutex> kb_lock(kb_mutex_);
    return explainer_->ExplainPrepared(std::move(prepared), budget_ms,
                                       trace.get());
  }();
  if (!result.ok()) {
    metrics_.errors.Inc();
    return result;
  }
  if (config_.llm_wall_scale > 0.0) {
    // Emulate the hosted-LLM round trip (outside any lock, so other
    // workers keep searching and the writer can still take the KB lock).
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        result->generation.timing.total_ms() * config_.llm_wall_scale));
  }
  result->cache_lookup_ms = lookup_ms;
  metrics_.kb_search.Record(result->retrieval.search_ms);
  metrics_.generate.Record(result->generation.timing.total_ms());
  metrics_.end_to_end.Record(result->end_to_end_ms());

  if (config_.cache_enabled &&
      result->degradation == DegradationLevel::kFull) {
    // Only full-pipeline answers are cached: a degraded explanation must
    // not keep being served from the cache after the dependency recovers.
    auto cached = std::make_shared<CachedExplanation>();
    cached->embedding = result->embedding;
    cached->truth = result->truth;
    cached->prompt = result->prompt;
    cached->retrieval = result->retrieval;
    cached->generation = result->generation;
    cached->grade = result->grade;
    cache_.Insert(std::move(cached));
  }
  FinalizeTrace(std::move(trace), &*result);
  return result;
}

void ExplainService::FinalizeTrace(std::shared_ptr<Trace> trace,
                                   ExplainResult* result) {
  if (trace == nullptr) return;
  trace_metrics_.Record(*trace);
  if (config_.slow_trace_ms > 0.0 &&
      trace->total_ms() >= config_.slow_trace_ms) {
    trace_metrics_.slow_traces.Inc();
    HTAPEX_LOG(Warning) << "slow request (" << trace->total_ms()
                        << " ms >= " << config_.slow_trace_ms
                        << " ms threshold):\n"
                        << trace->ToString();
  }
  std::shared_ptr<const Trace> published = std::move(trace);
  recent_traces_.Push(published);
  result->trace = std::move(published);
}

std::vector<std::shared_ptr<const Trace>> ExplainService::RecentTraces()
    const {
  return recent_traces_.Recent();
}

Status ExplainService::IncorporateCorrection(const ExplainResult& result) {
  WallTimer timer;
  Status status;
  {
    std::unique_lock<std::shared_mutex> kb_lock(kb_mutex_);
    status = explainer_->IncorporateCorrection(result);
  }
  if (status.ok()) {
    metrics_.kb_inserts.Inc();
    // Runs outside any request trace (the feedback loop is its own
    // operation), so it reports straight into the span histograms.
    if (config_.tracing) {
      trace_metrics_.RecordSpan(spanname::kKbInsert, timer.ElapsedMillis());
    }
  }
  return status;
}

ServiceStats ExplainService::Stats() const {
  ServiceStats stats{LoadStats(metrics_)};
  stats.resilience = explainer_->ResilienceSnapshot();
  stats.cache = cache_.GetStats();
  if (config_.durable != nullptr) {
    stats.durability_enabled = true;
    stats.durability = config_.durable->StatsSnapshot();
  }
  if (lifecycle_ != nullptr) {
    stats.lifecycle_enabled = true;
    stats.lifecycle = lifecycle_->Stats();
  }
  return stats;
}

std::string ExplainService::ExpositionText() const {
  ExpositionBuilder b;
  Expose(Stats(), kServicePrefix, &b);
  // Kernel dispatch: which SIMD backend is live (constant 1 gauge, labeled
  // by backend) and how hot each kernel runs — process-wide counters, so an
  // operator can correlate backend choice with the span latencies below.
  kernels::KernelStats k = kernels::Stats();
  b.Gauge("htapex_kernel_backend",
          "Active compute-kernel dispatch backend (constant 1)", 1.0,
          {{"backend", kernels::BackendName(k.backend)}});
  Expose(k, kServicePrefix, &b);
  Expose(TraceSnapshot(), kServicePrefix, &b);
  return b.Text();
}

}  // namespace htapex
