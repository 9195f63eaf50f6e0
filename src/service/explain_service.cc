#include "service/explain_service.h"

#include <algorithm>
#include <chrono>
#include <optional>
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
        if (config.queue_capacity < 1) config.queue_capacity = 1;
        return config;
      }()),
      cache_(config_.cache) {
  if (config_.tracing && config_.trace_ring > 0) {
    trace_ring_ = std::make_unique<TraceRing>(config_.trace_ring);
  }
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
      return stopping_ || queue_.size() < config_.queue_capacity;
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

std::vector<std::future<Result<ExplainResult>>> ExplainService::SubmitBatch(
    std::vector<std::string> sqls, double budget_ms) {
  std::vector<std::future<Result<ExplainResult>>> futures;
  futures.reserve(sqls.size());
  size_t next = 0;
  while (next < sqls.size()) {
    size_t pushed = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      space_cv_.wait(lock, [this] {
        return stopping_ || queue_.size() < config_.queue_capacity;
      });
      if (stopping_) break;
      auto now = std::chrono::steady_clock::now();
      while (next < sqls.size() && queue_.size() < config_.queue_capacity) {
        if (Status st = CheckStatementBytes(sqls[next]); !st.ok()) {
          futures.push_back(Reject(st));
          ++next;
          continue;
        }
        Request req;
        req.sql = std::move(sqls[next++]);
        req.budget_ms = budget_ms > 0.0 ? budget_ms : 0.0;
        req.enqueued = now;
        futures.push_back(req.promise.get_future());
        queue_.push_back(std::move(req));
        ++pushed;
      }
    }
    metrics_.requests.Inc(pushed);
    if (pushed > 1) {
      queue_cv_.notify_all();
    } else {
      queue_cv_.notify_one();
    }
  }
  // Shutdown raced the batch: fail the remainder without enqueueing.
  for (; next < sqls.size(); ++next) {
    std::promise<Result<ExplainResult>> promise;
    futures.push_back(promise.get_future());
    promise.set_value(DrainStatus());
  }
  return futures;
}

Result<ExplainResult> ExplainService::ExplainSync(const std::string& sql,
                                                  double budget_ms) {
  return Submit(sql, budget_ms).get();
}

void ExplainService::WorkerLoop() {
  // Workers drain in small batches: one lock round-trip per kPopBatch
  // requests instead of per request, and the whole drain goes through ONE
  // batched stage one (HtapExplainer::PrepareBatch) — per-query binding and
  // planning, then a single frozen-router forward pass that featurizes and
  // embeds every admitted request together.
  constexpr size_t kPopBatch = 8;
  std::vector<Request> batch;
  std::vector<size_t> admitted;                 // indices past budget triage
  std::vector<std::string> sqls;                // aligned with admitted
  std::vector<std::shared_ptr<Trace>> traces;   // aligned with admitted
  std::vector<Trace*> trace_ptrs;               // aligned with admitted
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      size_t n = std::min(kPopBatch, queue_.size());
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    space_cv_.notify_all();

    // Budget triage: requests whose budget died in the queue are shed
    // before any binding/planning/embedding is spent on them.
    admitted.clear();
    sqls.clear();
    traces.clear();
    trace_ptrs.clear();
    std::vector<std::optional<Result<ExplainResult>>> results(batch.size());
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < batch.size(); ++i) {
      double waited_ms =
          std::chrono::duration<double, std::milli>(now - batch[i].enqueued)
              .count();
      if (batch[i].budget_ms > 0.0 && batch[i].budget_ms - waited_ms <= 0.0) {
        // The budget died in the queue: shed the request before any
        // binding/planning/embedding is spent on it.
        metrics_.early_rejections.Inc();
        results[i] = Result<ExplainResult>(Status::DeadlineExceeded(
            "request budget exhausted while queued"));
        continue;
      }
      std::shared_ptr<Trace> trace;
      if (config_.tracing) {
        trace = std::make_shared<Trace>(
            next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1,
            batch[i].sql);
        // Always present (even ~0 ms) so every trace has the same span set
        // for a given pipeline path — the determinism tests rely on that.
        trace->AddSpan(spanname::kQueueWait, waited_ms, /*simulated=*/false);
      }
      admitted.push_back(i);
      sqls.push_back(batch[i].sql);
      trace_ptrs.push_back(trace.get());
      traces.push_back(std::move(trace));
    }

    if (!admitted.empty()) {
      std::vector<Result<PreparedQuery>> prepared =
          explainer_->PrepareBatch(sqls, trace_ptrs);
      if (lifecycle_ != nullptr) {
        // Execution feedback: the measured outcome plus the router verdict
        // from the same frozen pass that served the request. Recorded
        // before ProcessPrepared consumes the prepared queries; only
        // touches the lifecycle's internally-locked buffer, so the drain
        // never waits behind a retrain cycle.
        for (size_t j = 0; j < admitted.size(); ++j) {
          if (prepared[j].ok()) {
            lifecycle_->RecordOutcome(prepared[j]->outcome.plans,
                                      prepared[j]->outcome.faster,
                                      prepared[j]->p_ap);
          }
        }
      }
      for (size_t j = 0; j < admitted.size(); ++j) {
        const size_t i = admitted[j];
        double left = 0.0;
        if (batch[i].budget_ms > 0.0) {
          // Re-triage: earlier requests of this drain (and the batched
          // prepare) ran on this worker's wall clock, so a budget that
          // survived the queue can still die waiting its turn here.
          double waited_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() -
                                 batch[i].enqueued)
                                 .count();
          left = batch[i].budget_ms - waited_ms;
          if (left <= 0.0) {
            metrics_.early_rejections.Inc();
            results[i] = Result<ExplainResult>(Status::DeadlineExceeded(
                "request budget exhausted while queued"));
            continue;
          }
        }
        results[i] =
            ProcessPrepared(std::move(prepared[j]), left, std::move(traces[j]));
      }
    }

    for (size_t i = 0; i < batch.size(); ++i) {
      RecordDegradation(*results[i]);
      // Count before fulfilling the promise so a caller who wakes from the
      // future already sees this request in Stats().
      metrics_.completed.Inc();
      batch[i].promise.set_value(std::move(*results[i]));
    }
    // Advance the lifecycle at most one step per drain (on top of its own
    // sample-count cadence). try-locked: if another worker is mid-cycle
    // this drain skips rather than waits.
    if (lifecycle_ != nullptr) lifecycle_->MaybeTick();
  }
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
    Result<PreparedQuery> prepared_or, double budget_ms,
    std::shared_ptr<Trace> trace) {
  if (!prepared_or.ok()) {
    metrics_.errors.Inc();
    return prepared_or.status();
  }
  PreparedQuery prepared = std::move(prepared_or).value();
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
  if (trace_ring_ != nullptr) trace_ring_->Push(published);
  result->trace = std::move(published);
}

std::vector<std::shared_ptr<const Trace>> ExplainService::RecentTraces()
    const {
  if (trace_ring_ == nullptr) return {};
  return trace_ring_->Recent();
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
