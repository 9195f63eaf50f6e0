#ifndef HTAPEX_SERVICE_EXPLAIN_SERVICE_H_
#define HTAPEX_SERVICE_EXPLAIN_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/htap_explainer.h"
#include "lifecycle/model_lifecycle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/explain_cache.h"

namespace htapex {

class DurableKnowledgeBase;

/// Requests the service queue holds; Submit blocks while it is full
/// (backpressure instead of unbounded memory under overload).
inline constexpr size_t kServiceQueueCapacity = 256;
/// Completed traces the flight-recorder ring keeps for RecentTraces().
inline constexpr size_t kServiceTraceRing = 64;

/// Configuration of the concurrent explanation service.
struct ServiceConfig {
  /// Fixed worker pool size.
  int num_workers = 4;
  /// Fraction of the simulated LLM time a cache miss incurs as *real* wall
  /// time (0 disables). The SimClock models the hosted-LLM round trip as
  /// zero wall time, which hides the very wait a worker pool exists to
  /// overlap; benchmarks set e.g. 0.001 (an LLM at 1000x speed) so
  /// throughput scaling reflects the real serving bottleneck. Keep 0 in
  /// unit tests.
  double llm_wall_scale = 0.0;
  /// Embedding-keyed result cache (ExplainCache). Disable to measure the
  /// uncached path.
  bool cache_enabled = true;
  /// Per-request tracing: every result carries a span tree decomposing its
  /// end_to_end_ms (see obs/trace.h), completed traces feed the per-span
  /// latency histograms and the flight-recorder ring. Cheap enough to keep
  /// on (bench_trace holds the overhead under 5%); disable only to measure
  /// the untraced path.
  bool tracing = true;
  /// Slow-request log: a completed trace whose total timeline exceeds this
  /// is logged in full (span tree + events) at Warning and counted in
  /// TraceSnapshot().slow_traces. <= 0 disables.
  double slow_trace_ms = 0.0;
  /// Crash-safe KB persistence (src/durable/), already Attach()ed to the
  /// explainer's knowledge base; must outlive the service. When set, the
  /// durable layer logs every expert correction the service incorporates
  /// (and auto-snapshots per its own options), Stats() carries the
  /// durability counters, and Shutdown() installs a final snapshot so a
  /// clean restart recovers without replaying the log. nullptr disables.
  DurableKnowledgeBase* durable = nullptr;
  /// Self-healing model lifecycle (src/lifecycle/): when enabled, every
  /// served query's measured outcome feeds a drift detector over the
  /// router's live accuracy; drift triggers a background candidate
  /// retrain, shadow validation against the serving snapshot, an atomic
  /// hot-swap, a post-swap watch with automatic rollback — and, by
  /// default, knowledge-base curation (stale entries expired and
  /// backfilled under the exclusive KB lock). Off by default: the
  /// lifecycle records nothing and serving is byte-for-byte the
  /// pre-lifecycle pipeline.
  LifecycleOptions lifecycle;
  /// Identity of this service within a sharded tier (sharded_service.h), or
  /// -1 standalone. A non-negative id is attached to every kUnavailable
  /// this service emits on its shutdown/orphan paths, so the shard router
  /// can tell "shard N is draining" (fail over) from "request invalid"
  /// (return to caller) by status code + shard id — never by matching
  /// message strings.
  int shard_id = -1;
};

/// Thread-safe front end over HtapExplainer — the serving layer the
/// paper's single-query pipeline grows into.
///
/// Concurrency model:
///  - Each worker takes one request per dequeue and runs it to completion.
///  - Prepare (bind/plan/embed) is read-only on the explainer and runs
///    without any lock.
///  - ExplainPrepared (retrieval + generation) runs under a *shared* lock
///    on the knowledge base, so any number of explanations proceed
///    concurrently.
///  - IncorporateCorrection (the expert feedback loop, which inserts into
///    the KnowledgeBase) takes the *exclusive* lock; it waits for
///    in-flight searches and blocks new ones only for the duration of one
///    insert.
///
/// Results for near-duplicate plan pairs are served from an LRU cache
/// keyed by quantized embeddings (see ExplainCache); a hit
/// skips analysis, retrieval and generation entirely and is reported with
/// honest timing (encode + cache probe only).
class ExplainService {
 public:
  /// `explainer` must be trained and outlive the service.
  ExplainService(HtapExplainer* explainer, ServiceConfig config = {});
  ~ExplainService();

  ExplainService(const ExplainService&) = delete;
  ExplainService& operator=(const ExplainService&) = delete;

  /// Enqueues a query; blocks while the queue is full. The future resolves
  /// when a worker finishes it. After Shutdown() the future resolves
  /// immediately with a typed Unavailable status, and a statement over
  /// kMaxStatementBytes (sql/parser.h) resolves at once with
  /// InvalidArgument without ever being queued.
  ///
  /// `budget_ms` > 0 sets a per-request deadline: a request whose queue
  /// wait already exceeds the budget is rejected at dequeue with
  /// DeadlineExceeded (cheap load shedding — no analysis, retrieval or
  /// generation is spent on a request nobody is still waiting for), and
  /// whatever budget survives the queue caps the simulated time the LLM
  /// resilience chain may burn. Queue wait is real wall time; processing
  /// is simulated LLM time — the two are deliberately compared against the
  /// one budget (documented approximation; both are "time the caller
  /// waits" in the modelled deployment).
  std::future<Result<ExplainResult>> Submit(std::string sql,
                                            double budget_ms = 0.0);

  /// Convenience: Submit + wait.
  Result<ExplainResult> ExplainSync(const std::string& sql,
                                    double budget_ms = 0.0);

  /// Expert feedback loop, safe to call while explanations are in flight.
  Status IncorporateCorrection(const ExplainResult& result);

  /// Point-in-time metrics snapshot.
  ServiceStats Stats() const;
  ExplainCache::Stats CacheStats() const { return cache_.GetStats(); }
  /// Per-span latency histograms + trace counters.
  TraceMetrics::Stats TraceSnapshot() const { return trace_metrics_.Snap(); }
  /// Newest-first snapshot of the flight-recorder ring (empty when tracing
  /// is disabled). Safe to call while workers serve.
  std::vector<std::shared_ptr<const Trace>> RecentTraces() const;
  /// Everything the service measures — the ServiceStats groups, the
  /// kernel counters and the per-span histograms — rendered from their
  /// field lists in the Prometheus text exposition format
  /// (obs/exposition.h). The output is guaranteed to round-trip through
  /// ParseExposition; CI holds that invariant.
  std::string ExpositionText() const;

  /// Stops accepting work, lets workers drain the queue, joins them, then
  /// deterministically fails any request that somehow remains queued (typed
  /// Unavailable) so no future is ever abandoned. Idempotent; also run by
  /// the destructor.
  void Shutdown();

  /// Simulated crash: stops accepting work and fails the entire backlog
  /// with typed Unavailable instead of draining it, and — unlike
  /// Shutdown() — installs NO clean-shutdown snapshot, so disk is left
  /// exactly as the crash found it (the WAL alone must carry recovery).
  /// Workers currently mid-request finish that request; every promise
  /// still resolves. Idempotent with Shutdown().
  void Kill();

  const ServiceConfig& config() const { return config_; }

  /// The self-healing model lifecycle, or nullptr when disabled. Exposed
  /// for ticking from a sim-clock driver (the sharded tier's heartbeat),
  /// manual \swap / \rollback CLI verbs, and test orchestration.
  ModelLifecycleManager* lifecycle() { return lifecycle_.get(); }
  const ModelLifecycleManager* lifecycle() const { return lifecycle_.get(); }

 private:
  struct Request {
    std::string sql;
    std::promise<Result<ExplainResult>> promise;
    double budget_ms = 0.0;  // 0 = unbounded
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();
  /// Shared body of Shutdown()/Kill(); `kill` skips the queue drain and the
  /// clean-shutdown snapshot.
  void ShutdownInternal(bool kill);
  /// The typed kUnavailable for "this service is stopping", carrying the
  /// shard id when configured (see ServiceConfig::shard_id).
  Status DrainStatus() const;
  /// Resolves a request at admission without queueing it, counted like a
  /// request whose binding failed in a worker.
  std::future<Result<ExplainResult>> Reject(Status status);
  /// Runs one dequeued request through both stages: budget triage, stage
  /// one, lifecycle feedback, the cache probe and stage two.
  Result<ExplainResult> Process(const Request& req);
  /// Cache probe + stage two for one request whose stage one (bind/plan/
  /// embed) already ran via HtapExplainer::Prepare.
  Result<ExplainResult> ProcessPrepared(PreparedQuery prepared,
                                        double budget_ms,
                                        std::shared_ptr<Trace> trace);
  /// Counts the result against the degradation-mix counters.
  void RecordDegradation(const Result<ExplainResult>& result);
  /// Feeds the completed trace to the per-span histograms, the slow-request
  /// log and the ring, then attaches it (const) to the result.
  void FinalizeTrace(std::shared_ptr<Trace> trace, ExplainResult* result);

  HtapExplainer* explainer_;
  ServiceConfig config_;
  ExplainCache cache_;
  ServiceMetrics metrics_;
  TraceMetrics trace_metrics_;
  TraceRing recent_traces_{kServiceTraceRing};
  std::unique_ptr<ModelLifecycleManager> lifecycle_;  // null when disabled
  std::atomic<uint64_t> next_trace_id_{0};

  /// Readers: ExplainPrepared. Writer: IncorporateCorrection.
  mutable std::shared_mutex kb_mutex_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // signals workers: work or stop
  std::condition_variable space_cv_;  // signals producers: queue has room
  std::deque<Request> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace htapex

#endif  // HTAPEX_SERVICE_EXPLAIN_SERVICE_H_
