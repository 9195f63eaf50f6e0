#ifndef HTAPEX_SERVICE_SHARDED_SERVICE_H_
#define HTAPEX_SERVICE_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/sim_clock.h"
#include "core/htap_explainer.h"
#include "durable/durable_kb.h"
#include "durable/wal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/explain_service.h"
#include "service/shard_router.h"

namespace htapex {

/// Configuration of the sharded explanation tier.
struct ShardedServiceConfig {
  int num_shards = 4;
  int vnodes_per_shard = 64;
  /// Seeds consistent-hash vnode placement (see ShardRouter::Options).
  uint64_t ring_seed = 42;
  /// Per-shard service template. `shard_id` and `durable` are overwritten
  /// per shard; everything else (workers, queue, cache, tracing) applies to
  /// each shard identically.
  ServiceConfig shard;

  // --- Health monitor (all intervals in sim-clock heartbeats) ---
  /// Consecutive request failures that eject a shard from the ring.
  int eject_after_failures = 3;
  /// Beats a dead shard waits before auto-revival into probation, and an
  /// ejected (but alive) shard waits before probation probing starts.
  int probation_after_beats = 4;
  /// Consecutive successful probes that re-admit a probation shard.
  int probation_successes = 2;
  /// Sim-clock milliseconds one Heartbeat() advances.
  double heartbeat_interval_ms = 100.0;
  /// Max distinct shards one request may try (primary + failover hops).
  int max_failover_hops = 3;

  // --- Durability + correction replication ---
  /// Root directory; each shard persists under `<data_dir>/shard-<i>`.
  /// Empty disables durability AND replication (pure in-memory tier).
  std::string data_dir;
  /// Per-shard durability template; `dir` is overwritten per shard.
  DurabilityOptions durability;
  /// Ship every KB mutation to a successor shard's replica log before the
  /// local write-ahead ack (see the protocol note on ShardedExplainService).
  bool replicate_corrections = true;
  /// Ship attempts per mutation before the mutation is aborted (each
  /// attempt is an independent replicate.drop draw).
  int replicate_attempts = 3;

  // --- Fault injection (tier-level points; shard explainers get the same
  // spec for the PR-2/PR-3 points) ---
  /// Same semantics as ExplainerConfig::faults: empty reads HTAPEX_FAULTS,
  /// "off" forces a clean run.
  std::string faults;
  uint64_t fault_seed = 42;
};

/// How one request travelled through the shard tier.
struct FailoverInfo {
  int primary_shard = -1;  // consistent-hash owner at dispatch time
  int final_shard = -1;    // shard that produced the result (-1 = none)
  int attempts = 0;        // distinct shards tried (1 = no failover)
  bool failed_over = false;
  double stall_ms = 0.0;   // injected shard.stall latency absorbed
};

/// ExplainResult plus its routing/failover trajectory.
struct ShardedExplainResult {
  ExplainResult result;
  FailoverInfo failover;
};

/// Shard lifecycle as the health monitor sees it.
///  kHealthy   — live on the ring, serving.
///  kEjected   — process alive but ejected after consecutive failures;
///               ages into probation.
///  kProbation — off the ring; heartbeats probe it, enough consecutive
///               successes re-admit it.
///  kDead      — killed (crash); after probation_after_beats the monitor
///               auto-revives it from its own disk into probation.
enum class ShardHealth { kHealthy, kEjected, kProbation, kDead };

const char* ShardHealthName(ShardHealth health);

/// Tier-level counters (plain values — the tier updates them under its own
/// locks, snapshots are copies).
struct FailoverStats {
  uint64_t requests = 0;
  uint64_t failovers = 0;         // requests answered off their primary
  uint64_t hops = 0;              // extra dispatch attempts, total
  uint64_t no_live_shard = 0;     // requests failed with the ring empty
  uint64_t ejections = 0;
  uint64_t readmissions = 0;
  uint64_t kills = 0;
  uint64_t revivals = 0;
  uint64_t stalls = 0;            // shard.stall faults absorbed
  uint64_t injected_kills = 0;    // shard.kill faults fired
  uint64_t replications = 0;      // mutation records shipped to a successor
  uint64_t replicate_drops = 0;   // ship attempts dropped by replicate.drop
  uint64_t replicate_aborts = 0;  // mutations aborted: no successor ack
  uint64_t probe_successes = 0;
  uint64_t probe_failures = 0;
  /// Beats from the most recent kill to that shard re-entering kHealthy.
  uint64_t last_recovery_beats = 0;
};

/// Aggregated view over every shard. Histograms inside `merged` /
/// `merged_traces` are bucket-merged (LatencyHistogram::Merge) across
/// shards AND across shard incarnations — a killed shard's samples are
/// retained and folded in, never lost.
struct ShardedServiceStats {
  std::vector<ServiceStats> shards;     // per live shard (retained+current)
  std::vector<ShardHealth> health;      // indexed by shard
  ServiceStats merged;
  TraceMetrics::Stats merged_traces;
  FailoverStats failover;
  uint64_t heartbeats = 0;
  int live_shards = 0;
  double sim_now_ms = 0.0;
};

/// N in-process ExplainService shards behind a consistent-hash router — the
/// tier that removes the serving stack's last single point of failure.
///
/// Request path: stage one (bind/plan/embed) runs once on the shared
/// routing explainer; the quantized plan-pair embedding keys the ring
/// (ShardRouter::KeyOf — the PR-1 cache key, so shard-local caches keep
/// their affinity); the request dispatches to the owner and, on typed
/// kUnavailable (shard draining/dead), fails over along the key's ring arc
/// with the remaining per-request budget carried over. Every result is
/// tagged with a FailoverInfo.
///
/// The tier itself is a thin synchronous router over the per-shard worker
/// pools: Explain() blocks the calling thread, callers bring their own
/// concurrency (bench_failover drives it with an open-loop dispatcher
/// pool). Health state is mutex-guarded; shard teardown/revival is
/// serialized by the same mutex.
///
/// Replication ack rule (zero-lost-corrections): with replication on,
/// every KB mutation is shipped to the current successor shard's replica
/// log (fsynced WAL-format segment in the successor's directory) BEFORE
/// the local write-ahead hook runs. A mutation whose ship fails (after
/// replicate_attempts draws) is aborted — the caller never gets an ack and
/// no durable record exists anywhere. Hence an acked mutation has, at ack
/// time, a durable record on two disks (successor replica log + local
/// WAL), and a kill at ANY single fault point loses nothing acked:
///  - local-disk recovery replays snapshot + local WAL (PR-3 machinery);
///  - lost-disk recovery (ReviveShard with lose_disk) rebuilds the shard
///    by collecting its replica records from every surviving shard's
///    directory and replaying them in source-ordinal order.
/// The window between a successful ship and the local append can leave the
/// replica log one record ahead — recovered state may therefore be a
/// superset of acked state by at most one in-flight mutation (exactly the
/// ambiguity a real crashed write has; the crash matrix pins this bound).
class ShardedExplainService {
 public:
  /// `system` must outlive the tier. Call Init() (or InitFrom) before
  /// anything else; construction alone does no work.
  ShardedExplainService(const HtapSystem* system,
                        ExplainerConfig explainer_config,
                        ShardedServiceConfig config);
  ~ShardedExplainService();

  ShardedExplainService(const ShardedExplainService&) = delete;
  ShardedExplainService& operator=(const ShardedExplainService&) = delete;

  /// Trains the shared routing explainer, then builds every shard (each
  /// with router weights cloned from the routing explainer, so embeddings
  /// — and therefore ring keys and cache keys — are identical tier-wide).
  /// Shards with durable state on disk recover it.
  Status Init();
  /// Same, but adopts pre-trained router weights instead of training.
  Status InitFrom(const SmartRouter& trained);

  /// Partitions the explainer's default 20-query knowledge across shards
  /// by static ring ownership of each query's embedding and inserts each
  /// partition into its owner (flowing through replication + WAL).
  Status BuildDefaultKnowledgeBase();

  /// Routes, dispatches, fails over. Synchronous; thread-safe.
  Result<ShardedExplainResult> Explain(const std::string& sql,
                                       double budget_ms = 0.0);

  /// Expert feedback loop: routes the correction to the current live owner
  /// of the result's embedding. An OK return is the durable ack (local WAL
  /// fsynced AND, with replication on, successor replica log fsynced).
  Status IncorporateCorrection(const ShardedExplainResult& result);

  /// Advances the sim clock one beat and runs the health monitor: dead
  /// shards past their wait auto-revive into probation, ejected shards age
  /// into probation, probation shards get probed and are re-admitted after
  /// enough consecutive successes.
  void Heartbeat();

  /// Simulated crash of one shard: its service is killed (backlog failed,
  /// NO clean-shutdown snapshot), its in-memory state destroyed, its
  /// directory left exactly as-is. Requests re-hash to the next live shard
  /// on their arc. No-op if already dead.
  void KillShard(int shard);

  /// Rebuilds a dead shard. With `lose_disk` false, recovery is local:
  /// newest snapshot + WAL replay. With `lose_disk` true the shard's
  /// directory is wiped first and the KB is rebuilt from the replica
  /// records other shards hold for it (requires replication). The revived
  /// shard enters probation, not the ring — heartbeat probes re-admit it.
  Status ReviveShard(int shard, bool lose_disk = false);

  ShardHealth HealthOf(int shard) const;
  ShardedServiceStats Stats() const;
  /// Merged Prometheus exposition (round-trips ParseExposition): fleet
  /// counters + bucket-merged latency summaries + per-shard health gauges.
  std::string ExpositionText() const;

  /// Chronological, deterministic failover event log ("kill shard=2
  /// beat=7", "eject shard=1 beat=3", ...). Same seed + same single-
  /// threaded call sequence => identical log; bench_failover gates on it.
  std::vector<std::string> EventLog() const;

  ShardRouter* router() { return router_.get(); }
  const ShardRouter* router() const { return router_.get(); }
  HtapExplainer* routing_explainer() { return routing_explainer_.get(); }
  int num_shards() const { return config_.num_shards; }
  uint64_t heartbeats() const;
  const ShardedServiceConfig& config() const { return config_; }

  /// Ring key for a SQL text via the routing explainer (stage one + KeyOf).
  Result<uint64_t> KeyForSql(const std::string& sql);

  /// Test/bench access to one live shard's KB (nullptr when dead).
  const KnowledgeBase* shard_kb(int shard) const;
  /// Test/bench access to one live shard's service (nullptr when dead).
  ExplainService* shard_service(int shard);

 private:
  /// Replication sink: ships each mutation to the successor's replica log,
  /// then forwards to the shard's local DurableKnowledgeBase. Installed as
  /// the KB's mutation sink in place of the durable layer.
  class FanoutSink : public KbMutationSink {
   public:
    FanoutSink(ShardedExplainService* parent, int shard,
               DurableKnowledgeBase* local)
        : parent_(parent), shard_(shard), local_(local) {}
    Status WillApply(const KbMutation& mutation) override;

   private:
    ShardedExplainService* parent_;
    int shard_;
    DurableKnowledgeBase* local_;
  };

  /// One lifetime of a shard (between build/revive and kill). Destroyed
  /// members in reverse order: service first (workers join), then sink,
  /// durable, explainer. Held by shared_ptr with atomic access so a
  /// concurrent request that already loaded the incarnation keeps it alive
  /// until its call returns — KillShard never pulls memory out from under
  /// an in-flight dispatch.
  struct Incarnation {
    std::unique_ptr<HtapExplainer> explainer;
    std::unique_ptr<DurableKnowledgeBase> durable;
    std::unique_ptr<FanoutSink> sink;
    std::unique_ptr<ExplainService> service;
    ~Incarnation();
  };

  struct Shard {
    std::atomic<std::shared_ptr<Incarnation>> inc;
    /// Replica logs this shard HOSTS, keyed by source shard; lazily opened
    /// appenders onto `<dir>/replica-from-<source>.log`.
    std::mutex replica_mu;
    std::map<int, WalWriter> replica_writers;
    /// Stats carried over from destroyed incarnations of this shard, so a
    /// kill never loses recorded samples.
    ServiceStats retained_stats;
    TraceMetrics::Stats retained_traces;
    bool has_retained = false;
  };

  /// Shared tail of Init/InitFrom: fault spec, ring, shard construction.
  Status InitCommon();
  std::string ShardDir(int shard) const;
  /// Builds a fresh incarnation; `bootstrap` (may be empty) is replayed
  /// into the new KB before the durable layer attaches (lose-disk revival).
  Status BuildShard(int shard, const std::vector<KbMutation>& bootstrap);
  /// Next 1-based replication ordinal for mutations originating at
  /// `source` (monotone across incarnations).
  uint64_t NextOrdinal(int source);
  /// Ships one record (already stamped with its source ordinal) to the
  /// current successor's replica log. Called by FanoutSink under the KB
  /// writer lock of the source shard.
  Status ShipToReplica(int source, const KbMutation& record);
  /// Collects every replica record other shards hold for `shard`, sorted
  /// by source ordinal.
  Result<std::vector<KbMutation>> CollectReplicaRecords(int shard);
  void OnShardFailure(int shard);
  void OnShardSuccess(int shard);
  void LogEvent(const std::string& event);
  ServiceStats ShardStatsLocked(int shard) const;
  TraceMetrics::Stats ShardTracesLocked(int shard) const;
  /// The ring key, on the shard caches' lattice so cache affinity holds.
  uint64_t RingKey(const std::vector<double>& embedding) const {
    return ShardRouter::KeyOf(embedding, config_.shard.cache.quant_step);
  }

  const HtapSystem* system_;
  ExplainerConfig explainer_config_;
  ShardedServiceConfig config_;

  std::unique_ptr<HtapExplainer> routing_explainer_;
  std::unique_ptr<ShardRouter> router_;
  FaultInjector faults_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards health state, shard teardown/revival, stats retention, events.
  mutable std::mutex health_mu_;
  std::vector<ShardHealth> health_;
  std::vector<int> consecutive_failures_;
  std::vector<int> probe_streak_;
  std::vector<uint64_t> state_since_beat_;  // beat of last state change
  std::vector<uint64_t> killed_at_beat_;
  uint64_t beats_ = 0;
  SimClock clock_;
  FailoverStats failover_;
  std::vector<std::string> events_;

  /// Per-source replication ordinals (1-based, monotone across shard
  /// incarnations — the tier object outlives its shards).
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> replica_ordinals_;

  bool initialized_ = false;
};

}  // namespace htapex

#endif  // HTAPEX_SERVICE_SHARDED_SERVICE_H_
