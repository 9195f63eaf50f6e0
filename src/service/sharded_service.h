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

/// Sim-clock milliseconds one Heartbeat() advances.
inline constexpr double kHeartbeatIntervalMs = 100.0;
/// Failover hops one request may take after its primary: it tries at most
/// kMaxFailoverHops + 1 distinct shards.
inline constexpr int kMaxFailoverHops = 3;
/// Consecutive request failures that eject a shard from the ring.
inline constexpr int kEjectAfterFailures = 3;
/// Ship attempts per mutation before the mutation is aborted (each attempt
/// is an independent replicate.drop draw).
inline constexpr int kReplicateAttempts = 3;

/// Configuration of the sharded explanation tier.
struct ShardedServiceConfig {
  int num_shards = 4;
  /// Per-shard service template. `shard_id` and `durable` are overwritten
  /// per shard; everything else (workers, queue, cache, tracing) applies to
  /// each shard identically.
  ServiceConfig shard;

  // --- Health monitor (all intervals in sim-clock heartbeats) ---
  /// Beats a dead shard waits before auto-revival into probation, and an
  /// ejected (but alive) shard waits before probation probing starts.
  int probation_after_beats = 4;
  /// Consecutive successful probes that re-admit a probation shard.
  int probation_successes = 2;

  // --- Durability + correction replication ---
  /// Root directory; each shard persists under `<data_dir>/shard-<i>`,
  /// and with two or more shards ships every KB mutation to a successor
  /// shard's replica log before the local write-ahead ack (see the protocol
  /// note on ShardedExplainService). Empty disables durability AND
  /// replication (pure in-memory tier).
  std::string data_dir;
  /// Per-shard durability template; `dir` is overwritten per shard.
  DurabilityOptions durability;

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

/// Tier-level event counters: Counter cells in the live group the tier
/// bumps lock-free, uint64_t cells in the snapshot Stats() returns.
/// Exported under the "htapex_" prefix.
template <typename Cell>
struct BasicFailoverStats {
  Cell requests{};
  Cell failovers{};         // requests answered off their primary
  Cell hops{};              // extra dispatch attempts, total
  Cell no_live_shard{};     // requests failed with the ring empty
  Cell ejections{};
  Cell readmissions{};
  Cell kills{};
  Cell revivals{};
  Cell stalls{};            // shard.stall faults absorbed
  Cell injected_kills{};    // shard.kill faults fired
  Cell replications{};      // mutation records shipped to a successor
  Cell replicate_drops{};   // ship attempts dropped by replicate.drop
  Cell replicate_aborts{};  // mutations aborted: no successor ack
  Cell probe_successes{};
  Cell probe_failures{};

  template <typename F, typename... G>
  static void ForEachField(F&& f, G&... g) {
    constexpr LabeledFamily event{"failover_events_total",
                                  "Failover-tier events", "event"};
    constexpr LabeledFamily shipment{"replication_events_total",
                                     "Correction-replication events", "event"};
    f(MetricRow{"requests", "tier_requests_total",
                "Requests submitted to the sharded tier"},
      g.requests...);
    f(event("failovers", "failover"), g.failovers...);
    f(event("hops", "hop"), g.hops...);
    f(event("no_live_shard", "no_live_shard"), g.no_live_shard...);
    f(event("ejections", "ejection"), g.ejections...);
    f(event("readmissions", "readmission"), g.readmissions...);
    f(event("kills", "kill"), g.kills...);
    f(event("revivals", "revival"), g.revivals...);
    f(event("stalls", "stall"), g.stalls...);
    f(event("injected_kills", "injected_kill"), g.injected_kills...);
    f(shipment("replications", "shipped"), g.replications...);
    f(shipment("replicate_drops", "dropped"), g.replicate_drops...);
    f(shipment("replicate_aborts", "aborted"), g.replicate_aborts...);
    f(event("probe_successes", "probe_success"), g.probe_successes...);
    f(event("probe_failures", "probe_failure"), g.probe_failures...);
  }

  std::string ToString() const { return StatsToString(*this); }
};
using FailoverMetrics = BasicFailoverStats<Counter>;
using FailoverStats = BasicFailoverStats<uint64_t>;

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
  /// Beats from the most recent kill to that shard re-entering kHealthy
  /// (exported as htapex_failover_last_recovery_beats).
  uint64_t last_recovery_beats = 0;
  double sim_now_ms = 0.0;
};

/// N in-process ExplainService shards behind a consistent-hash router — the
/// tier that removes the serving stack's last single point of failure.
///
/// Request path: the tier plans the query (HtapSystem::Plan) and embeds
/// the plan pair with its own copy of the trained smart router; the
/// quantized embedding keys the ring (EmbeddingLatticeKey, the result
/// cache's key, so shard-local caches keep their affinity); the request
/// dispatches to the owner and, on typed kUnavailable (shard draining/
/// dead), fails over along the key's ring arc with the remaining
/// per-request budget carried over. The owning shard runs stage one again
/// itself. Every result is tagged with a FailoverInfo.
///
/// The tier itself is a thin synchronous router over the per-shard worker
/// pools: Explain() blocks the calling thread, callers bring their own
/// concurrency (bench_failover drives it with an open-loop dispatcher
/// pool). Tier counters are lock-free; the health state machine lives
/// under one leaf mutex that is never held across a shard call (see
/// `health_mu_`).
///
/// Replication ack rule (zero-lost-corrections): with replication on,
/// every KB mutation is shipped to the current successor shard's replica
/// log (fsynced WAL-format segment in the successor's directory) BEFORE
/// the local write-ahead hook runs. A mutation whose ship fails (after
/// kReplicateAttempts draws) is aborted — the caller never gets an ack and
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
  /// `system` must outlive the tier. Call InitFrom() before anything
  /// else; construction alone does no work.
  ShardedExplainService(const HtapSystem* system,
                        ExplainerConfig explainer_config,
                        ShardedServiceConfig config);
  ~ShardedExplainService();

  ShardedExplainService(const ShardedExplainService&) = delete;
  ShardedExplainService& operator=(const ShardedExplainService&) = delete;

  /// Clones `trained`'s router weights into the tier's own router, then
  /// builds every shard with the same weights, so embeddings — and
  /// therefore ring keys and cache keys — are identical tier-wide. Shards
  /// with durable state on disk recover it. Fails on a malformed fault
  /// spec.
  Status InitFrom(const SmartRouter& trained);

  /// Partitions the default 20-query knowledge (DefaultKnowledgeSqls)
  /// across shards by static ring ownership of each query's embedding and
  /// inserts each partition into its owner (flowing through replication +
  /// WAL).
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
  /// Merged Prometheus exposition (round-trips ParseExposition): the
  /// failover group, the service and trace groups merged across shards
  /// under kTierPrefix, and the live-shard, heartbeat and per-shard health
  /// gauges.
  std::string ExpositionText() const;

  /// Chronological, deterministic failover event log ("kill shard=2
  /// beat=7", "eject shard=1 beat=3", ...). Same seed + same single-
  /// threaded call sequence => identical log; bench_failover gates on it.
  std::vector<std::string> EventLog() const;

  ShardRouter* router() { return router_.get(); }
  const ShardRouter* router() const { return router_.get(); }
  int num_shards() const { return config_.num_shards; }

  /// Ring key for a SQL text: HtapSystem::Plan, one RouteBatch pass on the
  /// tier's router, then EmbeddingLatticeKey of the embedding — the same
  /// embedding HtapExplainer::Prepare computes on a shard.
  Result<uint64_t> KeyForSql(const std::string& sql) const;

  /// Test/bench access to one live shard's KB (nullptr when dead).
  const KnowledgeBase* shard_kb(int shard) const;
  /// Test/bench access to one live shard's service (nullptr when dead).
  ExplainService* shard_service(int shard);

 private:
  /// Replication sink: ships each mutation to the successor's replica log,
  /// then forwards to the shard's local DurableKnowledgeBase. Installed as
  /// the KB's mutation sink in place of the durable layer, so only with a
  /// data dir and two or more shards.
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

  /// One lifetime of a shard (between build/revive and kill), with the
  /// tier's only HtapExplainer for that shard. Destroyed members in
  /// reverse order: service first (workers join), then sink, durable,
  /// explainer. Held by shared_ptr with atomic access so a
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

  /// One shard: its current incarnation, the replica logs it hosts, and
  /// the health monitor's record of it.
  struct Shard {
    /// Published and unpublished under health_mu_ (Stats() copies it
    /// there); requests load it lock-free.
    std::atomic<std::shared_ptr<Incarnation>> inc;
    /// Next replication ordinal for mutations this shard originates
    /// (1-based, monotone across incarnations).
    std::atomic<uint64_t> replica_ordinal{0};
    /// Replica logs this shard HOSTS, keyed by source shard; lazily opened
    /// appenders onto `<dir>/replica-from-<source>.log`.
    std::mutex replica_mu;
    std::map<int, WalWriter> replica_writers;

    // Guarded by health_mu_.
    ShardHealth health = ShardHealth::kHealthy;
    int consecutive_failures = 0;
    int probe_streak = 0;
    uint64_t state_since_beat = 0;  // beat of the last state change
    uint64_t killed_at_beat = 0;
    /// Stats carried over from destroyed incarnations of this shard, so a
    /// kill never loses recorded samples.
    ServiceStats retained_stats;
    TraceMetrics::Stats retained_traces;
  };

  std::string ShardDir(int shard) const;
  /// Builds a fresh incarnation; `bootstrap` (may be empty) is replayed
  /// into the new KB before the durable layer attaches (lose-disk revival).
  Status BuildShard(int shard, const std::vector<KbMutation>& bootstrap);
  /// Ships one record (already stamped with its source ordinal) to the
  /// current successor's replica log. Called by FanoutSink under the KB
  /// writer lock of the source shard.
  Status ShipToReplica(int source, const KbMutation& record);
  /// Collects every replica record other shards hold for `shard`, sorted
  /// by source ordinal.
  Result<std::vector<KbMutation>> CollectReplicaRecords(int shard);
  void OnShardFailure(int shard);
  void OnShardSuccess(int shard);
  /// Appends to the event log; the caller holds health_mu_.
  void LogEvent(const std::string& event);

  const HtapSystem* system_;
  ExplainerConfig explainer_config_;
  ShardedServiceConfig config_;

  /// The trained weights every shard clones; its embeddings key the ring.
  std::unique_ptr<SmartRouter> smart_router_;
  std::unique_ptr<ShardRouter> router_;
  FaultInjector faults_;
  FailoverMetrics failover_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards each Shard's health record and retained stats, incarnation
  /// publication, the beat clock and the event log. A leaf lock: no other
  /// mutex is taken and no shard code (service, lifecycle, KB, WAL) runs
  /// while it is held.
  mutable std::mutex health_mu_;
  uint64_t beats_ = 0;
  SimClock clock_;
  uint64_t last_recovery_beats_ = 0;
  std::vector<std::string> events_;

  bool initialized_ = false;
};

}  // namespace htapex

#endif  // HTAPEX_SERVICE_SHARDED_SERVICE_H_
