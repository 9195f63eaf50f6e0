#include "service/sharded_service.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/exposition.h"

namespace htapex {

namespace {

/// Cheap canonical probe for probation health checks: a point lookup that
/// exercises bind, plan, route, retrieve and generate on the probed shard.
constexpr char kProbeSql[] =
    "SELECT c_name FROM customer WHERE c_custkey = 1";

constexpr double kDefaultStallMs = 250.0;

uint64_t ReplicaDrawKey(int source, uint64_t ordinal) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(source)) << 48) ^
         ordinal;
}

}  // namespace

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kEjected:
      return "ejected";
    case ShardHealth::kProbation:
      return "probation";
    case ShardHealth::kDead:
      return "dead";
  }
  return "unknown";
}

// --- Incarnation ------------------------------------------------------------

ShardedExplainService::Incarnation::~Incarnation() {
  // Idempotent: after KillShard this is a no-op (stopping_ already set) and
  // in particular installs no clean-shutdown snapshot.
  if (service != nullptr) service->Shutdown();
  // Unhook the mutation sink before the sink object dies.
  if (explainer != nullptr) {
    explainer->mutable_knowledge_base().set_mutation_sink(nullptr);
  }
  if (durable != nullptr) durable->Detach();
  // Members then destroy in reverse declaration order:
  // service, sink, durable, explainer.
}

// --- FanoutSink -------------------------------------------------------------

Status ShardedExplainService::FanoutSink::WillApply(
    const KbMutation& mutation) {
  // Ship to the successor BEFORE any local durability. A failed ship
  // aborts the mutation with no durable record anywhere — the caller gets
  // no ack, so "acked" always implies "on two disks". (The reverse order
  // would let an aborted mutation leave a valid local WAL record, which
  // local recovery would then resurrect.) Only the shipped copy carries
  // the replication ordinal; the local WAL record stays ordinal-free.
  KbMutation shipped = mutation;
  shipped.ordinal = parent_->NextOrdinal(shard_);
  HTAPEX_RETURN_IF_ERROR(parent_->ShipToReplica(shard_, shipped));
  return local_ == nullptr ? Status::OK() : local_->WillApply(mutation);
}

// --- ShardedExplainService --------------------------------------------------

ShardedExplainService::ShardedExplainService(const HtapSystem* system,
                                             ExplainerConfig explainer_config,
                                             ShardedServiceConfig config)
    : system_(system),
      explainer_config_(std::move(explainer_config)),
      config_(std::move(config)) {
  if (config_.num_shards < 1) config_.num_shards = 1;
  if (config_.eject_after_failures < 1) config_.eject_after_failures = 1;
  if (config_.probation_successes < 1) config_.probation_successes = 1;
  if (config_.probation_after_beats < 1) config_.probation_after_beats = 1;
}

ShardedExplainService::~ShardedExplainService() = default;

std::string ShardedExplainService::ShardDir(int shard) const {
  return config_.data_dir + "/shard-" + std::to_string(shard);
}

uint64_t ShardedExplainService::NextOrdinal(int source) {
  return replica_ordinals_[static_cast<size_t>(source)]->fetch_add(
             1, std::memory_order_relaxed) +
         1;
}

Status ShardedExplainService::Init() {
  routing_explainer_ =
      std::make_unique<HtapExplainer>(system_, explainer_config_);
  HTAPEX_ASSIGN_OR_RETURN(RouterTrainStats train_stats,
                          routing_explainer_->TrainRouter());
  (void)train_stats;
  return InitCommon();
}

Status ShardedExplainService::InitFrom(const SmartRouter& trained) {
  routing_explainer_ =
      std::make_unique<HtapExplainer>(system_, explainer_config_);
  routing_explainer_->mutable_router().CloneWeightsFrom(trained);
  return InitCommon();
}

Status ShardedExplainService::InitCommon() {
  if (initialized_) return Status::InvalidArgument("already initialized");
  // Tier fault spec: same spelling rules as ExplainerConfig::faults.
  std::string spec = config_.faults;
  uint64_t fault_seed = config_.fault_seed;
  if (spec.empty()) {
    spec = FaultInjector::EnvSpec();
    fault_seed = FaultInjector::EnvSeed(fault_seed);
  } else if (spec == "off") {
    spec.clear();
  }
  HTAPEX_ASSIGN_OR_RETURN(faults_, FaultInjector::Parse(spec, fault_seed));

  router_ = std::make_unique<ShardRouter>(config_.num_shards);

  const size_t n = static_cast<size_t>(config_.num_shards);
  shards_.clear();
  replica_ordinals_.clear();
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    replica_ordinals_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  health_.assign(n, ShardHealth::kHealthy);
  consecutive_failures_.assign(n, 0);
  probe_streak_.assign(n, 0);
  state_since_beat_.assign(n, 0);
  killed_at_beat_.assign(n, 0);

  for (int i = 0; i < config_.num_shards; ++i) {
    HTAPEX_RETURN_IF_ERROR(BuildShard(i, {}));
  }
  initialized_ = true;
  return Status::OK();
}

Status ShardedExplainService::BuildShard(
    int shard, const std::vector<KbMutation>& bootstrap) {
  auto inc = std::make_shared<Incarnation>();
  inc->explainer = std::make_unique<HtapExplainer>(system_, explainer_config_);
  // All shards embed with the routing explainer's trained weights, so ring
  // keys and shard-local cache keys are identical tier-wide.
  inc->explainer->mutable_router().CloneWeightsFrom(
      routing_explainer_->router());

  if (!config_.data_dir.empty()) {
    KnowledgeBase* kb = &inc->explainer->mutable_knowledge_base();
    // Lose-disk revival: replay the replica records into the fresh KB
    // before attaching, so they become the bootstrap snapshot.
    for (const KbMutation& record : bootstrap) {
      Status st = kb->Apply(record);
      if (!st.ok()) {
        HTAPEX_LOG(Warning) << "replica bootstrap record skipped for shard "
                            << shard << ": " << st;
      }
    }
    DurabilityOptions d = config_.durability;
    d.dir = ShardDir(shard);
    inc->durable = std::make_unique<DurableKnowledgeBase>(d);
    inc->durable->set_fault_injector(&faults_);
    HTAPEX_ASSIGN_OR_RETURN(auto recovery, inc->durable->Attach(kb));
    (void)recovery;
    if (config_.num_shards > 1) {
      inc->sink =
          std::make_unique<FanoutSink>(this, shard, inc->durable.get());
      kb->set_mutation_sink(inc->sink.get());
    }
  }

  ServiceConfig sc = config_.shard;
  sc.shard_id = shard;
  sc.durable = inc->durable.get();
  if (sc.lifecycle.enabled && !config_.data_dir.empty()) {
    // Each shard heals its own router against its own traffic: private
    // feedback log under the shard directory, so a killed shard's revival
    // recovers its drift history along with its KB.
    sc.lifecycle.data_dir = ShardDir(shard) + "/lifecycle";
  }
  inc->service = std::make_unique<ExplainService>(inc->explainer.get(), sc);
  // Published under the lock Stats() reads it under, like the unpublish
  // in KillShard.
  std::lock_guard<std::mutex> lock(health_mu_);
  shards_[static_cast<size_t>(shard)]->inc.store(std::move(inc));
  return Status::OK();
}

Status ShardedExplainService::BuildDefaultKnowledgeBase() {
  if (!initialized_) return Status::InvalidArgument("Init() first");
  std::vector<std::vector<std::string>> partitions(
      static_cast<size_t>(config_.num_shards));
  for (const std::string& sql : routing_explainer_->DefaultKnowledgeSqls()) {
    HTAPEX_ASSIGN_OR_RETURN(auto prepared, routing_explainer_->Prepare(sql));
    uint64_t key = RingKey(prepared.embedding);
    int owner = router_->StaticOwner(key);
    if (owner < 0) owner = 0;
    partitions[static_cast<size_t>(owner)].push_back(sql);
  }
  for (int i = 0; i < config_.num_shards; ++i) {
    if (partitions[static_cast<size_t>(i)].empty()) continue;
    auto inc = shards_[static_cast<size_t>(i)]->inc.load();
    if (inc == nullptr) return Status::Unavailable("shard is down");
    HTAPEX_RETURN_IF_ERROR(inc->explainer->AddToKnowledgeBase(
        partitions[static_cast<size_t>(i)]));
  }
  return Status::OK();
}

Result<uint64_t> ShardedExplainService::KeyForSql(const std::string& sql) {
  if (!initialized_) return Status::InvalidArgument("Init() first");
  HTAPEX_ASSIGN_OR_RETURN(auto prepared, routing_explainer_->Prepare(sql));
  return RingKey(prepared.embedding);
}

Result<ShardedExplainResult> ShardedExplainService::Explain(
    const std::string& sql, double budget_ms) {
  if (!initialized_) return Status::InvalidArgument("Init() first");
  WallTimer timer;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    ++failover_.requests;
  }
  // Stage one runs once on the shared routing explainer (read-only) to get
  // the embedding that keys the ring; the owning shard then re-runs its own
  // pipeline (its PrepareBatch amortizes this across its queue).
  HTAPEX_ASSIGN_OR_RETURN(auto prepared, routing_explainer_->Prepare(sql));
  uint64_t key = RingKey(prepared.embedding);

  ShardedExplainResult out;
  std::vector<int> chain = router_->OwnerChain(key, kMaxFailoverHops + 1);
  if (chain.empty()) {
    std::lock_guard<std::mutex> lock(health_mu_);
    ++failover_.no_live_shard;
    return Status::Unavailable("no live shard for key");
  }
  out.failover.primary_shard = chain[0];

  Status last = Status::Unavailable("all failover attempts exhausted");
  for (int shard : chain) {
    if (!router_->IsLive(shard)) continue;  // died since the chain was cut
    ++out.failover.attempts;

    FaultDraw kill = faults_.Draw(kFaultShardKill, key,
                                  static_cast<uint64_t>(shard));
    if (kill.fired && HealthOf(shard) == ShardHealth::kHealthy) {
      {
        std::lock_guard<std::mutex> lock(health_mu_);
        ++failover_.injected_kills;
      }
      KillShard(shard);
      last = Status::Unavailable("shard killed by injected fault");
      continue;
    }

    FaultDraw stall = faults_.Draw(kFaultShardStall, key,
                                   static_cast<uint64_t>(shard));
    if (stall.fired) {
      double stall_ms =
          stall.latency_ms > 0.0 ? stall.latency_ms : kDefaultStallMs;
      out.failover.stall_ms += stall_ms;
      {
        std::lock_guard<std::mutex> lock(health_mu_);
        ++failover_.stalls;
      }
      // A stalling shard still answers, but the stall erodes its health —
      // repeated stalls eject it just like hard failures.
      OnShardFailure(shard);
    }

    double remaining = 0.0;
    if (budget_ms > 0.0) {
      // The budget carries over across hops: wall time burned on earlier
      // attempts plus absorbed (simulated) stall latency all count.
      remaining = budget_ms - timer.ElapsedMillis() - out.failover.stall_ms;
      if (remaining <= 0.0) {
        return Status::DeadlineExceeded(
            "request budget exhausted during failover");
      }
    }

    auto inc = shards_[static_cast<size_t>(shard)]->inc.load();
    if (inc == nullptr) {
      OnShardFailure(shard);
      continue;
    }
    Result<ExplainResult> result = inc->service->ExplainSync(sql, remaining);
    if (result.ok()) {
      OnShardSuccess(shard);
      out.result = std::move(result).value();
      out.failover.final_shard = shard;
      out.failover.failed_over = out.failover.attempts > 1;
      if (out.failover.failed_over) {
        std::lock_guard<std::mutex> lock(health_mu_);
        ++failover_.failovers;
        failover_.hops += static_cast<uint64_t>(out.failover.attempts - 1);
      }
      return out;
    }
    StatusCode code = result.status().code();
    if (code == StatusCode::kUnavailable) {
      // Typed "shard draining/dead" — the failover trigger. The shard id in
      // the status is informational; the decision is purely code-based.
      OnShardFailure(shard);
      {
        std::lock_guard<std::mutex> lock(health_mu_);
        LogEvent(StrFormat("rehash key=%016llx from=%d beat=%llu",
                           static_cast<unsigned long long>(key), shard,
                           static_cast<unsigned long long>(beats_)));
      }
      last = result.status();
      continue;
    }
    if (code == StatusCode::kDeadlineExceeded) {
      // The request's own budget died; no amount of failover helps.
      return result.status();
    }
    // Request-level error (bad SQL etc.): the shard did its job.
    OnShardSuccess(shard);
    return result.status();
  }
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    failover_.hops += static_cast<uint64_t>(
        out.failover.attempts > 0 ? out.failover.attempts - 1 : 0);
  }
  return last;
}

Status ShardedExplainService::IncorporateCorrection(
    const ShardedExplainResult& result) {
  if (!initialized_) return Status::InvalidArgument("Init() first");
  uint64_t key = RingKey(result.result.embedding);
  std::vector<int> chain = router_->OwnerChain(key, kMaxFailoverHops + 1);
  if (chain.empty()) return Status::Unavailable("no live shard for key");
  Status last = Status::Unavailable("all correction attempts exhausted");
  for (int shard : chain) {
    if (!router_->IsLive(shard)) continue;
    auto inc = shards_[static_cast<size_t>(shard)]->inc.load();
    if (inc == nullptr) {
      OnShardFailure(shard);
      continue;
    }
    Status st = inc->service->IncorporateCorrection(result.result);
    if (st.code() != StatusCode::kUnavailable) {
      // OK is the durable ack; other codes are the correction's own
      // problem. Either way this shard answered.
      if (st.ok()) OnShardSuccess(shard);
      return st;
    }
    OnShardFailure(shard);
    last = st;
  }
  return last;
}

void ShardedExplainService::OnShardFailure(int shard) {
  std::lock_guard<std::mutex> lock(health_mu_);
  size_t i = static_cast<size_t>(shard);
  switch (health_[i]) {
    case ShardHealth::kHealthy:
      if (++consecutive_failures_[i] >= config_.eject_after_failures) {
        health_[i] = ShardHealth::kEjected;
        state_since_beat_[i] = beats_;
        consecutive_failures_[i] = 0;
        router_->SetLive(shard, false);
        ++failover_.ejections;
        LogEvent(StrFormat("eject shard=%d beat=%llu", shard,
                           static_cast<unsigned long long>(beats_)));
      }
      break;
    case ShardHealth::kProbation:
      probe_streak_[i] = 0;
      break;
    case ShardHealth::kEjected:
    case ShardHealth::kDead:
      break;
  }
}

void ShardedExplainService::OnShardSuccess(int shard) {
  std::lock_guard<std::mutex> lock(health_mu_);
  consecutive_failures_[static_cast<size_t>(shard)] = 0;
}

void ShardedExplainService::KillShard(int shard) {
  if (!initialized_ || shard < 0 || shard >= config_.num_shards) return;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    size_t i = static_cast<size_t>(shard);
    if (health_[i] == ShardHealth::kDead) return;
    health_[i] = ShardHealth::kDead;
    state_since_beat_[i] = beats_;
    killed_at_beat_[i] = beats_;
    ++failover_.kills;
    LogEvent(StrFormat("kill shard=%d beat=%llu", shard,
                       static_cast<unsigned long long>(beats_)));
  }
  router_->SetLive(shard, false);
  Shard& s = *shards_[static_cast<size_t>(shard)];
  std::shared_ptr<Incarnation> inc = s.inc.load();
  if (inc != nullptr) {
    // Crash semantics: fail the backlog, join workers, NO snapshot — the
    // shard's directory stays exactly as the "crash" found it.
    inc->service->Kill();
    // The incarnation stays published until its stats are folded, and both
    // happen in one section, so Stats() never sees the tier's counters
    // drop. A concurrent ReviveShard may already have published its
    // successor; that one stays.
    std::lock_guard<std::mutex> lock(health_mu_);
    ServiceStats final_stats = inc->service->Stats();
    final_stats.cache.size = 0;  // its cache died with it
    s.retained_stats = MergeStats(s.retained_stats, final_stats);
    s.retained_traces =
        MergeStats(s.retained_traces, inc->service->TraceSnapshot());
    std::shared_ptr<Incarnation> killed = inc;
    s.inc.compare_exchange_strong(killed, nullptr);
  }
  {
    // Close replica appenders this shard hosts; sources re-route on their
    // next ship because the target is no longer live.
    std::lock_guard<std::mutex> lock(s.replica_mu);
    s.replica_writers.clear();
  }
  // `inc` destructs here unless an in-flight request still holds it.
}

Status ShardedExplainService::ReviveShard(int shard, bool lose_disk) {
  if (!initialized_ || shard < 0 || shard >= config_.num_shards) {
    return Status::InvalidArgument("bad shard");
  }
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (health_[static_cast<size_t>(shard)] != ShardHealth::kDead) {
      return Status::InvalidArgument("shard is not dead");
    }
  }
  std::vector<KbMutation> bootstrap;
  if (lose_disk) {
    if (config_.data_dir.empty() || config_.num_shards < 2) {
      return Status::InvalidArgument(
          "lose_disk revival requires replication");
    }
    HTAPEX_ASSIGN_OR_RETURN(bootstrap, CollectReplicaRecords(shard));
    std::error_code ec;
    std::filesystem::remove_all(ShardDir(shard), ec);
    if (ec) {
      return Status::IoError("failed to wipe shard dir: " + ec.message());
    }
  }
  HTAPEX_RETURN_IF_ERROR(BuildShard(shard, bootstrap));
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    size_t i = static_cast<size_t>(shard);
    health_[i] = ShardHealth::kProbation;
    state_since_beat_[i] = beats_;
    probe_streak_[i] = 0;
    consecutive_failures_[i] = 0;
    ++failover_.revivals;
    LogEvent(StrFormat("revive shard=%d beat=%llu lose_disk=%d records=%zu",
                       shard, static_cast<unsigned long long>(beats_),
                       lose_disk ? 1 : 0, bootstrap.size()));
  }
  return Status::OK();
}

Result<std::vector<KbMutation>>
ShardedExplainService::CollectReplicaRecords(int shard) {
  std::vector<KbMutation> records;
  for (int host = 0; host < config_.num_shards; ++host) {
    if (host == shard) continue;
    std::string path =
        ShardDir(host) + "/replica-from-" + std::to_string(shard) + ".log";
    WalReplayStats stats;
    Status st = ReplayWalSegment(
        path, routing_explainer_->knowledge_base().dim(),
        /*truncate_torn_tail=*/false,
        [&records](const KbMutation& record) -> Status {
          records.push_back(record);
          return Status::OK();
        },
        &stats);
    if (!st.ok()) return st;
  }
  // Restore original mutation order: ordinals are per-source monotone and
  // unique (gaps where a ship was dropped are fine — those mutations were
  // never acked and never applied anywhere).
  std::stable_sort(records.begin(), records.end(),
                   [](const KbMutation& a, const KbMutation& b) {
                     return a.ordinal < b.ordinal;
                   });
  return records;
}

Status ShardedExplainService::ShipToReplica(int source,
                                            const KbMutation& record) {
  if (config_.data_dir.empty() || config_.num_shards < 2) {
    return Status::OK();
  }
  std::string payload = EncodeWalRecord(record);
  int attempts = std::max(1, config_.replicate_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // Sticky-by-liveness successor: first live shard after the source in
    // index order. Re-evaluated per attempt so a mid-retry death advances.
    int target = router_->NextLiveAfter(source);
    if (target < 0) {
      std::lock_guard<std::mutex> lock(health_mu_);
      ++failover_.replicate_aborts;
      return Status::Unavailable("no live replica target");
    }
    FaultDraw drop = faults_.Draw(kFaultReplicateDrop,
                                  ReplicaDrawKey(source, record.ordinal),
                                  static_cast<uint64_t>(attempt));
    if (drop.fired) {
      std::lock_guard<std::mutex> lock(health_mu_);
      ++failover_.replicate_drops;
      continue;
    }
    Status append_status;
    {
      Shard& host = *shards_[static_cast<size_t>(target)];
      std::lock_guard<std::mutex> lock(host.replica_mu);
      if (!router_->IsLive(target)) continue;  // died before we got the lock
      auto it = host.replica_writers.find(source);
      if (it == host.replica_writers.end()) {
        std::string path = ShardDir(target) + "/replica-from-" +
                           std::to_string(source) + ".log";
        auto writer = WalWriter::Open(path, nullptr);
        if (!writer.ok()) {
          append_status = writer.status();
        } else {
          it = host.replica_writers
                   .emplace(source, std::move(writer).value())
                   .first;
        }
      }
      if (it != host.replica_writers.end()) {
        append_status = it->second.Append(payload);
        if (append_status.ok()) append_status = it->second.Sync();
        if (!append_status.ok()) host.replica_writers.erase(it);
      }
    }
    if (!append_status.ok()) {
      HTAPEX_LOG(Warning) << "replica ship " << source << "->" << target
                          << " failed: " << append_status;
      continue;
    }
    std::lock_guard<std::mutex> lock(health_mu_);
    ++failover_.replications;
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  ++failover_.replicate_aborts;
  return Status::Unavailable("replication dropped after " +
                             std::to_string(attempts) + " attempts");
}

void ShardedExplainService::Heartbeat() {
  if (!initialized_) return;
  std::vector<int> to_revive;
  std::vector<int> to_probe;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    ++beats_;
    clock_.AdvanceMillis(kHeartbeatIntervalMs);
    for (int i = 0; i < config_.num_shards; ++i) {
      size_t s = static_cast<size_t>(i);
      uint64_t waited = beats_ - state_since_beat_[s];
      switch (health_[s]) {
        case ShardHealth::kDead:
          if (waited >= static_cast<uint64_t>(config_.probation_after_beats)) {
            to_revive.push_back(i);
          }
          break;
        case ShardHealth::kEjected:
          if (waited >= static_cast<uint64_t>(config_.probation_after_beats)) {
            health_[s] = ShardHealth::kProbation;
            state_since_beat_[s] = beats_;
            probe_streak_[s] = 0;
            LogEvent(StrFormat("probation shard=%d beat=%llu", i,
                               static_cast<unsigned long long>(beats_)));
          }
          break;
        case ShardHealth::kProbation:
          to_probe.push_back(i);
          break;
        case ShardHealth::kHealthy:
          break;
      }
    }
  }
  for (int shard : to_revive) {
    Status st = ReviveShard(shard, /*lose_disk=*/false);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(health_mu_);
      // Retry after another full wait instead of hammering every beat.
      state_since_beat_[static_cast<size_t>(shard)] = beats_;
      LogEvent(StrFormat("revive_failed shard=%d beat=%llu", shard,
                         static_cast<unsigned long long>(beats_)));
    }
  }
  for (int shard : to_probe) {
    auto inc = shards_[static_cast<size_t>(shard)]->inc.load();
    if (inc == nullptr) continue;
    Result<ExplainResult> probe = inc->service->ExplainSync(kProbeSql);
    std::lock_guard<std::mutex> lock(health_mu_);
    size_t s = static_cast<size_t>(shard);
    if (health_[s] != ShardHealth::kProbation) continue;
    if (probe.ok()) {
      ++failover_.probe_successes;
      if (++probe_streak_[s] >= config_.probation_successes) {
        health_[s] = ShardHealth::kHealthy;
        state_since_beat_[s] = beats_;
        router_->SetLive(shard, true);
        ++failover_.readmissions;
        if (killed_at_beat_[s] > 0 || failover_.kills > 0) {
          failover_.last_recovery_beats = beats_ - killed_at_beat_[s];
        }
        LogEvent(StrFormat("readmit shard=%d beat=%llu", shard,
                           static_cast<unsigned long long>(beats_)));
      }
    } else {
      ++failover_.probe_failures;
      probe_streak_[s] = 0;
    }
  }
  if (config_.shard.lifecycle.enabled) {
    // The heartbeat is the tier's sim-clock driver, so it also advances
    // each live shard's model lifecycle one step per beat — drift checks,
    // retrains, shadow scoring and watch verdicts all progress on beats,
    // deterministically for a single-threaded caller. The incarnation
    // shared_ptr keeps the service alive across a concurrent kill.
    for (int i = 0; i < config_.num_shards; ++i) {
      auto inc = shards_[static_cast<size_t>(i)]->inc.load();
      if (inc == nullptr) continue;
      if (ModelLifecycleManager* lifecycle = inc->service->lifecycle()) {
        lifecycle->Tick();
      }
    }
  }
}

ShardHealth ShardedExplainService::HealthOf(int shard) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (shard < 0 || shard >= static_cast<int>(health_.size())) {
    return ShardHealth::kDead;
  }
  return health_[static_cast<size_t>(shard)];
}

uint64_t ShardedExplainService::heartbeats() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return beats_;
}

void ShardedExplainService::LogEvent(const std::string& event) {
  events_.push_back(event);
}

std::vector<std::string> ShardedExplainService::EventLog() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return events_;
}

ServiceStats ShardedExplainService::ShardStatsLocked(int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  auto inc = s.inc.load();
  if (inc == nullptr) return s.retained_stats;
  return MergeStats(s.retained_stats, inc->service->Stats());
}

TraceMetrics::Stats ShardedExplainService::ShardTracesLocked(
    int shard) const {
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  auto inc = s.inc.load();
  if (inc == nullptr) return s.retained_traces;
  return MergeStats(s.retained_traces, inc->service->TraceSnapshot());
}

ShardedServiceStats ShardedExplainService::Stats() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  ShardedServiceStats out;
  if (!initialized_) return out;
  out.health = health_;
  out.heartbeats = beats_;
  out.sim_now_ms = clock_.now_millis();
  out.failover = failover_;
  out.live_shards = router_->NumLive();
  for (int i = 0; i < config_.num_shards; ++i) {
    ServiceStats stats = ShardStatsLocked(i);
    out.merged = MergeStats(out.merged, stats);
    out.merged_traces = MergeStats(out.merged_traces, ShardTracesLocked(i));
    out.shards.push_back(std::move(stats));
  }
  return out;
}

std::string ShardedExplainService::ExpositionText() const {
  ShardedServiceStats s = Stats();
  ExpositionBuilder b;
  Expose(s.failover, kServicePrefix, &b);
  Expose(s.merged, kTierPrefix, &b);
  Expose(s.merged_traces, kTierPrefix, &b);
  b.Gauge("htapex_live_shards", "Shards currently serving on the ring",
          static_cast<double>(s.live_shards));
  b.Gauge("htapex_heartbeats", "Health-monitor beats elapsed",
          static_cast<double>(s.heartbeats));
  for (size_t i = 0; i < s.health.size(); ++i) {
    b.Gauge("htapex_shard_health",
            "Shard health state (constant 1, labeled by state)", 1.0,
            {{"shard", std::to_string(i)},
             {"state", ShardHealthName(s.health[i])}});
  }
  return b.Text();
}

const KnowledgeBase* ShardedExplainService::shard_kb(int shard) const {
  if (shard < 0 || shard >= config_.num_shards) return nullptr;
  auto inc = shards_[static_cast<size_t>(shard)]->inc.load();
  if (inc == nullptr) return nullptr;
  return &inc->explainer->knowledge_base();
}

ExplainService* ShardedExplainService::shard_service(int shard) {
  if (shard < 0 || shard >= config_.num_shards) return nullptr;
  auto inc = shards_[static_cast<size_t>(shard)]->inc.load();
  if (inc == nullptr) return nullptr;
  return inc->service.get();
}

}  // namespace htapex
