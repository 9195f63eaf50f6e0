#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "service/explain_cache.h"
#include "service/shard_router.h"
#include "service/sharded_service.h"

namespace htapex {
namespace {

// ---------------------------------------------------------------------------
// ShardRouter: consistent-hash stability (no HTAP system needed).
// ---------------------------------------------------------------------------

std::vector<uint64_t> SyntheticKeys(int n) {
  std::vector<uint64_t> keys;
  keys.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys.push_back(MixFaultSeed(7, 0xABCD, static_cast<uint64_t>(i), 3));
  }
  return keys;
}

TEST(ShardRouterTest, AddingOneShardMovesBoundedKeyFraction) {
  constexpr int kKeys = 20000;
  ShardRouter r4(4);
  ShardRouter r5(5);
  int moved = 0;
  for (uint64_t key : SyntheticKeys(kKeys)) {
    int a = r4.StaticOwner(key);
    int b = r5.StaticOwner(key);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    if (a != b) {
      // The only legal move is onto the NEW shard; any key bouncing
      // between pre-existing shards is a consistent-hashing bug.
      EXPECT_EQ(b, 4) << "key moved between old shards";
      ++moved;
    }
  }
  // Ideal share for the new shard is 1/5 of keys; allow 2x slack for
  // vnode placement variance but fail on naive mod-N rehashing (~4/5).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 2 * kKeys / 5);
}

TEST(ShardRouterTest, EjectionMovesOnlyTheEjectedShardsKeys) {
  constexpr int kKeys = 20000;
  ShardRouter router(4);
  std::vector<int> before;
  for (uint64_t key : SyntheticKeys(kKeys)) {
    before.push_back(router.Owner(key));
  }
  router.SetLive(2, false);
  EXPECT_EQ(router.NumLive(), 3);
  std::vector<uint64_t> keys = SyntheticKeys(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    int now = router.Owner(keys[static_cast<size_t>(i)]);
    ASSERT_NE(now, 2);
    if (before[static_cast<size_t>(i)] != 2) {
      EXPECT_EQ(now, before[static_cast<size_t>(i)])
          << "a surviving shard's key moved on an unrelated ejection";
    }
  }
  // Readmission restores the exact original assignment.
  router.SetLive(2, true);
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(router.Owner(keys[static_cast<size_t>(i)]),
              before[static_cast<size_t>(i)]);
  }
}

TEST(ShardRouterTest, OwnerChainIsDistinctLiveAndOrdered) {
  ShardRouter router(4);
  for (uint64_t key : SyntheticKeys(64)) {
    std::vector<int> chain = router.OwnerChain(key, 4);
    ASSERT_EQ(chain.size(), 4u);
    EXPECT_EQ(chain[0], router.Owner(key));
    std::set<int> distinct(chain.begin(), chain.end());
    EXPECT_EQ(distinct.size(), chain.size());
  }
  router.SetLive(1, false);
  for (uint64_t key : SyntheticKeys(64)) {
    std::vector<int> chain = router.OwnerChain(key, 4);
    ASSERT_EQ(chain.size(), 3u);
    for (int shard : chain) EXPECT_NE(shard, 1);
  }
}

TEST(ShardRouterTest, KeyOfIsQuantizationStable) {
  std::vector<double> base = {0.20, -0.40, 0.61, 0.0};
  std::vector<double> nudged = base;
  nudged[0] += 0.01;  // well inside the 0.05 lattice cell
  std::vector<double> far = base;
  far[0] += 0.10;  // two cells away
  uint64_t k0 = EmbeddingLatticeKey(base);
  EXPECT_EQ(k0, EmbeddingLatticeKey(nudged));
  EXPECT_NE(k0, EmbeddingLatticeKey(far));
}

TEST(ShardRouterTest, NextLiveAfterSkipsDeadShards) {
  ShardRouter router(4);
  EXPECT_EQ(router.NextLiveAfter(0), 1);
  router.SetLive(1, false);
  EXPECT_EQ(router.NextLiveAfter(0), 2);
  router.SetLive(2, false);
  router.SetLive(3, false);
  EXPECT_EQ(router.NextLiveAfter(0), -1);  // nobody else is alive
}

// ---------------------------------------------------------------------------
// LatencyHistogram::Merge (the aggregation primitive the tier relies on).
// ---------------------------------------------------------------------------

TEST(HistogramMergeTest, MergeEqualsSingleGlobalRecorder) {
  LatencyHistogram a, b, global;
  for (int i = 1; i <= 200; ++i) {
    double ms = 0.01 * i;
    (i % 2 == 0 ? a : b).Record(ms);
    global.Record(ms);
  }
  // A fat tail lives entirely in one shard — quantile averaging would
  // halve it; bucket merge must preserve it.
  for (int i = 0; i < 5; ++i) {
    a.Record(500.0);
    global.Record(500.0);
  }
  LatencyHistogram::Snapshot merged =
      LatencyHistogram::Merge(a.Snap(), b.Snap());
  LatencyHistogram::Snapshot want = global.Snap();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_DOUBLE_EQ(merged.sum_ms, want.sum_ms);
  EXPECT_DOUBLE_EQ(merged.min_ms, want.min_ms);
  EXPECT_DOUBLE_EQ(merged.max_ms, want.max_ms);
  EXPECT_EQ(merged.buckets, want.buckets);
  EXPECT_DOUBLE_EQ(merged.p50_ms, want.p50_ms);
  EXPECT_DOUBLE_EQ(merged.p95_ms, want.p95_ms);
  EXPECT_DOUBLE_EQ(merged.p99_ms, want.p99_ms);
  EXPECT_GE(merged.p99_ms, 100.0) << "tail lost in merge";
}

TEST(HistogramMergeTest, MergeWithEmptyIsIdentity) {
  LatencyHistogram a;
  a.Record(1.0);
  a.Record(2.0);
  LatencyHistogram::Snapshot empty;
  LatencyHistogram::Snapshot left =
      LatencyHistogram::Merge(empty, a.Snap());
  LatencyHistogram::Snapshot right =
      LatencyHistogram::Merge(a.Snap(), empty);
  EXPECT_EQ(left.count, 2u);
  EXPECT_EQ(right.count, 2u);
  EXPECT_DOUBLE_EQ(left.min_ms, right.min_ms);
  EXPECT_DOUBLE_EQ(left.p99_ms, right.p99_ms);
  LatencyHistogram::Snapshot both = LatencyHistogram::Merge(empty, empty);
  EXPECT_EQ(both.count, 0u);
}

TEST(HistogramMergeTest, MergeStatsSumsCountersAndMergesHistograms) {
  ServiceStats a, b;
  a.completed = 3;
  a.cache.hits = 1;
  b.completed = 5;
  b.errors = 2;
  b.durability_enabled = true;
  LatencyHistogram ha, hb;
  ha.Record(1.0);
  hb.Record(9.0);
  a.end_to_end = ha.Snap();
  b.end_to_end = hb.Snap();
  ServiceStats m = MergeStats(a, b);
  EXPECT_EQ(m.completed, 8u);
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(m.errors, 2u);
  EXPECT_TRUE(m.durability_enabled);
  EXPECT_EQ(m.end_to_end.count, 2u);
  EXPECT_DOUBLE_EQ(m.end_to_end.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(m.end_to_end.max_ms, 9.0);
}

TEST(HistogramMergeTest, LifecycleVersionTieWeighsAccuraciesBySamples) {
  // Shards clone one set of weights, so equal versions are the norm; an
  // idle shard's zero accuracies must not mask a busy shard's.
  LifecycleStats busy, idle;
  busy.active_version = idle.active_version = 1;
  busy.feedback_samples = 300;
  busy.serving_accuracy = 0.9;
  busy.baseline_accuracy = 0.95;
  LifecycleStats m = MergeStats(idle, busy);
  EXPECT_EQ(m.feedback_samples, 300u);
  EXPECT_DOUBLE_EQ(m.serving_accuracy, 0.9);
  EXPECT_DOUBLE_EQ(m.baseline_accuracy, 0.95);

  LifecycleStats other = busy;
  other.feedback_samples = 100;
  other.serving_accuracy = 0.5;
  EXPECT_DOUBLE_EQ(MergeStats(busy, other).serving_accuracy, 0.8);

  // A newer snapshot still wins outright, however few samples it saw.
  LifecycleStats newer;
  newer.active_version = 2;
  newer.feedback_samples = 1;
  newer.serving_accuracy = 0.25;
  m = MergeStats(busy, newer);
  EXPECT_EQ(m.active_version, 2u);
  EXPECT_DOUBLE_EQ(m.serving_accuracy, 0.25);
}

// ---------------------------------------------------------------------------
// ShardedExplainService (shared expensive fixture, plan-only system).
// ---------------------------------------------------------------------------

class ShardedServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.data_scale_factor = 0.0;
    ASSERT_TRUE(system_->Init(config).ok());
    ExplainerConfig ec;
    trained_ = new HtapExplainer(system_, ec);
    auto train = trained_->TrainRouter();
    ASSERT_TRUE(train.ok()) << train.status();
  }
  static void TearDownTestSuite() {
    delete trained_;
    delete system_;
    trained_ = nullptr;
    system_ = nullptr;
  }

  /// In-memory 4-shard tier adopting the pre-trained router weights.
  static std::unique_ptr<ShardedExplainService> MakeTier(
      ShardedServiceConfig config = {}) {
    ExplainerConfig ec;
    auto tier = std::make_unique<ShardedExplainService>(system_, ec,
                                                        std::move(config));
    Status st = tier->InitFrom(trained_->router());
    EXPECT_TRUE(st.ok()) << st;
    return tier;
  }

  static std::string UniqueDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "htapex_shard_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// Point lookups with distinct literals: cheap to plan, distinct ring
  /// keys are likely but not required by any test below.
  static std::vector<std::string> QuerySet(int n, int salt = 0) {
    std::vector<std::string> sqls;
    for (int i = 0; i < n; ++i) {
      sqls.push_back("SELECT c_name FROM customer WHERE c_custkey = " +
                     std::to_string(1 + salt + i * 7));
    }
    return sqls;
  }

  /// Non-expired sqls across every shard KB (dead shards contribute none).
  static std::multiset<std::string> TierKbSqls(
      const ShardedExplainService& tier) {
    std::multiset<std::string> sqls;
    for (int s = 0; s < tier.num_shards(); ++s) {
      const KnowledgeBase* kb = tier.shard_kb(s);
      if (kb == nullptr) continue;
      for (int id = 0; id < static_cast<int>(kb->total_entries()); ++id) {
        if (kb->IsExpired(id)) continue;
        const KbEntry* e = kb->RawGet(id);
        if (e != nullptr) sqls.insert(e->sql);
      }
    }
    return sqls;
  }

  /// The shard holding the most execution feedback.
  static int BusiestShard(const ShardedServiceStats& stats) {
    auto busiest = std::max_element(
        stats.shards.begin(), stats.shards.end(),
        [](const ServiceStats& a, const ServiceStats& b) {
          return a.lifecycle.feedback_samples < b.lifecycle.feedback_samples;
        });
    return static_cast<int>(busiest - stats.shards.begin());
  }

  static HtapSystem* system_;
  static HtapExplainer* trained_;
};

HtapSystem* ShardedServiceTest::system_ = nullptr;
HtapExplainer* ShardedServiceTest::trained_ = nullptr;

TEST_F(ShardedServiceTest, RoutesByEmbeddingAndTagsFailoverInfo) {
  auto tier = MakeTier();
  ASSERT_TRUE(tier->BuildDefaultKnowledgeBase().ok());
  for (const std::string& sql : QuerySet(6)) {
    auto r = tier->Explain(sql);
    ASSERT_TRUE(r.ok()) << r.status();
    auto key = tier->KeyForSql(sql);
    ASSERT_TRUE(key.ok());
    EXPECT_EQ(r->failover.primary_shard, tier->router()->Owner(*key));
    EXPECT_EQ(r->failover.final_shard, r->failover.primary_shard);
    EXPECT_EQ(r->failover.attempts, 1);
    EXPECT_FALSE(r->failover.failed_over);
  }
  ShardedServiceStats stats = tier->Stats();
  EXPECT_EQ(stats.failover.requests, 6u);
  EXPECT_EQ(stats.failover.failovers, 0u);
  EXPECT_EQ(stats.merged.completed, 6u);
  EXPECT_EQ(stats.live_shards, 4);
}

TEST_F(ShardedServiceTest, SameSqlAlwaysLandsOnSameShard) {
  auto tier = MakeTier();
  const std::string sql = QuerySet(1)[0];
  int first = -2;
  for (int i = 0; i < 3; ++i) {
    auto r = tier->Explain(sql);
    ASSERT_TRUE(r.ok());
    if (first == -2) first = r->failover.final_shard;
    EXPECT_EQ(r->failover.final_shard, first);
  }
  // Shard-local cache affinity follows: the repeats hit.
  EXPECT_GE(tier->Stats().merged.cache.hits, 2u);
}

TEST_F(ShardedServiceTest, KillShardFailsOverWithBudgetCarryOver) {
  auto tier = MakeTier();
  const std::vector<std::string> sqls = QuerySet(12);
  // Find a query owned by some shard, then kill exactly that shard.
  auto key = tier->KeyForSql(sqls[0]);
  ASSERT_TRUE(key.ok());
  int victim = tier->router()->Owner(*key);
  ASSERT_GE(victim, 0);
  tier->KillShard(victim);
  EXPECT_EQ(tier->HealthOf(victim), ShardHealth::kDead);
  EXPECT_EQ(tier->shard_kb(victim), nullptr);
  EXPECT_EQ(tier->shard_service(victim), nullptr);

  auto r = tier->Explain(sqls[0]);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->failover.final_shard, victim);
  // The dead shard is off the ring, so the re-hash is the new primary —
  // no per-request retries were needed.
  EXPECT_EQ(r->failover.attempts, 1);
  ShardedServiceStats stats = tier->Stats();
  EXPECT_EQ(stats.failover.kills, 1u);
  EXPECT_EQ(stats.live_shards, 3);
}

TEST_F(ShardedServiceTest, DeadServiceStillOnTheRingFailsOverToTheNextShard) {
  auto tier = MakeTier();
  const std::string sql = QuerySet(1)[0];
  auto key = tier->KeyForSql(sql);
  ASSERT_TRUE(key.ok());
  const std::vector<int> chain = tier->router()->OwnerChain(*key, 2);
  ASSERT_EQ(chain.size(), 2u);
  // The primary's service dies without the tier noticing: the ring still
  // routes to it, so the request meets the typed kUnavailable and hops.
  tier->shard_service(chain[0])->Kill();
  ASSERT_TRUE(tier->router()->IsLive(chain[0]));

  auto r = tier->Explain(sql);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->failover.primary_shard, chain[0]);
  EXPECT_EQ(r->failover.final_shard, chain[1]);
  EXPECT_EQ(r->failover.attempts, 2);
  EXPECT_TRUE(r->failover.failed_over);
  ShardedServiceStats stats = tier->Stats();
  EXPECT_EQ(stats.failover.failovers, 1u);
  EXPECT_EQ(stats.failover.hops, 1u);
  EXPECT_EQ(stats.failover.kills, 0u);
  // One failure is below the ejection threshold.
  EXPECT_EQ(tier->HealthOf(chain[0]), ShardHealth::kHealthy);
  EXPECT_EQ(tier->EventLog(),
            std::vector<std::string>{StrFormat(
                "rehash key=%016llx from=%d beat=0",
                static_cast<unsigned long long>(*key), chain[0])});
}

TEST_F(ShardedServiceTest, BadSqlReturnsItsErrorAndLeavesShardHealthAlone) {
  auto tier = MakeTier();
  // More bad requests than it takes to eject a failing shard.
  for (int i = 0; i <= kEjectAfterFailures; ++i) {
    auto bind = tier->Explain("SELECT nope FROM customer");
    ASSERT_FALSE(bind.ok());
    EXPECT_EQ(bind.status().code(), StatusCode::kBindError);
    auto parse = tier->Explain("not sql at all");
    ASSERT_FALSE(parse.ok());
    EXPECT_EQ(parse.status().code(), StatusCode::kParseError);
  }
  for (int shard = 0; shard < tier->num_shards(); ++shard) {
    EXPECT_EQ(tier->HealthOf(shard), ShardHealth::kHealthy) << shard;
  }
  ShardedServiceStats stats = tier->Stats();
  EXPECT_EQ(stats.live_shards, tier->num_shards());
  EXPECT_EQ(stats.failover.requests, 2u * (kEjectAfterFailures + 1));
  EXPECT_EQ(stats.failover.ejections, 0u);
  EXPECT_EQ(stats.failover.hops, 0u);
  EXPECT_TRUE(tier->EventLog().empty());
  // The tier still answers from the primary.
  auto good = tier->Explain(QuerySet(1)[0]);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_FALSE(good->failover.failed_over);
}

TEST_F(ShardedServiceTest, DrainingShardReturnsTypedUnavailableWithShardId) {
  // The satellite contract: shutdown/orphan rejections are
  // StatusCode::kUnavailable with the shard id attached — the router
  // never matches message strings.
  ExplainerConfig ec;
  HtapExplainer explainer(system_, ec);
  explainer.mutable_router().CloneWeightsFrom(trained_->router());
  ServiceConfig sc;
  sc.shard_id = 3;
  auto service = std::make_unique<ExplainService>(&explainer, sc);
  service->Shutdown();
  auto r = service->ExplainSync("SELECT c_name FROM customer LIMIT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("shard 3"), std::string::npos);
}

TEST_F(ShardedServiceTest, HealthLifecycleEjectProbeReadmit) {
  ShardedServiceConfig config;
  config.probation_after_beats = 2;
  config.probation_successes = 2;
  auto tier = MakeTier(config);
  ASSERT_TRUE(tier->BuildDefaultKnowledgeBase().ok());
  tier->KillShard(1);
  ASSERT_EQ(tier->HealthOf(1), ShardHealth::kDead);

  // Beat 1: still waiting. Beat 2: auto-revival into probation.
  tier->Heartbeat();
  EXPECT_EQ(tier->HealthOf(1), ShardHealth::kDead);
  tier->Heartbeat();
  EXPECT_EQ(tier->HealthOf(1), ShardHealth::kProbation);
  EXPECT_FALSE(tier->router()->IsLive(1));  // probing, not serving

  // Two successful probes re-admit.
  tier->Heartbeat();
  EXPECT_EQ(tier->HealthOf(1), ShardHealth::kProbation);
  tier->Heartbeat();
  EXPECT_EQ(tier->HealthOf(1), ShardHealth::kHealthy);
  EXPECT_TRUE(tier->router()->IsLive(1));

  ShardedServiceStats stats = tier->Stats();
  EXPECT_EQ(stats.failover.kills, 1u);
  EXPECT_EQ(stats.failover.revivals, 1u);
  EXPECT_EQ(stats.failover.readmissions, 1u);
  EXPECT_GE(stats.failover.probe_successes, 2u);
  // Recovery took exactly 4 beats of the sim clock, and Stats says so.
  EXPECT_EQ(stats.last_recovery_beats, 4u);
  EXPECT_EQ(stats.heartbeats, 4u);
  EXPECT_DOUBLE_EQ(stats.sim_now_ms, 4 * kHeartbeatIntervalMs);

  // The event log tells the full story in order.
  std::vector<std::string> events = tier->EventLog();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "kill shard=1 beat=0");
  EXPECT_EQ(events[1], "revive shard=1 beat=2 lose_disk=0 records=0");
  EXPECT_EQ(events[2], "readmit shard=1 beat=4");
}

TEST_F(ShardedServiceTest, CacheAffinitySurvivesSingleEjection) {
  auto tier = MakeTier();
  // The default knowledge workload spans 9 query patterns, so its
  // embeddings (and thus ring/cache keys) actually spread across shards —
  // point lookups with different literals would quantize to one key.
  const std::vector<std::string> sqls = DefaultKnowledgeSqls(
      system_->config().stats_scale_factor, trained_->config().seed);
  const uint64_t n = sqls.size();
  for (const std::string& sql : sqls) ASSERT_TRUE(tier->Explain(sql).ok());
  ShardedServiceStats pass1 = tier->Stats();
  for (const std::string& sql : sqls) ASSERT_TRUE(tier->Explain(sql).ok());
  ShardedServiceStats pass2 = tier->Stats();
  // Warm tier: every repeat is a shard-local cache hit.
  EXPECT_EQ(pass2.merged.cache.hits - pass1.merged.cache.hits, n);

  // Kill the owner of the first query's key; only ITS keys go cold.
  auto key0 = tier->KeyForSql(sqls[0]);
  ASSERT_TRUE(key0.ok());
  int victim = tier->router()->Owner(*key0);
  uint64_t victim_owned = 0;
  for (const std::string& sql : sqls) {
    auto key = tier->KeyForSql(sql);
    ASSERT_TRUE(key.ok());
    if (tier->router()->Owner(*key) == victim) ++victim_owned;
  }
  ASSERT_GE(victim_owned, 1u);
  tier->KillShard(victim);
  for (const std::string& sql : sqls) ASSERT_TRUE(tier->Explain(sql).ok());
  ShardedServiceStats after = tier->Stats();
  uint64_t pass3_hits = after.merged.cache.hits - pass2.merged.cache.hits;
  // Consistent hashing keeps every surviving shard's cache intact: at
  // most the victim's keys miss. Mod-N rehashing would cold-miss nearly
  // the whole set.
  EXPECT_GE(pass3_hits, n - victim_owned)
      << "ejection destroyed unrelated cache lines";
  // Retained histograms: the killed shard's samples still count.
  EXPECT_EQ(after.merged.completed, 3 * n);
  EXPECT_EQ(after.merged.end_to_end.count, 3 * n);
}

TEST_F(ShardedServiceTest, StallFaultAbsorbsLatencyAndErodesHealth) {
  ShardedServiceConfig config;
  config.faults = "shard.stall:p=1,lat=40";
  auto tier = MakeTier(config);
  const std::string sql = QuerySet(1)[0];
  auto r = tier->Explain(sql);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(r->failover.stall_ms, 40.0);
  EXPECT_EQ(tier->Stats().failover.stalls, 1u);
  const int primary = r->failover.primary_shard;
  // The stalled shard answered, yet the stall still counts against it.
  EXPECT_EQ(tier->HealthOf(primary), ShardHealth::kHealthy);

  // With a budget below the stall, the request dies of deadline — the
  // stall latency counts against the carried-over budget.
  auto starved = tier->Explain(sql, 10.0);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kDeadlineExceeded);

  // Consecutive stalls on one key eject its primary even though every
  // stalled request was answered: an answer after a stall does not reset
  // the failure count.
  for (int i = 2; i < kEjectAfterFailures; ++i) {
    ASSERT_TRUE(tier->Explain(sql).ok());
  }
  EXPECT_EQ(tier->HealthOf(primary), ShardHealth::kEjected);
  EXPECT_EQ(tier->Stats().failover.ejections, 1u);
}

TEST_F(ShardedServiceTest, InitFromRejectsAMalformedFaultSpec) {
  ShardedServiceConfig config;
  config.faults = "shard.kil:p=1";
  ShardedExplainService tier(system_, ExplainerConfig{}, std::move(config));
  EXPECT_EQ(tier.InitFrom(trained_->router()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardedServiceTest, InjectedKillFaultTriggersFailover) {
  ShardedServiceConfig config;
  config.faults = "shard.kill:p=1";
  auto tier = MakeTier(config);
  auto r = tier->Explain(QuerySet(1)[0]);
  // Every live shard the request reaches gets killed by the armed fault;
  // with p=1 the whole tier dies under it.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  ShardedServiceStats stats = tier->Stats();
  EXPECT_GE(stats.failover.injected_kills, 1u);
  EXPECT_GE(stats.failover.kills, stats.failover.injected_kills);
}

TEST_F(ShardedServiceTest, CorrectionsReplicateAndSurviveLostDisk) {
  std::string dir = UniqueDir("lose_disk");
  ShardedServiceConfig config;
  config.data_dir = dir;
  auto tier = MakeTier(config);
  ASSERT_TRUE(tier->BuildDefaultKnowledgeBase().ok());

  // Shadow of every ACKED mutation: the multiset of kb sqls that may
  // never be lost (default KB bootstrap + acked corrections).
  std::multiset<std::string> shadow = TierKbSqls(*tier);

  // Find a victim with at least one correction, then keep correcting
  // until several acked corrections landed on it.
  int victim = -1;
  for (const std::string& sql : QuerySet(10, /*salt=*/100)) {
    auto r = tier->Explain(sql);
    ASSERT_TRUE(r.ok()) << r.status();
    Status ack = tier->IncorporateCorrection(*r);
    ASSERT_TRUE(ack.ok()) << ack;
    shadow.insert(r->result.outcome.sql);
    if (victim < 0) victim = r->failover.final_shard;
  }
  ASSERT_GE(victim, 0);
  EXPECT_GE(tier->Stats().failover.replications, 10u);

  // Kill the victim AND wipe its disk; the rebuild has only the replica
  // records other shards hold for it.
  tier->KillShard(victim);
  ASSERT_TRUE(tier->ReviveShard(victim, /*lose_disk=*/true).ok());
  EXPECT_EQ(tier->HealthOf(victim), ShardHealth::kProbation);

  EXPECT_EQ(TierKbSqls(*tier), shadow)
      << "acked mutation lost (or phantom resurrected) across lost disk";
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServiceTest, ShardKillCrashMatrixAgainstShadowKb) {
  // PR-3's crash matrix extended to the tier: kill the correction's owner
  // at every position in the correction stream (after its ack), revive
  // from LOCAL disk, and compare the tier's union KB against the shadow.
  const std::vector<std::string> sqls = QuerySet(6, /*salt=*/300);
  for (size_t kill_at = 0; kill_at < sqls.size(); ++kill_at) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    std::string dir =
        UniqueDir("matrix_" + std::to_string(kill_at));
    ShardedServiceConfig config;
    config.data_dir = dir;
    auto tier = MakeTier(config);
    ASSERT_TRUE(tier->BuildDefaultKnowledgeBase().ok());
    std::multiset<std::string> shadow = TierKbSqls(*tier);
    for (size_t i = 0; i < sqls.size(); ++i) {
      auto r = tier->Explain(sqls[i]);
      ASSERT_TRUE(r.ok()) << r.status();
      Status ack = tier->IncorporateCorrection(*r);
      ASSERT_TRUE(ack.ok()) << ack;
      shadow.insert(r->result.outcome.sql);
      if (i == kill_at) {
        int owner = r->failover.final_shard;
        tier->KillShard(owner);
        ASSERT_TRUE(tier->ReviveShard(owner).ok());
      }
    }
    EXPECT_EQ(TierKbSqls(*tier), shadow);
    std::filesystem::remove_all(dir);
  }
}

TEST_F(ShardedServiceTest, DroppedReplicationAbortsWithoutAck) {
  std::string dir = UniqueDir("repl_drop");
  ShardedServiceConfig config;
  config.data_dir = dir;
  config.faults = "replicate.drop:p=1";
  auto tier = MakeTier(config);
  std::multiset<std::string> before = TierKbSqls(*tier);

  auto r = tier->Explain(QuerySet(1, /*salt=*/500)[0]);
  ASSERT_TRUE(r.ok()) << r.status();
  Status ack = tier->IncorporateCorrection(*r);
  // Every ship attempt drops, so the mutation must be ABORTED: no ack,
  // and no shard's KB (nor any disk) carries the record.
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.code(), StatusCode::kUnavailable);
  EXPECT_EQ(TierKbSqls(*tier), before);
  ShardedServiceStats stats = tier->Stats();
  EXPECT_GE(stats.failover.replicate_drops, 2u);
  EXPECT_GE(stats.failover.replicate_aborts, 1u);
  EXPECT_EQ(stats.failover.replications, 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServiceTest, ExpositionMergesShardsAndRoundTrips) {
  auto tier = MakeTier();
  for (const std::string& sql : QuerySet(4)) {
    ASSERT_TRUE(tier->Explain(sql).ok());
  }
  tier->KillShard(2);
  std::string text = tier->ExpositionText();
  auto samples = ParseExposition(text);
  ASSERT_TRUE(samples.ok()) << samples.status();

  bool saw_live = false, saw_dead_health = false, saw_e2e_count = false;
  for (const auto& s : *samples) {
    if (s.name == "htapex_live_shards") {
      saw_live = true;
      EXPECT_DOUBLE_EQ(s.value, 3.0);
    }
    if (s.name == "htapex_shard_health") {
      for (const auto& [k, v] : s.labels) {
        if (k == "shard" && v == "2") {
          saw_dead_health = true;
          for (const auto& [k2, v2] : s.labels) {
            if (k2 == "state") {
              EXPECT_EQ(v2, "dead");
            }
          }
        }
      }
    }
    if (s.name == "htapex_tier_stage_latency_ms_count") {
      for (const auto& [k, v] : s.labels) {
        if (k == "stage" && v == "end_to_end") {
          saw_e2e_count = true;
          // The dead shard's samples are retained and merged in.
          EXPECT_DOUBLE_EQ(s.value, 4.0);
        }
      }
    }
  }
  EXPECT_TRUE(saw_live);
  EXPECT_TRUE(saw_dead_health);
  EXPECT_TRUE(saw_e2e_count);
}

TEST_F(ShardedServiceTest, KilledShardsCountersNeverGoBackwards) {
  // A scraper reads any drop in a counter as a reset. Each round kills
  // shard 1 while a second thread polls the merged counters, which must
  // include the dying incarnation's requests at every instant.
  ShardedServiceConfig config;
  config.num_shards = 2;
  auto tier = MakeTier(config);
  std::atomic<bool> done{false};
  std::atomic<int> drops{0};
  std::thread poller([&] {
    uint64_t completed = 0, requests = 0;
    while (!done.load()) {
      ShardedServiceStats stats = tier->Stats();
      if (stats.merged.completed < completed ||
          stats.merged.requests < requests) {
        drops.fetch_add(1);
      }
      completed = std::max(completed, stats.merged.completed);
      requests = std::max(requests, stats.merged.requests);
    }
  });
  for (int round = 0; round < 12; ++round) {
    ExplainService* shard = tier->shard_service(1);
    ASSERT_NE(shard, nullptr);
    for (const std::string& sql : QuerySet(10, round)) {
      (void)shard->ExplainSync(sql);
    }
    tier->KillShard(1);
    ASSERT_TRUE(tier->ReviveShard(1).ok());
  }
  done.store(true);
  poller.join();
  EXPECT_EQ(drops.load(), 0);
  EXPECT_EQ(tier->Stats().merged.completed, 120u);
}

/// Each sample as "family{key=value,...}": summary suffixes and quantile
/// labels dropped, and the values of state-gauge labels, which vary by
/// machine and phase, replaced by "*".
std::set<std::string> Vocabulary(const std::vector<ExpositionSample>& samples) {
  std::set<std::string> out;
  for (const ExpositionSample& s : samples) {
    std::string entry = s.name;
    for (const std::string_view suffix : {"_count", "_sum"}) {
      if (entry.ends_with(suffix)) entry.resize(entry.size() - suffix.size());
    }
    std::string labels;
    for (const auto& [key, value] : s.labels) {
      if (key == "quantile") continue;
      const bool state = key == "backend" || key == "phase" || key == "state";
      labels += (labels.empty() ? "" : ",") + key + "=" + (state ? "*" : value);
    }
    out.insert(labels.empty() ? entry : entry + "{" + labels + "}");
  }
  return out;
}

TEST_F(ShardedServiceTest, ExpositionKeepsItsVocabulary) {
  // Every sample a 4-shard tier with the lifecycle on emitted before its
  // metrics moved to per-group field lists. The one rename:
  // htapex_tier_lifecycle_max_version is htapex_tier_lifecycle_active_version.
  const char* const kVocabulary[] = {
    "htapex_tier_requests_total", "htapex_tier_completed_total",
    "htapex_tier_errors_total", "htapex_tier_cache_events_total{event=hit}",
    "htapex_tier_cache_events_total{event=miss}",
    "htapex_tier_kb_inserts_total",
    "htapex_failover_events_total{event=failover}",
    "htapex_failover_events_total{event=hop}",
    "htapex_failover_events_total{event=ejection}",
    "htapex_failover_events_total{event=readmission}",
    "htapex_failover_events_total{event=kill}",
    "htapex_failover_events_total{event=revival}",
    "htapex_failover_events_total{event=stall}",
    "htapex_failover_events_total{event=no_live_shard}",
    "htapex_replication_events_total{event=shipped}",
    "htapex_replication_events_total{event=dropped}",
    "htapex_replication_events_total{event=aborted}",
    "htapex_tier_lifecycle_events_total{event=drift_detected}",
    "htapex_tier_lifecycle_events_total{event=retrain}",
    "htapex_tier_lifecycle_events_total{event=retrain_failure}",
    "htapex_tier_lifecycle_events_total{event=shadow_reject}",
    "htapex_tier_lifecycle_events_total{event=swap}",
    "htapex_tier_lifecycle_events_total{event=swap_failure}",
    "htapex_tier_lifecycle_events_total{event=rollback}",
    "htapex_tier_lifecycle_events_total{event=kb_expired}",
    "htapex_tier_lifecycle_events_total{event=kb_backfilled}",
    "htapex_tier_lifecycle_feedback_samples_total",
    "htapex_tier_lifecycle_active_version", "htapex_live_shards",
    "htapex_heartbeats", "htapex_shard_health{shard=0,state=*}",
    "htapex_shard_health{shard=1,state=*}",
    "htapex_shard_health{shard=2,state=*}",
    "htapex_shard_health{shard=3,state=*}",
    "htapex_tier_stage_latency_ms{stage=encode}",
    "htapex_tier_stage_latency_ms{stage=cache_lookup}",
    "htapex_tier_stage_latency_ms{stage=kb_search}",
    "htapex_tier_stage_latency_ms{stage=generate}",
    "htapex_tier_stage_latency_ms{stage=end_to_end}",
    "htapex_tier_span_latency_ms{span=queue_wait}",
    "htapex_tier_span_latency_ms{span=parse}",
    "htapex_tier_span_latency_ms{span=bind}",
    "htapex_tier_span_latency_ms{span=tp_optimize}",
    "htapex_tier_span_latency_ms{span=ap_optimize}",
    "htapex_tier_span_latency_ms{span=route}",
    "htapex_tier_span_latency_ms{span=embed}",
    "htapex_tier_span_latency_ms{span=cache_lookup}",
    "htapex_tier_span_latency_ms{span=analyze}",
    "htapex_tier_span_latency_ms{span=retrieve}",
    "htapex_tier_span_latency_ms{span=prompt}",
    "htapex_tier_span_latency_ms{span=generate}",
    "htapex_tier_span_latency_ms{span=grade}",
    "htapex_tier_span_latency_ms{span=kb_insert}",
    "htapex_tier_span_latency_ms{span=total}",
  };
  ShardedServiceConfig config;
  config.shard.lifecycle.enabled = true;
  auto tier = MakeTier(config);
  for (const std::string& sql : QuerySet(4)) {
    ASSERT_TRUE(tier->Explain(sql).ok());
  }
  std::string text = tier->ExpositionText();
  auto parsed = ParseExposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  std::set<std::string> emitted = Vocabulary(*parsed);
  for (const char* sample : kVocabulary) {
    EXPECT_TRUE(emitted.count(sample)) << "no longer emitted: " << sample;
  }
}

TEST_F(ShardedServiceTest, MergedAccuracyComesFromShardsWithFeedback) {
  ShardedServiceConfig config;
  config.shard.lifecycle.enabled = true;
  auto tier = MakeTier(config);
  // Point lookups share one ring key, so one shard records all feedback
  // while the others, on the same weights, stay idle.
  for (const std::string& sql : QuerySet(200)) {
    ASSERT_TRUE(tier->Explain(sql).ok());
  }
  ShardedServiceStats stats = tier->Stats();
  const LifecycleStats& busy =
      stats.shards[static_cast<size_t>(BusiestShard(stats))].lifecycle;
  ASSERT_EQ(busy.feedback_samples, 200u);
  ASSERT_GT(busy.serving_accuracy, 0.0);
  EXPECT_DOUBLE_EQ(stats.merged.lifecycle.serving_accuracy,
                   busy.serving_accuracy);

  auto samples = ParseExposition(tier->ExpositionText());
  ASSERT_TRUE(samples.ok()) << samples.status();
  bool saw_serving = false;
  for (const ExpositionSample& s : *samples) {
    if (s.name != "htapex_tier_lifecycle_accuracy") continue;
    for (const auto& [key, value] : s.labels) {
      if (key == "series" && value == "serving") {
        saw_serving = true;
        EXPECT_NEAR(s.value, busy.serving_accuracy, 1e-6);
      }
    }
  }
  EXPECT_TRUE(saw_serving);
}

TEST_F(ShardedServiceTest, RequestsDoNotWaitForAScrapeOfARetrainingShard) {
  // A request must not wait for a shard's retrain, even with a Stats()
  // scrape of the tier in flight. (lifecycle_test checks that the scrape
  // itself returns during the retrain.)
  ShardedServiceConfig config;
  config.shard.lifecycle.enabled = true;
  config.shard.lifecycle.retrain_epochs = 400;  // a retrain of seconds
  auto tier = MakeTier(config);
  for (const std::string& sql : QuerySet(200)) {
    ASSERT_TRUE(tier->Explain(sql).ok());
  }
  // Retrain time grows with the samples, so retrain the busiest shard.
  const int busy = BusiestShard(tier->Stats());
  ModelLifecycleManager* lifecycle = tier->shard_service(busy)->lifecycle();
  ASSERT_NE(lifecycle, nullptr);
  ASSERT_TRUE(lifecycle->ForceRetrain().ok());

  std::atomic<bool> retrained{false};
  std::thread retrain([&] {
    lifecycle->Tick();
    retrained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread scrape([&] { (void)tier->Stats(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto r = tier->Explain(QuerySet(1, /*salt=*/900)[0]);
  const bool answered_during_retrain = !retrained.load();
  retrain.join();
  scrape.join();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(answered_during_retrain)
      << "Explain() waited for the retrain behind the Stats() scrape";
  EXPECT_EQ(tier->Stats().shards[static_cast<size_t>(busy)].lifecycle.retrains,
            1u);
}

TEST_F(ShardedServiceTest, SameSeedSameScriptSameEventLog) {
  ShardedServiceConfig config;
  config.probation_after_beats = 2;
  config.probation_successes = 1;
  auto run = [&]() {
    auto tier = MakeTier(config);
    for (const std::string& sql : QuerySet(5)) {
      (void)tier->Explain(sql);
    }
    tier->KillShard(2);
    for (const std::string& sql : QuerySet(5)) {
      (void)tier->Explain(sql);
    }
    for (int i = 0; i < 4; ++i) tier->Heartbeat();
    return tier->EventLog();
  };
  std::vector<std::string> first = run();
  std::vector<std::string> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace htapex
