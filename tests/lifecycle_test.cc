// Tests for the self-healing model lifecycle (src/lifecycle/): the
// WAL-backed feedback buffer, drift detection, shadow-validated retraining,
// atomic hot-swap, regression rollback, the retrain/shadow/swap fault
// matrix, and the ExplainService integration. Labelled `lifecycle` in
// tests/CMakeLists.txt; the kill/fault matrix here is the contract the
// ISSUE acceptance bar names: at every injection point the serving router
// keeps answering from the old snapshot, version and CRC unchanged.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "lifecycle/feedback_buffer.h"
#include "lifecycle/model_lifecycle.h"
#include "router/plan_featurizer.h"
#include "router/smart_router.h"
#include "service/explain_service.h"
#include "workload/query_generator.h"

namespace htapex {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "htapex_lifecycle_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- synthetic feedback -----------------------------------------------
//
// Single-node plan trees at the router's real feature width whose label is
// a learnable wide-margin function of the features: the faster engine's
// tree carries a high first feature, the slower one a low first feature
// (the rest is noise). A "regime flip" inverts the rule — the same feature
// distribution with flipped labels, which is exactly what a cluster-shrink
// drift does to the contested region.

PlanTreeFeatures SyntheticTree(Rng* rng) {
  PlanTreeFeatures t;
  t.num_nodes = 1;
  t.feature_dim = kPlanFeatureDim;
  t.x.resize(static_cast<size_t>(kPlanFeatureDim));
  for (double& v : t.x) v = rng->UniformReal(0, 1);
  t.left.assign(1, -1);
  t.right.assign(1, -1);
  return t;
}

PairExample SyntheticExample(Rng* rng, bool flipped) {
  PairExample ex;
  ex.tp = SyntheticTree(rng);
  ex.ap = SyntheticTree(rng);
  bool ap_faster = rng->UniformReal(0, 1) < 0.5;
  ex.ap.x[0] =
      ap_faster ? rng->UniformReal(0.8, 1.0) : rng->UniformReal(0.0, 0.2);
  ex.tp.x[0] =
      ap_faster ? rng->UniformReal(0.0, 0.2) : rng->UniformReal(0.8, 1.0);
  ex.label = (ap_faster != flipped) ? 1 : 0;
  return ex;
}

std::vector<PairExample> SyntheticSet(uint64_t seed, int n, bool flipped) {
  Rng rng(seed);
  std::vector<PairExample> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(SyntheticExample(&rng, flipped));
  return out;
}

FeedbackSample MakeSample(uint64_t seed, bool correct) {
  Rng rng(seed);
  FeedbackSample s;
  s.example = SyntheticExample(&rng, false);
  s.p_ap = rng.UniformReal(0, 1);
  s.correct = correct;
  return s;
}

// --- feedback buffer ---------------------------------------------------

TEST(FeedbackSampleTest, EncodeDecodeRoundTrip) {
  FeedbackSample s = MakeSample(11, true);
  auto back = DecodeFeedbackSample(EncodeFeedbackSample(s));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->example.label, s.example.label);
  EXPECT_EQ(back->correct, s.correct);
  EXPECT_DOUBLE_EQ(back->p_ap, s.p_ap);
  ASSERT_EQ(back->example.tp.num_nodes, s.example.tp.num_nodes);
  ASSERT_EQ(back->example.tp.x.size(), s.example.tp.x.size());
  for (size_t i = 0; i < s.example.tp.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(back->example.tp.x[i], s.example.tp.x[i]);
  }
  EXPECT_EQ(back->example.ap.left, s.example.ap.left);
  EXPECT_EQ(back->example.ap.right, s.example.ap.right);
}

TEST(FeedbackSampleTest, DecodeRejectsMalformedPayloads) {
  EXPECT_FALSE(DecodeFeedbackSample("not json").ok());
  EXPECT_FALSE(DecodeFeedbackSample("{}").ok());
  // Tree whose child arrays disagree with the stated node count.
  EXPECT_FALSE(
      DecodeFeedbackSample(
          R"({"tp":{"n":2,"f":1,"x":[0.5,0.5],"l":[-1],"r":[-1,-1]},)"
          R"("ap":{"n":1,"f":1,"x":[0.5],"l":[-1],"r":[-1]},"label":0})")
          .ok());
}

TEST(FeedbackBufferTest, BoundsCapacityOldestFirst) {
  FeedbackBufferOptions opts;
  opts.capacity = 4;
  FeedbackBuffer buffer(opts);
  ASSERT_TRUE(buffer.Open().ok());
  for (int i = 0; i < 10; ++i) {
    FeedbackSample s = MakeSample(100 + static_cast<uint64_t>(i), true);
    s.example.label = i % 2;
    s.example.tp.x[1] = i;  // identity marker
    buffer.Add(std::move(s));
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.total_added(), 10u);
  std::vector<PairExample> newest = buffer.NewestExamples(3);
  ASSERT_EQ(newest.size(), 3u);
  // Oldest-first within the newest window: samples 7, 8, 9.
  EXPECT_DOUBLE_EQ(newest[0].tp.x[1], 7.0);
  EXPECT_DOUBLE_EQ(newest[2].tp.x[1], 9.0);
  EXPECT_EQ(buffer.NewestExamples(99).size(), 4u);
}

TEST(FeedbackBufferTest, WindowAccuracyCountsNewestVerdicts) {
  FeedbackBuffer buffer(FeedbackBufferOptions{});
  ASSERT_TRUE(buffer.Open().ok());
  for (int i = 0; i < 8; ++i) {
    buffer.Add(MakeSample(static_cast<uint64_t>(i), /*correct=*/i >= 4));
  }
  EXPECT_DOUBLE_EQ(buffer.WindowAccuracy(4), 1.0);   // newest 4 all correct
  EXPECT_DOUBLE_EQ(buffer.WindowAccuracy(8), 0.5);
  EXPECT_DOUBLE_EQ(buffer.WindowAccuracy(100), 0.5);
}

TEST(FeedbackBufferTest, RecoversNewestWindowFromLog) {
  const std::string dir = TestDir("recover");
  FeedbackBufferOptions opts;
  opts.capacity = 8;
  opts.dir = dir;
  opts.fsync_every_n = 1;
  {
    FeedbackBuffer buffer(opts);
    ASSERT_TRUE(buffer.Open().ok());
    EXPECT_TRUE(buffer.durable());
    for (int i = 0; i < 12; ++i) {
      FeedbackSample s = MakeSample(200 + static_cast<uint64_t>(i), true);
      s.example.tp.x[1] = i;
      buffer.Add(std::move(s));
    }
  }
  FeedbackBuffer recovered(opts);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.recovery_stats().replayed, 12u);
  EXPECT_EQ(recovered.size(), 8u);  // newest `capacity` kept
  std::vector<PairExample> newest = recovered.NewestExamples(8);
  EXPECT_DOUBLE_EQ(newest.front().tp.x[1], 4.0);
  EXPECT_DOUBLE_EQ(newest.back().tp.x[1], 11.0);
  std::filesystem::remove_all(dir);
}

TEST(FeedbackBufferTest, TruncatesTornTailOnRecovery) {
  const std::string dir = TestDir("torn");
  FeedbackBufferOptions opts;
  opts.dir = dir;
  opts.fsync_every_n = 1;
  {
    FeedbackBuffer buffer(opts);
    ASSERT_TRUE(buffer.Open().ok());
    for (int i = 0; i < 5; ++i) {
      buffer.Add(MakeSample(300 + static_cast<uint64_t>(i), true));
    }
  }
  {  // Tear the tail: a frame header promising bytes that never arrived.
    std::ofstream f(dir + "/feedback.log",
                    std::ios::binary | std::ios::app);
    const uint32_t len = 100000;
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    f.write("xx", 2);
  }
  FeedbackBuffer recovered(opts);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.recovery_stats().replayed, 5u);
  EXPECT_GE(recovered.recovery_stats().truncated, 1u);
  EXPECT_EQ(recovered.size(), 5u);
  // The truncated log accepts appends again at a clean boundary.
  recovered.Add(MakeSample(399, true));
  EXPECT_TRUE(recovered.durable());
  std::filesystem::remove_all(dir);
}

TEST(FeedbackBufferTest, WalFailureDegradesToMemoryOnly) {
  const std::string dir = TestDir("wedge");
  auto faults = FaultInjector::Parse("wal.append:p=1");
  ASSERT_TRUE(faults.ok());
  FeedbackBufferOptions opts;
  opts.dir = dir;
  FeedbackBuffer buffer(opts);
  ASSERT_TRUE(buffer.Open().ok());
  buffer.set_fault_injector(&*faults);
  for (int i = 0; i < 3; ++i) {
    buffer.Add(MakeSample(400 + static_cast<uint64_t>(i), true));
  }
  // The injected append crash wedges the log once; feedback keeps flowing
  // in memory and the loss is counted, never propagated.
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.total_added(), 3u);
  EXPECT_EQ(buffer.wal_failures(), 1u);
  EXPECT_FALSE(buffer.durable());
  std::filesystem::remove_all(dir);
}

TEST(FeedbackBufferTest, CompactionBoundsLogAndPreservesWindow) {
  const std::string dir = TestDir("compact");
  FeedbackBufferOptions opts;
  opts.capacity = 4;
  opts.dir = dir;
  opts.fsync_every_n = 1;
  {
    FeedbackBuffer buffer(opts);
    ASSERT_TRUE(buffer.Open().ok());
    for (int i = 0; i < 40; ++i) {
      FeedbackSample s = MakeSample(500 + static_cast<uint64_t>(i), true);
      s.example.tp.x[1] = i;
      buffer.Add(std::move(s));
    }
    EXPECT_TRUE(buffer.durable());
  }
  FeedbackBuffer recovered(opts);
  ASSERT_TRUE(recovered.Open().ok());
  // Compaction rewrote the log from the in-memory window, so recovery sees
  // far fewer records than the 40 appends — bounded by factor * capacity
  // plus the appends since the last rewrite.
  EXPECT_LE(recovered.recovery_stats().replayed,
            kFeedbackCompactFactor * opts.capacity + 1);
  std::vector<PairExample> newest = recovered.NewestExamples(4);
  ASSERT_EQ(newest.size(), 4u);
  EXPECT_DOUBLE_EQ(newest.back().tp.x[1], 39.0);
  std::filesystem::remove_all(dir);
}

// --- lifecycle manager -------------------------------------------------

LifecycleOptions TestOptions() {
  LifecycleOptions opts;
  opts.enabled = true;
  opts.min_samples = 32;
  opts.eval_every = 8;
  opts.drift_window = 32;
  opts.drift_threshold = 0.2;
  opts.retrain_window = 64;  // newest window only: the post-drift regime
  opts.retrain_epochs = 60;
  opts.shadow_window = 32;
  opts.shadow_beats = 1;
  opts.watch_window = 24;
  opts.regression_threshold = 0.1;
  opts.tick_every_samples = 0;  // tests tick explicitly
  opts.seed = 7;
  return opts;
}

/// Serving router pre-trained on the un-flipped regime.
std::unique_ptr<SmartRouter> TrainedRouter() {
  auto router = std::make_unique<SmartRouter>(7);
  router->Train(SyntheticSet(21, 160, /*flipped=*/false), 60);
  return router;
}

void Feed(ModelLifecycleManager* m, const std::vector<PairExample>& set) {
  for (const PairExample& ex : set) m->RecordExample(ex);
}

/// Drives the healthy half of every scenario: baseline on the original
/// regime, then drifted (flipped) feedback until the manager has swapped.
/// Returns false if no swap happened within the budget.
bool DriveToSwap(ModelLifecycleManager* m) {
  Feed(m, SyntheticSet(31, 32, false));
  m->Tick();  // baseline set on the healthy window
  Feed(m, SyntheticSet(32, 64, true));
  m->Tick();  // drift detected -> kRetrain
  m->Tick();  // retrain -> kShadow
  m->Tick();  // shadow scored -> swap -> kWatch
  return m->Stats().swaps == 1;
}

TEST(ModelLifecycleTest, DisabledManagerIsInert) {
  auto router = TrainedRouter();
  LifecycleOptions opts;  // enabled defaults to false
  ModelLifecycleManager manager(router.get(), opts);
  ASSERT_TRUE(manager.Open().ok());
  manager.RecordExample(SyntheticSet(41, 1, false)[0]);
  manager.Tick();
  EXPECT_EQ(manager.feedback().total_added(), 0u);
  EXPECT_EQ(manager.EventLog().size(), 0u);
  EXPECT_FALSE(manager.ForceRetrain().ok());
}

TEST(ModelLifecycleTest, DriftTriggersRetrainShadowSwap) {
  auto router = TrainedRouter();
  uint64_t version_before = router->frozen_version();
  uint32_t crc_before = router->frozen_crc();
  ModelLifecycleManager manager(router.get(), TestOptions());
  ASSERT_TRUE(manager.Open().ok());

  // Healthy regime: baseline lands high, no drift, no cycle.
  Feed(&manager, SyntheticSet(31, 32, false));
  manager.Tick();
  LifecycleStats stats = manager.Stats();
  EXPECT_EQ(stats.drift_detections, 0u);
  EXPECT_EQ(manager.phase(), LifecyclePhase::kIdle);

  // Regime flips: windowed accuracy collapses, the full cycle runs.
  Feed(&manager, SyntheticSet(32, 64, true));
  manager.Tick();
  EXPECT_EQ(manager.phase(), LifecyclePhase::kRetrain);
  manager.Tick();
  EXPECT_EQ(manager.phase(), LifecyclePhase::kShadow);
  manager.Tick();
  stats = manager.Stats();
  EXPECT_EQ(stats.drift_detections, 1u);
  EXPECT_EQ(stats.retrains, 1u);
  EXPECT_EQ(stats.shadow_runs, 1u);
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(manager.phase(), LifecyclePhase::kWatch);
  EXPECT_GT(router->frozen_version(), version_before);
  EXPECT_NE(router->frozen_crc(), crc_before);

  // Post-swap traffic stays in the new regime: the watch accepts.
  Feed(&manager, SyntheticSet(33, 24, true));
  manager.Tick();
  EXPECT_EQ(manager.phase(), LifecyclePhase::kIdle);
  EXPECT_EQ(manager.Stats().rollbacks, 0u);
  // The healed router actually learned the new regime.
  EXPECT_GT(router->EvaluateAccuracy(SyntheticSet(99, 64, true)), 0.8);
}

TEST(ModelLifecycleTest, CurationHookRunsOnDrift) {
  auto router = TrainedRouter();
  ModelLifecycleManager manager(router.get(), TestOptions());
  ASSERT_TRUE(manager.Open().ok());
  int calls = 0;
  manager.set_curation_hook([&calls](uint64_t* expired, uint64_t* backfilled) {
    ++calls;
    *expired = 3;
    *backfilled = 2;
    return Status::OK();
  });
  ASSERT_TRUE(DriveToSwap(&manager));
  EXPECT_EQ(calls, 1);
  LifecycleStats stats = manager.Stats();
  EXPECT_EQ(stats.kb_expired, 3u);
  EXPECT_EQ(stats.kb_backfilled, 2u);
  bool logged = false;
  for (const std::string& e : manager.EventLog()) {
    if (e.find("kb curated expired=3 backfilled=2") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
}

// --- fault matrix: at every injection point the serving snapshot keeps
// answering, version and CRC unchanged ----------------------------------

TEST(ModelLifecycleTest, RetrainFailureLeavesServingUntouched) {
  auto router = TrainedRouter();
  uint64_t version_before = router->frozen_version();
  uint32_t crc_before = router->frozen_crc();
  auto faults = FaultInjector::Parse("retrain.fail:p=1");
  ASSERT_TRUE(faults.ok());
  ModelLifecycleManager manager(router.get(), TestOptions());
  ASSERT_TRUE(manager.Open().ok());
  manager.set_fault_injector(&*faults);
  Feed(&manager, SyntheticSet(51, 48, false));
  ASSERT_TRUE(manager.ForceRetrain().ok());
  manager.Tick();  // retrain draw fires
  LifecycleStats stats = manager.Stats();
  EXPECT_EQ(stats.retrain_failures, 1u);
  EXPECT_EQ(stats.retrains, 0u);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(manager.phase(), LifecyclePhase::kIdle);
  EXPECT_EQ(router->frozen_version(), version_before);
  EXPECT_EQ(router->frozen_crc(), crc_before);
  // The old snapshot still answers — and still knows its regime.
  EXPECT_GT(router->EvaluateAccuracy(SyntheticSet(52, 64, false)), 0.8);
}

TEST(ModelLifecycleTest, ShadowStallsAbortAfterBudget) {
  auto router = TrainedRouter();
  uint64_t version_before = router->frozen_version();
  auto faults = FaultInjector::Parse("shadow.stall:p=1,lat=25");
  ASSERT_TRUE(faults.ok());
  ModelLifecycleManager manager(router.get(), TestOptions());
  ASSERT_TRUE(manager.Open().ok());
  manager.set_fault_injector(&*faults);
  Feed(&manager, SyntheticSet(61, 48, true));
  ASSERT_TRUE(manager.ForceRetrain().ok());
  manager.Tick();  // retrain ok -> kShadow
  ASSERT_EQ(manager.phase(), LifecyclePhase::kShadow);
  // Every shadow beat stalls; after kLifecycleMaxShadowStalls the run
  // aborts and the candidate is discarded without ever touching the
  // serving model.
  for (int i = 0; i <= kLifecycleMaxShadowStalls; ++i) manager.Tick();
  LifecycleStats stats = manager.Stats();
  EXPECT_EQ(stats.shadow_stalls,
            static_cast<uint64_t>(kLifecycleMaxShadowStalls) + 1);
  EXPECT_EQ(stats.shadow_aborts, 1u);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(manager.phase(), LifecyclePhase::kIdle);
  EXPECT_EQ(router->frozen_version(), version_before);
  // Injected stall latency is simulated, never wall time.
  EXPECT_GT(manager.sim_millis(), 0.0);
}

TEST(ModelLifecycleTest, SwapPublishFaultKeepsOldSnapshot) {
  auto router = TrainedRouter();
  uint64_t version_before = router->frozen_version();
  uint32_t crc_before = router->frozen_crc();
  auto faults = FaultInjector::Parse("swap.publish:p=1");
  ASSERT_TRUE(faults.ok());
  ModelLifecycleManager manager(router.get(), TestOptions());
  ASSERT_TRUE(manager.Open().ok());
  manager.set_fault_injector(&*faults);
  // Drifted feedback produces a winning candidate, but publication fails:
  // the old snapshot must stay live, version and CRC unchanged.
  Feed(&manager, SyntheticSet(71, 48, true));
  ASSERT_TRUE(manager.ForceRetrain().ok());
  manager.Tick();  // retrain
  manager.Tick();  // shadow scores; candidate wins; publish fails
  LifecycleStats stats = manager.Stats();
  EXPECT_EQ(stats.swap_failures, 1u);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(manager.phase(), LifecyclePhase::kIdle);
  EXPECT_EQ(router->frozen_version(), version_before);
  EXPECT_EQ(router->frozen_crc(), crc_before);
  EXPECT_FALSE(manager.ForceRollback().ok());  // nothing was retained
}

TEST(ModelLifecycleTest, RegressionRollsBackToBitIdenticalWeights) {
  auto router = TrainedRouter();
  uint32_t crc_before = router->frozen_crc();
  ModelLifecycleManager manager(router.get(), TestOptions());
  ASSERT_TRUE(manager.Open().ok());
  ASSERT_TRUE(DriveToSwap(&manager));
  uint32_t crc_swapped = router->frozen_crc();
  EXPECT_NE(crc_swapped, crc_before);

  // The post-swap window flips back to the original regime: the candidate
  // that won the shadow is now wrong, the watch must roll back.
  Feed(&manager, SyntheticSet(81, 24, false));
  manager.Tick();
  LifecycleStats stats = manager.Stats();
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(manager.phase(), LifecyclePhase::kIdle);
  // Restored weights are bit-identical to the pre-swap snapshot: a fresh
  // publication (new version) hashing to the exact same CRC.
  EXPECT_EQ(router->frozen_crc(), crc_before);
  bool logged = false;
  for (const std::string& e : manager.EventLog()) {
    if (e.find("rollback (regression") != std::string::npos &&
        e.find("identical=1") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
  // The retained snapshot was consumed; a second rollback has no target.
  EXPECT_FALSE(manager.ForceRollback().ok());
}

TEST(ModelLifecycleTest, ManualRollbackAfterAcceptedSwap) {
  auto router = TrainedRouter();
  uint32_t crc_before = router->frozen_crc();
  ModelLifecycleManager manager(router.get(), TestOptions());
  ASSERT_TRUE(manager.Open().ok());
  ASSERT_TRUE(DriveToSwap(&manager));
  Feed(&manager, SyntheticSet(33, 24, true));
  manager.Tick();  // watch accepts; retained snapshot kept for manual use
  ASSERT_EQ(manager.phase(), LifecyclePhase::kIdle);
  ASSERT_NE(router->frozen_crc(), crc_before);
  ASSERT_TRUE(manager.ForceRollback().ok());
  EXPECT_EQ(router->frozen_crc(), crc_before);
  EXPECT_EQ(manager.Stats().rollbacks, 1u);
}

TEST(ModelLifecycleTest, ForceRetrainRejectsWhenBusy) {
  auto router = TrainedRouter();
  ModelLifecycleManager manager(router.get(), TestOptions());
  ASSERT_TRUE(manager.Open().ok());
  Feed(&manager, SyntheticSet(91, 48, false));
  ASSERT_TRUE(manager.ForceRetrain().ok());
  Status busy = manager.ForceRetrain();  // already in kRetrain
  EXPECT_FALSE(busy.ok());
  EXPECT_NE(busy.message().find("busy"), std::string::npos);
  // RunToIdle settles it: retrain -> shadow -> (reject or swap/watch).
  EXPECT_TRUE(manager.RunToIdle().ok());
}

TEST(ModelLifecycleTest, StatsDoNotWaitForARetrain) {
  auto router = TrainedRouter();
  LifecycleOptions opts = TestOptions();
  opts.retrain_window = 200;
  opts.retrain_epochs = 400;  // with 200 samples, a retrain of seconds
  ModelLifecycleManager manager(router.get(), opts);
  ASSERT_TRUE(manager.Open().ok());
  Feed(&manager, SyntheticSet(93, 200, false));
  ASSERT_TRUE(manager.ForceRetrain().ok());

  std::atomic<bool> retrained{false};
  std::thread tick([&] {
    manager.Tick();
    retrained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const LifecycleStats during = manager.Stats();
  const LifecyclePhase phase = manager.phase();
  const bool returned_during_retrain = !retrained.load();
  tick.join();
  EXPECT_TRUE(returned_during_retrain)
      << "Stats() waited for the retrain to finish";
  EXPECT_EQ(during.phase, "retrain");
  EXPECT_EQ(phase, LifecyclePhase::kRetrain);
  EXPECT_EQ(during.retrains, 0u);
  // Once the step completes, its counters are published.
  EXPECT_EQ(manager.Stats().retrains, 1u);
  EXPECT_EQ(manager.Stats().phase, "shadow");
}

TEST(ModelLifecycleTest, SameSeedRunsProduceIdenticalEventLogs) {
  auto run = [] {
    auto router = TrainedRouter();
    ModelLifecycleManager manager(router.get(), TestOptions());
    EXPECT_TRUE(manager.Open().ok());
    EXPECT_TRUE(DriveToSwap(&manager));
    Feed(&manager, SyntheticSet(33, 24, true));
    manager.Tick();
    return manager.EventLog();
  };
  std::vector<std::string> first = run();
  std::vector<std::string> second = run();
  EXPECT_GT(first.size(), 3u);
  EXPECT_EQ(first, second);
}

TEST(ModelLifecycleTest, RecoversFeedbackAcrossRestart) {
  const std::string dir = TestDir("manager_restart");
  auto router = TrainedRouter();
  LifecycleOptions opts = TestOptions();
  opts.data_dir = dir;
  opts.fsync_every_n = 1;
  {
    ModelLifecycleManager manager(router.get(), opts);
    ASSERT_TRUE(manager.Open().ok());
    Feed(&manager, SyntheticSet(95, 40, false));
    EXPECT_TRUE(manager.feedback().durable());
  }
  ModelLifecycleManager reborn(router.get(), opts);
  ASSERT_TRUE(reborn.Open().ok());
  EXPECT_EQ(reborn.feedback().total_added(), 40u);
  bool logged = false;
  for (const std::string& e : reborn.EventLog()) {
    if (e.find("recovered feedback samples=40") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
  std::filesystem::remove_all(dir);
}

// --- service integration ----------------------------------------------

TEST(ModelLifecycleTest, ExplainServiceRecordsFeedbackAndExposesStats) {
  HtapSystem system;
  HtapConfig sys_config;
  sys_config.stats_scale_factor = 100.0;
  sys_config.data_scale_factor = 0.0;
  ASSERT_TRUE(system.Init(sys_config).ok());
  HtapExplainer explainer(&system, {});
  ASSERT_TRUE(explainer.TrainRouter().ok());
  ASSERT_TRUE(explainer.BuildDefaultKnowledgeBase().ok());

  ServiceConfig config;
  config.num_workers = 2;
  config.lifecycle.enabled = true;  // memory-only feedback buffer
  ExplainService service(&explainer, config);
  ASSERT_NE(service.lifecycle(), nullptr);
  EXPECT_TRUE(service.lifecycle()->enabled());

  QueryGenerator gen(sys_config.stats_scale_factor, 0x11fe);
  std::vector<std::string> sqls;
  for (const GeneratedQuery& q : gen.GenerateMix(24)) sqls.push_back(q.sql);
  std::vector<std::future<Result<ExplainResult>>> futures;
  for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
  size_t ok_count = 0;
  for (auto& fut : futures) {
    if (fut.get().ok()) ++ok_count;
  }
  ASSERT_GT(ok_count, 0u);

  ServiceStats stats = service.Stats();
  EXPECT_TRUE(stats.lifecycle_enabled);
  EXPECT_GE(stats.lifecycle.feedback_samples, ok_count);
  EXPECT_EQ(stats.lifecycle.phase, "idle");
  EXPECT_GE(stats.lifecycle.active_version, 1u);

  const std::string text = service.ExpositionText();
  EXPECT_NE(text.find("htapex_lifecycle_phase"), std::string::npos);
  EXPECT_NE(text.find("htapex_lifecycle_feedback_samples_total"),
            std::string::npos);
  EXPECT_NE(text.find("htapex_lifecycle_events_total"), std::string::npos);
}

TEST(ModelLifecycleTest, DisabledServiceExposesNoLifecycleSeries) {
  HtapSystem system;
  HtapConfig sys_config;
  sys_config.stats_scale_factor = 100.0;
  sys_config.data_scale_factor = 0.0;
  ASSERT_TRUE(system.Init(sys_config).ok());
  HtapExplainer explainer(&system, {});
  ASSERT_TRUE(explainer.TrainRouter().ok());
  ExplainService service(&explainer, ServiceConfig{});
  EXPECT_EQ(service.lifecycle(), nullptr);
  EXPECT_FALSE(service.Stats().lifecycle_enabled);
  EXPECT_EQ(service.ExpositionText().find("htapex_lifecycle"),
            std::string::npos);
}

}  // namespace
}  // namespace htapex
