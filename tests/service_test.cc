#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "core/htap_explainer.h"
#include "obs/metrics.h"
#include "service/explain_cache.h"
#include "service/explain_service.h"
#include "sql/parser.h"
#include "workload/query_generator.h"

namespace htapex {
namespace {

/// Shared expensive fixture: plan-only system + trained explainer with the
/// default 20-entry knowledge base.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.data_scale_factor = 0.0;
    ASSERT_TRUE(system_->Init(config).ok());
    explainer_ = new HtapExplainer(system_, ExplainerConfig{});
    auto train = explainer_->TrainRouter();
    ASSERT_TRUE(train.ok()) << train.status();
    ASSERT_TRUE(explainer_->BuildDefaultKnowledgeBase().ok());
  }
  static void TearDownTestSuite() {
    delete explainer_;
    delete system_;
    explainer_ = nullptr;
    system_ = nullptr;
  }
  static HtapSystem* system_;
  static HtapExplainer* explainer_;
};

HtapSystem* ServiceTest::system_ = nullptr;
HtapExplainer* ServiceTest::explainer_ = nullptr;

TEST_F(ServiceTest, SyncExplainMatchesDirectExplain) {
  const std::string sql = "SELECT c_name FROM customer WHERE c_custkey = 42";
  ExplainService service(explainer_, ServiceConfig{});
  auto via_service = service.ExplainSync(sql);
  ASSERT_TRUE(via_service.ok()) << via_service.status();
  auto direct = explainer_->Explain(sql);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(via_service->outcome.faster, direct->outcome.faster);
  EXPECT_EQ(via_service->generation.text, direct->generation.text);
  EXPECT_EQ(via_service->grade.grade, direct->grade.grade);
  EXPECT_FALSE(via_service->from_cache);
}

TEST_F(ServiceTest, RepeatedQueryServedFromCacheWithHonestTiming) {
  ExplainService service(explainer_, ServiceConfig{});
  const std::string sql =
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10";
  auto miss = service.ExplainSync(sql);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->from_cache);
  EXPECT_GT(miss->generation.timing.total_ms(), 0.0);

  auto hit = service.ExplainSync(sql);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->generation.text, miss->generation.text);
  EXPECT_EQ(hit->grade.grade, miss->grade.grade);
  // Honest hit timing: the probe is charged, the skipped search/generation
  // are not, so a hit is dramatically cheaper end to end.
  EXPECT_GE(hit->cache_lookup_ms, 0.0);
  EXPECT_EQ(hit->generation.timing.total_ms(), 0.0);
  EXPECT_EQ(hit->retrieval.search_ms, 0.0);
  EXPECT_LT(hit->end_to_end_ms(), miss->end_to_end_ms());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.end_to_end.count, 2u);
}

TEST_F(ServiceTest, CacheDisabledNeverHits) {
  ServiceConfig config;
  config.cache_enabled = false;
  ExplainService service(explainer_, config);
  const std::string sql = "SELECT c_name FROM customer WHERE c_custkey = 7";
  for (int i = 0; i < 2; ++i) {
    auto r = service.ExplainSync(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->from_cache);
  }
  EXPECT_EQ(service.Stats().cache.hits, 0u);
}

TEST_F(ServiceTest, InvalidSqlReportsErrorNotCrash) {
  ExplainService service(explainer_, ServiceConfig{});
  auto r = service.ExplainSync("SELECT nonsense FROM nowhere");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(service.Stats().errors, 1u);
}

TEST_F(ServiceTest, ConcurrentExplainAndCorrectionLosesNothing) {
  // N explain threads hammer a shared workload while M correction threads
  // insert expert corrections; the reader/writer locking must neither lose
  // a KB insert nor corrupt a retrieval.
  constexpr int kExplainThreads = 4;
  constexpr int kQueriesPerThread = 12;
  constexpr int kCorrections = 8;

  ServiceConfig config;
  config.num_workers = 4;
  ExplainService service(explainer_, config);

  // Deterministic workload: few distinct queries, many repeats, so the
  // cache must hit.
  QueryGenerator gen(system_->config().stats_scale_factor, /*seed=*/0x5eed);
  std::vector<std::string> sqls;
  for (const GeneratedQuery& q : gen.GenerateMix(6)) sqls.push_back(q.sql);

  // Corrections come from fresh, distinct queries (distinct embeddings).
  QueryGenerator correction_gen(system_->config().stats_scale_factor,
                                /*seed=*/0xfeedb);
  std::vector<std::string> correction_sqls;
  for (const GeneratedQuery& q : correction_gen.GenerateMix(kCorrections)) {
    correction_sqls.push_back(q.sql);
  }

  const size_t kb_before = explainer_->knowledge_base().size();
  std::atomic<int> explain_ok{0};
  std::atomic<int> correction_ok{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kExplainThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const std::string& sql =
            sqls[static_cast<size_t>((t + i) % sqls.size())];
        auto r = service.ExplainSync(sql);
        if (r.ok()) explain_ok.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (const std::string& sql : correction_sqls) {
      auto r = service.ExplainSync(sql);
      if (!r.ok()) continue;
      if (service.IncorporateCorrection(*r).ok()) correction_ok.fetch_add(1);
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(explain_ok.load(), kExplainThreads * kQueriesPerThread);
  EXPECT_EQ(correction_ok.load(), kCorrections);
  // No lost KB entries: every successful correction is present.
  EXPECT_EQ(explainer_->knowledge_base().size(),
            kb_before + static_cast<size_t>(correction_ok.load()));

  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.cache.hits, 0u) << stats.ToString();
  EXPECT_EQ(stats.errors, 0u) << stats.ToString();
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(kExplainThreads * kQueriesPerThread +
                                  kCorrections));
  EXPECT_EQ(stats.kb_inserts, static_cast<uint64_t>(kCorrections));
}

TEST_F(ServiceTest, SubmitManyFuturesAllResolve) {
  ServiceConfig config;
  config.num_workers = 1;
  // The first request is a cache miss that holds the one worker for
  // ~25 ms (simulated LLM time at 1/200 scale) while the queue fills.
  config.llm_wall_scale = 0.005;
  ExplainService service(explainer_, config);
  // More requests than the queue holds: Submit blocks on backpressure.
  const int n = static_cast<int>(kServiceQueueCapacity) + 24;
  std::vector<std::future<Result<ExplainResult>>> futures;
  WallTimer submitting;
  for (int i = 0; i < n; ++i) {
    futures.push_back(service.Submit(
        "SELECT c_name FROM customer WHERE c_custkey = " +
        std::to_string(i % 3)));
  }
  const double submit_ms = submitting.ElapsedMillis();
  Result<ExplainResult> first = futures[0].get();
  ASSERT_TRUE(first.ok()) << first.status();
  // Submit number kServiceQueueCapacity + 2 finds a full queue until the
  // worker has finished the first request, so the loop waited out its hold.
  const double hold_ms =
      first->generation.timing.total_ms() * config.llm_wall_scale;
  EXPECT_GT(hold_ms, 1.0);
  EXPECT_GE(submit_ms, 0.99 * hold_ms);
  int ok = 1;
  for (size_t i = 1; i < futures.size(); ++i) {
    if (futures[i].get().ok()) ++ok;
  }
  EXPECT_EQ(ok, n);
}

TEST_F(ServiceTest, SubmitAfterShutdownFailsCleanly) {
  ExplainService service(explainer_, ServiceConfig{});
  service.Shutdown();
  auto r = service.Submit("SELECT c_name FROM customer WHERE c_custkey = 1")
               .get();
  ASSERT_FALSE(r.ok());
  // Typed rejection: callers can distinguish "shutting down" from a bad
  // query or an exhausted dependency.
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  // Every later submission resolves the same way.
  for (const char* sql : {"SELECT c_name FROM customer WHERE c_custkey = 2",
                          "SELECT c_name FROM customer WHERE c_custkey = 3"}) {
    auto later = service.Submit(sql).get();
    ASSERT_FALSE(later.ok());
    EXPECT_EQ(later.status().code(), StatusCode::kUnavailable);
  }
}

TEST_F(ServiceTest, OverBudgetRequestRejectedAtDequeue) {
  ServiceConfig config;
  config.num_workers = 1;  // the second request must wait for the first
  config.cache_enabled = false;
  // Make the first request cost real wall time (~10 ms: simulated LLM
  // thinking+generation at 1/1000 scale) so the second demonstrably
  // overstays its budget in the queue.
  config.llm_wall_scale = 0.001;
  ExplainService service(explainer_, config);
  auto first =
      service.Submit("SELECT c_name FROM customer WHERE c_custkey = 11");
  auto second =
      service.Submit("SELECT c_name FROM customer WHERE c_custkey = 12",
                     /*budget_ms=*/0.01);
  auto r1 = first.get();
  EXPECT_TRUE(r1.ok()) << r1.status();
  auto r2 = second.get();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.early_rejections, 1u) << stats.ToString();
  EXPECT_EQ(stats.degraded_failed, 1u) << stats.ToString();
}

// A statement over kMaxStatementBytes is resolved at admission with
// kInvalidArgument: Submit never queues it.
TEST_F(ServiceTest, OversizeStatementRejectedAtAdmission) {
  std::string at_cap = "SELECT COUNT(*) FROM nation WHERE n_name <> ''";
  at_cap.insert(at_cap.size() - 1, kMaxStatementBytes - at_cap.size(), 'x');
  const std::string over = at_cap + " ";
  ExplainService service(explainer_, ServiceConfig{});
  auto single = service.Submit(over).get();
  EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
  std::vector<std::future<Result<ExplainResult>>> futures;
  for (const std::string& sql : {at_cap, over, at_cap}) {
    futures.push_back(service.Submit(sql));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    if (i == 1) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    } else {
      EXPECT_TRUE(r.ok()) << r.status();
    }
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 4u) << stats.ToString();
  EXPECT_EQ(stats.completed, 4u) << stats.ToString();
  EXPECT_EQ(stats.errors, 2u) << stats.ToString();
  // After shutdown a queued request would resolve Unavailable; the
  // oversize one is still refused at admission, before the queue.
  service.Shutdown();
  EXPECT_EQ(service.Submit(over).get().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Submit(at_cap).get().status().code(),
            StatusCode::kUnavailable);
}

TEST_F(ServiceTest, ChaosFaultsDegradeGracefullyWithoutLosses) {
  // 8 workers under a 20% transient + 10% timeout LLM fault rate (plus KB
  // insert faults), with concurrent expert corrections. The chaos
  // invariants: every future resolves (no deadlock, no lost promises),
  // nothing hard-fails (every valid query is answered at SOME rung of the
  // degradation ladder), the degradation tags are valid, and the service's
  // counters reconcile with what the callers observed.
  ASSERT_TRUE(explainer_
                  ->ConfigureFaults(
                      "llm.transient_error:p=0.2;llm.timeout:p=0.1;"
                      "llm.garbled_output:p=0.05;kb.insert:p=0.1",
                      /*fault_seed=*/1337)
                  .ok());

  constexpr int kQueries = 96;
  constexpr int kCorrections = 6;
  const size_t kb_before = explainer_->knowledge_base().size();
  std::atomic<int> answered{0};
  std::atomic<int> degraded{0};
  std::atomic<int> invalid_tags{0};
  std::atomic<int> correction_ok{0};
  {
    ServiceConfig config;
    config.num_workers = 8;
    config.cache_enabled = false;  // every request exercises the ladder
    ExplainService service(explainer_, config);

    QueryGenerator gen(system_->config().stats_scale_factor, /*seed=*/0xc4a5);
    std::vector<std::string> sqls;
    for (const GeneratedQuery& q : gen.GenerateMix(kQueries)) {
      sqls.push_back(q.sql);
    }
    QueryGenerator correction_gen(system_->config().stats_scale_factor,
                                  /*seed=*/0xc0ffee);
    std::vector<std::string> correction_sqls;
    for (const GeneratedQuery& q : correction_gen.GenerateMix(kCorrections)) {
      correction_sqls.push_back(q.sql);
    }

    std::thread corrector([&] {
      for (const std::string& sql : correction_sqls) {
        auto r = service.ExplainSync(sql);
        if (!r.ok()) continue;
        // Retried internally on injected kb.insert faults.
        if (service.IncorporateCorrection(*r).ok()) correction_ok.fetch_add(1);
      }
    });
    std::vector<std::future<Result<ExplainResult>>> futures;
    for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
    for (auto& fut : futures) {
      // A hang here is the deadlock the chaos test exists to catch.
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)),
                std::future_status::ready);
      auto r = fut.get();
      ASSERT_TRUE(r.ok()) << r.status();  // faults degrade, never hard-fail
      switch (r->degradation) {
        case DegradationLevel::kFull:
          answered.fetch_add(1);
          break;
        case DegradationLevel::kBaselineFallback:
        case DegradationLevel::kPlanDiffOnly:
          answered.fetch_add(1);
          degraded.fetch_add(1);
          EXPECT_FALSE(r->degradation_reason.empty());
          break;
        default:
          invalid_tags.fetch_add(1);
      }
      // Degraded or not, an answer carries a grade and non-garbled text.
      EXPECT_FALSE(r->generation.text.empty());
    }
    corrector.join();

    EXPECT_EQ(answered.load(), kQueries);
    EXPECT_EQ(invalid_tags.load(), 0);
    EXPECT_EQ(correction_ok.load(), kCorrections);
    EXPECT_EQ(explainer_->knowledge_base().size(),
              kb_before + static_cast<size_t>(correction_ok.load()));

    ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.errors, 0u) << stats.ToString();
    EXPECT_EQ(stats.completed,
              static_cast<uint64_t>(kQueries + kCorrections));
    // The degradation mix partitions the completed requests.
    EXPECT_EQ(stats.degraded_full + stats.degraded_baseline +
                  stats.degraded_plan_diff + stats.degraded_failed,
              stats.completed)
        << stats.ToString();
    // Under 30%+ combined fault pressure the resilience layer must have
    // actually done something.
    EXPECT_GT(stats.resilience.llm_retries, 0u) << stats.ToString();
    EXPECT_GT(stats.resilience.llm_attempts, stats.resilience.llm_retries);
  }
  // Restore a fault-free explainer for any later test using the fixture.
  ASSERT_TRUE(explainer_->ConfigureFaults("off", 42).ok());
}

TEST(ExplainCacheTest, QuantizedKeyAndThreshold) {
  ExplainCache cache;

  auto entry = std::make_shared<CachedExplanation>();
  entry->embedding = {1.0, 2.0, 3.0};
  entry->generation.text = "cached";
  cache.Insert(entry);

  // Identical embedding: hit.
  auto hit = cache.Lookup({1.0, 2.0, 3.0});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->generation.text, "cached");

  // Same lattice cell, tiny perturbation within threshold: hit.
  EXPECT_NE(cache.Lookup({1.000001, 2.0, 3.0}), nullptr);

  // Same cell but beyond the distance threshold: the guard rejects it.
  // (0.02 offset stays in the 0.05 cell around 1.0, 0.02^2 = 4e-4 > 1e-4.)
  static_assert(kEmbeddingLatticeStep == 0.05 &&
                kNearDuplicateSqDistance == 1e-4);
  EXPECT_EQ(cache.Lookup({1.02, 2.0, 3.0}), nullptr);

  // Different cell: miss.
  EXPECT_EQ(cache.Lookup({1.5, 2.0, 3.0}), nullptr);

  auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ExplainCacheTest, LruEvictsPastCapacity) {
  ExplainCache cache;
  const int n = static_cast<int>(kExplainCacheCapacity) + 6;
  for (int i = 0; i < n; ++i) {
    auto e = std::make_shared<CachedExplanation>();
    e->embedding = {static_cast<double>(i)};  // one lattice cell each
    cache.Insert(e);
  }
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.size, kExplainCacheCapacity);
  EXPECT_EQ(stats.evictions, 6u);
  // Most recent survives, oldest evicted.
  EXPECT_NE(cache.Lookup({static_cast<double>(n - 1)}), nullptr);
  EXPECT_NE(cache.Lookup({6.0}), nullptr);
  EXPECT_EQ(cache.Lookup({5.0}), nullptr);
  EXPECT_EQ(cache.Lookup({0.0}), nullptr);
}

TEST(MetricsTest, HistogramQuantilesAndCounters) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(1.0);   // ~1 ms
  for (int i = 0; i < 10; ++i) hist.Record(100.0);  // tail
  auto snap = hist.Snap();
  EXPECT_EQ(snap.count, 110u);
  EXPECT_NEAR(snap.sum_ms, 1100.0, 1.0);
  EXPECT_LE(snap.min_ms, 1.0);
  EXPECT_GE(snap.max_ms, 100.0);
  EXPECT_LT(snap.p50_ms, 10.0);
  EXPECT_GT(snap.p99_ms, 50.0);

  Counter c;
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.Value(), 5u);
}

TEST(MetricsTest, HistogramConcurrentRecords) {
  LatencyHistogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < 1000; ++i) hist.Record(0.5 + 0.001 * i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.Snap().count, 4000u);
}

}  // namespace
}  // namespace htapex
