#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "engine/htap_system.h"
#include "expert/expert_analyzer.h"
#include "expert/factors.h"
#include "expert/grader.h"
#include "workload/query_generator.h"

namespace htapex {
namespace {

TEST(FactorsTest, PhrasesRecoverableFromText) {
  // Every canonical phrase must be found in a text that embeds it — the
  // property that makes explanation text gradeable.
  for (PerfFactor f : AllPerfFactors()) {
    std::string text = std::string("Blah blah because ") + PerfFactorPhrase(f) +
                       " and more words.";
    auto found = ExtractFactorsFromText(text);
    ASSERT_EQ(found.size(), 1u) << PerfFactorId(f);
    EXPECT_EQ(found[0], f);
  }
}

TEST(FactorsTest, PhrasesAreNotSubstringsOfEachOther) {
  for (PerfFactor a : AllPerfFactors()) {
    for (PerfFactor b : AllPerfFactors()) {
      if (a == b) continue;
      std::string pa = PerfFactorPhrase(a);
      std::string pb = PerfFactorPhrase(b);
      EXPECT_EQ(pa.find(pb), std::string::npos)
          << PerfFactorId(b) << " is a substring of " << PerfFactorId(a);
    }
  }
}

TEST(ClaimsFromTextTest, ParsesWinnerFactorsAndNone) {
  ExplanationClaims none = ClaimsFromText("  None ");
  EXPECT_TRUE(none.is_none);
  std::string text = std::string("AP is faster than TP because TP uses a ") +
                     PerfFactorPhrase(PerfFactor::kNoIndexNestedLoop) + ".";
  ExplanationClaims claims = ClaimsFromText(text);
  EXPECT_FALSE(claims.is_none);
  EXPECT_EQ(claims.claimed_faster, EngineKind::kAp);
  ASSERT_EQ(claims.factors.size(), 1u);
  EXPECT_EQ(claims.factors[0], PerfFactor::kNoIndexNestedLoop);
  EXPECT_FALSE(claims.compared_costs);

  ExplanationClaims tp = ClaimsFromText("TP is faster here.");
  EXPECT_EQ(tp.claimed_faster, EngineKind::kTp);

  ExplanationClaims leak = ClaimsFromText(
      "AP is faster. Comparing the cost estimates, AP shows a lower cost "
      "estimate.");
  EXPECT_TRUE(leak.compared_costs);
}

class GraderTest : public ::testing::Test {
 protected:
  ExpertAnalysis Truth(EngineKind faster, PerfFactor primary,
                       std::vector<PerfFactor> secondary = {}) {
    ExpertAnalysis t;
    t.faster = faster;
    t.primary = primary;
    t.secondary = std::move(secondary);
    return t;
  }
  ExplanationClaims Claims(EngineKind faster, std::vector<PerfFactor> factors,
                           bool costs = false) {
    ExplanationClaims c;
    c.claimed_faster = faster;
    c.factors = std::move(factors);
    c.compared_costs = costs;
    return c;
  }
  ExpertGrader grader_;
};

TEST_F(GraderTest, AccurateWhenPrimaryPresentNoSpurious) {
  auto truth = Truth(EngineKind::kAp, PerfFactor::kNoIndexNestedLoop,
                     {PerfFactor::kHashJoinAdvantage});
  auto result = grader_.Grade(
      truth, Claims(EngineKind::kAp, {PerfFactor::kNoIndexNestedLoop,
                                      PerfFactor::kHashJoinAdvantage}));
  EXPECT_EQ(result.grade, ExplanationGrade::kAccurate);
  // Subset containing the primary is also accurate.
  result = grader_.Grade(
      truth, Claims(EngineKind::kAp, {PerfFactor::kNoIndexNestedLoop}));
  EXPECT_EQ(result.grade, ExplanationGrade::kAccurate);
}

TEST_F(GraderTest, WrongWinner) {
  auto truth = Truth(EngineKind::kTp, PerfFactor::kIndexPointLookup);
  auto result = grader_.Grade(
      truth, Claims(EngineKind::kAp, {PerfFactor::kColumnarScanWidth}));
  EXPECT_EQ(result.grade, ExplanationGrade::kWrong);
}

TEST_F(GraderTest, ImpreciseCases) {
  auto truth = Truth(EngineKind::kAp, PerfFactor::kNoIndexNestedLoop);
  // Missed primary.
  EXPECT_EQ(grader_
                .Grade(truth, Claims(EngineKind::kAp,
                                     {PerfFactor::kColumnarScanWidth}))
                .grade,
            ExplanationGrade::kImprecise);
  // Spurious factor alongside the primary.
  EXPECT_EQ(grader_
                .Grade(truth, Claims(EngineKind::kAp,
                                     {PerfFactor::kNoIndexNestedLoop,
                                      PerfFactor::kLargeOffsetScan}))
                .grade,
            ExplanationGrade::kImprecise);
  // Cost comparison leak.
  EXPECT_EQ(grader_
                .Grade(truth, Claims(EngineKind::kAp,
                                     {PerfFactor::kNoIndexNestedLoop}, true))
                .grade,
            ExplanationGrade::kImprecise);
}

TEST_F(GraderTest, NoneGrade) {
  ExplanationClaims none;
  none.is_none = true;
  EXPECT_EQ(grader_.Grade(Truth(EngineKind::kAp,
                                PerfFactor::kColumnarScanWidth),
                          none)
                .grade,
            ExplanationGrade::kNone);
}

class AnalyzerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.data_scale_factor = 0.0;
    ASSERT_TRUE(system_->Init(config).ok());
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  ExpertAnalysis Analyze(const std::string& sql) {
    auto query = system_->Bind(sql);
    EXPECT_TRUE(query.ok()) << query.status();
    HtapQueryOutcome outcome;
    outcome.sql = sql;
    auto plans = system_->PlanBoth(*query);
    EXPECT_TRUE(plans.ok());
    outcome.plans = std::move(*plans);
    outcome.tp_latency_ms = system_->LatencyMs(outcome.plans.tp);
    outcome.ap_latency_ms = system_->LatencyMs(outcome.plans.ap);
    outcome.faster = outcome.tp_latency_ms <= outcome.ap_latency_ms
                         ? EngineKind::kTp
                         : EngineKind::kAp;
    ExpertAnalyzer analyzer(system_->catalog(), system_->config().latency);
    return analyzer.Analyze(outcome, *query);
  }

  static HtapSystem* system_;
};

HtapSystem* AnalyzerTest::system_ = nullptr;

TEST_F(AnalyzerTest, PointLookupCase) {
  auto a = Analyze("SELECT c_name FROM customer WHERE c_custkey = 42");
  EXPECT_EQ(a.faster, EngineKind::kTp);
  EXPECT_EQ(a.primary, PerfFactor::kIndexPointLookup);
}

TEST_F(AnalyzerTest, Example1Case) {
  auto a = Analyze(
      "SELECT COUNT(*) FROM customer, nation, orders "
      "WHERE SUBSTRING(c_phone, 1, 2) IN ('20','40') "
      "AND c_mktsegment = 'machinery' AND n_name = 'egypt' "
      "AND o_orderstatus = 'p' AND o_custkey = c_custkey "
      "AND n_nationkey = c_nationkey");
  EXPECT_EQ(a.faster, EngineKind::kAp);
  EXPECT_EQ(a.primary, PerfFactor::kIndexProbeJoinLargeOuter);
  // The hash-join advantage must be cited.
  bool has_hash = false;
  for (PerfFactor f : a.secondary) {
    has_hash = has_hash || f == PerfFactor::kHashJoinAdvantage;
  }
  EXPECT_TRUE(has_hash);
}

TEST_F(AnalyzerTest, FunctionDefeatsIndexCitedWhenIndexExists) {
  IndexDef idx{"idx_c_phone_x", "customer", {"c_phone"}, false, false};
  ASSERT_TRUE(system_->mutable_catalog().AddIndex(idx).ok());
  auto a = Analyze(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND SUBSTRING(c_phone, 1, 2) IN ('20','40','22')");
  bool cited = false;
  for (PerfFactor f : a.secondary) {
    cited = cited || f == PerfFactor::kFunctionDefeatsIndex;
  }
  EXPECT_TRUE(cited);
  ASSERT_TRUE(system_->mutable_catalog().DropIndex("idx_c_phone_x").ok());
}

TEST_F(AnalyzerTest, TopNStreamingCase) {
  auto a = Analyze("SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5");
  EXPECT_EQ(a.faster, EngineKind::kTp);
  EXPECT_EQ(a.primary, PerfFactor::kTopNIndexOrderStreaming);
}

TEST_F(AnalyzerTest, FullSortVsTopNCase) {
  auto a = Analyze(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10");
  EXPECT_EQ(a.faster, EngineKind::kAp);
  EXPECT_EQ(a.primary, PerfFactor::kFullSortVsTopN);
}

TEST_F(AnalyzerTest, ExplanationTextEmbedsFactors) {
  auto a = Analyze("SELECT c_name FROM customer WHERE c_custkey = 42");
  auto extracted = ExtractFactorsFromText(a.explanation);
  ASSERT_FALSE(extracted.empty());
  EXPECT_EQ(extracted[0], a.primary);
  // The whole truth set must round-trip through the text.
  EXPECT_EQ(extracted.size(), a.all().size());
}

// Every factor of the taxonomy must be one the analyzer can produce: a
// factor no plan pair reaches is dead vocabulary for the knowledge base, the
// simulated models and the grader. Each configuration below is one the
// benches and tests build; together they reach every factor.
TEST(AnalyzerCoverageTest, EveryFactorIsProducedSomewhere) {
  struct Config {
    bool c_phone_index = false;    // function_defeats_index
    bool drop_fk_indexes = false;  // no_index_nested_loop
    bool sift = true;              // off: missing_sift
    bool enable_dp = true;         // off: bad_join_order
  };
  const Config configs[] = {
      {},
      {.c_phone_index = true},
      {.drop_fk_indexes = true},
      {.sift = false},
      {.enable_dp = false},
  };
  std::vector<std::string> pool;
  for (const GeneratedQuery& q : QueryGenerator(100.0, 2024).GenerateMix(200)) {
    pool.push_back(q.sql);
  }
  // A chain whose greedy order joins the big tables before the selective
  // customer key.
  pool.push_back(
      "SELECT COUNT(*) FROM lineitem, orders, customer WHERE l_orderkey = "
      "o_orderkey AND o_custkey = c_custkey AND c_custkey = 5");
  std::set<PerfFactor> seen;
  for (const Config& c : configs) {
    HtapSystem system;
    HtapConfig config;
    config.data_scale_factor = 0.0;
    config.ap_cost.sift = c.sift;
    config.ap_cost.enable_dp = c.enable_dp;
    ASSERT_TRUE(system.Init(config).ok());
    if (c.c_phone_index) {
      ASSERT_TRUE(system
                      .CreateIndex({"idx_c_phone", "customer", {"c_phone"},
                                    false, false})
                      .ok());
    }
    if (c.drop_fk_indexes) {
      std::vector<std::string> fks;
      for (const IndexDef* idx : system.catalog().AllIndexes()) {
        if (!idx->is_primary) fks.push_back(idx->name);
      }
      for (const std::string& name : fks) {
        ASSERT_TRUE(system.DropIndex(name).ok());
      }
    }
    ExpertAnalyzer analyzer(system.catalog(), system.config().latency);
    for (const std::string& sql : pool) {
      auto planned = system.Plan(sql);
      ASSERT_TRUE(planned.ok()) << sql << ": " << planned.status();
      for (PerfFactor f :
           analyzer.Analyze(planned->outcome, planned->query).all()) {
        seen.insert(f);
      }
    }
  }
  for (PerfFactor f : AllPerfFactors()) {
    EXPECT_TRUE(seen.count(f) > 0) << PerfFactorId(f) << " never produced";
  }
}

}  // namespace
}  // namespace htapex
