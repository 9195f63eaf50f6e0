#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/htap_explainer.h"
#include "workload/query_generator.h"
#include "workload/study_sim.h"

namespace htapex {
namespace {

constexpr const char* kExample1 =
    "SELECT COUNT(*) FROM customer, nation, orders "
    "WHERE SUBSTRING(c_phone, 1, 2) IN ('20','40','22','30','39','42','21') "
    "AND c_mktsegment = 'machinery' AND n_name = 'egypt' "
    "AND o_orderstatus = 'p' AND o_custkey = c_custkey "
    "AND n_nationkey = c_nationkey";

class ExplainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.data_scale_factor = 0.0;
    ASSERT_TRUE(system_->Init(config).ok());
    explainer_ = new HtapExplainer(system_, ExplainerConfig{});
    auto train = explainer_->TrainRouter();
    ASSERT_TRUE(train.ok()) << train.status();
    ASSERT_GT(train->train_accuracy, 0.9);
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

HtapSystem* ExplainerTest::system_ = nullptr;
HtapExplainer* ExplainerTest::explainer_ = nullptr;

TEST_F(ExplainerTest, DefaultKnowledgeBaseHas20Entries) {
  EXPECT_EQ(explainer_->knowledge_base().size(), 20u);  // the paper's setting
  for (const KbEntry* e : explainer_->knowledge_base().Entries()) {
    EXPECT_EQ(e->embedding.size(), 16u);
    EXPECT_FALSE(e->expert_explanation.empty());
    EXPECT_FALSE(e->tp_plan_json.empty());
  }
}

TEST_F(ExplainerTest, ExplainExample1EndToEnd) {
  auto result = explainer_->Explain(kExample1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome.faster, EngineKind::kAp);
  EXPECT_EQ(result->embedding.size(), 16u);
  EXPECT_EQ(result->retrieval.items.size(), 2u);  // K=2 default
  EXPECT_FALSE(result->generation.claims.is_none);
  EXPECT_EQ(result->grade.grade, ExplanationGrade::kAccurate)
      << result->grade.reason;
  // The prompt the model saw contains the retrieved expert knowledge and
  // the question plans.
  std::string prompt_text = result->prompt.Render();
  EXPECT_NE(prompt_text.find("KNOWLEDGE 2:"), std::string::npos);
  EXPECT_NE(prompt_text.find("new execution result: AP is faster"),
            std::string::npos);
  // End-to-end time is dominated by (simulated) generation, like the paper.
  EXPECT_GT(result->end_to_end_ms(), 1000.0);
  EXPECT_LT(result->router_encode_ms + result->retrieval.search_ms, 50.0);
}

TEST_F(ExplainerTest, ExplanationTextMatchesStructuredClaims) {
  auto result = explainer_->Explain(kExample1);
  ASSERT_TRUE(result.ok());
  ExplanationClaims parsed = ClaimsFromText(result->generation.text);
  EXPECT_EQ(parsed.is_none, result->generation.claims.is_none);
  EXPECT_EQ(parsed.claimed_faster, result->generation.claims.claimed_faster);
  EXPECT_EQ(parsed.factors.size(), result->generation.claims.factors.size());
}

TEST_F(ExplainerTest, FeedbackLoopFixesAFailingQuery) {
  // Find a failing query in the mixed workload, incorporate the expert's
  // correction, and verify the same query now grades accurate.
  QueryGenerator gen(system_->config().stats_scale_factor, 0xfeed);
  std::string failing_sql;
  for (int i = 0; i < 200 && failing_sql.empty(); ++i) {
    GeneratedQuery gq = gen.Generate(QueryPattern::kExotic);
    auto result = explainer_->Explain(gq.sql);
    ASSERT_TRUE(result.ok());
    if (result->grade.grade != ExplanationGrade::kAccurate) {
      failing_sql = gq.sql;
      ASSERT_TRUE(explainer_->IncorporateCorrection(*result).ok());
    }
  }
  ASSERT_FALSE(failing_sql.empty()) << "no failing exotic query found";
  auto after = explainer_->Explain(failing_sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->grade.grade, ExplanationGrade::kAccurate)
      << after->grade.reason;
}

TEST_F(ExplainerTest, CurationReplacesEntriesWhoseVerdictNoLongerHolds) {
  ExplainerConfig config;
  config.faults = "off";
  HtapExplainer explainer(system_, config);
  KnowledgeBase& kb = explainer.mutable_knowledge_base();
  const std::vector<std::string> sqls = DefaultKnowledgeSqls(
      system_->config().stats_scale_factor, config.seed);
  // Every third entry carries the other engine's verdict, as if the
  // latency model had drifted since it was annotated.
  std::map<std::string, EngineKind> verdict;
  uint64_t stale = 0;
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto planned = system_->Plan(sqls[i]);
    ASSERT_TRUE(planned.ok()) << planned.status();
    const EngineKind faster = planned->outcome.faster;
    verdict[sqls[i]] = faster;
    KbEntry entry;
    entry.sql = sqls[i];
    entry.embedding = explainer.router().Embed(planned->outcome.plans);
    entry.faster = faster;
    entry.expert_explanation = "current";
    if (i % 3 == 0) {
      entry.faster =
          faster == EngineKind::kTp ? EngineKind::kAp : EngineKind::kTp;
      entry.expert_explanation = "stale";
      ++stale;
    }
    ASSERT_TRUE(kb.Insert(std::move(entry)).ok());
  }

  uint64_t expired = 0, backfilled = 0;
  ASSERT_TRUE(explainer.CurateKnowledgeBase(&expired, &backfilled).ok());
  EXPECT_EQ(expired, stale);
  EXPECT_EQ(backfilled, stale);
  EXPECT_EQ(kb.size(), sqls.size());
  ASSERT_EQ(kb.total_entries(), sqls.size() + stale);
  for (const KbEntry* e : kb.Entries()) {
    EXPECT_EQ(e->faster, verdict.at(e->sql)) << e->sql;
    EXPECT_NE(e->expert_explanation, "stale") << e->sql;
  }
  // The backfilled replacements are fresh expert annotations.
  for (size_t id = sqls.size(); id < kb.total_entries(); ++id) {
    const KbEntry* e = kb.RawGet(static_cast<int>(id));
    ASSERT_NE(e, nullptr);
    EXPECT_NE(e->expert_explanation, "current");
    EXPECT_FALSE(e->tp_plan_json.empty());
    EXPECT_GT(e->tp_latency_ms, 0.0);
  }
  // Nothing is left to curate.
  expired = backfilled = 0;
  ASSERT_TRUE(explainer.CurateKnowledgeBase(&expired, &backfilled).ok());
  EXPECT_EQ(expired, 0u);
  EXPECT_EQ(backfilled, 0u);
}

TEST_F(ExplainerTest, FollowUpAnswers) {
  auto result = explainer_->Explain(kExample1);
  ASSERT_TRUE(result.ok());
  std::string a = explainer_->AnswerFollowUp(
      *result, "why does the index on c_phone not help with substring?");
  EXPECT_NE(a.find("SUBSTRING"), std::string::npos);
  std::string b = explainer_->AnswerFollowUp(
      *result, "can I compare the cost numbers of the two plans?");
  EXPECT_NE(b.find("not comparable"), std::string::npos);
  std::string c = explainer_->AnswerFollowUp(*result, "so why is it faster?");
  EXPECT_NE(c.find("AP"), std::string::npos);
}

TEST_F(ExplainerTest, NoRagConfigUsesDbgPtBehavior) {
  ExplainerConfig config;
  config.use_rag = false;
  HtapExplainer baseline(system_, config);
  auto result = baseline.Explain(kExample1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->retrieval.items.empty());
  EXPECT_TRUE(result->prompt.knowledge.empty());
}

TEST_F(ExplainerTest, ParticipantStudyShape) {
  auto example = explainer_->Explain(kExample1);
  ASSERT_TRUE(example.ok());
  ParticipantStudy study(2026, 12);
  StudyReport report = study.Run(*example);
  EXPECT_LT(report.with_llm.avg_minutes, report.without_llm.avg_minutes);
  EXPECT_GT(report.with_llm.correct_fraction,
            report.without_llm.correct_fraction);
  EXPECT_LT(report.with_llm.avg_difficulty_explanation,
            report.without_llm.avg_difficulty_plans);
  EXPECT_GT(report.corrected_after_explanation, 0.9);
  // Deterministic in the seed.
  StudyReport again = ParticipantStudy(2026, 12).Run(*example);
  EXPECT_DOUBLE_EQ(report.with_llm.avg_minutes, again.with_llm.avg_minutes);
}

TEST_F(ExplainerTest, RetrievalKIsRespected) {
  ExplainerConfig config;
  config.retrieval_k = 4;
  HtapExplainer k4(system_, config);
  ASSERT_TRUE(k4.TrainRouter().ok());
  ASSERT_TRUE(k4.BuildDefaultKnowledgeBase().ok());
  auto result = k4.Explain(kExample1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->retrieval.items.size(), 4u);
}

}  // namespace
}  // namespace htapex
