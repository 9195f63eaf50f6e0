#include <gtest/gtest.h>

#include "engine/htap_system.h"
#include "llm/llm.h"
#include "llm/plan_reader.h"
#include "llm/prompt.h"
#include "llm/realizer.h"
#include "llm/resilient_llm.h"

namespace htapex {
namespace {

TEST(PromptTest, RenderContainsAllSections) {
  PromptBuilder builder;
  KnowledgeItem item;
  item.sql = "SELECT 1 FROM nation";
  item.tp_plan_json = "{'Node Type': 'Table Scan'}";
  item.ap_plan_json = "{'Node Type': 'Columnar scan'}";
  item.faster = EngineKind::kAp;
  item.expert_explanation = "AP is faster because reasons.";
  Prompt p = builder.Build({item}, "SELECT 2 FROM region",
                           "{'Node Type': 'Table Scan'}",
                           "{'Node Type': 'Columnar scan'}", EngineKind::kTp);
  std::string text = p.Render();
  EXPECT_NE(text.find("Background information:"), std::string::npos);
  EXPECT_NE(text.find("not allowed to compare the cost estimates"),
            std::string::npos);
  EXPECT_NE(text.find("Task description:"), std::string::npos);
  EXPECT_NE(text.find("return None"), std::string::npos);
  EXPECT_NE(text.find("c_phone"), std::string::npos);  // default user context
  EXPECT_NE(text.find("KNOWLEDGE 1:"), std::string::npos);
  EXPECT_NE(text.find("QUESTION:"), std::string::npos);
  EXPECT_NE(text.find("new execution result: TP is faster"), std::string::npos);
  EXPECT_GT(p.ApproxTokens(), 300);
}

TEST(PlanReaderTest, ReadsTableIIStylePlan) {
  const char* tp_plan =
      "{'Node Type': 'Group aggregate', 'Total Cost': 5213.0, 'Plan Rows': 1,"
      " 'Plans': [{'Node Type': 'Nested loop inner join', 'Plan Rows': 379,"
      " 'Plans': [{'Node Type': 'Filter', 'Plan Rows': 2, 'Condition':"
      " 'substring(c_phone, 1, 2) IN (\\'20\\')',"
      " 'Plans': [{'Node Type': 'Table Scan', 'Relation Name': 'customer',"
      " 'Table Rows': 15000000, 'Plan Rows': 1142}]},"
      " {'Node Type': 'Filter', 'Plan Rows': 13}]}]}";
  auto surface = ReadPlanSurface(tp_plan);
  ASSERT_TRUE(surface.ok()) << surface.status();
  EXPECT_TRUE(surface->HasNode(PlanOp::kGroupAggregate));
  EXPECT_TRUE(surface->HasNode(PlanOp::kNestedLoopJoin));
  EXPECT_EQ(surface->num_joins, 1);
  EXPECT_TRUE(surface->relations.count("customer") > 0);
  EXPECT_TRUE(surface->condition_applies_function);
  EXPECT_DOUBLE_EQ(surface->root_cost, 5213.0);
  EXPECT_DOUBLE_EQ(surface->max_table_rows, 15000000.0);
}

TEST(PlanReaderTest, RejectsGarbage) {
  EXPECT_FALSE(ReadPlanSurface("not json at all {{{").ok());
}

TEST(PlanReaderTest, SignatureSimilarity) {
  PairSignature a, b;
  a.faster = b.faster = EngineKind::kAp;
  EXPECT_DOUBLE_EQ(a.Similarity(b), 1.0);
  b.tp_plain_nlj = true;
  EXPECT_LT(a.Similarity(b), 1.0);
  b.faster = EngineKind::kTp;
  EXPECT_DOUBLE_EQ(a.Similarity(b), 0.0);  // result mismatch zeroes it
}

TEST(RealizerTest, EmbedsCanonicalPhrasesAndParsesBack) {
  ExplanationClaims claims;
  claims.claimed_faster = EngineKind::kAp;
  claims.factors = {PerfFactor::kNoIndexNestedLoop,
                    PerfFactor::kHashJoinAdvantage};
  PairSurface surface;
  surface.ap.relations = {"orders", "customer"};
  std::string text =
      RealizeExplanation(claims, surface, DoubaoPersona(), "SELECT 1");
  ExplanationClaims parsed = ClaimsFromText(text);
  EXPECT_EQ(parsed.claimed_faster, EngineKind::kAp);
  ASSERT_EQ(parsed.factors.size(), 2u);
  EXPECT_FALSE(parsed.compared_costs);
}

TEST(RealizerTest, CostLeakIsDetectable) {
  ExplanationClaims claims;
  claims.claimed_faster = EngineKind::kAp;
  claims.factors = {PerfFactor::kColumnarScanWidth};
  claims.compared_costs = true;
  PairSurface surface;
  surface.tp.root_cost = 5213;
  surface.ap.root_cost = 152;
  std::string text =
      RealizeExplanation(claims, surface, Gpt4Persona(), "SELECT 1");
  EXPECT_TRUE(ClaimsFromText(text).compared_costs);
}

TEST(RealizerTest, PersonasPhraseDifferently) {
  ExplanationClaims claims;
  claims.claimed_faster = EngineKind::kTp;
  claims.factors = {PerfFactor::kIndexPointLookup};
  PairSurface surface;
  std::string a =
      RealizeExplanation(claims, surface, DoubaoPersona(), "SELECT 99");
  std::string b =
      RealizeExplanation(claims, surface, Gpt4Persona(), "SELECT 99");
  EXPECT_NE(a, b);  // styles differ...
  // ...but the claims are identical.
  EXPECT_EQ(ClaimsFromText(a).factors.size(), ClaimsFromText(b).factors.size());
}

TEST(TimingTest, ModelsPaperScales) {
  PromptBuilder builder;
  Prompt p = builder.Build({}, "SELECT 1 FROM nation", "{}", "{}",
                           EngineKind::kTp);
  std::string text(1200, 'x');
  // ~200 words of output
  for (int i = 0; i < 200; ++i) text += " word";
  LlmTiming t = ComputeTiming(p, text, DoubaoPersona());
  EXPECT_LE(t.thinking_ms, 2000.0);  // paper: thinking <= 2 s
  EXPECT_GT(t.generation_ms, 2000.0);
  EXPECT_LT(t.generation_ms, 30000.0);
  EXPECT_GT(t.prompt_tokens, 0);
}

class LlmModelTest : public ::testing::Test {
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

  /// Builds a prompt whose question is `sql` with `knowledge` items.
  Prompt MakePrompt(const std::string& sql,
                    std::vector<KnowledgeItem> knowledge) {
    auto query = system_->Bind(sql);
    EXPECT_TRUE(query.ok());
    auto plans = system_->PlanBoth(*query);
    EXPECT_TRUE(plans.ok());
    EngineKind faster = system_->LatencyMs(plans->tp) <=
                                system_->LatencyMs(plans->ap)
                            ? EngineKind::kTp
                            : EngineKind::kAp;
    PromptBuilder builder;
    return builder.Build(std::move(knowledge), sql, plans->tp.Explain(),
                         plans->ap.Explain(), faster);
  }

  KnowledgeItem MakeKnowledge(const std::string& sql) {
    auto query = system_->Bind(sql);
    EXPECT_TRUE(query.ok());
    auto plans = system_->PlanBoth(*query);
    EXPECT_TRUE(plans.ok());
    HtapQueryOutcome outcome;
    outcome.plans = std::move(*plans);
    outcome.tp_latency_ms = system_->LatencyMs(outcome.plans.tp);
    outcome.ap_latency_ms = system_->LatencyMs(outcome.plans.ap);
    outcome.faster = outcome.tp_latency_ms <= outcome.ap_latency_ms
                         ? EngineKind::kTp
                         : EngineKind::kAp;
    ExpertAnalyzer analyzer(system_->catalog(), system_->config().latency);
    ExpertAnalysis truth = analyzer.Analyze(outcome, *query);
    KnowledgeItem item;
    item.sql = sql;
    item.tp_plan_json = outcome.plans.tp.Explain();
    item.ap_plan_json = outcome.plans.ap.Explain();
    item.faster = outcome.faster;
    item.expert_explanation = truth.explanation;
    return item;
  }

  static HtapSystem* system_;
};

HtapSystem* LlmModelTest::system_ = nullptr;

TEST_F(LlmModelTest, RagAdoptsMatchingKnowledge) {
  // Knowledge: a 3-table join; question: a very similar join.
  auto llm = MakeRagLlm(DoubaoPersona());
  std::vector<KnowledgeItem> knowledge = {
      MakeKnowledge("SELECT COUNT(*) FROM customer, nation, orders WHERE "
                    "o_custkey = c_custkey AND n_nationkey = c_nationkey AND "
                    "n_name = 'france' AND c_mktsegment = 'building' AND "
                    "o_orderstatus = 'f'"),
      MakeKnowledge("SELECT c_name FROM customer WHERE c_custkey = 5")};
  Prompt p = MakePrompt(
      "SELECT COUNT(*) FROM customer, nation, orders WHERE o_custkey = "
      "c_custkey AND n_nationkey = c_nationkey AND n_name = 'egypt' AND "
      "c_mktsegment = 'machinery' AND o_orderstatus = 'p'",
      knowledge);
  GeneratedExplanation out = llm->Explain(p);
  EXPECT_FALSE(out.claims.is_none);
  EXPECT_EQ(out.claims.claimed_faster, p.question_result);
  EXPECT_FALSE(out.claims.compared_costs);
  EXPECT_FALSE(out.claims.factors.empty());
  // The claims are recoverable from the text itself.
  ExplanationClaims parsed = ClaimsFromText(out.text);
  EXPECT_EQ(parsed.factors.size(), out.claims.factors.size());
}

TEST_F(LlmModelTest, RagReturnsNoneOnIrrelevantKnowledge) {
  auto llm = MakeRagLlm(DoubaoPersona());
  // Knowledge about a TP-winning point lookup cannot explain an AP-winning
  // join (result mismatch zeroes the signature similarity).
  std::vector<KnowledgeItem> knowledge = {
      MakeKnowledge("SELECT c_name FROM customer WHERE c_custkey = 5")};
  Prompt p = MakePrompt(
      "SELECT COUNT(*) FROM customer, nation, orders WHERE o_custkey = "
      "c_custkey AND n_nationkey = c_nationkey AND n_name = 'egypt' AND "
      "c_mktsegment = 'machinery' AND o_orderstatus = 'p'",
      knowledge);
  GeneratedExplanation out = llm->Explain(p);
  // Either an explicit None or (rarely) a heuristic free-wheel; never an
  // adoption of the mismatched knowledge as-is with high confidence.
  if (!out.claims.is_none) {
    EXPECT_EQ(out.claims.claimed_faster, p.question_result);
  } else {
    EXPECT_EQ(out.text, "None");
  }
}

TEST_F(LlmModelTest, RagNeverComparesCosts) {
  auto llm = MakeRagLlm(DoubaoPersona());
  for (const char* sql :
       {"SELECT c_name FROM customer WHERE c_custkey = 7",
        "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey",
        "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 3"}) {
    Prompt p = MakePrompt(sql, {});
    EXPECT_FALSE(llm->Explain(p).claims.compared_costs) << sql;
  }
}

TEST_F(LlmModelTest, DbgPtExhibitsFailureModes) {
  auto llm = MakeDbgPtLlm(DoubaoPersona());
  // Over a set of queries, the baseline must show cost leaks and columnar
  // overemphasis somewhere.
  int cost_leaks = 0, columnar_first = 0;
  const char* sqls[] = {
      "SELECT COUNT(*) FROM customer, nation, orders WHERE o_custkey = "
      "c_custkey AND n_nationkey = c_nationkey AND n_name = 'egypt'",
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND c_mktsegment = 'building'",
      "SELECT COUNT(*) FROM supplier, nation WHERE s_nationkey = n_nationkey",
      "SELECT n_name, COUNT(*) FROM nation, customer WHERE n_nationkey = "
      "c_nationkey GROUP BY n_name",
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND o_orderstatus = 'p'",
      "SELECT COUNT(*) FROM part, partsupp WHERE ps_partkey = p_partkey",
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND c_acctbal > 100",
      "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey"};
  for (const char* sql : sqls) {
    GeneratedExplanation out = llm->Explain(MakePrompt(sql, {}));
    if (out.claims.compared_costs) ++cost_leaks;
    if (!out.claims.factors.empty() &&
        out.claims.factors[0] == PerfFactor::kColumnarScanWidth) {
      ++columnar_first;
    }
  }
  EXPECT_GT(cost_leaks, 0);
  EXPECT_GT(columnar_first, 4);  // overemphasis: leads with columnar storage
}

TEST_F(LlmModelTest, DbgPtMisreadsFunctionOverIndex) {
  auto llm = MakeDbgPtLlm(DoubaoPersona());
  Prompt p = MakePrompt(
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND SUBSTRING(c_phone, 1, 2) IN ('20','40','22')",
      {});
  GeneratedExplanation out = llm->Explain(p);
  // The paper's fundamental error: claims index benefits although the
  // substring predicate defeats any index.
  bool claimed_index = false;
  for (PerfFactor f : out.claims.factors) {
    claimed_index = claimed_index || f == PerfFactor::kIndexPointLookup;
  }
  EXPECT_TRUE(claimed_index);
}

TEST_F(LlmModelTest, PlanDiffCitesPlainNestedLoop) {
  // No index serves the join key, so TP runs a plain nested loop — the
  // paper's Example 1 root cause, which the degraded answer must name.
  Prompt p = MakePrompt(
      "SELECT COUNT(*) FROM customer, supplier WHERE c_acctbal = s_acctbal",
      {});
  ASSERT_NE(p.question_tp_plan_json.find("Nested loop inner join"),
            std::string::npos);
  GeneratedExplanation out = MakePlanDiffExplanation(p);
  EXPECT_NE(out.text.find("TP uses 1 join(s) (nested loop)"),
            std::string::npos)
      << out.text;
}

}  // namespace
}  // namespace htapex
