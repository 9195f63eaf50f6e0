#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/htap_system.h"
#include "expert/expert_analyzer.h"
#include "llm/llm.h"
#include "llm/plan_reader.h"
#include "llm/prompt.h"
#include "llm/realizer.h"
#include "llm/resilient_llm.h"
#include "workload/query_generator.h"

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

// ---------------------------------------------------------------- plan text
// PhysicalPlan::Explain, ReadPlanSurface and Prompt::ApproxTokens against
// the document-model writer, reader and byte-loop word counter they
// replaced, kept here as references.

/// The old writer: one JsonValue object per node, printed by DumpPythonish.
JsonValue ReferenceToJson(const PlanNode& node) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("Node Type", JsonValue::String(PlanOpName(node.op)));
  obj.Set("Total Cost",
          JsonValue::Double(std::round(node.total_cost * 100.0) / 100.0));
  obj.Set("Plan Rows",
          JsonValue::Int(static_cast<int64_t>(std::llround(
              node.estimated_rows < 1.0 ? 1.0 : node.estimated_rows))));
  if (!node.relation.empty()) {
    obj.Set("Relation Name", JsonValue::String(node.relation));
    if (node.base_rows > 0) {
      obj.Set("Table Rows",
              JsonValue::Int(static_cast<int64_t>(node.base_rows)));
    }
  }
  if (!node.index_name.empty()) {
    obj.Set("Index Name", JsonValue::String(node.index_name));
    obj.Set("Index Column", JsonValue::String(node.index_column));
  }
  if (!node.columns_read.empty()) {
    JsonValue cols = JsonValue::MakeArray();
    for (const auto& c : node.columns_read) cols.Append(JsonValue::String(c));
    obj.Set("Columns", cols);
  }
  if (!node.predicates.empty()) {
    std::string cond;
    for (size_t i = 0; i < node.predicates.size(); ++i) {
      if (i > 0) cond += " AND ";
      cond += node.predicates[i]->ToString();
    }
    obj.Set("Condition", JsonValue::String(cond));
  }
  if (node.left_key != nullptr && node.right_key != nullptr) {
    obj.Set("Join Cond", JsonValue::String(node.left_key->ToString() + " = " +
                                           node.right_key->ToString()));
  }
  if (node.sift_id >= 0) obj.Set("Sift Id", JsonValue::Int(node.sift_id));
  if (!node.sift_probes.empty()) {
    std::string keys;
    for (size_t i = 0; i < node.sift_probes.size(); ++i) {
      if (i > 0) keys += ", ";
      keys += node.sift_probes[i].key->ToString();
    }
    obj.Set("Sift Key", JsonValue::String(keys));
  }
  if (!node.sort_keys.empty()) {
    std::string keys;
    for (size_t i = 0; i < node.sort_keys.size(); ++i) {
      if (i > 0) keys += ", ";
      keys += node.sort_keys[i].expr->ToString();
      if (node.sort_keys[i].descending) keys += " DESC";
    }
    obj.Set("Sort Key", JsonValue::String(keys));
  }
  if (node.limit >= 0) obj.Set("Limit", JsonValue::Int(node.limit));
  if (node.offset > 0) obj.Set("Offset", JsonValue::Int(node.offset));
  if (!node.group_keys.empty()) {
    std::string keys;
    for (size_t i = 0; i < node.group_keys.size(); ++i) {
      if (i > 0) keys += ", ";
      keys += node.group_keys[i]->ToString();
    }
    obj.Set("Group Key", JsonValue::String(keys));
  }
  if (!node.children.empty()) {
    JsonValue plans = JsonValue::MakeArray();
    for (const auto& c : node.children) plans.Append(ReferenceToJson(*c));
    obj.Set("Plans", plans);
  }
  return obj;
}

std::optional<PlanOp> ReferencePlanOpFromName(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(PlanOp::kTopN); ++i) {
    PlanOp op = static_cast<PlanOp>(i);
    if (name == PlanOpName(op)) return op;
  }
  return std::nullopt;
}

/// The old reader's walk over the parsed document.
void ReferenceWalkPlan(const JsonValue& node, PlanSurface* out, bool is_root) {
  std::optional<PlanOp> op =
      ReferencePlanOpFromName(node.GetString("Node Type"));
  if (op.has_value()) out->node_types.insert(*op);
  const bool nested_loop =
      op == PlanOp::kNestedLoopJoin || op == PlanOp::kIndexNestedLoopJoin;
  if (nested_loop || op == PlanOp::kHashJoin) ++out->num_joins;
  if (op == PlanOp::kSort) out->has_sort = true;
  if (op == PlanOp::kTopN) {
    out->has_topn = true;
    out->has_limit = true;
  }
  std::string relation = node.GetString("Relation Name");
  if (!relation.empty()) out->relations.insert(relation);
  std::string index_col = node.GetString("Index Column");
  if (!index_col.empty()) out->index_columns.push_back(index_col);
  std::string condition = node.GetString("Condition");
  if (!condition.empty()) {
    out->conditions.push_back(condition);
    if (ContainsIgnoreCase(condition, "substring(") ||
        ContainsIgnoreCase(condition, "lower(") ||
        ContainsIgnoreCase(condition, "upper(") ||
        ContainsIgnoreCase(condition, "year(")) {
      out->condition_applies_function = true;
    }
  }
  double rows = node.GetDouble("Plan Rows");
  out->max_plan_rows = std::max(out->max_plan_rows, rows);
  out->max_table_rows =
      std::max(out->max_table_rows, node.GetDouble("Table Rows"));
  if (is_root) out->root_cost = node.GetDouble("Total Cost");
  const JsonValue* limit = node.Find("Limit");
  if (limit != nullptr && limit->is_number()) {
    out->has_limit = true;
    out->limit = limit->int_value();
  }
  const JsonValue* offset = node.Find("Offset");
  if (offset != nullptr && offset->is_number()) {
    out->offset = std::max(out->offset, offset->int_value());
  }
  if (op == PlanOp::kIndexScan && node.Find("Sort Key") != nullptr) {
    out->ordered_index_scan = true;
  }
  const JsonValue* columns = node.Find("Columns");
  if (columns != nullptr && columns->is_array()) {
    out->max_columns_read = std::max(
        out->max_columns_read, static_cast<int>(columns->array().size()));
  }
  const JsonValue* plans = node.Find("Plans");
  if (plans != nullptr && plans->is_array()) {
    for (const JsonValue& child : plans->array()) {
      ReferenceWalkPlan(child, out, /*is_root=*/false);
    }
    if (nested_loop && plans->array().size() == 2) {
      const JsonValue& outer = plans->array()[0];
      const JsonValue& inner = plans->array()[1];
      double outer_rows = outer.GetDouble("Plan Rows");
      double inner_rows = op == PlanOp::kIndexNestedLoopJoin
                              ? inner.GetDouble("Plan Rows")
                              : std::max(inner.GetDouble("Table Rows"),
                                         inner.GetDouble("Plan Rows"));
      out->max_loop_join_volume =
          std::max(out->max_loop_join_volume, outer_rows * inner_rows);
    }
  }
}

Result<PlanSurface> ReferenceReadPlanSurface(const std::string& text) {
  JsonValue root;
  HTAPEX_ASSIGN_OR_RETURN(root, JsonValue::Parse(text));
  PlanSurface surface;
  ReferenceWalkPlan(root, &surface, /*is_root=*/true);
  return surface;
}

/// The old word counter: one branchy step per byte.
int ReferenceTokenCount(const std::string& text) {
  int words = 0;
  bool in_word = false;
  for (char c : text) {
    bool space = c == ' ' || c == '\n' || c == '\t';
    if (!space && !in_word) ++words;
    in_word = !space;
  }
  return std::max(1, words * 4 / 3);
}

/// 4,096 generated queries planned on the plan-only SF 100 system (the
/// explain_cold stack's system).
class PlanTextTest : public ::testing::Test {
 protected:
  static constexpr int kPoolSize = 4096;

  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.stats_scale_factor = 100.0;
    config.data_scale_factor = 0.0;
    ASSERT_TRUE(system_->Init(config).ok());
    pool_ = new std::vector<PlannedQuery>();
    QueryGenerator gen(100.0, 2024);
    for (const GeneratedQuery& q : gen.GenerateMix(kPoolSize)) {
      auto planned = system_->Plan(q.sql);
      ASSERT_TRUE(planned.ok()) << q.sql << ": " << planned.status();
      pool_->push_back(std::move(*planned));
    }
  }
  static void TearDownTestSuite() {
    delete pool_;
    pool_ = nullptr;
    delete system_;
    system_ = nullptr;
  }

  /// Both plan texts of every pooled query.
  static std::vector<std::string> PlanTexts() {
    std::vector<std::string> texts;
    for (const PlannedQuery& q : *pool_) {
      texts.push_back(q.outcome.plans.tp.Explain());
      texts.push_back(q.outcome.plans.ap.Explain());
    }
    return texts;
  }

  static HtapSystem* system_;
  static std::vector<PlannedQuery>* pool_;
};

HtapSystem* PlanTextTest::system_ = nullptr;
std::vector<PlannedQuery>* PlanTextTest::pool_ = nullptr;

TEST_F(PlanTextTest, ExplainPrintsWhatTheDocumentModelPrinted) {
  ASSERT_EQ(pool_->size(), static_cast<size_t>(kPoolSize));
  for (const PlannedQuery& q : *pool_) {
    for (const PhysicalPlan* plan :
         {&q.outcome.plans.tp, &q.outcome.plans.ap}) {
      ASSERT_EQ(plan->Explain(), ReferenceToJson(*plan->root).DumpPythonish())
          << q.outcome.sql;
    }
  }
}

TEST_F(PlanTextTest, ApproxTokensCountsTheRenderedPrompt) {
  // Knowledge items as the KB stores them: plan texts plus the expert's
  // curated explanation.
  ExpertAnalyzer analyzer(system_->catalog(), system_->config().latency);
  std::vector<KnowledgeItem> items;
  for (size_t i = 0; i < 64; ++i) {
    const PlannedQuery& q = (*pool_)[i];
    KnowledgeItem item;
    item.sql = q.outcome.sql;
    item.tp_plan_json = q.outcome.plans.tp.Explain();
    item.ap_plan_json = q.outcome.plans.ap.Explain();
    item.faster = q.outcome.faster;
    item.expert_explanation = analyzer.Analyze(q.outcome, q.query).explanation;
    items.push_back(std::move(item));
  }
  PromptBuilder with_context;
  PromptBuilder without_context;
  without_context.set_user_context("");
  for (size_t i = 0; i < pool_->size(); ++i) {
    const PlannedQuery& q = (*pool_)[i];
    for (size_t k : {0, 2, 4}) {
      std::vector<KnowledgeItem> knowledge;
      for (size_t j = 0; j < k; ++j) {
        knowledge.push_back(items[(i + j) % items.size()]);
      }
      for (const PromptBuilder* builder : {&with_context, &without_context}) {
        Prompt p = builder->Build(
            knowledge, q.outcome.sql, q.outcome.plans.tp.Explain(),
            q.outcome.plans.ap.Explain(), q.outcome.faster);
        const std::string text = p.Render();
        ASSERT_EQ(p.ApproxTokens(), ApproxTokenCount(text))
            << "query " << i << ", K = " << k;
        ASSERT_EQ(ApproxTokenCount(text), ReferenceTokenCount(text));
      }
    }
  }
}

TEST(TokenCountTest, WordCounterMatchesTheByteLoop) {
  // Word breaks, other whitespace and NUL, and bytes whose low seven bits
  // are a break (0xa0, 0x89, 0x8a), which a careless byte mask would count.
  static const char kBytes[] = "  \n\t\r\v\fab'{}\0\x80\xa0\x89\x8a\xff";
  const std::string alphabet(kBytes, sizeof(kBytes) - 1);
  Rng rng(110);
  for (int trial = 0; trial < 200'000; ++trial) {
    const int64_t len = rng.Uniform(0, trial % 100 == 0 ? 4096 : 40);
    std::string text;
    for (int64_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng.Uniform(0, alphabet.size() - 1)]);
    }
    ASSERT_EQ(ApproxTokenCount(text), ReferenceTokenCount(text))
        << "trial " << trial;
  }
}

/// A random value of any JSON type, nodes included.
JsonValue RandomJsonValue(Rng* rng, int depth) {
  switch (rng->Uniform(0, depth > 0 ? 7 : 5)) {
    case 0:
      return JsonValue::Null();
    case 1:
      return JsonValue::Bool(rng->Bernoulli(0.5));
    case 2:
      return JsonValue::Int(rng->Bernoulli(0.2)
                                ? static_cast<int64_t>(rng->NextU64())
                                : rng->Uniform(-5, 5'000'000));
    case 3:
      return JsonValue::Double(rng->Bernoulli(0.2) ? 1e30 * rng->Normal()
                                                  : rng->UniformReal(-2, 1e7));
    case 4:
    case 5: {
      static const char* const kStrings[] = {
          "",
          "Index Scan",
          "Nested loop inner join",
          "Index nested loop join",
          "Hash join",
          "Top-N",
          "Sort",
          "orders",
          "substring(c_phone, 1, 2) = '20'",
          "x\\y'z\"",
          "Limit",
          "Plans",
      };
      return JsonValue::String(
          kStrings[rng->Uniform(0, std::size(kStrings) - 1)]);
    }
    case 6: {
      JsonValue arr = JsonValue::MakeArray();
      for (int64_t i = rng->Uniform(0, 3); i > 0; --i) {
        arr.Append(RandomJsonValue(rng, depth - 1));
      }
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::MakeObject();
      static const char* const kKeys[] = {"Node Type", "Plan Rows",
                                          "Table Rows", "Plans",
                                          "Limit",     "Columns"};
      for (int64_t i = rng->Uniform(0, 3); i > 0; --i) {
        obj.Set(kKeys[rng->Uniform(0, std::size(kKeys) - 1)],
                RandomJsonValue(rng, depth - 1));
      }
      return obj;
    }
  }
}

/// Every object in `v`, parents first.
void CollectObjects(JsonValue* v, std::vector<JsonValue*>* out) {
  if (v->is_object()) {
    out->push_back(v);
    for (auto& member : v->object()) CollectObjects(&member.second, out);
  } else if (v->is_array()) {
    for (JsonValue& e : v->array()) CollectObjects(&e, out);
  }
}

/// One structural edit of a parsed plan: reordered members, a duplicated
/// member (the later copy wins in the document model), a member of the
/// wrong type, or a non-object element in a 'Plans' array.
void EditStructure(JsonValue* doc, Rng* rng) {
  std::vector<JsonValue*> objects;
  CollectObjects(doc, &objects);
  if (objects.empty()) return;
  JsonValue::Object& members =
      objects[rng->Uniform(0, objects.size() - 1)]->object();
  if (members.empty()) return;
  JsonValue::Member& member = members[rng->Uniform(0, members.size() - 1)];
  switch (rng->Uniform(0, 4)) {
    case 0:  // reorder
      for (size_t i = members.size(); i > 1; --i) {
        std::swap(members[i - 1], members[rng->Uniform(0, i - 1)]);
      }
      break;
    case 1: {  // duplicate: same key, another value or a copy of another
      const size_t other = rng->Uniform(0, members.size() - 1);
      JsonValue value = rng->Bernoulli(0.5) ? members[other].second
                                            : RandomJsonValue(rng, 2);
      std::string key = member.first;
      members.emplace_back(std::move(key), std::move(value));
      break;
    }
    case 2: {  // a second 'Plans', often a subset of the first
      JsonValue plans = JsonValue::MakeArray();
      const JsonValue* old = nullptr;
      for (const auto& m : members) {
        if (m.first == "Plans") old = &m.second;
      }
      if (old != nullptr && old->is_array()) {
        for (const JsonValue& child : old->array()) {
          if (rng->Bernoulli(0.5)) plans.Append(child);
        }
      }
      if (rng->Bernoulli(0.3)) plans = RandomJsonValue(rng, 2);
      members.emplace_back("Plans", std::move(plans));
      break;
    }
    case 3:  // wrong-typed value
      member.second = RandomJsonValue(rng, 2);
      break;
    default:  // non-object elements in 'Plans'
      for (auto& m : members) {
        if (m.first != "Plans" || !m.second.is_array()) continue;
        JsonValue::Array& elements = m.second.array();
        JsonValue value = RandomJsonValue(rng, 1);
        if (value.is_object()) value = JsonValue::Int(7);
        elements.insert(elements.begin() + rng->Uniform(0, elements.size()),
                        std::move(value));
      }
  }
}

/// One byte-level edit: truncation, flipped or replaced bytes, an escape
/// that decodes to the byte it precedes, or nesting past the parser's cap.
std::string EditBytes(std::string text, Rng* rng) {
  switch (rng->Uniform(0, 3)) {
    case 0:
      return text.substr(0, rng->Uniform(0, text.size()));
    case 1: {
      static const char kBytes[] = "{}[]:,'\"\\ 0123456789.-eENT";
      for (int64_t n = rng->Uniform(1, 3); n > 0 && !text.empty(); --n) {
        char& c = text[rng->Uniform(0, text.size() - 1)];
        c = rng->Bernoulli(0.5)
                ? static_cast<char>(c ^ (1 << rng->Uniform(0, 7)))
                : kBytes[rng->Uniform(0, sizeof(kBytes) - 2)];
      }
      return text;
    }
    case 2: {
      // '\\' before a letter other than n, t, r, u decodes to the letter,
      // inside keys and values alike.
      for (int64_t n = rng->Uniform(1, 4); n > 0; --n) {
        size_t at = rng->Uniform(0, text.size() - 1);
        char c = text[at];
        if (std::isalpha(static_cast<unsigned char>(c)) && c != 'n' &&
            c != 't' && c != 'r' && c != 'u') {
          text.insert(at, 1, '\\');
        }
      }
      return text;
    }
    default: {
      // Each wrapper node adds two levels (its object and its 'Plans'
      // array); the cap of 256 falls inside this range of wrappers.
      const int64_t wrappers = rng->Uniform(110, 135);
      std::string deep;
      for (int64_t i = 0; i < wrappers; ++i) {
        deep += "{'Node Type': 'Limit', 'Limit': 1, 'Plans': [";
      }
      deep += text;
      for (int64_t i = 0; i < wrappers; ++i) deep += "]}";
      return deep;
    }
  }
}

TEST_F(PlanTextTest, ReaderMatchesTheDocumentModelOnMutatedPlans) {
  const std::vector<std::string> texts = PlanTexts();
  Rng rng(111);
  int accepted = 0, rejected = 0, deep = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    std::string text = texts[rng.Uniform(0, texts.size() - 1)];
    const int64_t kind = rng.Uniform(0, 3);
    if (kind == 1 || kind == 3) {
      auto doc = JsonValue::Parse(text);
      ASSERT_TRUE(doc.ok()) << doc.status();
      for (int64_t n = rng.Uniform(1, 4); n > 0; --n) {
        EditStructure(&*doc, &rng);
      }
      text = rng.Bernoulli(0.8) ? doc->DumpPythonish() : doc->Dump();
    }
    if (kind == 2 || kind == 3) text = EditBytes(std::move(text), &rng);
    auto got = ReadPlanSurface(text);
    auto want = ReferenceReadPlanSurface(text);
    ASSERT_EQ(got.ok(), want.ok()) << text;
    if (!want.ok()) {
      ++rejected;
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << text;
      if (want.status().message().find("nesting deeper") != std::string::npos) {
        ++deep;
      }
      continue;
    }
    ++accepted;
    ASSERT_TRUE(*got == *want) << text;
  }
  // Every kind of input showed up on both sides of the grammar.
  EXPECT_GT(accepted, 10'000);
  EXPECT_GT(rejected, 1'000);
  EXPECT_GT(deep, 100);
}

}  // namespace
}  // namespace htapex
