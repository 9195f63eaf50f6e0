#include "llm/prompt.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/string_util.h"

namespace htapex {

namespace {

// Render's fixed text. Each label ends in whitespace and each variable
// section is followed by a newline, so the prompt's word count is the sum
// of its pieces' counts.
constexpr std::string_view kBackgroundLabel = "Background information: ";
constexpr std::string_view kTaskLabel = "Task description: ";
constexpr std::string_view kUserContextLabel = "Additional user context: ";
constexpr std::string_view kSectionEnd = "\n\n";
constexpr std::string_view kHistoricalQueryLabel = "historical query: ";
constexpr std::string_view kHistoricalTpLabel = "historical TP plan: ";
constexpr std::string_view kHistoricalApLabel = "historical AP plan: ";
constexpr std::string_view kHistoricalExplanationLabel =
    "historical expert explanation: ";
constexpr std::string_view kQuestionLabel = "QUESTION:\n";
constexpr std::string_view kNewQueryLabel = "new query: ";
constexpr std::string_view kNewTpLabel = "new TP plan: ";
constexpr std::string_view kNewApLabel = "new AP plan: ";

/// "KNOWLEDGE <n>:" and "<TP|AP> is faster" lines: two and six words.
constexpr int kKnowledgeHeaderWords = 2;
constexpr int kResultLineWords = 6;

constexpr uint64_t kOnes = 0x0101010101010101ULL;  // 1 in every byte

bool IsWordBreak(char c) { return c == ' ' || c == '\n' || c == '\t'; }

/// The high bit of each byte of `x` that equals `c`.
uint64_t BytesEqual(uint64_t x, unsigned char c) {
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  const uint64_t y = x ^ (kOnes * c);  // zero exactly where x has c
  // Per byte, adding 0x7F to the low seven bits cannot carry into the next.
  return ~(((y & kLow7) + kLow7) | y | kLow7);
}

/// The high bit of each of the eight bytes at `block` that is a word break.
uint64_t WordBreaks(const char* block) {
  uint64_t x = 0;
  std::memcpy(&x, block, sizeof(x));
  return BytesEqual(x, ' ') | BytesEqual(x, '\n') | BytesEqual(x, '\t');
}

/// Words in `text`: maximal runs of bytes other than space, newline and tab.
/// A word starts at each non-break byte that follows a break or the start
/// of the text. Eight bytes are tested per step, without a branch per byte,
/// against the eight bytes one position earlier.
int CountWords(std::string_view text) {
  if (text.empty()) return 0;
  int words = IsWordBreak(text[0]) ? 0 : 1;
  size_t i = 1;
  for (; i + 8 <= text.size(); i += 8) {
    const uint64_t starts =
        WordBreaks(text.data() + i - 1) & ~WordBreaks(text.data() + i);
    // One bit per starting byte; the multiply sums the eight bytes.
    words += static_cast<int>(((starts >> 7) * kOnes) >> 56);
  }
  for (; i < text.size(); ++i) {
    if (IsWordBreak(text[i - 1]) && !IsWordBreak(text[i])) ++words;
  }
  return words;
}

/// ~4/3 tokens per whitespace-separated word, floor 1.
int TokensForWords(int words) { return std::max(1, words * 4 / 3); }

}  // namespace

int ApproxTokenCount(std::string_view text) {
  return TokensForWords(CountWords(text));
}

std::string Prompt::Render() const {
  std::string out;
  auto section = [&](std::string_view label, std::string_view text,
                     std::string_view end) {
    out += label;
    out += text;
    out += end;
  };
  section(kBackgroundLabel, background, kSectionEnd);
  section(kTaskLabel, task, kSectionEnd);
  if (!user_context.empty()) {
    section(kUserContextLabel, user_context, kSectionEnd);
  }
  for (size_t i = 0; i < knowledge.size(); ++i) {
    const KnowledgeItem& k = knowledge[i];
    out += StrFormat("KNOWLEDGE %zu:\n", i + 1);
    section(kHistoricalQueryLabel, k.sql, "\n");
    section(kHistoricalTpLabel, k.tp_plan_json, "\n");
    section(kHistoricalApLabel, k.ap_plan_json, "\n");
    out += StrFormat("historical execution result: %s is faster\n",
                     EngineName(k.faster));
    section(kHistoricalExplanationLabel, k.expert_explanation, kSectionEnd);
  }
  out += kQuestionLabel;
  section(kNewQueryLabel, question_sql, "\n");
  section(kNewTpLabel, question_tp_plan_json, "\n");
  section(kNewApLabel, question_ap_plan_json, "\n");
  out += StrFormat("new execution result: %s is faster\n",
                   EngineName(question_result));
  return out;
}

int Prompt::ApproxTokens() const {
  static const int kFixedWords =
      CountWords(kBackgroundLabel) + CountWords(kTaskLabel) +
      CountWords(kQuestionLabel) + CountWords(kNewQueryLabel) +
      CountWords(kNewTpLabel) + CountWords(kNewApLabel) + kResultLineWords;
  static const int kItemWords =
      kKnowledgeHeaderWords + CountWords(kHistoricalQueryLabel) +
      CountWords(kHistoricalTpLabel) + CountWords(kHistoricalApLabel) +
      kResultLineWords + CountWords(kHistoricalExplanationLabel);
  int words = kFixedWords + CountWords(background) + CountWords(task) +
              CountWords(question_sql) + CountWords(question_tp_plan_json) +
              CountWords(question_ap_plan_json);
  if (!user_context.empty()) {
    words += CountWords(kUserContextLabel) + CountWords(user_context);
  }
  for (const KnowledgeItem& k : knowledge) {
    words += kItemWords + CountWords(k.sql) + CountWords(k.tp_plan_json) +
             CountWords(k.ap_plan_json) + CountWords(k.expert_explanation);
  }
  return TokensForWords(words);
}

PromptBuilder::PromptBuilder() {
  // Table I, "Background information".
  background_ =
      "We are using RAG to assist database users in understanding query "
      "performance across differences engines in our HTAP system—"
      "specifically, why one engine performs faster while the other is "
      "slower. Please ensure you are familiar with the TPC-H schema, and "
      "our dataset follows the default schema and contains 100GB of data. "
      "Our HTAP system has two database engines, \"TP\" and \"AP\". The TP "
      "engine uses row-oriented storage, while the AP engine utilizes "
      "column-oriented storage. Note that the optimizers for TP and AP "
      "engines are distinct, leading to different execution plans. "
      "Therefore, you are not allowed to compare the cost estimates of the "
      "execution plans from TP and AP engines.";
  // Table I, "Task description".
  task_ =
      "Here is your task: I will input you the execution plans for the "
      "query from both the TP and AP engines, please evaluate the likely "
      "performance of each engine without directly comparing the cost "
      "estimates. Focus on factors such as the join methods used, the "
      "storage formats (row-oriented vs. column-oriented), index "
      "utilization, and any potential implications of the execution plan "
      "characteristics on query performance. Your task is to explain which "
      "engine might perform better for this specific query and why, based "
      "on these factors. To assist you, we have a retriever that can find "
      "relevant historical plans from the knowledge base with precise "
      "performance explanation from our experts. The KNOWLEDGE and "
      "QUESTIONS you received will be in the following format: KNOWLEDGE: "
      "historical query + historical plan pair (AP/TP's plan) + historical "
      "execution result (indicating whether TP or AP is faster) + "
      "historical expert explanation (why TP or AP is faster). QUESTION: "
      "new query + new plan pair + new execution result. You could use "
      "KNOWLEDGE to explain the following new pair of plans in QUESTION. "
      "If the KNOWLEDGE does not contain the facts to answer the QUESTION "
      "return None. Note, to make sure your answer is accurate, I may "
      "input you several retrieved old queries with their plans, results "
      "and explanations. Please understand all the information I provide "
      "to generate your explanation. Now, I am ready to send you the "
      "KNOWLEDGE and QUESTION.";
  // Table I, "Additional user context" (default).
  user_context_ =
      "Beyond the default indexes on primary and foreign keys, an "
      "additional index has been created on the c_phone column in the "
      "customer table.";
}

Prompt PromptBuilder::Build(std::vector<KnowledgeItem> knowledge,
                            std::string question_sql, std::string tp_plan_json,
                            std::string ap_plan_json, EngineKind result) const {
  Prompt p;
  p.background = background_;
  p.task = task_;
  p.user_context = user_context_;
  p.knowledge = std::move(knowledge);
  p.question_sql = std::move(question_sql);
  p.question_tp_plan_json = std::move(tp_plan_json);
  p.question_ap_plan_json = std::move(ap_plan_json);
  p.question_result = result;
  return p;
}

}  // namespace htapex
