#ifndef HTAPEX_LLM_PROMPT_H_
#define HTAPEX_LLM_PROMPT_H_

#include <string>
#include <string_view>
#include <vector>

#include "plan/plan_node.h"

namespace htapex {

/// One retrieved knowledge item as it appears in the prompt (Section V):
/// historical query + plan pair + execution result + expert explanation.
struct KnowledgeItem {
  std::string sql;
  std::string tp_plan_json;
  std::string ap_plan_json;
  EngineKind faster = EngineKind::kTp;
  std::string expert_explanation;
};

/// The structured prompt of Table I: background, task description, and
/// additional user context, followed by KNOWLEDGE items and the QUESTION
/// (new query + plan pair + execution result).
struct Prompt {
  std::string background;
  std::string task;
  std::string user_context;
  std::vector<KnowledgeItem> knowledge;
  std::string question_sql;
  std::string question_tp_plan_json;
  std::string question_ap_plan_json;
  EngineKind question_result = EngineKind::kTp;

  /// Full prompt text as sent to the model.
  std::string Render() const;
  /// Rough token count (~0.75 words per token): ApproxTokenCount(Render()),
  /// summed section by section without rendering.
  int ApproxTokens() const;
};

/// Builds prompts with the paper's Table I default sections.
class PromptBuilder {
 public:
  PromptBuilder();

  /// Replaces the "additional user context" section (e.g. "an additional
  /// index has been created on the c_phone column").
  void set_user_context(std::string context) {
    user_context_ = std::move(context);
  }

  Prompt Build(std::vector<KnowledgeItem> knowledge, std::string question_sql,
               std::string tp_plan_json, std::string ap_plan_json,
               EngineKind result) const;

  const std::string& background() const { return background_; }
  const std::string& task() const { return task_; }

 private:
  std::string background_;
  std::string task_;
  std::string user_context_;
};

/// Rough token estimate for arbitrary text.
int ApproxTokenCount(std::string_view text);

}  // namespace htapex

#endif  // HTAPEX_LLM_PROMPT_H_
