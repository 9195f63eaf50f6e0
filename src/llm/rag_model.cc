#include <algorithm>

#include "common/string_util.h"
#include "llm/llm.h"
#include "llm/plan_reader.h"
#include "llm/realizer.h"

namespace htapex {

namespace {

/// Can this factor plausibly apply to the question, judging only from what
/// the plans show? This is the simulated model's "sanity check" before
/// adopting a retrieved expert claim.
bool FactorApplicable(PerfFactor f, const PairSurface& s,
                      const PairSignature& sig) {
  switch (f) {
    case PerfFactor::kNoIndexNestedLoop:
      return sig.tp_plain_nlj;
    case PerfFactor::kIndexProbeJoinLargeOuter:
      return sig.tp_index_join;
    case PerfFactor::kHashJoinAdvantage:
      return s.ap.HasNode(PlanOp::kHashJoin);
    case PerfFactor::kColumnarScanWidth:
      return s.ap.HasNode(PlanOp::kColumnScan);
    case PerfFactor::kHashAggLargeInput:
      return s.ap.HasNode(PlanOp::kHashAggregate) &&
             s.ap.max_plan_rows > 100'000;
    case PerfFactor::kIndexPointLookup:
      return sig.tp_small_index_access;
    case PerfFactor::kTopNIndexOrderStreaming:
      return sig.tp_ordered_stream_limit;
    case PerfFactor::kFullSortVsTopN:
      return s.tp.has_sort && s.ap.has_topn;
    case PerfFactor::kLargeOffsetScan:
      return sig.big_offset;
    case PerfFactor::kApStartupOverhead:
      return sig.tiny_work;
    case PerfFactor::kFunctionDefeatsIndex:
      return sig.function_predicate;
    case PerfFactor::kBadJoinOrder:
      return s.ap.num_joins >= 2 && s.ap.max_plan_rows > 100'000;
    case PerfFactor::kMissingSift:
      return s.ap.HasNode(PlanOp::kHashJoin) &&
             !s.ap.HasNode(PlanOp::kSiftedScan);
  }
  return false;
}

/// Generic prior when no knowledge matches: pick the most salient
/// applicable factor for the known winner. This is what a pre-trained
/// model "knows" without RAG — often reasonable, not always the true
/// primary cause.
std::vector<PerfFactor> HeuristicFactors(const PairSurface& s,
                                         const PairSignature& sig,
                                         EngineKind winner) {
  std::vector<PerfFactor> out;
  auto add_if = [&](PerfFactor f) {
    if (FactorApplicable(f, s, sig)) out.push_back(f);
  };
  if (winner == EngineKind::kAp) {
    add_if(PerfFactor::kNoIndexNestedLoop);
    add_if(PerfFactor::kHashJoinAdvantage);
    add_if(PerfFactor::kColumnarScanWidth);
  } else {
    add_if(PerfFactor::kTopNIndexOrderStreaming);
    add_if(PerfFactor::kIndexPointLookup);
    add_if(PerfFactor::kApStartupOverhead);
  }
  if (out.size() > 2) out.resize(2);
  return out;
}

class RagLlm : public SimulatedLlm {
 public:
  explicit RagLlm(LlmPersona persona) : persona_(std::move(persona)) {}

  GeneratedExplanation Explain(const Prompt& prompt) const override {
    GeneratedExplanation out;
    out.claims.claimed_faster = prompt.question_result;

    auto q_surface = ReadPairSurface(prompt.question_tp_plan_json,
                                     prompt.question_ap_plan_json);
    if (!q_surface.ok()) {
      // Unreadable plans: the instruction-following answer is None.
      out.claims.is_none = true;
      out.text = "None";
      out.timing = ComputeTiming(prompt, out.text, persona_);
      return out;
    }
    PairSignature q_sig = ComputeSignature(*q_surface, prompt.question_result);

    // Score every retrieved knowledge item by how closely its performance
    // signature matches the question's.
    double best_score = -1.0;
    const KnowledgeItem* best = nullptr;
    for (const KnowledgeItem& k : prompt.knowledge) {
      auto k_surface = ReadPairSurface(k.tp_plan_json, k.ap_plan_json);
      if (!k_surface.ok()) continue;
      PairSignature k_sig = ComputeSignature(*k_surface, k.faster);
      double score = q_sig.Similarity(k_sig);
      if (score > best_score) {
        best_score = score;
        best = &k;
      }
    }

    constexpr double kAdoptThreshold = 0.85;
    constexpr double kPartialThreshold = 0.80;
    uint64_t h = Fnv1a64(prompt.question_sql);

    // Corroboration: with a single retrieved precedent the model is far
    // less willing to commit (the paper observes None responses rising to
    // 8% at K=1). A lone precedent is either trusted only when it matches
    // nearly perfectly, or triggers a refusal / a fall-back to the model's
    // generic priors.
    if (prompt.knowledge.size() == 1 && best != nullptr) {
      auto refuse = [&]() {
        out.claims.is_none = true;
        out.text = "None";
        out.timing = ComputeTiming(prompt, out.text, persona_);
        return out;
      };
      auto freewheel = [&]() {
        out.claims.factors =
            HeuristicFactors(*q_surface, q_sig, prompt.question_result);
        out.claims.compared_costs = false;
        out.text = RealizeExplanation(out.claims, *q_surface, persona_,
                                      prompt.question_sql);
        out.timing = ComputeTiming(prompt, out.text, persona_);
        return out;
      };
      if (best_score < kAdoptThreshold) return refuse();
      if (best_score < 0.95) {
        if (h % 3 == 0) return refuse();
        if (h % 3 == 1) return freewheel();
        // else: cautiously adopt the lone precedent below.
      }
      uint64_t r = h % 14;
      if (r == 0) return refuse();
      if (r == 1) return freewheel();
    }

    if (best == nullptr || best_score < kPartialThreshold) {
      // The task description says: if the KNOWLEDGE does not contain the
      // facts, return None. A model occasionally free-wheels instead of
      // obeying; that path yields a heuristic (usually imprecise) answer.
      if (h % 5 != 0) {
        out.claims.is_none = true;
        out.text = "None";
        out.timing = ComputeTiming(prompt, out.text, persona_);
        return out;
      }
      out.claims.factors =
          HeuristicFactors(*q_surface, q_sig, prompt.question_result);
    } else {
      // Adopt the best-matching expert explanation's factors, keeping only
      // the ones the question's plans actually support.
      std::vector<PerfFactor> adopted =
          ExtractFactorsFromText(best->expert_explanation);
      std::vector<PerfFactor> kept;
      for (PerfFactor f : adopted) {
        if (FactorApplicable(f, *q_surface, q_sig)) kept.push_back(f);
      }
      if (best_score < kAdoptThreshold) {
        // Partial match: the model pads the borrowed reasoning with its
        // generic columnar-storage prior, which is not always warranted.
        if (h % 3 == 0 && prompt.question_result == EngineKind::kAp &&
            FactorApplicable(PerfFactor::kColumnarScanWidth, *q_surface,
                             q_sig) &&
            std::find(kept.begin(), kept.end(),
                      PerfFactor::kColumnarScanWidth) == kept.end()) {
          kept.push_back(PerfFactor::kColumnarScanWidth);
        }
        // ... and sometimes keeps only the lead factor, dropping nuance.
        if (h % 3 == 1 && kept.size() > 1) kept.resize(1);
      }
      if (kept.empty()) {
        kept = HeuristicFactors(*q_surface, q_sig, prompt.question_result);
      }
      out.claims.factors = std::move(kept);
    }

    out.claims.compared_costs = false;  // obeys the Table I instruction
    out.text = RealizeExplanation(out.claims, *q_surface, persona_,
                                  prompt.question_sql);
    out.timing = ComputeTiming(prompt, out.text, persona_);
    return out;
  }

  const LlmPersona& persona() const override { return persona_; }

 private:
  LlmPersona persona_;
};

}  // namespace

LlmPersona DoubaoPersona() {
  LlmPersona p;
  p.name = "doubao-sim";
  p.tokens_per_second = 18;
  p.thinking_token_ms = 0.35;
  p.style_seed = 0xD0BA0;
  return p;
}

LlmPersona Gpt4Persona() {
  LlmPersona p;
  p.name = "gpt4-sim";
  p.tokens_per_second = 15;
  p.thinking_token_ms = 0.45;
  p.style_seed = 0x69742;
  return p;
}

std::unique_ptr<SimulatedLlm> MakeRagLlm(LlmPersona persona) {
  return std::make_unique<RagLlm>(std::move(persona));
}

}  // namespace htapex
