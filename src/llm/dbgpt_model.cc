#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"
#include "llm/llm.h"
#include "llm/plan_reader.h"
#include "llm/realizer.h"

namespace htapex {

namespace {

/// DBG-PT-style baseline (the paper's Section VI-D comparator): an LLM that
/// reads structured plans competently but reasons without retrieved expert
/// knowledge. It reproduces the paper's four observed failure modes:
///  1. Fundamental errors — assumes an index helps even when the predicate
///     wraps the indexed column in a function (substring(c_phone,...)).
///  2. Overemphasis on minor factors — leads with column-oriented storage
///     whenever AP wins, regardless of the true root cause.
///  3. Ignoring limitations — sometimes compares TP/AP cost estimates even
///     though the prompt forbids it.
///  4. Lack of context for relative values — cannot tell whether a LIMIT /
///     OFFSET is large enough to matter, so it never cites offset effects
///     and trusts streaming LIMIT plans unconditionally.
class DbgPtLlm : public SimulatedLlm {
 public:
  explicit DbgPtLlm(LlmPersona persona) : persona_(std::move(persona)) {}

  GeneratedExplanation Explain(const Prompt& prompt) const override {
    GeneratedExplanation out;
    auto q_surface = ReadPairSurface(prompt.question_tp_plan_json,
                                     prompt.question_ap_plan_json);
    if (!q_surface.ok()) {
      out.claims.is_none = true;
      out.text = "None";
      out.timing = ComputeTiming(prompt, out.text, persona_);
      return out;
    }
    const PairSurface& s = *q_surface;
    // DBG-PT is not given the execution result; compute a best guess.
    PairSignature sig = ComputeSignature(s, EngineKind::kTp);
    uint64_t h = Fnv1a64(prompt.question_sql) ^ 0xDB69;

    EngineKind winner;
    bool used_costs = false;
    // Failure mode 4: no feel for relative values — streaming LIMIT plans
    // are trusted even with a huge OFFSET.
    if (sig.tp_ordered_stream_limit) {
      winner = EngineKind::kTp;
    } else if (sig.tp_small_index_access && sig.tiny_work) {
      winner = EngineKind::kTp;
    } else if (s.ap.HasNode(PlanOp::kHashJoin) || s.ap.num_joins >= 1 ||
               s.ap.HasNode(PlanOp::kHashAggregate)) {
      winner = EngineKind::kAp;
    } else {
      // Failure mode 3: falls back to the forbidden cost comparison.
      used_costs = true;
      winner = s.tp.root_cost <= s.ap.root_cost ? EngineKind::kTp
                                                : EngineKind::kAp;
    }
    // ...and occasionally leaks a cost comparison anyway.
    if (!used_costs && h % 4 == 0) used_costs = true;

    out.claims.claimed_faster = winner;
    out.claims.compared_costs = used_costs;

    std::vector<PerfFactor>& factors = out.claims.factors;
    if (winner == EngineKind::kAp) {
      // Failure mode 2: columnar storage always leads.
      factors.push_back(PerfFactor::kColumnarScanWidth);
      if (s.ap.HasNode(PlanOp::kHashJoin)) {
        factors.push_back(PerfFactor::kHashJoinAdvantage);
      }
      // The deeper root causes are cited only some of the time.
      if (sig.tp_plain_nlj && h % 2 == 0) {
        factors.push_back(PerfFactor::kNoIndexNestedLoop);
      }
      if (sig.tp_index_join && h % 2 == 0) {
        factors.push_back(PerfFactor::kIndexProbeJoinLargeOuter);
      }
    } else {
      if (sig.tp_ordered_stream_limit) {
        factors.push_back(PerfFactor::kTopNIndexOrderStreaming);
      } else {
        factors.push_back(PerfFactor::kIndexPointLookup);
      }
      // AP startup overhead is invisible in the plans; DBG-PT misses it.
    }
    // Failure mode 1: a predicate mentioning an indexed column "must"
    // benefit from the index — even under substring().
    if (sig.function_predicate &&
        ContainsIgnoreCase(prompt.user_context, "index")) {
      factors.push_back(PerfFactor::kIndexPointLookup);
    }

    // Deduplicate while preserving order.
    std::vector<PerfFactor> unique;
    for (PerfFactor f : factors) {
      if (std::find(unique.begin(), unique.end(), f) == unique.end()) {
        unique.push_back(f);
      }
    }
    factors = std::move(unique);

    out.text =
        RealizeExplanation(out.claims, s, persona_, prompt.question_sql);
    out.timing = ComputeTiming(prompt, out.text, persona_);
    return out;
  }

  const LlmPersona& persona() const override { return persona_; }

 private:
  LlmPersona persona_;
};

}  // namespace

std::unique_ptr<SimulatedLlm> MakeDbgPtLlm(LlmPersona persona) {
  return std::make_unique<DbgPtLlm>(std::move(persona));
}

}  // namespace htapex
