#include "llm/realizer.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"

namespace htapex {

namespace {

/// Deterministic pick among phrasing variants.
const char* Pick(uint64_t h, std::initializer_list<const char*> variants) {
  size_t idx = static_cast<size_t>(h % variants.size());
  return *(variants.begin() + static_cast<std::ptrdiff_t>(idx));
}

std::string JoinRelations(const PairSurface& surface) {
  std::vector<std::string> rels(surface.ap.relations.begin(),
                                surface.ap.relations.end());
  if (rels.empty()) {
    rels.assign(surface.tp.relations.begin(), surface.tp.relations.end());
  }
  if (rels.empty()) return "the involved tables";
  if (rels.size() == 1) return "the " + rels[0] + " table";
  std::string out;
  for (size_t i = 0; i < rels.size(); ++i) {
    if (i > 0) out += i + 1 == rels.size() ? " and " : ", ";
    out += rels[i];
  }
  return out;
}

std::string FactorSentence(PerfFactor f, const PairSurface& surface,
                           uint64_t h) {
  std::string phrase = PerfFactorPhrase(f);
  switch (f) {
    case PerfFactor::kNoIndexNestedLoop:
      return StrFormat(
          "%s The TP side falls back to a %s, so it re-reads the inner "
          "table for every outer row.",
          Pick(h, {"The decisive problem sits in TP's join strategy.",
                   "Look first at how TP joins the tables."}),
          phrase.c_str());
    case PerfFactor::kIndexProbeJoinLargeOuter:
      return StrFormat(
          "TP pays %s, and those random B+-tree descents add up far faster "
          "than a single bulk pass would.",
          phrase.c_str());
    case PerfFactor::kHashJoinAdvantage:
      return StrFormat(
          "On the AP side the %s, which is dramatically cheaper at this "
          "data volume.",
          phrase.c_str());
    case PerfFactor::kColumnarScanWidth:
      return StrFormat(
          "Because AP's %s, it avoids materializing whole rows of %s.",
          phrase.c_str(), JoinRelations(surface).c_str());
    case PerfFactor::kHashAggLargeInput:
      return StrFormat("Its %s, with no sort required beforehand.",
                       phrase.c_str());
    case PerfFactor::kIndexPointLookup:
      return StrFormat(
          "TP's %s, so almost no data is read at all.", phrase.c_str());
    case PerfFactor::kTopNIndexOrderStreaming:
      return StrFormat(
          "On TP the %s — the engine never looks at the rest of the table.",
          phrase.c_str());
    case PerfFactor::kFullSortVsTopN:
      return StrFormat(
          "TP performs a %s, which is the single most expensive step in its "
          "plan.",
          phrase.c_str());
    case PerfFactor::kLargeOffsetScan:
      return StrFormat(
          "Note the %s, so the apparent LIMIT optimization buys little here.",
          phrase.c_str());
    case PerfFactor::kApStartupOverhead:
      return StrFormat(
          "For AP, %s — the query itself is too small to amortize it.",
          phrase.c_str());
    case PerfFactor::kFunctionDefeatsIndex:
      return StrFormat(
          "Also note that %s, which is why the predicate is evaluated "
          "against every candidate row instead.",
          phrase.c_str());
    case PerfFactor::kBadJoinOrder:
      return StrFormat(
          "In the losing plan the %s — the optimizer multiplied the wrong "
          "tables first and every later operator pays for it.",
          phrase.c_str());
    case PerfFactor::kMissingSift:
      return StrFormat(
          "On the AP side %s, so the big scan feeds every row into the "
          "probe even though most of them could never match.",
          phrase.c_str());
  }
  return phrase + ".";
}

}  // namespace

std::string RealizeExplanation(const ExplanationClaims& claims,
                               const PairSurface& surface,
                               const LlmPersona& persona,
                               const std::string& question_sql) {
  if (claims.is_none) return "None";
  uint64_t h = Fnv1a64(question_sql) ^ persona.style_seed;
  const char* winner = EngineName(claims.claimed_faster);
  const char* loser = claims.claimed_faster == EngineKind::kAp ? "TP" : "AP";

  std::string text;
  text += StrFormat(
      "%s %s is faster for this query, while %s is noticeably slower.",
      Pick(h, {"Based on the two execution plans,",
               "Reading both plans side by side,",
               "From the plan characteristics,"}),
      winner, loser);
  text += " ";
  int i = 0;
  for (PerfFactor f : claims.factors) {
    text += FactorSentence(f, surface, h + static_cast<uint64_t>(++i));
    text += " ";
  }
  if (claims.compared_costs) {
    // The DBG-PT failure mode: a leaked cost comparison despite the
    // instruction not to compare cross-engine cost estimates.
    text += StrFormat(
        "Moreover, comparing the cost estimates of the two plans, the %s "
        "plan shows a lower cost estimate (%s vs %s), confirming the "
        "result. ",
        winner, FormatDouble(std::min(surface.tp.root_cost, surface.ap.root_cost)).c_str(),
        FormatDouble(std::max(surface.tp.root_cost, surface.ap.root_cost)).c_str());
  }
  text += Pick(h >> 7,
               {"Overall, these plan-level differences, rather than any "
                "single statistic, account for the gap you observed.",
                "Taken together, this explains the latency difference you "
                "measured between the two engines.",
                "These structural differences explain the observed "
                "performance gap."});
  return text;
}

LlmTiming ComputeTiming(const Prompt& prompt, const std::string& text,
                        const LlmPersona& persona) {
  LlmTiming t;
  t.prompt_tokens = prompt.ApproxTokens();
  t.output_tokens = ApproxTokenCount(text);
  t.thinking_ms = std::min(2000.0, static_cast<double>(t.prompt_tokens) *
                                       persona.thinking_token_ms);
  t.generation_ms = 1000.0 * static_cast<double>(t.output_tokens) /
                    static_cast<double>(std::max(persona.tokens_per_second, 1));
  return t;
}

}  // namespace htapex
