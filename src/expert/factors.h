#ifndef HTAPEX_EXPERT_FACTORS_H_
#define HTAPEX_EXPERT_FACTORS_H_

#include <string>
#include <vector>

namespace htapex {

/// The performance-factor taxonomy: the root causes a database expert cites
/// when explaining why one engine's plan beats the other's. Expert-curated
/// knowledge-base explanations, simulated-LLM outputs, and the grader all
/// speak this vocabulary.
enum class PerfFactor {
  kNoIndexNestedLoop,        // TP rescans the inner table per outer row
  kIndexProbeJoinLargeOuter, // TP index NLJ pays a probe per (many) outer rows
  kHashJoinAdvantage,        // AP builds once and probes in bulk
  kColumnarScanWidth,        // AP reads only the referenced columns
  kHashAggLargeInput,        // AP hash aggregation over a large input
  kIndexPointLookup,         // TP B+-tree lookup touches a handful of rows
  kTopNIndexOrderStreaming,  // TP streams index order, stops at LIMIT
  kFullSortVsTopN,           // TP fully sorts what AP keeps in a bounded heap
  kLargeOffsetScan,          // a large OFFSET negates early termination
  kApStartupOverhead,        // AP's distributed dispatch dominates tiny work
  kFunctionDefeatsIndex,     // function over an indexed column blocks the index
  kBadJoinOrder,             // greedy join order blows up an intermediate
  kMissingSift,              // no Bloom-filter predicate transfer on the probe
};

/// Stable identifier, e.g. "no_index_nested_loop".
const char* PerfFactorId(PerfFactor f);

/// Canonical natural-language phrase for the factor. Expert explanations
/// and the simulated LLM's realizer embed these phrases, which is what
/// makes factor claims recoverable from explanation *text* (the only thing
/// a real LLM pipeline exchanges).
const char* PerfFactorPhrase(PerfFactor f);

/// All factors, for enumeration.
std::vector<PerfFactor> AllPerfFactors();

/// Scans a free-text explanation for canonical factor phrases.
std::vector<PerfFactor> ExtractFactorsFromText(const std::string& text);

}  // namespace htapex

#endif  // HTAPEX_EXPERT_FACTORS_H_
