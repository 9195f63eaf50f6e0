#include "expert/factors.h"

#include "common/string_util.h"

namespace htapex {

const char* PerfFactorId(PerfFactor f) {
  switch (f) {
    case PerfFactor::kNoIndexNestedLoop:
      return "no_index_nested_loop";
    case PerfFactor::kIndexProbeJoinLargeOuter:
      return "index_probe_join_large_outer";
    case PerfFactor::kHashJoinAdvantage:
      return "hash_join_advantage";
    case PerfFactor::kColumnarScanWidth:
      return "columnar_scan_width";
    case PerfFactor::kHashAggLargeInput:
      return "hash_agg_large_input";
    case PerfFactor::kIndexPointLookup:
      return "index_point_lookup";
    case PerfFactor::kTopNIndexOrderStreaming:
      return "topn_index_order_streaming";
    case PerfFactor::kFullSortVsTopN:
      return "full_sort_vs_topn";
    case PerfFactor::kLargeOffsetScan:
      return "large_offset_scan";
    case PerfFactor::kApStartupOverhead:
      return "ap_startup_overhead";
    case PerfFactor::kFunctionDefeatsIndex:
      return "function_defeats_index";
    case PerfFactor::kBadJoinOrder:
      return "bad_join_order";
    case PerfFactor::kMissingSift:
      return "missing_sift";
  }
  return "?";
}

const char* PerfFactorPhrase(PerfFactor f) {
  switch (f) {
    case PerfFactor::kNoIndexNestedLoop:
      return "nested loop join with no usable index on the join column";
    case PerfFactor::kIndexProbeJoinLargeOuter:
      return "one index probe per outer row across a large outer input";
    case PerfFactor::kHashJoinAdvantage:
      return "hash join builds once and probes in bulk";
    case PerfFactor::kColumnarScanWidth:
      return "column-oriented storage reads only the referenced columns";
    case PerfFactor::kHashAggLargeInput:
      return "hash aggregation digests the large input efficiently";
    case PerfFactor::kIndexPointLookup:
      return "B+-tree index lookup touches only a handful of rows";
    case PerfFactor::kTopNIndexOrderStreaming:
      return "index delivers rows already in order so LIMIT stops the scan early";
    case PerfFactor::kFullSortVsTopN:
      return "full sort of the input where a bounded top-N heap suffices";
    case PerfFactor::kLargeOffsetScan:
      return "large OFFSET forces reading far past the first matches";
    case PerfFactor::kApStartupOverhead:
      return "distributed dispatch overhead dominates such a small amount of work";
    case PerfFactor::kFunctionDefeatsIndex:
      return "applying a function to the indexed column prevents index use";
    case PerfFactor::kBadJoinOrder:
      return "join order inflates an intermediate result far beyond the final "
             "output";
    case PerfFactor::kMissingSift:
      return "no Bloom filter sifts the probe side before the join";
  }
  return "?";
}

std::vector<PerfFactor> AllPerfFactors() {
  return {PerfFactor::kNoIndexNestedLoop,
          PerfFactor::kIndexProbeJoinLargeOuter,
          PerfFactor::kHashJoinAdvantage,
          PerfFactor::kColumnarScanWidth,
          PerfFactor::kHashAggLargeInput,
          PerfFactor::kIndexPointLookup,
          PerfFactor::kTopNIndexOrderStreaming,
          PerfFactor::kFullSortVsTopN,
          PerfFactor::kLargeOffsetScan,
          PerfFactor::kApStartupOverhead,
          PerfFactor::kFunctionDefeatsIndex,
          PerfFactor::kBadJoinOrder,
          PerfFactor::kMissingSift};
}

std::vector<PerfFactor> ExtractFactorsFromText(const std::string& text) {
  std::vector<PerfFactor> out;
  for (PerfFactor f : AllPerfFactors()) {
    if (ContainsIgnoreCase(text, PerfFactorPhrase(f))) out.push_back(f);
  }
  return out;
}

}  // namespace htapex
