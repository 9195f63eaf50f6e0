#ifndef HTAPEX_OBS_EXPOSITION_H_
#define HTAPEX_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace htapex {

/// Label set for one metric sample, e.g. {{"span","generate"}}.
using ExpositionLabels = std::vector<std::pair<std::string, std::string>>;

/// Prometheus-text-format builder. Emits `# HELP` / `# TYPE` headers once
/// per metric family (on first use), then one sample line per call:
///
///   # HELP htapex_requests_total Requests submitted to the service
///   # TYPE htapex_requests_total counter
///   htapex_requests_total 128
///   htapex_span_latency_ms{span="generate",quantile="0.99"} 15234.1
///
/// Latency histograms are rendered as summaries (quantile-labelled samples
/// plus `_count` / `_sum`), the fixed-memory analogue of what
/// LatencyHistogram::Snap reconstructs.
class ExpositionBuilder {
 public:
  void Counter(const std::string& name, const std::string& help,
               uint64_t value, const ExpositionLabels& labels = {});
  void Gauge(const std::string& name, const std::string& help, double value,
             const ExpositionLabels& labels = {});
  /// One summary family; call repeatedly with different labels to emit
  /// several series (the help/type header is emitted once).
  void Summary(const std::string& name, const std::string& help,
               const LatencyHistogram::Snapshot& snap,
               const ExpositionLabels& labels = {});

  /// One sample of a stats group's field list under `prefix`: a counter,
  /// gauge or summary as MetricRow describes.
  void Field(std::string_view prefix, const MetricRow& row, uint64_t value);
  void Field(std::string_view prefix, const MetricRow& row, double value);
  void Field(std::string_view prefix, const MetricRow& row,
             const LatencyHistogram::Snapshot& value);

  const std::string& Text() const { return out_; }

 private:
  void Header(const std::string& name, const std::string& help,
              const char* type);
  void Sample(const std::string& name, const ExpositionLabels& labels,
              double value);

  std::string out_;
  std::vector<std::string> declared_;  // families with emitted headers
};

/// Family prefixes: a service's own page, and the sharded tier's page for
/// the service groups it merges across shards.
inline constexpr std::string_view kServicePrefix = "htapex_";
inline constexpr std::string_view kTierPrefix = "htapex_tier_";

/// Renders every field of a stats group (see MetricRow) under `prefix`.
template <typename Group>
void Expose(const Group& g, std::string_view prefix, ExpositionBuilder* b) {
  Group::ForEachField(
      [&](const MetricRow& row, const auto& cell) {
        b->Field(prefix, row, cell);
      },
      g);
}

/// A service's groups: its own fields, the result cache, resilience, and
/// durability and the lifecycle when enabled. The lifecycle phase is the
/// one hand-written sample: a labeled state gauge.
void Expose(const ServiceStats& s, std::string_view prefix,
            ExpositionBuilder* b);

/// One parsed sample line.
struct ExpositionSample {
  std::string name;
  ExpositionLabels labels;
  double value = 0.0;
};

/// Strict parser for the exposition format above — the CI drift check: the
/// renderer's output must round-trip through this, so a malformed quote,
/// bad metric name, or sample without a preceding `# TYPE` declaration
/// fails loudly instead of silently breaking scrapers.
///
/// Enforced: metric names match [a-zA-Z_:][a-zA-Z0-9_:]*; label syntax
/// `{k="v",...}` with \\, \" and \n escapes; values parse as finite
/// doubles ("NaN"/"+Inf"/"-Inf" accepted per the format); every sample's
/// family (modulo `_count`/`_sum`/`_bucket` suffixes) was declared by a
/// `# TYPE` line earlier in the text.
Result<std::vector<ExpositionSample>> ParseExposition(const std::string& text);

}  // namespace htapex

#endif  // HTAPEX_OBS_EXPOSITION_H_
