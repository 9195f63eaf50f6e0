#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace htapex {

namespace {

/// Upper bound of bucket i in milliseconds.
double BucketUpperMs(int i) {
  return LatencyHistogram::kMinMs * std::pow(2.0, i + 1);
}

double BucketLowerMs(int i) {
  return i == 0 ? 0.0 : LatencyHistogram::kMinMs * std::pow(2.0, i);
}

/// Quantile q (0..1) by linear interpolation within the containing bucket.
double QuantileFromBuckets(
    const std::array<uint64_t, LatencyHistogram::kNumBuckets>& buckets,
    uint64_t count, double q) {
  if (count == 0) return 0.0;
  double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    uint64_t in_bucket = buckets[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      double frac = (target - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket);
      double lo = BucketLowerMs(i), hi = BucketUpperMs(i);
      return lo + frac * (hi - lo);
    }
    seen += in_bucket;
  }
  return BucketUpperMs(LatencyHistogram::kNumBuckets - 1);
}

uint64_t ToNanos(double ms) {
  if (ms <= 0.0) return 0;
  return static_cast<uint64_t>(std::llround(ms * 1e6));
}

double ToMillis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

int LatencyHistogram::BucketOf(double ms) {
  if (ms <= kMinMs) return 0;
  int b = static_cast<int>(std::floor(std::log2(ms / kMinMs)));
  return std::clamp(b, 0, kNumBuckets - 1);
}

void LatencyHistogram::Record(double ms) {
  if (ms < 0.0 || !std::isfinite(ms)) ms = 0.0;
  buckets_[static_cast<size_t>(BucketOf(ms))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t ns = ToNanos(ms);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  uint64_t cur = min_ns_.load(std::memory_order_relaxed);
  while (ns < cur &&
         !min_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = max_ns_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  // Zero-sample guard: with no records, min_ns_ still holds its UINT64_MAX
  // sentinel and the quantile interpolation has nothing to interpolate —
  // return all-zero instead of leaking the sentinel into min/max/quantiles.
  if (s.count == 0) return s;
  for (int i = 0; i < kNumBuckets; ++i) {
    s.buckets[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  s.sum_ms = ToMillis(sum_ns_.load(std::memory_order_relaxed));
  uint64_t mn = min_ns_.load(std::memory_order_relaxed);
  s.min_ms = (mn == UINT64_MAX) ? 0.0 : ToMillis(mn);
  s.max_ms = ToMillis(max_ns_.load(std::memory_order_relaxed));
  // Bucket interpolation can overshoot the largest observed sample (the
  // estimate lands anywhere inside the containing bucket), so clamp
  // quantiles to the exact [min, max] tracked alongside the buckets.
  auto clamped = [&s](double q) {
    return std::min(std::max(QuantileFromBuckets(s.buckets, s.count, q),
                             s.min_ms),
                    s.max_ms);
  };
  s.p50_ms = clamped(0.50);
  s.p95_ms = clamped(0.95);
  s.p99_ms = clamped(0.99);
  return s;
}

LatencyHistogram::Snapshot LatencyHistogram::Merge(const Snapshot& a,
                                                   const Snapshot& b) {
  // Zero-sample sides contribute nothing; returning the other side verbatim
  // also preserves its exact min/max instead of mixing in zero sentinels.
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  Snapshot m;
  m.count = a.count + b.count;
  m.sum_ms = a.sum_ms + b.sum_ms;
  m.min_ms = std::min(a.min_ms, b.min_ms);
  m.max_ms = std::max(a.max_ms, b.max_ms);
  for (int i = 0; i < kNumBuckets; ++i) {
    m.buckets[static_cast<size_t>(i)] =
        a.buckets[static_cast<size_t>(i)] + b.buckets[static_cast<size_t>(i)];
  }
  auto clamped = [&m](double q) {
    return std::min(
        std::max(QuantileFromBuckets(m.buckets, m.count, q), m.min_ms),
        m.max_ms);
  };
  m.p50_ms = clamped(0.50);
  m.p95_ms = clamped(0.95);
  m.p99_ms = clamped(0.99);
  return m;
}

void AppendField(std::string* out, const char* field, uint64_t value) {
  if (!out->empty()) *out += ' ';
  *out += StrFormat("%s=%llu", field, static_cast<unsigned long long>(value));
}

void AppendField(std::string* out, const char* field, double value) {
  if (!out->empty()) *out += ' ';
  *out += StrFormat("%s=%.3f", field, value);
}

void AppendField(std::string* out, const char* field,
                 const LatencyHistogram::Snapshot& value) {
  if (!out->empty()) *out += ' ';
  *out += StrFormat(
      "%s=[n=%llu mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f ms]", field,
      static_cast<unsigned long long>(value.count), value.mean_ms(),
      value.p50_ms, value.p95_ms, value.p99_ms, value.max_ms);
}

std::string LifecycleStats::ToString() const {
  return "phase=" + (phase.empty() ? std::string("-") : phase) + " " +
         StatsToString(*this);
}

LifecycleStats MergeStats(const LifecycleStats& a, const LifecycleStats& b) {
  // The row-wise merge sums every field; the identity then follows the
  // newest snapshot instead.
  LifecycleStats m = MergeStats<LifecycleStats>(a, b);
  const LifecycleStats& newest = b.active_version > a.active_version ? b : a;
  m.active_version = newest.active_version;
  m.active_crc = newest.active_crc;
  // A newer snapshot's accuracies win outright. On a version tie (shards
  // clone one set of weights) each side counts by its feedback samples, so
  // an idle shard adds nothing.
  const bool tie = a.active_version == b.active_version;
  const double wa = tie ? static_cast<double>(a.feedback_samples)
                        : (&newest == &a ? 1.0 : 0.0);
  const double wb = tie ? static_cast<double>(b.feedback_samples) : 1.0 - wa;
  for (double LifecycleStats::*accuracy :
       {&LifecycleStats::serving_accuracy, &LifecycleStats::baseline_accuracy,
        &LifecycleStats::candidate_accuracy}) {
    m.*accuracy = wa + wb > 0.0
                      ? (a.*accuracy * wa + b.*accuracy * wb) / (wa + wb)
                      : a.*accuracy;
  }
  m.phase = a.phase == b.phase ? a.phase : "mixed";
  return m;
}

ServiceStats MergeStats(const ServiceStats& a, const ServiceStats& b) {
  // The row-wise merge covers the service's own fields; the groups it
  // fronts merge with their own lists.
  ServiceStats m = MergeStats<ServiceStats>(a, b);
  m.resilience = MergeStats(a.resilience, b.resilience);
  m.cache = MergeStats(a.cache, b.cache);
  m.durability_enabled = a.durability_enabled || b.durability_enabled;
  m.durability = MergeStats(a.durability, b.durability);
  m.lifecycle_enabled = a.lifecycle_enabled || b.lifecycle_enabled;
  if (a.lifecycle_enabled && b.lifecycle_enabled) {
    m.lifecycle = MergeStats(a.lifecycle, b.lifecycle);
  } else if (b.lifecycle_enabled) {
    m.lifecycle = b.lifecycle;
  }
  return m;
}

std::string ServiceStats::ToString() const {
  std::string out = "service: " + StatsToString(*this);
  out += "\ncache: " + StatsToString(cache) +
         StrFormat(" hit_rate=%.1f%%", 100.0 * cache_hit_rate());
  out += "\nresilience: " + resilience.ToString();
  if (durability_enabled) out += "\ndurability: " + durability.ToString();
  if (lifecycle_enabled) out += "\nlifecycle: " + lifecycle.ToString();
  return out;
}

}  // namespace htapex
