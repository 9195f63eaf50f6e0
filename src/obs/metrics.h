#ifndef HTAPEX_OBS_METRICS_H_
#define HTAPEX_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>

namespace htapex {

/// Lock-free monotonically increasing counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the counter. For between-run resets only (e.g. a bench
  /// reconfiguring fault rates) — not safe to interleave with Inc readers
  /// expecting monotonicity.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket latency histogram, safe for concurrent Record() from any
/// number of threads (all state is relaxed atomics — observability must
/// never serialize the hot path it observes).
///
/// Buckets are exponential: bucket i covers [kMinMs * 2^i, kMinMs * 2^(i+1))
/// milliseconds, spanning ~1 us to ~2 minutes; out-of-range samples clamp
/// into the first/last bucket. Quantiles are reconstructed from bucket
/// counts by linear interpolation, which is the usual fixed-memory
/// trade-off: exact counts and sums, approximate percentiles.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 28;
  static constexpr double kMinMs = 0.001;  // first bucket upper bound ~1 us

  /// Thread-safe; relaxed atomics only.
  void Record(double ms);

  struct Snapshot {
    uint64_t count = 0;
    double sum_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double mean_ms() const { return count == 0 ? 0.0 : sum_ms / count; }
  };

  /// Consistent-enough snapshot (individual fields are atomic; the set is
  /// not cut at one instant — fine for monitoring).
  Snapshot Snap() const;

  /// Merges two snapshots losslessly at the bucket level and recomputes the
  /// quantiles from the combined buckets. This is the only correct way to
  /// aggregate latency across shards: averaging per-shard p99s answers a
  /// different (and wrong) question, while bucket merge yields the exact
  /// histogram a single global recorder would have produced.
  static Snapshot Merge(const Snapshot& a, const Snapshot& b);

 private:
  static int BucketOf(double ms);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  // Sum/min/max kept in nanoseconds as integers: atomic fetch_add on
  // doubles is not lock-free everywhere, and nanosecond resolution is far
  // below anything we measure.
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> min_ns_{UINT64_MAX};
  std::atomic<uint64_t> max_ns_{0};
};

// ---------------------------------------------------------------------------
// Stats groups. Each group declares its fields once, and lists them once in
// a static ForEachField(f, g...) that calls
//   f(MetricRow{...}, g.field...)
// for every field, in lockstep over any number of group objects. The
// snapshot, merge, reset, ToString and Prometheus exposition (Expose in
// obs/exposition.h) are written once, over that list. A group with a live
// twin is a template on its cell type: Counter (and LatencyHistogram) in the
// live struct, uint64_t (and LatencyHistogram::Snapshot) in the snapshot.
// ---------------------------------------------------------------------------

/// How one field prints and exports. The Prometheus family is `family`
/// after the renderer's prefix ("htapex_"); rows sharing a family tell
/// their samples apart by one label. A family ending in `_total` is a
/// counter, any other scalar a gauge, a histogram a summary.
struct MetricRow {
  const char* field;  // the field's name, printed by ToString
  const char* family;
  const char* help;
  const char* label = nullptr;  // label key, e.g. "kind"
  const char* value = nullptr;  // label value, e.g. "timeout"
  /// The family under the tier prefix, when `family` is taken there by a
  /// tier-level metric of the same name.
  const char* tier_family = nullptr;
};

/// The rows of one labeled family: family, help and label key stated once,
/// e.g. `kind("llm_timeouts", "timeout")`.
struct LabeledFamily {
  const char* family;
  const char* help;
  const char* label;
  constexpr MetricRow operator()(const char* field, const char* value) const {
    return {field, family, help, label, value};
  }
};

/// The histogram cell that goes with a counter cell.
template <typename Cell>
using HistogramCell = std::conditional_t<std::is_same_v<Cell, Counter>,
                                         LatencyHistogram,
                                         LatencyHistogram::Snapshot>;

/// Snapshot of a live group: relaxed counter loads, histogram snapshots.
template <template <typename> class Group>
Group<uint64_t> LoadStats(const Group<Counter>& live) {
  Group<uint64_t> out;
  Group<uint64_t>::ForEachField(
      [](const MetricRow&, auto& cell, const auto& source) {
        if constexpr (std::is_same_v<std::decay_t<decltype(source)>,
                                     Counter>) {
          cell = source.Value();
        } else {
          cell = source.Snap();
        }
      },
      out, live);
  return out;
}

/// Merges two snapshots of one group (shards, incarnations): scalars add,
/// histograms merge bucket-wise. Fields outside the list come from `a`.
template <typename Group>
Group MergeStats(const Group& a, const Group& b) {
  Group out = a;
  Group::ForEachField(
      [](const MetricRow&, auto& cell, const auto& x, const auto& y) {
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(x)>>) {
          cell = x + y;
        } else {
          cell = LatencyHistogram::Merge(x, y);
        }
      },
      out, a, b);
  return out;
}

/// Zeroes every counter of a live group (between-run resets only; see
/// Counter::Reset).
template <typename Group>
void ResetStats(Group& live) {
  Group::ForEachField([](const MetricRow&, Counter& c) { c.Reset(); }, live);
}

/// Appends " field=value" (no leading space on an empty string).
void AppendField(std::string* out, const char* field, uint64_t value);
void AppendField(std::string* out, const char* field, double value);
void AppendField(std::string* out, const char* field,
                 const LatencyHistogram::Snapshot& value);

/// One line, `field=value` per field.
template <typename Group>
std::string StatsToString(const Group& g) {
  std::string out;
  Group::ForEachField(
      [&out](const MetricRow& row, const auto& cell) {
        AppendField(&out, row.field, cell);
      },
      g);
  return out;
}

/// Counters for the resilient LLM invocation path (retries, deadlines,
/// circuit breaker, degradation ladder). Updated by ResilientLlm and
/// HtapExplainer.
template <typename Cell>
struct BasicResilienceStats {
  Cell llm_attempts{};            // every simulated-LLM call attempt
  Cell llm_retries{};             // attempts beyond the first
  Cell llm_timeouts{};            // attempts abandoned at the deadline
  Cell llm_transient_errors{};    // injected transient dependency errors
  Cell llm_garbled{};             // responses rejected as garbled
  Cell llm_slow{};                // slow-generation faults absorbed
  Cell budget_exhausted{};        // calls stopped by the request budget
  Cell breaker_opens{};           // closed/half-open -> open transitions
  Cell breaker_half_opens{};      // open -> half-open transitions
  Cell breaker_closes{};          // half-open -> closed transitions
  Cell breaker_short_circuits{};  // calls rejected while open
  Cell fallbacks_baseline{};      // RAG exhausted -> DBG-PT baseline
  Cell fallbacks_plan_diff{};     // baseline exhausted -> plan-diff report
  Cell kb_insert_retries{};       // transient KB-write faults retried

  template <typename F, typename... G>
  static void ForEachField(F&& f, G&... g) {
    constexpr LabeledFamily kind{"llm_failures_total",
                                 "LLM attempt failures by kind", "kind"};
    constexpr LabeledFamily transition{"breaker_transitions_total",
                                       "Circuit-breaker state transitions",
                                       "transition"};
    constexpr LabeledFamily rung{"fallbacks_total",
                                 "Degradation-ladder fallbacks taken", "rung"};
    f(MetricRow{"llm_attempts", "llm_attempts_total",
                "Simulated-LLM call attempts"},
      g.llm_attempts...);
    f(MetricRow{"llm_retries", "llm_retries_total",
                "Attempts beyond the first"},
      g.llm_retries...);
    f(kind("llm_timeouts", "timeout"), g.llm_timeouts...);
    f(kind("llm_transient_errors", "transient"), g.llm_transient_errors...);
    f(kind("llm_garbled", "garbled"), g.llm_garbled...);
    f(MetricRow{"llm_slow", "llm_slow_total",
                "Slow-generation faults absorbed"},
      g.llm_slow...);
    f(MetricRow{"budget_exhausted", "budget_exhausted_total",
                "Calls stopped by the request budget"},
      g.budget_exhausted...);
    f(transition("breaker_opens", "open"), g.breaker_opens...);
    f(transition("breaker_half_opens", "half_open"), g.breaker_half_opens...);
    f(transition("breaker_closes", "close"), g.breaker_closes...);
    f(MetricRow{"breaker_short_circuits", "breaker_short_circuits_total",
                "Calls rejected while a breaker was open"},
      g.breaker_short_circuits...);
    f(rung("fallbacks_baseline", "baseline"), g.fallbacks_baseline...);
    f(rung("fallbacks_plan_diff", "plan_diff"), g.fallbacks_plan_diff...);
    f(MetricRow{"kb_insert_retries", "kb_insert_retries_total",
                "Transient KB-write faults retried"},
      g.kb_insert_retries...);
  }

  std::string ToString() const { return StatsToString(*this); }
};
using ResilienceMetrics = BasicResilienceStats<Counter>;
using ResilienceStats = BasicResilienceStats<uint64_t>;

/// Counters for the knowledge-base durability subsystem (src/durable/):
/// WAL traffic, snapshot lifecycle, and what recovery found. Updated by
/// DurableKnowledgeBase and its WalWriter.
template <typename Cell>
struct BasicDurabilityStats {
  Cell wal_appends{};         // records appended to the WAL
  Cell wal_fsyncs{};          // fsyncs issued on the active segment
  Cell wal_bytes{};           // payload + framing bytes appended
  Cell wal_rotations{};       // segment rotations (one per snapshot)
  Cell snapshots{};           // snapshots durably installed
  Cell snapshot_failures{};   // snapshot attempts aborted (fault/IO)
  Cell snapshot_fallbacks{};  // recoveries that skipped a corrupt newest
                              // snapshot for an older generation
  Cell replayed_records{};    // WAL records applied during recovery
  Cell truncated_records{};   // torn tails dropped during recovery
  Cell corrupt_records{};     // checksum/framing failures during replay
  Cell recoveries{};          // successful Open() recoveries
  Cell recovery_micros{};     // total recovery wall time, microseconds
  Cell gc_files{};            // superseded segments/snapshots deleted

  template <typename F, typename... G>
  static void ForEachField(F&& f, G&... g) {
    f(MetricRow{"wal_appends", "wal_appends_total", "WAL records appended"},
      g.wal_appends...);
    f(MetricRow{"wal_fsyncs", "wal_fsyncs_total", "WAL fsyncs issued"},
      g.wal_fsyncs...);
    f(MetricRow{"wal_bytes", "wal_bytes_total", "WAL bytes appended"},
      g.wal_bytes...);
    f(MetricRow{"wal_rotations", "wal_rotations_total",
                "WAL segment rotations"},
      g.wal_rotations...);
    f(MetricRow{"snapshots", "snapshots_total", "Snapshots durably installed"},
      g.snapshots...);
    f(MetricRow{"snapshot_failures", "snapshot_failures_total",
                "Snapshot attempts aborted"},
      g.snapshot_failures...);
    f(MetricRow{"snapshot_fallbacks", "snapshot_fallbacks_total",
                "Recoveries that skipped a corrupt newest snapshot"},
      g.snapshot_fallbacks...);
    f(MetricRow{"replayed_records", "replayed_records_total",
                "WAL records applied during recovery"},
      g.replayed_records...);
    f(MetricRow{"truncated_records", "truncated_records_total",
                "Torn WAL tails dropped during recovery"},
      g.truncated_records...);
    f(MetricRow{"corrupt_records", "corrupt_records_total",
                "WAL checksum or framing failures during recovery"},
      g.corrupt_records...);
    f(MetricRow{"recoveries", "recoveries_total",
                "Successful startup recoveries"},
      g.recoveries...);
    f(MetricRow{"recovery_micros", "recovery_micros_total",
                "Recovery wall time, microseconds"},
      g.recovery_micros...);
    f(MetricRow{"gc_files", "gc_files_total",
                "Superseded WAL segments and snapshots deleted"},
      g.gc_files...);
  }

  std::string ToString() const { return StatsToString(*this); }
};
using DurabilityMetrics = BasicDurabilityStats<Counter>;
using DurabilityStats = BasicDurabilityStats<uint64_t>;

/// Point-in-time view of one ModelLifecycleManager (src/lifecycle/): the
/// retrain → shadow → swap → watch loop's counters plus the identity of the
/// serving snapshot. Produced under the manager's lock (plain values, no
/// atomics).
struct LifecycleStats {
  std::string phase;               // state-machine phase (labeled gauge)
  uint64_t active_version = 0;     // serving frozen-snapshot version
  uint64_t active_crc = 0;         // serving frozen-snapshot CRC32
  uint64_t feedback_samples = 0;   // execution-feedback samples recorded
  uint64_t feedback_wal_failures = 0;  // feedback appends lost (wedged log)
  uint64_t drift_detections = 0;
  uint64_t retrains = 0;           // candidate retrains completed
  uint64_t retrain_failures = 0;   // retrain.fail aborts
  uint64_t shadow_runs = 0;        // shadow scorings completed
  uint64_t shadow_rejects = 0;     // candidates rejected by the gate
  uint64_t shadow_stalls = 0;      // shadow.stall beats absorbed
  uint64_t shadow_aborts = 0;      // shadow runs abandoned (too many stalls)
  uint64_t swaps = 0;              // snapshots published over live traffic
  uint64_t swap_failures = 0;      // swap.publish aborts
  uint64_t rollbacks = 0;          // regressions rolled back (incl. manual)
  uint64_t kb_expired = 0;         // stale KB entries expired by curation
  uint64_t kb_backfilled = 0;      // entries re-annotated and re-inserted
  double serving_accuracy = 0.0;   // latest windowed serving accuracy
  double baseline_accuracy = 0.0;  // high-water accuracy since last swap
  double candidate_accuracy = 0.0; // latest shadow-scored candidate

  template <typename F, typename... G>
  static void ForEachField(F&& f, G&... g) {
    constexpr LabeledFamily event{"lifecycle_events_total",
                                  "Model-lifecycle events by kind", "event"};
    constexpr LabeledFamily series{"lifecycle_accuracy",
                                   "Windowed router accuracy by series",
                                   "series"};
    f(MetricRow{"active_version", "lifecycle_active_version",
                "Serving frozen-snapshot version"},
      g.active_version...);
    f(MetricRow{"active_crc", "lifecycle_active_crc",
                "Serving frozen-snapshot CRC32"},
      g.active_crc...);
    f(MetricRow{"feedback_samples", "lifecycle_feedback_samples_total",
                "Execution-feedback samples recorded"},
      g.feedback_samples...);
    f(MetricRow{"feedback_wal_failures",
                "lifecycle_feedback_wal_failures_total",
                "Feedback appends lost to a wedged log"},
      g.feedback_wal_failures...);
    f(event("drift_detections", "drift_detected"), g.drift_detections...);
    f(event("retrains", "retrain"), g.retrains...);
    f(event("retrain_failures", "retrain_failure"), g.retrain_failures...);
    f(event("shadow_runs", "shadow_run"), g.shadow_runs...);
    f(event("shadow_rejects", "shadow_reject"), g.shadow_rejects...);
    f(event("shadow_stalls", "shadow_stall"), g.shadow_stalls...);
    f(event("shadow_aborts", "shadow_abort"), g.shadow_aborts...);
    f(event("swaps", "swap"), g.swaps...);
    f(event("swap_failures", "swap_failure"), g.swap_failures...);
    f(event("rollbacks", "rollback"), g.rollbacks...);
    f(event("kb_expired", "kb_expired"), g.kb_expired...);
    f(event("kb_backfilled", "kb_backfilled"), g.kb_backfilled...);
    f(series("serving_accuracy", "serving"), g.serving_accuracy...);
    f(series("baseline_accuracy", "baseline"), g.baseline_accuracy...);
    f(series("candidate_accuracy", "candidate"), g.candidate_accuracy...);
  }

  std::string ToString() const;
};

/// Fleet aggregation: counters sum; the snapshot identity (version/CRC) and
/// accuracies follow the input with the highest version (per-shard routers
/// version independently — the merged identity is "the newest anywhere");
/// on a version tie the accuracies are averaged weighted by
/// feedback_samples; phase is kept only when both agree, "mixed"
/// otherwise.
LifecycleStats MergeStats(const LifecycleStats& a, const LifecycleStats& b);

/// Result-cache events and residency (ExplainCache::Stats), counted under
/// the cache's mutex.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t size = 0;  // resident entries

  template <typename F, typename... G>
  static void ForEachField(F&& f, G&... g) {
    constexpr LabeledFamily event{"cache_events_total", "Result-cache events",
                                  "event"};
    f(event("hits", "hit"), g.hits...);
    f(event("misses", "miss"), g.misses...);
    f(event("insertions", "insertion"), g.insertions...);
    f(event("evictions", "eviction"), g.evictions...);
    f(MetricRow{"size", "cache_entries", "Result-cache resident entries"},
      g.size...);
  }
};

/// Service-level counters and stage latencies, updated by ExplainService
/// workers.
template <typename Cell>
struct BasicServiceStats {
  Cell requests{};          // submitted to the service
  Cell completed{};         // finished (ok or error)
  Cell errors{};            // bind/plan failures etc.
  Cell kb_inserts{};        // expert-loop corrections incorporated
  Cell early_rejections{};  // over-budget requests rejected at dequeue
  // Degradation mix (see DegradationLevel in core/htap_explainer.h).
  Cell degraded_full{};
  Cell degraded_baseline{};
  Cell degraded_plan_diff{};
  Cell degraded_failed{};  // errors + early rejections

  HistogramCell<Cell> encode{};        // router embedding
  HistogramCell<Cell> cache_lookup{};  // result-cache probe
  HistogramCell<Cell> kb_search{};     // knowledge-base retrieval
  HistogramCell<Cell> generate{};      // simulated LLM thinking + generation
  HistogramCell<Cell> end_to_end{};    // full per-request latency

  template <typename F, typename... G>
  static void ForEachField(F&& f, G&... g) {
    constexpr LabeledFamily level{
        "degraded_total", "Completed requests by degradation-ladder rung",
        "level"};
    constexpr LabeledFamily stage{"stage_latency_ms",
                                  "Service stage latency summaries", "stage"};
    f(MetricRow{.field = "requests",
                .family = "requests_total",
                .help = "Requests submitted to the service",
                .tier_family = "shard_requests_total"},
      g.requests...);
    f(MetricRow{"completed", "completed_total",
                "Requests finished (ok or error)"},
      g.completed...);
    f(MetricRow{"errors", "errors_total",
                "Requests failed in bind/plan/explain"},
      g.errors...);
    f(MetricRow{"kb_inserts", "kb_inserts_total",
                "Expert corrections incorporated into the knowledge base"},
      g.kb_inserts...);
    f(MetricRow{"early_rejections", "early_rejections_total",
                "Over-budget requests shed at dequeue"},
      g.early_rejections...);
    f(level("degraded_full", "full"), g.degraded_full...);
    f(level("degraded_baseline", "baseline"), g.degraded_baseline...);
    f(level("degraded_plan_diff", "plan_diff"), g.degraded_plan_diff...);
    f(level("degraded_failed", "failed"), g.degraded_failed...);
    f(stage("encode", "encode"), g.encode...);
    f(stage("cache_lookup", "cache_lookup"), g.cache_lookup...);
    f(stage("kb_search", "kb_search"), g.kb_search...);
    f(stage("generate", "generate"), g.generate...);
    f(stage("end_to_end", "end_to_end"), g.end_to_end...);
  }
};
using ServiceMetrics = BasicServiceStats<Counter>;

/// Point-in-time view of one service: its own counters and stage
/// latencies plus the snapshots of the groups it fronts.
struct ServiceStats : BasicServiceStats<uint64_t> {
  /// The explainer's resilience counters (retries, breaker transitions,
  /// fallbacks) taken alongside the service counters.
  ResilienceStats resilience{};
  /// The result cache's own counters: the one count of hits and misses.
  ResultCacheStats cache{};

  /// Durability counters (WAL/snapshot/recovery) when the service fronts a
  /// DurableKnowledgeBase; all-zero (and not printed) otherwise.
  bool durability_enabled = false;
  DurabilityStats durability{};

  /// Model-lifecycle counters when the service runs a ModelLifecycleManager
  /// (ServiceConfig::lifecycle.enabled); all-zero (not printed) otherwise.
  bool lifecycle_enabled = false;
  LifecycleStats lifecycle{};

  double cache_hit_rate() const {
    uint64_t probes = cache.hits + cache.misses;
    return probes == 0 ? 0.0 : static_cast<double>(cache.hits) / probes;
  }

  /// Multi-line human-readable summary (used by the CLI and bench).
  std::string ToString() const;
};

/// Aggregates per-shard ServiceStats into fleet-level stats: every group
/// merges with MergeStats; durability and lifecycle are enabled if either
/// input had them.
ServiceStats MergeStats(const ServiceStats& a, const ServiceStats& b);

}  // namespace htapex

#endif  // HTAPEX_OBS_METRICS_H_
