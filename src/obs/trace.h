#ifndef HTAPEX_OBS_TRACE_H_
#define HTAPEX_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "obs/metrics.h"

namespace htapex {

/// Canonical span names — the request-pipeline taxonomy. Every stage of an
/// explanation request reports under one of these, so per-span latency
/// histograms have a fixed, greppable vocabulary (see TraceMetrics).
namespace spanname {
inline constexpr const char* kQueueWait = "queue_wait";      // service queue
inline constexpr const char* kParse = "parse";               // SQL -> AST
inline constexpr const char* kBind = "bind";                 // AST -> bound
inline constexpr const char* kTpOptimize = "tp_optimize";    // row-store plan
inline constexpr const char* kApOptimize = "ap_optimize";    // column plan
inline constexpr const char* kRoute = "route";               // latency model
inline constexpr const char* kEmbed = "embed";               // plan-pair enc.
inline constexpr const char* kCacheLookup = "cache_lookup";  // result cache
inline constexpr const char* kAnalyze = "analyze";           // expert truth
inline constexpr const char* kRetrieve = "retrieve";         // KB search
inline constexpr const char* kPrompt = "prompt";             // Table I build
inline constexpr const char* kGenerate = "generate";         // LLM ladder
inline constexpr const char* kGrade = "grade";               // expert grading
inline constexpr const char* kKbInsert = "kb_insert";        // feedback loop
inline constexpr const char* kTotal = "total";               // whole request

/// The taxonomy in histogram order.
inline constexpr std::array<const char*, 15> kAll = {
    kQueueWait, kParse,    kBind,        kTpOptimize, kApOptimize,
    kRoute,     kEmbed,    kCacheLookup, kAnalyze,    kRetrieve,
    kPrompt,    kGenerate, kGrade,       kKbInsert,   kTotal,
};
}  // namespace spanname

/// A point-in-time annotation on a span: retry attempts, breaker
/// short-circuits, degradation-ladder steps.
struct SpanEvent {
  std::string name;
  std::string detail;
  double at_ms = 0.0;  // request-relative timeline position
};

/// One named, timed stage of a request. Durations live on a single
/// request-relative timeline that mixes measured wall time (parse, bind,
/// optimize, embed, cache probe, retrieval) with simulated time (the
/// modelled LLM round trips) — exactly the mix ExplainResult::end_to_end_ms
/// already reports, so a trace decomposes that number span by span.
struct Span {
  std::string name;
  int parent = -1;  // index into Trace::spans(); -1 = root
  double start_ms = 0.0;
  double dur_ms = 0.0;
  /// True when the duration came from the simulated clock. Simulated
  /// durations are pure functions of (seed, SQL, fault spec) and are part
  /// of the deterministic tree signature; wall durations vary run to run
  /// and are excluded from it.
  bool simulated = false;
  bool open = false;
  std::vector<SpanEvent> events;
};

/// Per-request trace: an ordered tree of named spans over one request
/// timeline. NOT thread-safe — a trace belongs to exactly one request and
/// is written by the single worker processing it; publish it (const) via
/// TraceRing after completion.
class Trace {
 public:
  Trace() = default;
  Trace(uint64_t id, std::string label) : id_(id), label_(std::move(label)) {}

  /// Opens a span at the current timeline position (child of the innermost
  /// open span). Returns its index.
  int Begin(std::string name);

  /// Advances the request timeline (the time is attributed to whichever
  /// spans are open when they End). Simulated-LLM code calls this with
  /// simulated milliseconds; wall-timed stages with measured ones.
  void Advance(double ms);

  /// Closes span `span`: duration = timeline now - span start. Set
  /// `simulated` when the elapsed timeline time came from the simulated
  /// clock (it then participates in the deterministic signature).
  void End(int span, bool simulated = false);

  /// Begin + Advance(dur_ms) + End in one call, for stages timed
  /// externally (e.g. the router's measured encode_ms).
  int AddSpan(std::string name, double dur_ms, bool simulated);

  /// Attaches an event to the innermost open span (or as a rootless
  /// annotation on the most recent span when none is open).
  void Event(std::string name, std::string detail = {});

  double now_ms() const { return now_ms_; }
  /// Whole-request duration (the timeline position after the last span).
  double total_ms() const { return now_ms_; }
  /// Sum of leaf-span durations — the part of the request accounted to a
  /// named stage. CoveredMs()/total_ms() is the coverage ratio the
  /// acceptance bar holds above 95%.
  double CoveredMs() const;

  const std::vector<Span>& spans() const { return spans_; }
  const Span* Find(const std::string& name) const;
  uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }

  /// Human-readable span tree (CLI `\trace`, slow-request log).
  std::string ToString() const;

  /// Deterministic serialization of the tree: names, nesting, events, and
  /// simulated durations — but NOT wall durations. Two runs of the same
  /// (seed, SQL, fault spec) produce byte-identical signatures; this is
  /// what the determinism tests compare.
  std::string TreeSignature() const;

 private:
  uint64_t id_ = 0;
  std::string label_;
  double now_ms_ = 0.0;
  std::vector<Span> spans_;
  std::vector<int> open_stack_;
};

/// Wall-timed scoped span: opens on construction, measures real elapsed
/// time and closes on Finish()/destruction. Null-trace safe (no-op), so
/// call sites do not need to guard.
class ScopedWallSpan {
 public:
  ScopedWallSpan(Trace* trace, const char* name) : trace_(trace) {
    if (trace_ != nullptr) span_ = trace_->Begin(name);
  }
  ~ScopedWallSpan() { Finish(); }
  ScopedWallSpan(const ScopedWallSpan&) = delete;
  ScopedWallSpan& operator=(const ScopedWallSpan&) = delete;

  void Finish() {
    if (trace_ == nullptr || done_) return;
    done_ = true;
    trace_->Advance(timer_.ElapsedMillis());
    trace_->End(span_);
  }

 private:
  Trace* trace_;
  int span_ = -1;
  bool done_ = false;
  WallTimer timer_;
};

/// Trace counters plus one latency histogram per canonical span, in
/// spanname::kAll order: the one declaration behind TraceMetrics (live)
/// and TraceMetrics::Stats.
template <typename Cell>
struct BasicTraceStats {
  Cell traces{};         // completed traces recorded
  Cell slow_traces{};    // above the service's slow-request threshold
  Cell unknown_spans{};  // span names outside the canonical taxonomy
  std::array<HistogramCell<Cell>, spanname::kAll.size()> spans{};

  template <typename F, typename... G>
  static void ForEachField(F&& f, G&... g) {
    f(MetricRow{"traces", "traces_recorded_total", "Completed request traces"},
      g.traces...);
    f(MetricRow{"slow_traces", "slow_traces_total",
                "Traces above the slow-request threshold"},
      g.slow_traces...);
    f(MetricRow{"unknown_spans", "unknown_spans_total",
                "Spans recorded outside the canonical taxonomy"},
      g.unknown_spans...);
    for (size_t i = 0; i < spanname::kAll.size(); ++i) {
      f(MetricRow{spanname::kAll[i], "span_latency_ms",
                  "Per-span latency summaries from request traces", "span",
                  spanname::kAll[i]},
        g.spans[i]...);
    }
  }
};

/// Per-span latency histograms over the canonical taxonomy, fed by every
/// completed trace. Relaxed atomics throughout (same contract as the rest
/// of obs/): recording never serializes the request path it observes.
class TraceMetrics : public BasicTraceStats<Counter> {
 public:
  using Stats = BasicTraceStats<uint64_t>;
  static constexpr int kNumSpanNames = static_cast<int>(spanname::kAll.size());
  static const std::array<const char*, kNumSpanNames>& SpanNames() {
    return spanname::kAll;
  }

  /// Records every span of a completed trace plus a synthetic "total".
  void Record(const Trace& trace);
  /// Records one duration under a canonical span name (e.g. kb_insert,
  /// which runs outside any request trace).
  void RecordSpan(const char* name, double ms);

  Stats Snap() const { return LoadStats<BasicTraceStats>(*this); }

 private:
  static int IndexOf(const std::string& name);
};

/// Ring of the last N completed traces (the service's flight recorder).
/// One mutex guards the slots: a Push holds it for one shared_ptr move, a
/// Recent() snapshot for N shared_ptr copies. Safe to call concurrently.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Push(std::shared_ptr<const Trace> trace);

  /// Newest-first snapshot of the traces pushed so far (at most capacity).
  std::vector<std::shared_ptr<const Trace>> Recent() const;

  size_t capacity() const { return slots_.size(); }

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const Trace>> slots_;
  uint64_t pushed_ = 0;  // total pushes; the next slot is pushed_ % capacity
};

}  // namespace htapex

#endif  // HTAPEX_OBS_TRACE_H_
