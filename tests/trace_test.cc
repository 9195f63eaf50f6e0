#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/htap_explainer.h"
#include "durable/durable_kb.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/explain_service.h"

namespace htapex {
namespace {

/// Shared expensive fixture: plan-only system + trained explainer with the
/// default 20-entry knowledge base (same shape as service_test's).
class TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new HtapSystem();
    HtapConfig config;
    config.data_scale_factor = 0.0;
    ASSERT_TRUE(system_->Init(config).ok());
    explainer_ = new HtapExplainer(system_, ExplainerConfig{});
    auto train = explainer_->TrainRouter();
    ASSERT_TRUE(train.ok()) << train.status();
    ASSERT_TRUE(explainer_->BuildDefaultKnowledgeBase().ok());
  }
  static void TearDownTestSuite() {
    delete explainer_;
    delete system_;
    explainer_ = nullptr;
    system_ = nullptr;
  }
  static HtapSystem* system_;
  static HtapExplainer* explainer_;
};

HtapSystem* TraceTest::system_ = nullptr;
HtapExplainer* TraceTest::explainer_ = nullptr;

const char kSql[] = "SELECT c_name FROM customer WHERE c_custkey = 42";
const char kSql2[] =
    "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10";

TEST(TraceApiTest, SpanNestingTimelineAndCoverage) {
  Trace trace(7, "label");
  int outer = trace.Begin("outer");
  trace.Advance(1.0);
  int inner = trace.Begin("inner");
  trace.Advance(2.0);
  trace.Event("note", "detail");
  trace.End(inner, /*simulated=*/true);
  trace.Advance(3.0);
  trace.End(outer);
  trace.AddSpan("tail", 4.0, /*simulated=*/false);

  ASSERT_EQ(trace.spans().size(), 3u);
  const Span& s_outer = trace.spans()[0];
  const Span& s_inner = trace.spans()[1];
  const Span& s_tail = trace.spans()[2];
  EXPECT_EQ(s_outer.parent, -1);
  EXPECT_EQ(s_inner.parent, 0);
  EXPECT_EQ(s_tail.parent, -1);
  EXPECT_DOUBLE_EQ(s_outer.dur_ms, 6.0);
  EXPECT_DOUBLE_EQ(s_inner.dur_ms, 2.0);
  EXPECT_TRUE(s_inner.simulated);
  EXPECT_FALSE(s_outer.simulated);
  ASSERT_EQ(s_inner.events.size(), 1u);
  EXPECT_EQ(s_inner.events[0].name, "note");
  EXPECT_DOUBLE_EQ(s_inner.events[0].at_ms, 3.0);
  EXPECT_DOUBLE_EQ(trace.total_ms(), 10.0);
  // Leaf coverage: inner (2) + tail (4); outer is composite.
  EXPECT_DOUBLE_EQ(trace.CoveredMs(), 6.0);
  ASSERT_NE(trace.Find("inner"), nullptr);
  EXPECT_EQ(trace.Find("nope"), nullptr);
  // ToString renders every span and the event.
  std::string text = trace.ToString();
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("(sim)"), std::string::npos);
  EXPECT_NE(text.find("* note: detail"), std::string::npos);
}

TEST(TraceApiTest, EndUnwindsForgottenChildren) {
  Trace trace;
  int outer = trace.Begin("outer");
  trace.Begin("forgotten");
  trace.Advance(1.0);
  trace.End(outer);  // must unwind "forgotten" from the open stack too
  int next = trace.Begin("next");
  EXPECT_EQ(trace.spans()[static_cast<size_t>(next)].parent, -1);
}

TEST_F(TraceTest, FreshRequestTraceDecomposesEndToEnd) {
  ExplainService service(explainer_, ServiceConfig{});
  auto r = service.ExplainSync(kSql);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r->trace, nullptr);
  const Trace& trace = *r->trace;

  // The acceptance bar: >= 8 named spans covering >= 95% of the request.
  EXPECT_GE(trace.spans().size(), 8u);
  for (const char* name :
       {spanname::kQueueWait, spanname::kParse, spanname::kBind,
        spanname::kTpOptimize, spanname::kApOptimize, spanname::kRoute,
        spanname::kEmbed, spanname::kCacheLookup, spanname::kAnalyze,
        spanname::kRetrieve, spanname::kPrompt, spanname::kGenerate,
        spanname::kGrade}) {
    EXPECT_NE(trace.Find(name), nullptr) << "missing span " << name;
  }
  double denom = std::max(trace.total_ms(), r->end_to_end_ms());
  ASSERT_GT(denom, 0.0);
  EXPECT_GE(trace.CoveredMs() / denom, 0.95) << trace.ToString();

  // Spans recorded from measured values carry those values (to timeline
  // accumulation rounding)...
  EXPECT_NEAR(trace.Find(spanname::kEmbed)->dur_ms, r->router_encode_ms, 1e-9);
  EXPECT_NEAR(trace.Find(spanname::kCacheLookup)->dur_ms, r->cache_lookup_ms,
              1e-9);
  EXPECT_NEAR(trace.Find(spanname::kRetrieve)->dur_ms, r->retrieval.search_ms,
              1e-9);
  // ...and the generate span's simulated duration equals the LLM chain's
  // total cost (generation time + resilience overhead).
  const Span* generate = trace.Find(spanname::kGenerate);
  EXPECT_TRUE(generate->simulated);
  EXPECT_NEAR(generate->dur_ms,
              r->generation.timing.total_ms() + r->resilience_ms, 1e-6);
}

TEST_F(TraceTest, CacheHitTraceStopsAtTheProbe) {
  ExplainService service(explainer_, ServiceConfig{});
  ASSERT_TRUE(service.ExplainSync(kSql2).ok());
  auto hit = service.ExplainSync(kSql2);
  ASSERT_TRUE(hit.ok()) << hit.status();
  ASSERT_TRUE(hit->from_cache);
  ASSERT_NE(hit->trace, nullptr);
  const Trace& trace = *hit->trace;
  // The hit path still satisfies the >= 8 span bar, ends at the probe...
  EXPECT_GE(trace.spans().size(), 8u);
  EXPECT_EQ(trace.Find(spanname::kGenerate), nullptr);
  EXPECT_EQ(trace.Find(spanname::kRetrieve), nullptr);
  // ...and marks the hit as an event on the probe span.
  const Span* probe = trace.Find(spanname::kCacheLookup);
  ASSERT_NE(probe, nullptr);
  ASSERT_EQ(probe->events.size(), 1u);
  EXPECT_EQ(probe->events[0].name, "cache_hit");
}

TEST_F(TraceTest, TracingDisabledYieldsNoTrace) {
  ServiceConfig config;
  config.tracing = false;
  ExplainService service(explainer_, config);
  auto r = service.ExplainSync(kSql);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->trace, nullptr);
  EXPECT_TRUE(service.RecentTraces().empty());
  EXPECT_EQ(service.TraceSnapshot().traces, 0u);
}

TEST_F(TraceTest, SameSeedSameFaultsSameSignature) {
  // A trace's signature (names, nesting, events, simulated durations) is a
  // pure function of (seed, SQL, fault spec): wall time is excluded, fault
  // and backoff draws are keyed deterministically, and ConfigureFaults
  // resets breakers and simulated clocks between runs.
  const std::string spec = "llm.transient_error:p=0.6;llm.timeout:p=0.2";
  auto run = [&](Trace* trace) {
    EXPECT_TRUE(explainer_->ConfigureFaults(spec, 1337).ok());
    auto r = explainer_->Explain(kSql, trace);
    ASSERT_TRUE(r.ok()) << r.status();
  };
  Trace first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first.TreeSignature(), second.TreeSignature());
  // Under 60%/20% fault pressure the ladder must have left retry events in
  // the signature — otherwise this test degenerates to comparing two
  // fault-free traces.
  EXPECT_NE(first.TreeSignature().find("attempt"), std::string::npos)
      << first.TreeSignature();
  // Restore a fault-free explainer for later tests sharing the fixture.
  ASSERT_TRUE(explainer_->ConfigureFaults("off", 42).ok());
}

TEST_F(TraceTest, DifferentFaultSeedsChangeTheSignature) {
  const std::string spec = "llm.transient_error:p=0.5";
  Trace first, second;
  ASSERT_TRUE(explainer_->ConfigureFaults(spec, 1).ok());
  ASSERT_TRUE(explainer_->Explain(kSql, &first).ok());
  ASSERT_TRUE(explainer_->ConfigureFaults(spec, 2).ok());
  ASSERT_TRUE(explainer_->Explain(kSql, &second).ok());
  // Different seeds draw different fault transcripts; the signatures are
  // overwhelmingly likely to differ (p=0.5 per attempt). If this ever
  // flakes the spec's rate should go up, not the assertion away.
  EXPECT_NE(first.TreeSignature(), second.TreeSignature());
  ASSERT_TRUE(explainer_->ConfigureFaults("off", 42).ok());
}

TEST_F(TraceTest, SlowTraceThresholdCountsAndKeepsServing) {
  ServiceConfig config;
  config.slow_trace_ms = 1e-9;  // everything is "slow"
  ExplainService service(explainer_, config);
  ASSERT_TRUE(service.ExplainSync(kSql).ok());
  ASSERT_TRUE(service.ExplainSync(kSql2).ok());
  TraceMetrics::Stats stats = service.TraceSnapshot();
  EXPECT_EQ(stats.traces, 2u);
  EXPECT_EQ(stats.slow_traces, 2u);

  // A sane threshold leaves the counter alone.
  ServiceConfig quiet;
  quiet.slow_trace_ms = 1e12;
  ExplainService quiet_service(explainer_, quiet);
  ASSERT_TRUE(quiet_service.ExplainSync(kSql).ok());
  EXPECT_EQ(quiet_service.TraceSnapshot().slow_traces, 0u);
}

TEST_F(TraceTest, RecentTracesNewestFirstBoundedByRing) {
  ServiceConfig config;
  config.num_workers = 1;  // deterministic completion order
  config.trace_ring = 3;
  config.cache_enabled = false;
  ExplainService service(explainer_, config);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.ExplainSync(i % 2 == 0 ? kSql : kSql2).ok());
  }
  auto recent = service.RecentTraces();
  ASSERT_EQ(recent.size(), 3u);
  // Ids are assigned in submission order; the ring keeps the last 3,
  // newest first.
  EXPECT_EQ(recent[0]->id(), 5u);
  EXPECT_EQ(recent[1]->id(), 4u);
  EXPECT_EQ(recent[2]->id(), 3u);
}

TEST_F(TraceTest, ServiceExpositionRoundTripsThroughParser) {
  ExplainService service(explainer_, ServiceConfig{});
  ASSERT_TRUE(service.ExplainSync(kSql).ok());
  ASSERT_TRUE(service.ExplainSync(kSql).ok());  // one hit
  std::string text = service.ExpositionText();
  auto parsed = ParseExposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  EXPECT_GE(parsed->size(), 50u);
  // Spot-check a counter value survives the round trip.
  bool found = false;
  for (const ExpositionSample& s : *parsed) {
    if (s.name == "htapex_requests_total") {
      found = true;
      EXPECT_DOUBLE_EQ(s.value, 2.0);
    }
  }
  EXPECT_TRUE(found);
  // Every span family sample carries a span label from the taxonomy.
  std::set<std::string> span_labels;
  for (const ExpositionSample& s : *parsed) {
    if (s.name.rfind("htapex_span_latency_ms", 0) == 0) {
      for (const auto& [k, v] : s.labels) {
        if (k == "span") span_labels.insert(v);
      }
    }
  }
  EXPECT_EQ(span_labels.size(),
            static_cast<size_t>(TraceMetrics::kNumSpanNames));
}

/// Each sample as "family{key=value,...}": summary suffixes and quantile
/// labels dropped, and the values of state-gauge labels, which vary by
/// machine and phase, replaced by "*".
std::set<std::string> Vocabulary(const std::vector<ExpositionSample>& samples) {
  std::set<std::string> out;
  for (const ExpositionSample& s : samples) {
    std::string entry = s.name;
    for (const std::string_view suffix : {"_count", "_sum"}) {
      if (entry.ends_with(suffix)) entry.resize(entry.size() - suffix.size());
    }
    std::string labels;
    for (const auto& [key, value] : s.labels) {
      if (key == "quantile") continue;
      const bool state = key == "backend" || key == "phase" || key == "state";
      labels += (labels.empty() ? "" : ",") + key + "=" + (state ? "*" : value);
    }
    out.insert(labels.empty() ? entry : entry + "{" + labels + "}");
  }
  return out;
}

TEST_F(TraceTest, ServiceExpositionKeepsItsVocabulary) {
  // Every sample a service with a durable KB, the lifecycle and fault
  // injection on emitted before its metrics moved to per-group field lists.
  const char* const kVocabulary[] = {
    "htapex_requests_total", "htapex_completed_total", "htapex_errors_total",
    "htapex_early_rejections_total", "htapex_kb_inserts_total",
    "htapex_degraded_total{level=full}",
    "htapex_degraded_total{level=baseline}",
    "htapex_degraded_total{level=plan_diff}",
    "htapex_degraded_total{level=failed}",
    "htapex_cache_events_total{event=hit}",
    "htapex_cache_events_total{event=miss}",
    "htapex_cache_events_total{event=insertion}",
    "htapex_cache_events_total{event=eviction}", "htapex_cache_entries",
    "htapex_llm_attempts_total", "htapex_llm_retries_total",
    "htapex_llm_failures_total{kind=timeout}",
    "htapex_llm_failures_total{kind=transient}",
    "htapex_llm_failures_total{kind=garbled}", "htapex_llm_slow_total",
    "htapex_budget_exhausted_total",
    "htapex_breaker_transitions_total{transition=open}",
    "htapex_breaker_transitions_total{transition=half_open}",
    "htapex_breaker_transitions_total{transition=close}",
    "htapex_breaker_short_circuits_total",
    "htapex_fallbacks_total{rung=baseline}",
    "htapex_fallbacks_total{rung=plan_diff}", "htapex_kb_insert_retries_total",
    "htapex_wal_appends_total", "htapex_wal_bytes_total",
    "htapex_wal_fsyncs_total", "htapex_snapshots_total",
    "htapex_snapshot_failures_total", "htapex_recoveries_total",
    "htapex_replayed_records_total", "htapex_lifecycle_phase{phase=*}",
    "htapex_lifecycle_active_version",
    "htapex_lifecycle_feedback_samples_total",
    "htapex_lifecycle_feedback_wal_failures_total",
    "htapex_lifecycle_events_total{event=drift_detected}",
    "htapex_lifecycle_events_total{event=retrain}",
    "htapex_lifecycle_events_total{event=retrain_failure}",
    "htapex_lifecycle_events_total{event=shadow_run}",
    "htapex_lifecycle_events_total{event=shadow_reject}",
    "htapex_lifecycle_events_total{event=shadow_stall}",
    "htapex_lifecycle_events_total{event=shadow_abort}",
    "htapex_lifecycle_events_total{event=swap}",
    "htapex_lifecycle_events_total{event=swap_failure}",
    "htapex_lifecycle_events_total{event=rollback}",
    "htapex_lifecycle_events_total{event=kb_expired}",
    "htapex_lifecycle_events_total{event=kb_backfilled}",
    "htapex_lifecycle_accuracy{series=serving}",
    "htapex_lifecycle_accuracy{series=baseline}",
    "htapex_lifecycle_accuracy{series=candidate}",
    "htapex_kernel_backend{backend=*}",
    "htapex_kernel_ops_total{kernel=squared_l2}",
    "htapex_kernel_ops_total{kernel=gemm}",
    "htapex_kernel_ops_total{kernel=relu}",
    "htapex_kernel_ops_total{kernel=max_accum}",
    "htapex_kernel_ops_total{kernel=mask_cmp}",
    "htapex_kernel_ops_total{kernel=mask_and}",
    "htapex_kernel_ops_total{kernel=mask_andnot}",
    "htapex_kernel_ops_total{kernel=count_mask}",
    "htapex_kernel_ops_total{kernel=sum_f64}",
    "htapex_kernel_ops_total{kernel=sum_i64}",
    "htapex_kernel_ops_total{kernel=hash_i64}",
    "htapex_kernel_ops_total{kernel=hash_f64}",
    "htapex_kernel_ops_total{kernel=hash_bytes}",
    "htapex_stage_latency_ms{stage=encode}",
    "htapex_stage_latency_ms{stage=cache_lookup}",
    "htapex_stage_latency_ms{stage=kb_search}",
    "htapex_stage_latency_ms{stage=generate}",
    "htapex_stage_latency_ms{stage=end_to_end}",
    "htapex_traces_recorded_total", "htapex_slow_traces_total",
    "htapex_unknown_spans_total", "htapex_span_latency_ms{span=queue_wait}",
    "htapex_span_latency_ms{span=parse}", "htapex_span_latency_ms{span=bind}",
    "htapex_span_latency_ms{span=tp_optimize}",
    "htapex_span_latency_ms{span=ap_optimize}",
    "htapex_span_latency_ms{span=route}", "htapex_span_latency_ms{span=embed}",
    "htapex_span_latency_ms{span=cache_lookup}",
    "htapex_span_latency_ms{span=analyze}",
    "htapex_span_latency_ms{span=retrieve}",
    "htapex_span_latency_ms{span=prompt}",
    "htapex_span_latency_ms{span=generate}",
    "htapex_span_latency_ms{span=grade}",
    "htapex_span_latency_ms{span=kb_insert}",
    "htapex_span_latency_ms{span=total}",
  };
  ExplainerConfig ec;
  ec.faults = "llm.transient_error:p=0.3";
  ec.fault_seed = 7;
  HtapExplainer explainer(system_, ec);
  explainer.mutable_router().CloneWeightsFrom(explainer_->router());
  ASSERT_TRUE(explainer.BuildDefaultKnowledgeBase().ok());
  DurabilityOptions options;
  options.dir = ::testing::TempDir() + "htapex_trace_vocabulary";
  std::filesystem::remove_all(options.dir);
  DurableKnowledgeBase durable(options);
  ASSERT_TRUE(durable.Attach(&explainer.mutable_knowledge_base()).ok());
  std::string text;
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.durable = &durable;
    config.lifecycle.enabled = true;
    ExplainService service(&explainer, config);
    auto r = service.ExplainSync(kSql);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(service.IncorporateCorrection(*r).ok());
    ASSERT_TRUE(service.ExplainSync(kSql2).ok());
    text = service.ExpositionText();
  }
  durable.Detach();
  std::filesystem::remove_all(options.dir);

  auto parsed = ParseExposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  std::set<std::string> emitted = Vocabulary(*parsed);
  for (const char* sample : kVocabulary) {
    EXPECT_TRUE(emitted.count(sample)) << "no longer emitted: " << sample;
  }
}

TEST(ExpositionTest, BuilderEscapesAndParserRoundTrips) {
  ExpositionBuilder b;
  b.Counter("demo_total", "a counter", 3, {{"kind", "a\"b\\c\nd"}});
  b.Gauge("demo_gauge", "a gauge", -1.5);
  LatencyHistogram hist;
  hist.Record(2.0);
  hist.Record(4.0);
  b.Summary("demo_ms", "a summary", hist.Snap(), {{"stage", "x"}});
  auto parsed = ParseExposition(b.Text());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // counter + gauge + 3 quantiles + _count + _sum = 7 samples.
  ASSERT_EQ(parsed->size(), 7u);
  EXPECT_EQ((*parsed)[0].name, "demo_total");
  ASSERT_EQ((*parsed)[0].labels.size(), 1u);
  EXPECT_EQ((*parsed)[0].labels[0].second, "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ((*parsed)[1].value, -1.5);
  EXPECT_EQ((*parsed)[5].name, "demo_ms_count");
  EXPECT_DOUBLE_EQ((*parsed)[5].value, 2.0);
  EXPECT_EQ((*parsed)[6].name, "demo_ms_sum");
  EXPECT_DOUBLE_EQ((*parsed)[6].value, 6.0);
}

TEST(ExpositionTest, MalformedTextRejected) {
  // A sample whose family was never declared with # TYPE.
  EXPECT_FALSE(ParseExposition("undeclared_total 1\n").ok());
  // Bad metric name.
  EXPECT_FALSE(
      ParseExposition("# TYPE 9bad counter\n9bad 1\n").ok());
  // Unterminated label value.
  EXPECT_FALSE(ParseExposition("# TYPE a counter\na{k=\"v} 1\n").ok());
  // Unquoted label value.
  EXPECT_FALSE(ParseExposition("# TYPE a counter\na{k=v} 1\n").ok());
  // Value is not a number.
  EXPECT_FALSE(ParseExposition("# TYPE a counter\na twelve\n").ok());
  // Missing value entirely.
  EXPECT_FALSE(ParseExposition("# TYPE a counter\na\n").ok());
  // Unknown metric type in the header.
  EXPECT_FALSE(ParseExposition("# TYPE a enum\na 1\n").ok());
  // The well-formed version of the same text parses.
  EXPECT_TRUE(ParseExposition("# TYPE a counter\na{k=\"v\"} 1\n").ok());
}

TEST(TraceMetricsTest, CanonicalSpansRecordedUnknownCounted) {
  TraceMetrics metrics;
  Trace trace;
  trace.AddSpan(spanname::kParse, 1.0, false);
  trace.AddSpan(spanname::kGenerate, 100.0, true);
  trace.AddSpan("mystery_stage", 5.0, false);
  metrics.Record(trace);
  metrics.RecordSpan(spanname::kKbInsert, 2.0);
  metrics.RecordSpan("another_mystery", 2.0);

  TraceMetrics::Stats stats = metrics.Snap();
  EXPECT_EQ(stats.traces, 1u);
  EXPECT_EQ(stats.unknown_spans, 2u);
  ASSERT_EQ(stats.spans.size(),
            static_cast<size_t>(TraceMetrics::kNumSpanNames));
  auto hist_of = [&](const char* name) -> const LatencyHistogram::Snapshot& {
    for (size_t i = 0; i < stats.spans.size(); ++i) {
      if (std::string(TraceMetrics::SpanNames()[i]) == name) {
        return stats.spans[i];
      }
    }
    static LatencyHistogram::Snapshot empty;
    return empty;
  };
  EXPECT_EQ(hist_of(spanname::kParse).count, 1u);
  EXPECT_EQ(hist_of(spanname::kGenerate).count, 1u);
  EXPECT_EQ(hist_of(spanname::kKbInsert).count, 1u);
  // The synthetic whole-request sample.
  EXPECT_EQ(hist_of(spanname::kTotal).count, 1u);
  EXPECT_NEAR(hist_of(spanname::kTotal).sum_ms, 106.0, 1.0);
}

TEST(TraceRingTest, KeepsTheLastNNewestFirst) {
  TraceRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    ring.Push(std::make_shared<const Trace>(i, "t"));
  }
  auto recent = ring.Recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0]->id(), 10u);
  EXPECT_EQ(recent[1]->id(), 9u);
  EXPECT_EQ(recent[2]->id(), 8u);
  EXPECT_EQ(recent[3]->id(), 7u);
  // A zero-capacity request degrades to a one-slot ring, never UB.
  TraceRing tiny(0);
  tiny.Push(std::make_shared<const Trace>(1, "t"));
  EXPECT_EQ(tiny.Recent().size(), 1u);
}

TEST(MetricsRegressionTest, SingleSampleHistogramQuantilesStayInRange) {
  // Regression: with one sample the interpolated quantiles used to be able
  // to leave [min, max] (bucket-edge extrapolation); Snap now clamps them.
  LatencyHistogram hist;
  hist.Record(5.0);
  auto snap = hist.Snap();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.p50_ms, snap.min_ms);
  EXPECT_LE(snap.p50_ms, snap.max_ms);
  EXPECT_GE(snap.p95_ms, snap.min_ms);
  EXPECT_LE(snap.p95_ms, snap.max_ms);
  EXPECT_GE(snap.p99_ms, snap.min_ms);
  EXPECT_LE(snap.p99_ms, snap.max_ms);
  EXPECT_NEAR(snap.min_ms, 5.0, 0.01);
  EXPECT_NEAR(snap.max_ms, 5.0, 0.01);
}

}  // namespace
}  // namespace htapex
