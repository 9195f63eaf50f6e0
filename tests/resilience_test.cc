// Unit tests for the resilience layer: deterministic fault injection,
// circuit breaker state machine, the resilient LLM wrapper (deadlines,
// retries, backoff, budgets), output-garbling detection, the plan-diff
// bottom rung, and the observability guards they rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <string>

#include "common/fault.h"
#include "common/string_util.h"
#include "llm/llm.h"
#include "llm/resilient_llm.h"
#include "obs/metrics.h"

namespace htapex {
namespace {

// ---------------------------------------------------------------- faults --

TEST(FaultInjectorTest, EmptySpecDisabled) {
  auto inj = FaultInjector::Parse("");
  ASSERT_TRUE(inj.ok()) << inj.status();
  EXPECT_FALSE(inj->enabled());
  EXPECT_FALSE(inj->Draw(kFaultLlmTimeout, 1, 0).fired);
  EXPECT_EQ(inj->Find(kFaultLlmTimeout), nullptr);
}

TEST(FaultInjectorTest, ParseAndRoundTrip) {
  auto inj = FaultInjector::Parse(
      "llm.transient_error:p=0.2;llm.timeout:p=0.1,lat=500", /*seed=*/7);
  ASSERT_TRUE(inj.ok()) << inj.status();
  EXPECT_TRUE(inj->enabled());
  EXPECT_EQ(inj->seed(), 7u);
  const FaultSpec* timeout = inj->Find(kFaultLlmTimeout);
  ASSERT_NE(timeout, nullptr);
  EXPECT_DOUBLE_EQ(timeout->probability, 0.1);
  EXPECT_DOUBLE_EQ(timeout->latency_ms, 500.0);
  // The normalized spec re-parses to the same configuration.
  auto again = FaultInjector::Parse(inj->ToString(), 7);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), inj->ToString());
}

TEST(FaultInjectorTest, RejectsUnknownPointAndBadValues) {
  EXPECT_FALSE(FaultInjector::Parse("llm.typo:p=0.5").ok());
  EXPECT_FALSE(FaultInjector::Parse("llm.timeout:p=1.5").ok());
  EXPECT_FALSE(FaultInjector::Parse("llm.timeout:p=-0.1").ok());
  EXPECT_FALSE(FaultInjector::Parse("llm.timeout:p=abc").ok());
  EXPECT_FALSE(FaultInjector::Parse("llm.timeout").ok());
  EXPECT_FALSE(FaultInjector::Parse("llm.timeout:p=0.1,lat=-5").ok());
}

TEST(FaultInjectorTest, RejectsValuesThatOverflowTheSimulatedClock) {
  // Accepted, these drove ResilientLlm's simulated clock through a
  // double -> uint64_t cast of 1e303 microseconds (undefined behaviour).
  for (const char* spec :
       {"llm.transient_error:p=1,lat=1e300", "llm.transient_error:p=1,lat=inf",
        "llm.timeout:p=nan", "llm.timeout:p=0.5,lat=nan",
        "llm.timeout:p=inf", "llm.slow_generation:p=1,lat=-inf"}) {
    auto inj = FaultInjector::Parse(spec);
    ASSERT_FALSE(inj.ok()) << spec;
    EXPECT_EQ(inj.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(FaultInjectorTest, LatencyBoundIsInclusive) {
  auto at = FaultInjector::Parse(
      StrFormat("llm.slow_generation:p=1,lat=%.17g", kMaxFaultLatencyMs));
  ASSERT_TRUE(at.ok()) << at.status();
  EXPECT_DOUBLE_EQ(at->Find(kFaultLlmSlow)->latency_ms, kMaxFaultLatencyMs);
  auto past = FaultInjector::Parse(
      StrFormat("llm.slow_generation:p=1,lat=%.17g",
                std::nextafter(kMaxFaultLatencyMs, HUGE_VAL)));
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, EnvironmentSpecParses) {
  // The chaos job arms HTAPEX_FAULTS for this suite. An explainer given a
  // spec it cannot parse only logs a warning and runs fault-free, so a
  // stale point name there would silently turn the chaos run into a clean
  // one; this test makes it fail instead.
  const std::string spec = FaultInjector::EnvSpec();
  if (spec.empty()) {
    GTEST_SKIP() << "HTAPEX_FAULTS is unset";
  }
  auto inj = FaultInjector::Parse(spec, FaultInjector::EnvSeed(42));
  ASSERT_TRUE(inj.ok()) << inj.status();
  EXPECT_TRUE(inj->enabled());
}

TEST(FaultInjectorTest, DrawsAreDeterministicPerCoordinates) {
  auto a = FaultInjector::Parse("llm.transient_error:p=0.5", 42);
  auto b = FaultInjector::Parse("llm.transient_error:p=0.5", 42);
  ASSERT_TRUE(a.ok() && b.ok());
  int fired = 0, differs_across_attempts = 0;
  for (uint64_t key = 0; key < 200; ++key) {
    FaultDraw d0 = a->Draw(kFaultLlmTransient, key, 0);
    // Identical coordinates -> identical outcome, in any injector instance
    // with the same spec and seed.
    EXPECT_EQ(d0.fired, b->Draw(kFaultLlmTransient, key, 0).fired);
    EXPECT_EQ(d0.fired, a->Draw(kFaultLlmTransient, key, 0).fired);
    if (d0.fired) ++fired;
    if (d0.fired != a->Draw(kFaultLlmTransient, key, 1).fired) {
      ++differs_across_attempts;
    }
  }
  // p=0.5 over 200 keys: both outcomes occur, and attempts are independent.
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 150);
  EXPECT_GT(differs_across_attempts, 0);
}

TEST(FaultInjectorTest, SeedChangesTheTranscript) {
  auto a = FaultInjector::Parse("llm.transient_error:p=0.5", 1);
  auto b = FaultInjector::Parse("llm.transient_error:p=0.5", 2);
  ASSERT_TRUE(a.ok() && b.ok());
  int differing = 0;
  for (uint64_t key = 0; key < 200; ++key) {
    if (a->Draw(kFaultLlmTransient, key, 0).fired !=
        b->Draw(kFaultLlmTransient, key, 0).fired) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, FireCountTracksFiredDraws) {
  auto inj = FaultInjector::Parse("llm.timeout:p=1", 42);
  ASSERT_TRUE(inj.ok());
  EXPECT_EQ(inj->FireCount(kFaultLlmTimeout), 0u);
  for (uint64_t key = 0; key < 5; ++key) {
    EXPECT_TRUE(inj->Draw(kFaultLlmTimeout, key, 0).fired);
  }
  EXPECT_EQ(inj->FireCount(kFaultLlmTimeout), 5u);
}

TEST(FaultInjectorTest, MixFaultSeedIsStableAndSensitive) {
  uint64_t h = MixFaultSeed(1, 2, 3, 4);
  EXPECT_EQ(h, MixFaultSeed(1, 2, 3, 4));
  EXPECT_NE(h, MixFaultSeed(1, 2, 3, 5));
  EXPECT_NE(h, MixFaultSeed(2, 2, 3, 4));
}

// --------------------------------------------------------------- breaker --

TEST(CircuitBreakerTest, OpensAfterThresholdAndShortCircuits) {
  ResilienceMetrics metrics;
  CircuitBreaker breaker(/*failure_threshold=*/3, /*cooldown_ms=*/1000.0,
                         &metrics);
  double now = 0.0;
  EXPECT_EQ(breaker.state(now), BreakerState::kClosed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.AllowRequest(now));
    breaker.RecordFailure(now);
    now += 10.0;
  }
  EXPECT_EQ(breaker.state(now), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(now));
  EXPECT_EQ(metrics.breaker_opens.Value(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  ResilienceMetrics metrics;
  CircuitBreaker breaker(2, 1000.0, &metrics);
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(10.0);
  ASSERT_EQ(breaker.state(10.0), BreakerState::kOpen);
  // Cooldown not yet elapsed: still short-circuiting.
  EXPECT_FALSE(breaker.AllowRequest(500.0));
  // Cooldown elapsed: exactly one probe is admitted...
  EXPECT_TRUE(breaker.AllowRequest(1010.0 + 10.0));
  EXPECT_EQ(metrics.breaker_half_opens.Value(), 1u);
  // ...and concurrent callers keep short-circuiting while it is out.
  EXPECT_FALSE(breaker.AllowRequest(1025.0));
  // Failed probe: straight back to open for a fresh cooldown.
  breaker.RecordFailure(1030.0);
  EXPECT_EQ(breaker.state(1040.0), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(1040.0));
  EXPECT_EQ(metrics.breaker_opens.Value(), 2u);
  // After the second cooldown the breaker half-opens again and a
  // successful probe closes it.
  EXPECT_TRUE(breaker.AllowRequest(1030.0 + 1000.0 + 1.0));
  breaker.RecordSuccess(2040.0);
  EXPECT_EQ(breaker.state(2040.0), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(2040.0));
  EXPECT_EQ(metrics.breaker_closes.Value(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  ResilienceMetrics metrics;
  CircuitBreaker breaker(3, 1000.0, &metrics);
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(1.0);
  breaker.RecordSuccess(2.0);
  breaker.RecordFailure(3.0);
  breaker.RecordFailure(4.0);
  EXPECT_EQ(breaker.state(5.0), BreakerState::kClosed);
  EXPECT_EQ(metrics.breaker_opens.Value(), 0u);
}

// ----------------------------------------------------------- resilience --

/// Minimal scripted model: fixed text and timing, counts calls.
class StubLlm : public SimulatedLlm {
 public:
  explicit StubLlm(double total_ms = 100.0, std::string text = "fine answer")
      : text_(std::move(text)) {
    persona_.name = "stub";
    timing_.thinking_ms = total_ms / 2;
    timing_.generation_ms = total_ms / 2;
  }
  GeneratedExplanation Explain(const Prompt&) const override {
    ++calls_;
    GeneratedExplanation out;
    out.text = text_;
    out.timing = timing_;
    return out;
  }
  const LlmPersona& persona() const override { return persona_; }
  int calls() const { return calls_; }

 private:
  std::string text_;
  LlmTiming timing_;
  LlmPersona persona_;
  mutable int calls_ = 0;
};

Prompt TestPrompt(const std::string& sql = "SELECT 1") {
  Prompt p;
  p.question_sql = sql;
  return p;
}

TEST(ResilientLlmTest, CleanCallPassesThrough) {
  ResilienceMetrics metrics;
  FaultInjector no_faults;
  auto stub = std::make_unique<StubLlm>();
  StubLlm* raw = stub.get();
  ResilientLlm llm(std::move(stub), "rag", ResiliencePolicy{}, &no_faults,
                   &metrics);
  auto out = llm.Explain(TestPrompt());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->attempts, 1);
  EXPECT_DOUBLE_EQ(out->overhead_ms, 0.0);
  EXPECT_EQ(out->explanation.text, "fine answer");
  EXPECT_EQ(raw->calls(), 1);
  EXPECT_EQ(metrics.llm_retries.Value(), 0u);
}

TEST(ResilientLlmTest, TransientFaultsRetryThenSucceedOrExhaust) {
  // p=1 transient: every attempt fails, retries exhaust, breaker counts up.
  ResilienceMetrics metrics;
  auto inj = FaultInjector::Parse("llm.transient_error:p=1", 42);
  ASSERT_TRUE(inj.ok());
  ResiliencePolicy policy;
  policy.max_attempts = 3;
  ResilientLlm llm(std::make_unique<StubLlm>(), "rag", policy, &*inj,
                   &metrics);
  auto out = llm.Explain(TestPrompt());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(metrics.llm_attempts.Value(), 3u);
  EXPECT_EQ(metrics.llm_retries.Value(), 2u);
  EXPECT_EQ(metrics.llm_transient_errors.Value(), 3u);
}

TEST(ResilientLlmTest, TimeoutChargesTheFullDeadline) {
  ResilienceMetrics metrics;
  auto inj = FaultInjector::Parse("llm.timeout:p=1", 42);
  ASSERT_TRUE(inj.ok());
  ResiliencePolicy policy;
  policy.max_attempts = 1;
  policy.attempt_deadline_ms = 1234.0;
  ResilientLlm llm(std::make_unique<StubLlm>(), "rag", policy, &*inj,
                   &metrics);
  double spent = 0.0;
  auto out = llm.Explain(TestPrompt(), /*budget_ms=*/0.0, &spent);
  EXPECT_FALSE(out.ok());
  EXPECT_DOUBLE_EQ(spent, 1234.0);
  EXPECT_EQ(metrics.llm_timeouts.Value(), 1u);
}

TEST(ResilientLlmTest, OverlongGenerationAbandonedAtDeadline) {
  // The stub "generates" for 50 s against a 15 s per-attempt deadline.
  ResilienceMetrics metrics;
  FaultInjector no_faults;
  ResiliencePolicy policy;
  policy.max_attempts = 2;
  ResilientLlm llm(std::make_unique<StubLlm>(/*total_ms=*/50'000.0), "rag",
                   policy, &no_faults, &metrics);
  double spent = 0.0;
  auto out = llm.Explain(TestPrompt(), 0.0, &spent);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(metrics.llm_timeouts.Value(), 2u);
  // Each failed attempt pays exactly the deadline (plus jittered backoff).
  EXPECT_GE(spent, 2 * policy.attempt_deadline_ms);
}

TEST(ResilientLlmTest, GarbledOutputIsRetriedNotSurfaced) {
  ResilienceMetrics metrics;
  // Garble only attempt 0 is impossible to express via probability alone,
  // so use p=1 and verify the wrapper never surfaces a garbled text: with
  // every attempt garbled, the call must exhaust instead.
  auto inj = FaultInjector::Parse("llm.garbled_output:p=1", 42);
  ASSERT_TRUE(inj.ok());
  ResilientLlm llm(std::make_unique<StubLlm>(), "rag", ResiliencePolicy{},
                   &*inj, &metrics);
  auto out = llm.Explain(TestPrompt());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(metrics.llm_garbled.Value(), 3u);
}

TEST(ResilientLlmTest, BudgetExhaustionIsTyped) {
  ResilienceMetrics metrics;
  auto inj = FaultInjector::Parse("llm.timeout:p=1", 42);
  ASSERT_TRUE(inj.ok());
  ResiliencePolicy policy;
  policy.attempt_deadline_ms = 1000.0;
  ResilientLlm llm(std::make_unique<StubLlm>(), "rag", policy, &*inj,
                   &metrics);
  // First attempt burns 1000 ms > budget; the second attempt is refused.
  auto out = llm.Explain(TestPrompt(), /*budget_ms=*/500.0);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(metrics.budget_exhausted.Value(), 1u);
}

TEST(ResilientLlmTest, BreakerOpensThenRecoversAfterCooldown) {
  ResilienceMetrics metrics;
  auto inj = FaultInjector::Parse("llm.transient_error:p=1", 42);
  ASSERT_TRUE(inj.ok());
  ResiliencePolicy policy;
  policy.max_attempts = 1;
  policy.breaker_failure_threshold = 2;
  policy.breaker_cooldown_ms = 10'000.0;
  policy.interarrival_ms = 1000.0;
  ResilientLlm llm(std::make_unique<StubLlm>(), "rag", policy, &*inj,
                   &metrics);
  EXPECT_FALSE(llm.Explain(TestPrompt("q1")).ok());
  EXPECT_FALSE(llm.Explain(TestPrompt("q2")).ok());
  EXPECT_EQ(llm.breaker_state(), BreakerState::kOpen);
  // While open, calls short-circuit (no inner attempts)...
  uint64_t attempts_before = metrics.llm_attempts.Value();
  auto rejected = llm.Explain(TestPrompt("q3"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(metrics.llm_attempts.Value(), attempts_before);
  EXPECT_GT(metrics.breaker_short_circuits.Value(), 0u);
  // ...but each arrival still advances the simulated clock, so the
  // cooldown eventually elapses and a probe is admitted again.
  for (int i = 0; i < 40 && metrics.breaker_half_opens.Value() == 0; ++i) {
    (void)llm.Explain(TestPrompt("q" + std::to_string(4 + i)));
  }
  EXPECT_EQ(metrics.breaker_half_opens.Value(), 1u);
  EXPECT_GE(metrics.breaker_opens.Value(), 2u);  // probe failed -> reopened
}

TEST(ResilientLlmTest, TranscriptIsDeterministic) {
  // Two independent wrappers over the same spec + seed must burn the same
  // simulated time, attempt-for-attempt, for the same request.
  auto inj1 =
      FaultInjector::Parse("llm.transient_error:p=0.6;llm.timeout:p=0.3", 1337);
  auto inj2 =
      FaultInjector::Parse("llm.transient_error:p=0.6;llm.timeout:p=0.3", 1337);
  ASSERT_TRUE(inj1.ok() && inj2.ok());
  ResiliencePolicy policy;
  policy.seed = 1337;
  ResilienceMetrics m1, m2;
  auto llm1 = std::make_unique<ResilientLlm>(std::make_unique<StubLlm>(),
                                             "rag", policy, &*inj1, &m1);
  auto llm2 = std::make_unique<ResilientLlm>(std::make_unique<StubLlm>(),
                                             "rag", policy, &*inj2, &m2);
  for (int q = 0; q < 32; ++q) {
    Prompt p = TestPrompt("SELECT " + std::to_string(q));
    double spent1 = 0.0, spent2 = 0.0;
    auto r1 = llm1->Explain(p, 0.0, &spent1);
    auto r2 = llm2->Explain(p, 0.0, &spent2);
    EXPECT_EQ(r1.ok(), r2.ok()) << q;
    EXPECT_DOUBLE_EQ(spent1, spent2) << q;
    if (r1.ok()) EXPECT_EQ(r1->attempts, r2->attempts) << q;
  }
  EXPECT_EQ(m1.llm_attempts.Value(), m2.llm_attempts.Value());
  EXPECT_EQ(m1.llm_retries.Value(), m2.llm_retries.Value());
  EXPECT_EQ(m1.llm_timeouts.Value(), m2.llm_timeouts.Value());
}

/// Seeded byte mutations of the CI chaos spec: each ends in an injector
/// or kInvalidArgument, and each accepted spec drives one call to a value
/// or a typed Status in finite simulated time.
TEST(ResilientLlmTest, MutatedFaultSpecsEndInValueOrStatus) {
  constexpr int kTrials = 400;
  const std::string chaos =
      "llm.transient_error:p=0.2;llm.timeout:p=0.1;"
      "llm.garbled_output:p=0.05;kb.insert:p=0.1";
  static const char* kTokens[] = {"nan", "inf", "-inf", "1e300", "1e999",
                                  "-1",  "0x10", "lat=", "p=", ";",
                                  ",",   ":",    "=",    "3600000.5"};
  static const char kBytes[] = "0123456789.;:,=-+eplatnif ";
  const uint64_t seed = FaultInjector::EnvSeed(42);
  int accepted = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string spec = chaos;
    const auto t = static_cast<uint64_t>(trial);
    const int n = 1 + static_cast<int>(MixFaultSeed(seed, 0xFA, t, 0) % 3);
    for (int m = 0; m < n; ++m) {
      const uint64_t d = MixFaultSeed(seed, 0xFA, t, m + 1);
      const size_t pos = (d >> 8) % (spec.size() + 1);
      const uint64_t pick = d >> 40;
      switch (d % 3) {
        case 0:
          spec.insert(pos, kTokens[pick % std::size(kTokens)]);
          break;
        case 1:
          spec.erase(pos, 1 + pick % 4);
          break;
        default:
          if (pos < spec.size()) spec[pos] = kBytes[pick % (sizeof(kBytes) - 1)];
      }
    }
    SCOPED_TRACE("spec=" + spec);
    auto inj = FaultInjector::Parse(spec, seed);
    if (!inj.ok()) {
      EXPECT_EQ(inj.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    ResilienceMetrics metrics;
    ResilientLlm llm(std::make_unique<StubLlm>(), "rag", ResiliencePolicy{},
                     &*inj, &metrics);
    double spent = 0.0;
    auto r = llm.Explain(TestPrompt("SELECT " + std::to_string(trial)), 0.0,
                         &spent);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << r.status();
    }
    EXPECT_TRUE(std::isfinite(spent));
    EXPECT_TRUE(std::isfinite(llm.sim_now_ms()));
  }
  // The loop must exercise both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kTrials);
}

// ---------------------------------------------------------------- output --

TEST(GarbleTest, GarbledTextIsDetectedCleanTextIsNot) {
  EXPECT_FALSE(LooksGarbled("The TP engine executed this query faster."));
  EXPECT_TRUE(LooksGarbled(""));
  EXPECT_TRUE(LooksGarbled(std::string("ok\x02ok", 6)));
  std::string garbled = GarbleText(
      "A long enough explanation text that corruption will certainly touch "
      "at least one of its many characters.",
      /*seed=*/99);
  EXPECT_TRUE(LooksGarbled(garbled));
  // Deterministic for a given seed.
  EXPECT_EQ(garbled,
            GarbleText("A long enough explanation text that corruption will "
                       "certainly touch at least one of its many characters.",
                       99));
}

TEST(PlanDiffTest, UnreadablePlansYieldNone) {
  Prompt p = TestPrompt();
  p.question_tp_plan_json = "not json";
  p.question_ap_plan_json = "also not json";
  GeneratedExplanation out = MakePlanDiffExplanation(p);
  EXPECT_TRUE(out.claims.is_none);
  EXPECT_EQ(out.text, "None");
}

// ----------------------------------------------------------- metrics fix --

TEST(MetricsGuardTest, EmptyHistogramSnapshotsAllZero) {
  LatencyHistogram h;
  LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.min_ms, 0.0);  // not UINT64_MAX nanoseconds
  EXPECT_DOUBLE_EQ(s.max_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.p95_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_ms(), 0.0);
}

TEST(MetricsGuardTest, CounterResetZeroes) {
  Counter c;
  c.Inc(5);
  EXPECT_EQ(c.Value(), 5u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsGuardTest, ResilienceStatsToStringMentionsCounts) {
  ResilienceMetrics metrics;
  metrics.llm_retries.Inc(3);
  metrics.breaker_opens.Inc();
  ResilienceStats stats = LoadStats(metrics);
  EXPECT_EQ(stats.llm_retries, 3u);
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_NE(stats.ToString().find("retries"), std::string::npos);
}

}  // namespace
}  // namespace htapex
