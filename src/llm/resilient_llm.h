#ifndef HTAPEX_LLM_RESILIENT_LLM_H_
#define HTAPEX_LLM_RESILIENT_LLM_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/fault.h"
#include "common/result.h"
#include "llm/llm.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace htapex {

/// Retry / deadline / circuit-breaker policy for every hosted-LLM
/// dependency. All times are simulated milliseconds (the hosted round trip
/// is modelled, not slept — see SimClock), so benches report paper-scale
/// numbers while running instantly.
///
/// Per-attempt deadline: an attempt whose simulated round trip exceeds
/// this is abandoned as a timeout. The paper reports thinking <= 2 s and
/// generation ~10 s, so 15 s comfortably covers a healthy call.
inline constexpr double kLlmAttemptDeadlineMs = 15'000.0;
/// Bounded retries (total attempts, including the first), with full-jitter
/// exponential backoff between them (see resilient_llm.cc).
inline constexpr int kLlmMaxAttempts = 3;
/// The breaker opens after this many consecutive failed attempts...
inline constexpr int kLlmBreakerFailureThreshold = 5;
/// ...and half-opens (admits one probe) after this simulated cooldown.
inline constexpr double kLlmBreakerCooldownMs = 60'000.0;
/// Simulated time between successive requests reaching a dependency.
/// Advanced on every Explain call (but never charged to the caller): it is
/// what makes an open breaker's cooldown elapse even while every request is
/// being short-circuited — without it the simulated clock would freeze and
/// an open breaker could never half-open again.
inline constexpr double kLlmInterarrivalMs = 500.0;

enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Classic three-state circuit breaker over a simulated clock. Thread-safe;
/// all transitions are reported through ResilienceMetrics.
class CircuitBreaker {
 public:
  CircuitBreaker(int failure_threshold, double cooldown_ms,
                 ResilienceMetrics* metrics);

  /// Admission check at `now_ms`. Open -> false (short-circuit) until the
  /// cooldown elapses, then the breaker half-opens and admits exactly one
  /// probe; concurrent calls keep short-circuiting while the probe is out.
  bool AllowRequest(double now_ms);
  void RecordSuccess(double now_ms);
  void RecordFailure(double now_ms);

  /// State as of `now_ms` (reports kHalfOpen for an open breaker whose
  /// cooldown has elapsed, without mutating).
  BreakerState state(double now_ms) const;

 private:
  const int failure_threshold_;
  const double cooldown_ms_;
  ResilienceMetrics* metrics_;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  double open_until_ms_ = 0.0;
  bool probe_inflight_ = false;
};

/// A successful resilient call: the explanation plus what it cost to get.
struct LlmCallOutcome {
  GeneratedExplanation explanation;
  int attempts = 1;
  /// Simulated time burned before the successful attempt: failed attempts
  /// (timeouts pay the full deadline) plus backoff. The successful
  /// attempt's own time is in explanation.timing.
  double overhead_ms = 0.0;
};

/// Decorator around a SimulatedLlm that makes its invocation survivable:
/// per-attempt deadlines on the simulated clock, bounded retries with
/// full-jitter exponential backoff, output validation (garbled responses
/// are retried, not surfaced), and a circuit breaker that short-circuits a
/// dependency that keeps failing. Fault points (llm.timeout,
/// llm.transient_error, llm.garbled_output, llm.slow_generation) are drawn
/// from the injector keyed by (request, attempt), so a given request sees
/// the same faults in every run of the same spec.
///
/// Thread-safe: concurrent Explain calls share only the breaker and the
/// simulated clock.
class ResilientLlm {
 public:
  /// `faults` and `metrics` may outlive-or-be-null / must outlive the
  /// wrapper respectively; a null injector disables fault draws. `seed`
  /// keys the backoff jitter: draws are keyed by (seed, purpose, request
  /// key, attempt), so transcripts reproduce byte-identically.
  ResilientLlm(std::unique_ptr<SimulatedLlm> inner, std::string dependency,
               uint64_t seed, const FaultInjector* faults,
               ResilienceMetrics* metrics);

  /// Runs the call chain. `budget_ms` > 0 caps the total simulated time
  /// this call may burn (attempts + backoff); exceeding it returns
  /// DeadlineExceeded. Returns Unavailable when the breaker is open or
  /// retries are exhausted. When `spent_ms` is non-null it receives the
  /// simulated time burned, on success and failure alike.
  ///
  /// When `trace` is non-null, every attempt outcome, backoff sleep,
  /// breaker short-circuit, and budget exhaustion becomes a span event on
  /// the trace's open span, and all simulated time charged to the call is
  /// advanced on the trace timeline — so the enclosing "generate" span's
  /// duration equals the call's total simulated cost.
  Result<LlmCallOutcome> Explain(const Prompt& prompt, double budget_ms = 0.0,
                                 double* spent_ms = nullptr,
                                 Trace* trace = nullptr);

  BreakerState breaker_state() const;
  const SimulatedLlm& inner() const { return *inner_; }
  const std::string& dependency() const { return dependency_; }
  /// Simulated time this dependency has accumulated across all calls.
  double sim_now_ms() const;

 private:
  void AdvanceClock(double ms);

  std::unique_ptr<SimulatedLlm> inner_;
  std::string dependency_;
  uint64_t dependency_hash_;
  uint64_t seed_;
  const FaultInjector* faults_;
  ResilienceMetrics* metrics_;
  CircuitBreaker breaker_;
  std::atomic<uint64_t> sim_now_us_{0};
};

/// Deterministically corrupts `text` (simulating a truncated / garbled
/// hosted-LLM response); LooksGarbled detects the corruption so the
/// resilient wrapper can reject and retry instead of surfacing garbage.
std::string GarbleText(std::string text, uint64_t seed);
bool LooksGarbled(const std::string& text);

/// The bottom rung of the degradation ladder: a knowledge-free, LLM-free
/// structural diff of the two plans (join strategy, access paths, storage
/// format, sort/limit shape) plus the measured latencies. Always succeeds;
/// zero simulated LLM time (it is computed locally).
GeneratedExplanation MakePlanDiffExplanation(const Prompt& prompt);

}  // namespace htapex

#endif  // HTAPEX_LLM_RESILIENT_LLM_H_
