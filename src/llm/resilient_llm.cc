#include "llm/resilient_llm.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "llm/plan_reader.h"

namespace htapex {

namespace {

// Purpose tags mixed into jitter draws so backoff and fault streams never
// collide even for equal (key, attempt) coordinates.
constexpr uint64_t kBackoffPurpose = 0xbac0ffull;

// Defaults for fault latencies when the spec gives lat=0: a transient
// dependency error surfaces quickly; a slow-generation fault drags the
// tail without necessarily breaching the deadline.
constexpr double kDefaultTransientMs = 50.0;
constexpr double kDefaultSlowMs = 2'000.0;

// Full-jitter exponential backoff: sleep ~ U(0, min(cap, base * 2^k))
// after failed attempt k.
constexpr double kBackoffBaseMs = 250.0;
constexpr double kBackoffCapMs = 4'000.0;

}  // namespace

CircuitBreaker::CircuitBreaker(int failure_threshold, double cooldown_ms,
                               ResilienceMetrics* metrics)
    : failure_threshold_(std::max(1, failure_threshold)),
      cooldown_ms_(cooldown_ms),
      metrics_(metrics) {}

bool CircuitBreaker::AllowRequest(double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now_ms < open_until_ms_) return false;
      state_ = BreakerState::kHalfOpen;
      probe_inflight_ = true;
      metrics_->breaker_half_opens.Inc();
      return true;
    case BreakerState::kHalfOpen:
      if (probe_inflight_) return false;
      probe_inflight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(double) {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  probe_inflight_ = false;
  if (state_ != BreakerState::kClosed) {
    state_ = BreakerState::kClosed;
    metrics_->breaker_closes.Inc();
  }
}

void CircuitBreaker::RecordFailure(double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  probe_inflight_ = false;
  if (state_ == BreakerState::kHalfOpen) {
    // Failed probe: straight back to open for another cooldown.
    state_ = BreakerState::kOpen;
    open_until_ms_ = now_ms + cooldown_ms_;
    metrics_->breaker_opens.Inc();
    return;
  }
  if (state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= failure_threshold_) {
    state_ = BreakerState::kOpen;
    open_until_ms_ = now_ms + cooldown_ms_;
    metrics_->breaker_opens.Inc();
  }
}

BreakerState CircuitBreaker::state(double now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::kOpen && now_ms >= open_until_ms_) {
    return BreakerState::kHalfOpen;
  }
  return state_;
}

ResilientLlm::ResilientLlm(std::unique_ptr<SimulatedLlm> inner,
                           std::string dependency, uint64_t seed,
                           const FaultInjector* faults,
                           ResilienceMetrics* metrics)
    : inner_(std::move(inner)),
      dependency_(std::move(dependency)),
      dependency_hash_(Fnv1a64(dependency_)),
      seed_(seed),
      faults_(faults),
      metrics_(metrics),
      breaker_(kLlmBreakerFailureThreshold, kLlmBreakerCooldownMs, metrics) {}

double ResilientLlm::sim_now_ms() const {
  return static_cast<double>(sim_now_us_.load(std::memory_order_relaxed)) /
         1000.0;
}

void ResilientLlm::AdvanceClock(double ms) {
  if (ms <= 0.0) return;
  sim_now_us_.fetch_add(static_cast<uint64_t>(ms * 1000.0),
                        std::memory_order_relaxed);
}

BreakerState ResilientLlm::breaker_state() const {
  return breaker_.state(sim_now_ms());
}

Result<LlmCallOutcome> ResilientLlm::Explain(const Prompt& prompt,
                                             double budget_ms,
                                             double* spent_ms, Trace* trace) {
  // Every random decision below is keyed by (seed, purpose, key, attempt):
  // a request's fault/backoff transcript is a pure function of its SQL and
  // this dependency, independent of thread interleaving.
  const uint64_t key = Fnv1a64(prompt.question_sql) ^ dependency_hash_;
  // Model the gap since the previous request: not charged to this caller,
  // but it is what lets an open breaker's cooldown elapse under load.
  AdvanceClock(kLlmInterarrivalMs);
  double spent = 0.0;
  const char* last_failure = "no attempt made";
  auto charge = [&](double ms) {
    AdvanceClock(ms);
    spent += ms;
    if (spent_ms != nullptr) *spent_ms = spent;
    if (trace != nullptr) trace->Advance(ms);
  };
  auto note = [&](const char* name, std::string detail) {
    if (trace != nullptr) trace->Event(name, std::move(detail));
  };

  for (int attempt = 0; attempt < kLlmMaxAttempts; ++attempt) {
    if (budget_ms > 0.0 && spent >= budget_ms) {
      metrics_->budget_exhausted.Inc();
      note("budget_exhausted",
           StrFormat("%s: %.0f ms budget after %d attempts",
                     dependency_.c_str(), budget_ms, attempt));
      return Status::DeadlineExceeded(
          StrFormat("%s: request budget (%.0f ms) exhausted after %d attempts",
                    dependency_.c_str(), budget_ms, attempt));
    }
    if (!breaker_.AllowRequest(sim_now_ms())) {
      metrics_->breaker_short_circuits.Inc();
      note("breaker_short_circuit", dependency_);
      return Status::Unavailable(dependency_ + ": circuit breaker open");
    }
    metrics_->llm_attempts.Inc();
    if (attempt > 0) metrics_->llm_retries.Inc();

    const uint64_t a = static_cast<uint64_t>(attempt);
    FaultDraw timeout =
        faults_ != nullptr ? faults_->Draw(kFaultLlmTimeout, key, a)
                           : FaultDraw{};
    FaultDraw transient =
        faults_ != nullptr ? faults_->Draw(kFaultLlmTransient, key, a)
                           : FaultDraw{};

    double attempt_ms = 0.0;
    auto note_attempt = [&](const char* outcome, double ms) {
      note("attempt", StrFormat("%s #%d: %s (%.1f ms)", dependency_.c_str(),
                                attempt + 1, outcome, ms));
    };
    if (timeout.fired) {
      // The caller hangs on the dependency until the deadline, then gives
      // up: a timeout costs exactly the per-attempt deadline.
      attempt_ms = kLlmAttemptDeadlineMs;
      metrics_->llm_timeouts.Inc();
      last_failure = "timeout";
      note_attempt("timeout", attempt_ms);
    } else if (transient.fired) {
      attempt_ms = transient.latency_ms > 0.0 ? transient.latency_ms
                                              : kDefaultTransientMs;
      metrics_->llm_transient_errors.Inc();
      last_failure = "transient error";
      note_attempt("transient error", attempt_ms);
    } else {
      GeneratedExplanation gen = inner_->Explain(prompt);
      FaultDraw slow = faults_ != nullptr
                           ? faults_->Draw(kFaultLlmSlow, key, a)
                           : FaultDraw{};
      if (slow.fired) {
        gen.timing.generation_ms +=
            slow.latency_ms > 0.0 ? slow.latency_ms : kDefaultSlowMs;
        metrics_->llm_slow.Inc();
      }
      FaultDraw garbled = faults_ != nullptr
                              ? faults_->Draw(kFaultLlmGarbled, key, a)
                              : FaultDraw{};
      if (garbled.fired) {
        gen.text = GarbleText(std::move(gen.text),
                              MixFaultSeed(seed_, key, a, 0x6a4bull));
      }
      attempt_ms = gen.timing.total_ms();
      if (attempt_ms > kLlmAttemptDeadlineMs) {
        // Abandoned at the deadline — the over-long generation is thrown
        // away and only the deadline is paid.
        attempt_ms = kLlmAttemptDeadlineMs;
        metrics_->llm_timeouts.Inc();
        last_failure = "deadline exceeded";
        note_attempt("deadline exceeded", attempt_ms);
      } else if (LooksGarbled(gen.text)) {
        metrics_->llm_garbled.Inc();
        last_failure = "garbled output";
        note_attempt("garbled output", attempt_ms);
      } else {
        note_attempt("ok", attempt_ms);
        charge(attempt_ms);
        breaker_.RecordSuccess(sim_now_ms());
        LlmCallOutcome out;
        out.explanation = std::move(gen);
        out.attempts = attempt + 1;
        out.overhead_ms = spent - attempt_ms;
        return out;
      }
    }

    charge(attempt_ms);
    breaker_.RecordFailure(sim_now_ms());
    if (attempt + 1 < kLlmMaxAttempts) {
      // Full-jitter exponential backoff on the simulated clock.
      double cap = std::min(kBackoffCapMs, kBackoffBaseMs * std::exp2(attempt));
      Rng rng(MixFaultSeed(seed_, kBackoffPurpose, key, a));
      double backoff_ms = rng.UniformReal(0.0, cap);
      note("backoff", StrFormat("%.1f ms", backoff_ms));
      charge(backoff_ms);
    }
  }
  note("attempts_exhausted",
       StrFormat("%s after %d attempts (last: %s)", dependency_.c_str(),
                 kLlmMaxAttempts, last_failure));
  return Status::Unavailable(StrFormat("%s: %d attempts exhausted (last: %s)",
                                       dependency_.c_str(),
                                       kLlmMaxAttempts, last_failure));
}

std::string GarbleText(std::string text, uint64_t seed) {
  Rng rng(seed);
  for (char& c : text) {
    if (rng.Bernoulli(0.2)) {
      c = static_cast<char>(1 + rng.NextU64() % 8);  // control chars \x01-\x08
    }
  }
  // A garbled stream is often also truncated mid-token.
  if (text.size() > 8 && rng.Bernoulli(0.5)) {
    text.resize(text.size() / 2);
  }
  if (!LooksGarbled(text)) {
    // Short texts can dodge every per-char coin flip (or truncation can cut
    // off every corrupted byte); a garble fault must still be a garble —
    // LooksGarbled relies on at least one marker byte surviving.
    text[rng.NextU64() % text.size()] = '\x01';
  }
  return text;
}

bool LooksGarbled(const std::string& text) {
  if (text.empty()) return true;
  for (char c : text) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x09) return true;  // printable text never carries \x01-\x08
  }
  return false;
}

GeneratedExplanation MakePlanDiffExplanation(const Prompt& prompt) {
  GeneratedExplanation out;
  out.claims.claimed_faster = prompt.question_result;
  out.claims.compared_costs = false;
  auto surface = ReadPairSurface(prompt.question_tp_plan_json,
                                 prompt.question_ap_plan_json);
  if (!surface.ok()) {
    out.claims.is_none = true;
    out.text = "None";
    return out;
  }
  const PlanSurface& tp = surface->tp;
  const PlanSurface& ap = surface->ap;
  std::string text = StrFormat(
      "[degraded: plan-diff report] The %s engine executed this query "
      "faster. Structural differences between the plans:",
      EngineName(prompt.question_result));
  auto add = [&text](const std::string& line) { text += "\n- " + line; };
  add(StrFormat("join strategy: TP uses %d join(s)%s; AP uses %d join(s)%s.",
                tp.num_joins,
                tp.HasNode(PlanOp::kIndexNestedLoopJoin)
                    ? " (index nested loop)"
                    : (tp.HasNode(PlanOp::kNestedLoopJoin) ? " (nested loop)"
                                                           : ""),
                ap.num_joins,
                ap.HasNode(PlanOp::kHashJoin) ? " (hash join)" : ""));
  add(StrFormat("access paths: TP %s; AP %s.",
                tp.HasNode(PlanOp::kIndexScan) || tp.ordered_index_scan ||
                        !tp.index_columns.empty()
                    ? "reads via index"
                    : "scans rows",
                ap.HasNode(PlanOp::kColumnScan) ? "scans columns"
                                                : "scans rows"));
  if (tp.has_limit || ap.has_limit) {
    add(StrFormat("limit/offset: LIMIT %lld OFFSET %lld.",
                  static_cast<long long>(std::max(tp.limit, ap.limit)),
                  static_cast<long long>(std::max(tp.offset, ap.offset))));
  }
  if (tp.has_sort || ap.has_sort || ap.has_topn) {
    add("ordering: a sort/top-N operator is present.");
  }
  text +=
      "\nNo knowledge-grounded root-cause analysis is available for this "
      "response (the explanation service is degraded); the differences "
      "above are read directly from the two plans.";
  out.text = std::move(text);
  // Computed locally — no simulated LLM round trip to charge.
  out.timing = LlmTiming{};
  return out;
}

}  // namespace htapex
