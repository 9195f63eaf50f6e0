#ifndef HTAPEX_COMMON_SIM_CLOCK_H_
#define HTAPEX_COMMON_SIM_CLOCK_H_

#include <chrono>

namespace htapex {

/// Accumulates simulated time. Components whose real-world latency we model
/// rather than incur (query execution at 100 GB scale, LLM generation)
/// advance a SimClock instead of sleeping, so benchmarks report the paper's
/// time scales while running instantly.
class SimClock {
 public:
  SimClock() = default;

  void AdvanceMillis(double ms) { now_ms_ += ms; }

  double now_millis() const { return now_ms_; }
  double now_seconds() const { return now_ms_ / 1000.0; }

  void Reset() { now_ms_ = 0.0; }

 private:
  double now_ms_ = 0.0;
};

/// Wall-clock stopwatch for the components we actually measure (router
/// inference, knowledge-base search).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  double ElapsedMillis() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace htapex

#endif  // HTAPEX_COMMON_SIM_CLOCK_H_
