#ifndef HTAPEX_LIFECYCLE_MODEL_LIFECYCLE_H_
#define HTAPEX_LIFECYCLE_MODEL_LIFECYCLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "lifecycle/feedback_buffer.h"
#include "obs/metrics.h"
#include "router/smart_router.h"

namespace htapex {

/// Where the self-healing loop currently is. Transitions (all inside Tick):
///
///   kIdle ──drift detected──▶ kRetrain ──candidate trained──▶ kShadow
///   kShadow ──candidate loses / too many stalls──▶ kIdle
///   kShadow ──candidate wins──▶ (hot-swap) ──▶ kWatch
///   kWatch ──post-swap window healthy──▶ kIdle
///   kWatch ──regression──▶ (rollback to retained snapshot) ──▶ kIdle
enum class LifecyclePhase { kIdle, kRetrain, kShadow, kWatch };

const char* LifecyclePhaseName(LifecyclePhase phase);

struct LifecycleOptions {
  /// Master switch: a disabled manager records nothing and never ticks.
  bool enabled = false;

  // --- feedback buffer ---
  size_t feedback_capacity = 512;
  /// Backing-log directory for the feedback buffer; empty = memory-only.
  std::string data_dir;
  int fsync_every_n = 8;

  // --- drift detection (kIdle) ---
  /// No evaluation until this many samples exist — cold accuracy is noise.
  size_t min_samples = 48;
  /// Re-evaluate drift every this many new samples.
  size_t eval_every = 16;
  /// Samples per accuracy window (drift signal).
  size_t drift_window = 64;
  /// Retrain when windowed accuracy falls this far below the high-water
  /// baseline.
  double drift_threshold = 0.15;

  // --- retrain (kRetrain) ---
  size_t retrain_window = 256;  // newest samples used as the training set
  int retrain_epochs = 40;

  // --- shadow validation (kShadow) ---
  /// Samples the candidate and serving snapshot are both scored on.
  size_t shadow_window = 64;
  /// Ticks the candidate shadows before scoring (lets fresh traffic land).
  int shadow_beats = 2;
  /// shadow.stall faults absorbed before the run is abandoned — bounds the
  /// phase even under a p=1 stall spec.
  int max_shadow_stalls = 3;

  // --- post-swap watch (kWatch) ---
  /// Fresh samples required after a swap before the verdict.
  size_t watch_window = 48;
  /// Roll back when post-swap accuracy lands this far below what the
  /// candidate scored in shadow.
  double regression_threshold = 0.10;

  // --- integration ---
  /// Auto-tick cadence for MaybeTick: attempt a tick every Nth recorded
  /// sample (0 = external ticks only).
  size_t tick_every_samples = 8;
  /// Candidate retrain seed (determinism contract).
  uint64_t seed = 7;
};

/// Self-healing model lifecycle: watches execution feedback for drift,
/// retrains a candidate router in the background, shadow-validates it
/// against the serving snapshot on the same live window, hot-swaps it in
/// atomically, and watches the swap — rolling back to the retained
/// previous weights if post-swap accuracy regresses.
///
/// Concurrency contract: RecordOutcome/RecordExample only touch the
/// (internally locked) feedback buffer plus one frozen-snapshot forward
/// pass — they never block behind a retrain. All state-machine work runs
/// under the cycle mutex inside Tick; MaybeTick try-locks so a serving
/// worker skips the tick rather than waiting when another thread is mid-
/// cycle. Stats() and phase() read a copy each cycle step publishes, so a
/// metrics scrape never waits for a retrain either. The serving router's
/// snapshot publication is RCU-style (see SmartRouter), so in-flight
/// readers keep the old snapshot across a swap.
///
/// Determinism contract: ticked single-threaded with a fixed seed and a
/// fixed sample stream, the manager produces an identical event log —
/// events carry versions, CRCs, counts, and accuracies, never wall time.
/// Injected stall latency advances an internal SimClock instead.
class ModelLifecycleManager {
 public:
  /// Hook run on drift detection: expire stale knowledge-base entries and
  /// backfill fresh ones, reporting how many of each.
  using CurationHook =
      std::function<Status(uint64_t* expired, uint64_t* backfilled)>;

  /// `router` must outlive the manager and is the serving router whose
  /// frozen snapshot gets republished by swaps and rollbacks.
  ModelLifecycleManager(SmartRouter* router, LifecycleOptions options);

  /// Opens (and recovers) the feedback buffer. Call once before use.
  Status Open();

  /// `faults` must outlive the manager; nullptr disables injection.
  /// Covers retrain.fail / shadow.stall / swap.publish draws and the
  /// feedback log's wal.* points.
  void set_fault_injector(const FaultInjector* faults);
  void set_curation_hook(CurationHook hook);

  /// Records one served query's measured outcome. Featurizes the pair,
  /// derives the ground-truth label from `faster`, and marks whether the
  /// serving snapshot's verdict agreed. `p_ap` is the probability the
  /// serving pass produced (< 0 = recompute from the current snapshot).
  void RecordOutcome(const PlanPair& plans, EngineKind faster,
                     double p_ap = -1.0);
  /// Same, for callers that already hold a featurized example.
  void RecordExample(PairExample example, double p_ap = -1.0);

  /// Advances the state machine one step (blocking on the cycle mutex).
  void Tick();
  /// Tick if the cycle mutex is free and the auto-tick cadence is due;
  /// serving workers call this so they never wait behind a retrain.
  void MaybeTick();

  /// Skips the drift gate and schedules a retrain cycle now. Fails if a
  /// cycle is already in flight.
  Status ForceRetrain();
  /// Rolls back to the retained pre-swap weights now. Fails if no swap
  /// has been retained.
  Status ForceRollback();
  /// Ticks until the in-flight cycle settles — back to kIdle, or parked in
  /// kWatch (whose verdict needs fresh live traffic later ticks deliver).
  /// Errors if still mid-cycle after `max_ticks`. Test/CLI convenience.
  Status RunToIdle(int max_ticks = 64);

  bool enabled() const { return options_.enabled; }
  /// The phase, counters and serving version/CRC as of the last completed
  /// cycle step; both return at once while a step (e.g. a retrain) runs.
  LifecyclePhase phase() const;
  LifecycleStats Stats() const;
  /// Deterministic, append-only event log (same-seed runs match exactly).
  std::vector<std::string> EventLog() const;
  const FeedbackBuffer& feedback() const { return buffer_; }
  const LifecycleOptions& options() const { return options_; }
  /// Simulated milliseconds absorbed by injected stalls.
  double sim_millis() const;

 private:
  struct Retained {
    std::unique_ptr<TreeCnn> master;  // pre-swap weights, bit-exact
    uint64_t version = 0;             // frozen version they served as
    uint32_t crc = 0;                 // frozen CRC they hashed to
    double baseline = 0.0;            // high-water accuracy they held
  };

  void TickLocked();
  void StepIdleLocked();
  void StepRetrainLocked();
  void StepShadowLocked();
  void StepWatchLocked();
  void AttemptSwapLocked();
  void RollbackLocked(const std::string& why);
  void CurateLocked();
  void LogLocked(std::string event);
  /// Copies the phase and counters to where Stats() and phase() read them.
  void PublishLocked();
  double ServingAccuracyLocked(size_t window) const;

  SmartRouter* router_;
  LifecycleOptions options_;
  FeedbackBuffer buffer_;
  const FaultInjector* faults_ = nullptr;
  CurationHook curate_;

  /// Guards everything below (the cycle state). Never held while
  /// recording feedback — see the concurrency contract above.
  mutable std::mutex mu_;
  LifecyclePhase phase_ = LifecyclePhase::kIdle;
  uint64_t ticks_ = 0;
  uint64_t cycle_ = 0;  // retrain cycles started; fault-draw key
  uint64_t last_eval_total_ = 0;
  bool baseline_set_ = false;
  std::unique_ptr<SmartRouter> candidate_;
  int shadow_beats_left_ = 0;
  int shadow_stalls_ = 0;
  uint64_t shadow_attempt_ = 0;  // per-cycle stall-draw ordinal
  uint64_t watch_start_total_ = 0;
  double expected_accuracy_ = 0.0;  // what the winning candidate shadowed
  std::optional<Retained> retained_;
  /// Event counters and accuracies; Stats() adds the phase, the serving
  /// snapshot's identity and the feedback counts.
  LifecycleStats stats_;
  std::vector<std::string> events_;
  double sim_millis_ = 0.0;

  /// Guards the copy below, taken after mu_ (never the other way round)
  /// and held only to copy it.
  mutable std::mutex published_mu_;
  LifecyclePhase published_phase_ = LifecyclePhase::kIdle;
  LifecycleStats published_stats_;
};

}  // namespace htapex

#endif  // HTAPEX_LIFECYCLE_MODEL_LIFECYCLE_H_
