#include "lifecycle/model_lifecycle.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace htapex {

namespace {

// Candidate retrain minibatch size and learning rate.
constexpr int kRetrainBatchSize = 16;
constexpr double kRetrainLearningRate = 5e-3;
// Accuracy margin a shadowed candidate needs over the serving snapshot to
// be swapped in: a tie swaps.
constexpr double kShadowMinGain = 0.0;

}  // namespace

const char* LifecyclePhaseName(LifecyclePhase phase) {
  switch (phase) {
    case LifecyclePhase::kIdle:
      return "idle";
    case LifecyclePhase::kRetrain:
      return "retrain";
    case LifecyclePhase::kShadow:
      return "shadow";
    case LifecyclePhase::kWatch:
      return "watch";
  }
  return "unknown";
}

ModelLifecycleManager::ModelLifecycleManager(SmartRouter* router,
                                             LifecycleOptions options)
    : router_(router),
      options_(std::move(options)),
      buffer_([this] {
        FeedbackBufferOptions fb;
        fb.capacity = options_.feedback_capacity;
        fb.dir = options_.data_dir;
        fb.fsync_every_n = options_.fsync_every_n;
        return fb;
      }()) {}

Status ModelLifecycleManager::Open() {
  if (!options_.enabled) return Status::OK();
  HTAPEX_RETURN_IF_ERROR(buffer_.Open());
  std::lock_guard<std::mutex> lock(mu_);
  if (buffer_.recovery_stats().replayed > 0) {
    LogLocked(StrFormat("recovered feedback samples=%llu kept=%llu",
                        (unsigned long long)buffer_.recovery_stats().replayed,
                        (unsigned long long)buffer_.size()));
  }
  LogLocked(StrFormat("lifecycle open serving v%llu crc=%08x",
                      (unsigned long long)router_->frozen_version(),
                      router_->frozen_crc()));
  return Status::OK();
}

void ModelLifecycleManager::set_fault_injector(const FaultInjector* faults) {
  buffer_.set_fault_injector(faults);
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = faults;
}

void ModelLifecycleManager::set_curation_hook(CurationHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  curate_ = std::move(hook);
}

void ModelLifecycleManager::RecordOutcome(const PlanPair& plans,
                                          EngineKind faster, double p_ap) {
  if (!options_.enabled) return;
  RecordExample(router_->MakeExample(plans, faster), p_ap);
}

void ModelLifecycleManager::RecordExample(PairExample example, double p_ap) {
  if (!options_.enabled) return;
  FeedbackSample sample;
  if (p_ap < 0.0) {
    // One forward pass on whatever snapshot is serving right now — never
    // the master, so recording stays safe against a concurrent retrain.
    p_ap = router_->frozen_snapshot()->PredictApFaster(example.tp, example.ap);
  }
  sample.p_ap = p_ap;
  sample.correct = (p_ap >= 0.5 ? 1 : 0) == example.label;
  sample.example = std::move(example);
  buffer_.Add(std::move(sample));
  if (options_.tick_every_samples > 0 &&
      buffer_.total_added() % options_.tick_every_samples == 0) {
    MaybeTick();
  }
}

void ModelLifecycleManager::Tick() {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  TickLocked();
}

void ModelLifecycleManager::MaybeTick() {
  if (!options_.enabled) return;
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // a cycle step is in flight; skip, not wait
  TickLocked();
}

void ModelLifecycleManager::TickLocked() {
  ++ticks_;
  switch (phase_) {
    case LifecyclePhase::kIdle:
      StepIdleLocked();
      break;
    case LifecyclePhase::kRetrain:
      StepRetrainLocked();
      break;
    case LifecyclePhase::kShadow:
      StepShadowLocked();
      break;
    case LifecyclePhase::kWatch:
      StepWatchLocked();
      break;
  }
}

void ModelLifecycleManager::StepIdleLocked() {
  uint64_t total = buffer_.total_added();
  if (buffer_.size() < options_.min_samples) return;
  if (last_eval_total_ != 0 && total - last_eval_total_ < options_.eval_every) {
    return;
  }
  last_eval_total_ = total;
  double recent = ServingAccuracyLocked(options_.drift_window);
  stats_.serving_accuracy = recent;
  if (!baseline_set_) {
    baseline_set_ = true;
    stats_.baseline_accuracy = recent;
    LogLocked(StrFormat("baseline set acc=%.4f", recent));
    return;
  }
  if (recent > stats_.baseline_accuracy) {
    stats_.baseline_accuracy = recent;  // high-water mark
    return;
  }
  if (stats_.baseline_accuracy - recent < options_.drift_threshold) return;
  stats_.drift_detections += 1;
  LogLocked(StrFormat("drift detected recent=%.4f baseline=%.4f", recent,
                      stats_.baseline_accuracy));
  // Stale routing usually means stale KB exemplars too: same cause, same
  // fix.
  CurateLocked();
  ++cycle_;
  shadow_attempt_ = 0;
  phase_ = LifecyclePhase::kRetrain;
  LogLocked(StrFormat("retrain scheduled cycle=%llu",
                      (unsigned long long)cycle_));
}

void ModelLifecycleManager::StepRetrainLocked() {
  if (faults_ != nullptr) {
    FaultDraw draw = faults_->Draw(kFaultRetrainFail, cycle_, 0);
    if (draw.fired) {
      stats_.retrain_failures += 1;
      sim_millis_ += draw.latency_ms;
      phase_ = LifecyclePhase::kIdle;
      LogLocked(StrFormat("retrain failed cycle=%llu; serving v%llu unchanged",
                          (unsigned long long)cycle_,
                          (unsigned long long)router_->frozen_version()));
      return;
    }
  }
  std::vector<PairExample> examples =
      buffer_.NewestExamples(options_.retrain_window);
  if (examples.empty()) {
    phase_ = LifecyclePhase::kIdle;
    LogLocked("retrain aborted: no feedback samples");
    return;
  }
  // Fresh candidate trained from scratch on the newest window: drifted
  // workloads want the new regime learned, not the old one fine-tuned.
  candidate_ = std::make_unique<SmartRouter>(options_.seed);
  RouterTrainStats stats = candidate_->Train(
      examples, options_.retrain_epochs, kRetrainBatchSize,
      kRetrainLearningRate);
  stats_.retrains += 1;
  LogLocked(StrFormat("retrain complete cycle=%llu examples=%llu acc=%.4f",
                      (unsigned long long)cycle_,
                      (unsigned long long)examples.size(),
                      stats.train_accuracy));
  phase_ = LifecyclePhase::kShadow;
  shadow_beats_left_ = std::max(options_.shadow_beats, 1);
  shadow_stalls_ = 0;
}

void ModelLifecycleManager::StepShadowLocked() {
  if (faults_ != nullptr) {
    FaultDraw draw = faults_->Draw(kFaultShadowStall, cycle_, shadow_attempt_);
    ++shadow_attempt_;
    if (draw.fired) {
      stats_.shadow_stalls += 1;
      sim_millis_ += draw.latency_ms > 0 ? draw.latency_ms : 50.0;
      if (++shadow_stalls_ > options_.max_shadow_stalls) {
        stats_.shadow_aborts += 1;
        candidate_.reset();
        phase_ = LifecyclePhase::kIdle;
        LogLocked(StrFormat(
            "shadow aborted cycle=%llu stalls=%d; serving v%llu unchanged",
            (unsigned long long)cycle_, shadow_stalls_,
            (unsigned long long)router_->frozen_version()));
        return;
      }
      LogLocked(StrFormat("shadow stalled cycle=%llu stalls=%d",
                          (unsigned long long)cycle_, shadow_stalls_));
      return;
    }
  }
  if (--shadow_beats_left_ > 0) return;  // let more live traffic land
  std::vector<PairExample> window =
      buffer_.NewestExamples(options_.shadow_window);
  double serving = router_->EvaluateAccuracy(window);
  double candidate = candidate_->EvaluateAccuracy(window);
  stats_.shadow_runs += 1;
  stats_.serving_accuracy = serving;
  stats_.candidate_accuracy = candidate;
  LogLocked(StrFormat("shadow scored cycle=%llu serving=%.4f candidate=%.4f",
                      (unsigned long long)cycle_, serving, candidate));
  if (candidate >= serving + kShadowMinGain && candidate > 0.0) {
    AttemptSwapLocked();
  } else {
    stats_.shadow_rejects += 1;
    candidate_.reset();
    phase_ = LifecyclePhase::kIdle;
    LogLocked(StrFormat("candidate rejected cycle=%llu; serving v%llu kept",
                        (unsigned long long)cycle_,
                        (unsigned long long)router_->frozen_version()));
  }
}

void ModelLifecycleManager::AttemptSwapLocked() {
  if (faults_ != nullptr) {
    FaultDraw draw = faults_->Draw(kFaultSwapPublish, cycle_, 0);
    if (draw.fired) {
      stats_.swap_failures += 1;
      candidate_.reset();
      phase_ = LifecyclePhase::kIdle;
      LogLocked(StrFormat(
          "swap publish failed cycle=%llu; serving v%llu crc=%08x unchanged",
          (unsigned long long)cycle_,
          (unsigned long long)router_->frozen_version(),
          router_->frozen_crc()));
      return;
    }
  }
  // Retain the exact serving weights before they are overwritten: rollback
  // must restore them bit-identically (the frozen CRC proves it).
  Retained retained;
  retained.master = router_->CloneMaster();
  retained.version = router_->frozen_version();
  retained.crc = router_->frozen_crc();
  retained.baseline = stats_.baseline_accuracy;
  router_->CloneWeightsFrom(*candidate_);  // atomic RCU publication inside
  retained_ = std::move(retained);
  candidate_.reset();
  stats_.swaps += 1;
  expected_accuracy_ = stats_.candidate_accuracy;
  watch_start_total_ = buffer_.total_added();
  phase_ = LifecyclePhase::kWatch;
  LogLocked(StrFormat("swap published v%llu crc=%08x expected=%.4f",
                      (unsigned long long)router_->frozen_version(),
                      router_->frozen_crc(), expected_accuracy_));
}

void ModelLifecycleManager::StepWatchLocked() {
  if (buffer_.total_added() - watch_start_total_ < options_.watch_window) {
    return;  // not enough post-swap traffic for a verdict yet
  }
  double post = ServingAccuracyLocked(options_.watch_window);
  stats_.serving_accuracy = post;
  if (post + options_.regression_threshold < expected_accuracy_) {
    RollbackLocked(StrFormat("regression post=%.4f expected=%.4f", post,
                             expected_accuracy_));
    return;
  }
  baseline_set_ = true;
  stats_.baseline_accuracy = post;
  last_eval_total_ = buffer_.total_added();
  retained_->baseline = stats_.baseline_accuracy;
  phase_ = LifecyclePhase::kIdle;
  LogLocked(StrFormat("swap accepted v%llu post=%.4f",
                      (unsigned long long)router_->frozen_version(), post));
}

void ModelLifecycleManager::RollbackLocked(const std::string& why) {
  if (!retained_.has_value()) return;
  Status status = router_->AdoptMaster(*retained_->master);
  stats_.rollbacks += 1;
  if (!status.ok()) {
    LogLocked("rollback failed: " + status.message());
    return;
  }
  bool bit_identical = router_->frozen_crc() == retained_->crc;
  LogLocked(StrFormat(
      "rollback (%s) restored v%llu crc=%08x prev_crc=%08x identical=%d",
      why.c_str(), (unsigned long long)router_->frozen_version(),
      router_->frozen_crc(), retained_->crc, bit_identical ? 1 : 0));
  baseline_set_ = true;
  stats_.baseline_accuracy = retained_->baseline;
  retained_.reset();
  // Cooldown: drift evaluation restarts from fresh traffic so the rolled-
  // back model is not immediately re-flagged on the window that sank the
  // failed candidate.
  last_eval_total_ = buffer_.total_added();
  phase_ = LifecyclePhase::kIdle;
}

void ModelLifecycleManager::CurateLocked() {
  if (!curate_) return;
  uint64_t expired = 0;
  uint64_t backfilled = 0;
  Status status = curate_(&expired, &backfilled);
  if (!status.ok()) {
    LogLocked("kb curation failed: " + status.message());
    return;
  }
  stats_.kb_expired += expired;
  stats_.kb_backfilled += backfilled;
  LogLocked(StrFormat("kb curated expired=%llu backfilled=%llu",
                      (unsigned long long)expired,
                      (unsigned long long)backfilled));
}

Status ModelLifecycleManager::ForceRetrain() {
  if (!options_.enabled) return Status::InvalidArgument("lifecycle disabled");
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ != LifecyclePhase::kIdle) {
    return Status::InvalidArgument(
        StrFormat("lifecycle busy (phase=%s)", LifecyclePhaseName(phase_)));
  }
  ++cycle_;
  shadow_attempt_ = 0;
  phase_ = LifecyclePhase::kRetrain;
  LogLocked(StrFormat("manual retrain requested cycle=%llu",
                      (unsigned long long)cycle_));
  return Status::OK();
}

Status ModelLifecycleManager::ForceRollback() {
  if (!options_.enabled) return Status::InvalidArgument("lifecycle disabled");
  std::lock_guard<std::mutex> lock(mu_);
  if (!retained_.has_value()) {
    return Status::NotFound("no retained pre-swap snapshot to roll back to");
  }
  RollbackLocked("manual");
  return Status::OK();
}

Status ModelLifecycleManager::RunToIdle(int max_ticks) {
  if (!options_.enabled) return Status::OK();
  // kWatch also counts as settled: the cycle's synchronous work (retrain,
  // shadow, swap) is done, and the watch verdict needs fresh live traffic
  // that a tick loop cannot synthesize — later ticks conclude it.
  auto settled = [this] {
    return phase_ == LifecyclePhase::kIdle || phase_ == LifecyclePhase::kWatch;
  };
  for (int i = 0; i < max_ticks; ++i) {
    std::lock_guard<std::mutex> lock(mu_);
    if (i > 0 && settled()) return Status::OK();
    TickLocked();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (settled()) return Status::OK();
  return Status::Internal(StrFormat("lifecycle still %s after %d ticks",
                                    LifecyclePhaseName(phase_), max_ticks));
}

LifecyclePhase ModelLifecycleManager::phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_;
}

LifecycleStats ModelLifecycleManager::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LifecycleStats stats = stats_;
  stats.phase = LifecyclePhaseName(phase_);
  stats.active_version = router_->frozen_version();
  stats.active_crc = router_->frozen_crc();
  stats.feedback_samples = buffer_.total_added();
  stats.feedback_wal_failures = buffer_.wal_failures();
  return stats;
}

std::vector<std::string> ModelLifecycleManager::EventLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

double ModelLifecycleManager::sim_millis() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sim_millis_;
}

void ModelLifecycleManager::LogLocked(std::string event) {
  events_.push_back(std::move(event));
}

double ModelLifecycleManager::ServingAccuracyLocked(size_t window) const {
  return router_->EvaluateAccuracy(buffer_.NewestExamples(window));
}

}  // namespace htapex
