#ifndef HTAPEX_LIFECYCLE_FEEDBACK_BUFFER_H_
#define HTAPEX_LIFECYCLE_FEEDBACK_BUFFER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "durable/wal.h"
#include "nn/tree_cnn.h"

namespace htapex {

/// One execution-feedback sample: the featurized plan pair the router
/// scored, the ground-truth label derived from both engines' measured
/// latencies, and what the serving snapshot said at serve time. The stream
/// of these is the lifecycle's only input — drift detection, retraining,
/// shadow scoring, and post-swap watching all read windows of it.
struct FeedbackSample {
  PairExample example;
  double p_ap = -1.0;    // serving P(AP faster); < 0 = not recorded
  bool correct = false;  // serving verdict agreed with the measured label
};

/// JSON payload for one sample (the bytes the WAL frame CRC covers).
std::string EncodeFeedbackSample(const FeedbackSample& sample);
/// Inverse of EncodeFeedbackSample; errors on malformed JSON or trees
/// whose child arrays disagree with the stated node count.
Result<FeedbackSample> DecodeFeedbackSample(std::string_view payload);

struct FeedbackBufferOptions {
  /// Newest samples retained in memory (and restored after recovery).
  size_t capacity = 512;
  /// Directory for the backing log ("<dir>/feedback.log"). Empty runs the
  /// buffer memory-only: samples survive process life, not restarts.
  std::string dir;
  /// Fsync cadence: sync after every Nth append (<=1 = every append).
  int fsync_every_n = 8;
};

/// The log is rewritten from the in-memory window once it holds more than
/// kFeedbackCompactFactor * capacity records, bounding disk growth.
inline constexpr size_t kFeedbackCompactFactor = 4;

/// Bounded, WAL-backed ring of execution-feedback samples.
///
/// Thread-safe: Add and the readers take one short internal mutex, so
/// serving workers can record outcomes while a retrain thread reads
/// training windows. Durability reuses the durable tier's WAL framing
/// ([u32 len][u32 crc][payload], see durable/wal.h) with JSON sample
/// payloads; recovery replays the log through ReplayWalFrames, truncates
/// any torn tail, and keeps the newest `capacity` samples. Compaction
/// rewrites the log with WriteFileAtomic (common/file_io.h). A wedged or
/// failing writer (e.g. an injected wal.append crash) degrades the buffer
/// to memory-only — feedback keeps flowing, wal_failures() counts the
/// loss — because the lifecycle must never stall serving on its own disk.
class FeedbackBuffer {
 public:
  explicit FeedbackBuffer(FeedbackBufferOptions options);

  /// Creates the directory and replays the existing log, if any.
  /// Idempotent per instance; call before Add when a dir is configured.
  Status Open();

  /// `faults` must outlive the buffer; nullptr disables injection.
  void set_fault_injector(const FaultInjector* faults);

  void Add(FeedbackSample sample);

  size_t size() const;
  /// Samples ever accepted, including those recovered from the log.
  uint64_t total_added() const;
  uint64_t wal_failures() const;
  /// True when a log is configured and the writer is still healthy.
  bool durable() const;
  WalReplayStats recovery_stats() const;

  /// Fraction of the newest min(n, size) serving verdicts that matched
  /// the measured label — the signal drift detection watches. 0 if empty.
  double WindowAccuracy(size_t n) const;
  /// The newest min(n, size) samples' examples, oldest first (training
  /// and evaluation order is part of the deterministic contract).
  std::vector<PairExample> NewestExamples(size_t n) const;

 private:
  Status AppendLocked(const FeedbackSample& sample);
  void MaybeCompactLocked();

  FeedbackBufferOptions options_;
  mutable std::mutex mu_;
  std::deque<FeedbackSample> samples_;
  uint64_t total_added_ = 0;
  uint64_t wal_failures_ = 0;
  uint64_t wal_records_ = 0;  // frames in the on-disk log
  int unsynced_ = 0;
  bool opened_ = false;
  bool wal_dead_ = false;  // writer failed; memory-only from here on
  WalWriter wal_;
  WalReplayStats recovery_;
  const FaultInjector* faults_ = nullptr;
};

}  // namespace htapex

#endif  // HTAPEX_LIFECYCLE_FEEDBACK_BUFFER_H_
