#ifndef HTAPEX_DURABLE_DURABLE_KB_H_
#define HTAPEX_DURABLE_DURABLE_KB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "durable/wal.h"
#include "obs/metrics.h"
#include "vectordb/knowledge_base.h"

namespace htapex {

/// Tuning for the durability subsystem.
struct DurabilityOptions {
  /// Data directory holding snapshots, WAL segments and the MANIFEST.
  /// Created (with parents) if missing.
  std::string dir;
  /// fsync the WAL every N appends. 1 (the default) makes every committed
  /// mutation crash-durable; larger values trade the fsync cost for losing
  /// up to N-1 trailing records in a crash.
  int fsync_every_n = 1;
  /// Install a snapshot (and rotate the WAL) automatically every N
  /// mutations; 0 disables the trigger (snapshots only via Snapshot()).
  int snapshot_every_n = 0;
};

/// Snapshot generations kept on disk. The newest serves recovery; the one
/// before it is the fallback when the newest turns out corrupt.
inline constexpr int kKeptGenerations = 2;

/// What recovery found (also folded into DurabilityMetrics).
struct RecoveryInfo {
  /// True when existing state was recovered; false when the directory was
  /// fresh and Attach bootstrapped it from the KB's current contents.
  bool recovered = false;
  size_t snapshot_entries = 0;     // entries restored from the snapshot
  uint64_t replayed_records = 0;   // WAL records applied on top
  uint64_t truncated_records = 0;  // torn tails dropped
  uint64_t corrupt_records = 0;    // checksum/framing failures hit
  uint64_t snapshot_fallbacks = 0; // corrupt generations skipped
  double recovery_ms = 0.0;
};

/// Crash-safe persistence for the RAG knowledge base.
///
/// Attaches to a KnowledgeBase as its mutation sink: every Insert /
/// CorrectExplanation / Expire (and thus KbManager::ShrinkTo, which expires)
/// is appended to a checksummed write-ahead log *before* it is applied, and
/// fsynced per DurabilityOptions. Periodically — every snapshot_every_n
/// mutations or on demand — the full KB state is written to a snapshot via
/// temp file + fsync + atomic rename (common/file_io.h), the WAL rotates to
/// a fresh segment, and the MANIFEST (also atomically replaced) records the
/// new generation as (snapshot, wal segment, offset). Superseded segments
/// and snapshots beyond kKeptGenerations are garbage-collected.
///
/// Recovery (Attach on a directory with a MANIFEST) loads the newest
/// snapshot whose checksum verifies — falling back generation by
/// generation when it does not — then replays the WAL from that
/// generation's segment onward, truncating a torn tail so the writer
/// resumes at a clean boundary. With fsync_every_n == 1, recovery loses at
/// most the single record that was in flight when the process died.
///
/// Crash injection: set_fault_injector arms the kFaultWalAppend /
/// kFaultWalFsync / kFaultSnapshotWrite / kFaultSnapshotRename points; a
/// fired draw leaves the on-disk state exactly as a crash at that instant
/// would (torn frame, lost unsynced suffix, orphan temp file, missing
/// rename) and fails the mutation. A failed snapshot does not wedge the
/// log — the WAL keeps the state recoverable and a later trigger retries.
///
/// Not internally locked: mutations already run under the service layer's
/// exclusive KB lock (or a single thread), and Snapshot() must not race
/// mutations.
class DurableKnowledgeBase : public KbMutationSink {
 public:
  explicit DurableKnowledgeBase(DurabilityOptions options);
  ~DurableKnowledgeBase() override;

  DurableKnowledgeBase(const DurableKnowledgeBase&) = delete;
  DurableKnowledgeBase& operator=(const DurableKnowledgeBase&) = delete;

  /// True when `dir` holds durable state a future Attach would recover.
  static bool HasState(const std::string& dir);

  /// `faults` must outlive this object; nullptr disables crash injection.
  /// May be re-set between mutations (the crash-matrix test arms points
  /// mid-sequence).
  void set_fault_injector(const FaultInjector* faults);

  /// Binds to `kb` and makes it durable. If the directory already holds
  /// state, `kb` must be untouched (nothing ever inserted) and is rebuilt
  /// from the newest valid snapshot plus the WAL; otherwise the directory
  /// is initialized with a bootstrap snapshot of the KB's current contents
  /// (so a pre-built default KB becomes generation 0). On success the KB's
  /// mutation sink points here until detach/destruction.
  Result<RecoveryInfo> Attach(KnowledgeBase* kb);

  /// Unhooks from the KB (mutations stop being logged). Idempotent.
  void Detach();

  /// Installs a snapshot now: atomic snapshot file, WAL rotation, MANIFEST
  /// update, GC of superseded files. Mutation-count trigger resets.
  Status Snapshot();

  DurabilityStats StatsSnapshot() const { return LoadStats(metrics_); }
  DurabilityMetrics* metrics() { return &metrics_; }
  const DurabilityOptions& options() const { return options_; }
  /// Mutations logged since the last installed snapshot.
  uint64_t mutations_since_snapshot() const {
    return mutations_since_snapshot_;
  }

  /// KbMutationSink: appends the mutation to the WAL (snapshotting first
  /// when the trigger is due) before the KnowledgeBase applies it.
  Status WillApply(const KbMutation& mutation) override;

 private:
  struct Generation {
    uint64_t gen = 0;
    std::string snapshot_file;  // relative to dir
    uint32_t crc = 0;
    uint64_t wal_segment = 0;
    uint64_t wal_offset = 0;
  };
  struct Manifest {
    uint64_t next_gen = 0;
    uint64_t next_segment = 0;
    std::vector<Generation> generations;  // oldest first, newest last
  };

  std::string SegmentPath(uint64_t segment) const;
  std::string SnapshotPath(const std::string& file) const;
  Status WriteManifest(const Manifest& manifest) const;
  Result<Manifest> ReadManifest() const;
  /// Deletes snapshots/segments no kept generation references.
  void CollectGarbage();
  /// Rebuilds the (empty) KB from the MANIFEST's newest valid snapshot
  /// plus the WAL.
  Result<RecoveryInfo> Recover();
  /// Initializes a fresh directory with a snapshot of the KB as it is.
  Result<RecoveryInfo> Bootstrap();
  void RemoveOrphanTempFiles() const;

  DurabilityOptions options_;
  KnowledgeBase* kb_ = nullptr;
  WalWriter wal_;
  Manifest manifest_;
  DurabilityMetrics metrics_;
  const FaultInjector* faults_ = nullptr;
  uint64_t mutations_since_snapshot_ = 0;
  uint64_t appends_since_sync_ = 0;
};

}  // namespace htapex

#endif  // HTAPEX_DURABLE_DURABLE_KB_H_
