#ifndef HTAPEX_DURABLE_WAL_H_
#define HTAPEX_DURABLE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/fault.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "vectordb/knowledge_base.h"

namespace htapex {

/// Compact JSON payload for one mutation (the bytes the CRC covers).
std::string EncodeWalRecord(const KbMutation& record);
/// Inverse of EncodeWalRecord; errors on unknown ops, malformed JSON, or an
/// insert entry DecodeKbEntry rejects for a `dim`-wide knowledge base.
Result<KbMutation> DecodeWalRecord(std::string_view payload, int dim);

/// Appends one WAL frame, [u32 length][u32 crc32(payload)][payload], to
/// `out`. WalWriter::Append and the feedback-log compaction both frame
/// through here.
void AppendWalFrame(std::string* out, std::string_view payload);

/// Append-only writer over one WAL segment file.
///
/// On-disk framing per record, all integers little-endian:
///   [u32 payload_length][u32 crc32(payload)][payload bytes]
/// The checksum lets replay distinguish a torn tail (crash mid-append,
/// truncated away) from mid-log corruption (bit rot, reported and replay
/// stops). Appends go through the process page cache; Sync() makes them
/// crash-durable — the durable layer syncs every N appends (N=1 default).
///
/// Crash injection: with a FaultInjector attached, kFaultWalAppend writes
/// only a prefix of the frame (a torn tail exactly as a real crash leaves
/// one) and kFaultWalFsync discards the unsynced suffix (what a crash
/// before fsync loses). Either fired fault wedges the writer — the
/// simulated process is dead; tests reopen the directory to recover.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending (created if missing), positioned at its
  /// current end. `metrics` may be nullptr.
  static Result<WalWriter> Open(const std::string& path,
                                DurabilityMetrics* metrics);

  /// `faults` must outlive the writer; nullptr disables crash injection.
  void set_fault_injector(const FaultInjector* faults) { faults_ = faults; }

  Status Append(std::string_view payload);
  Status Sync();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  /// Bytes appended so far (file end), and the crash-durable prefix.
  uint64_t offset() const { return offset_; }
  uint64_t synced_offset() const { return synced_offset_; }

 private:
  void Close();

  int fd_ = -1;
  std::string path_;
  uint64_t offset_ = 0;
  uint64_t synced_offset_ = 0;
  uint64_t append_ordinal_ = 0;
  bool wedged_ = false;
  DurabilityMetrics* metrics_ = nullptr;
  const FaultInjector* faults_ = nullptr;
};

/// What one segment replay saw.
struct WalReplayStats {
  uint64_t replayed = 0;   // records decoded and applied
  uint64_t truncated = 0;  // torn-tail records dropped (and truncated away)
  uint64_t corrupt = 0;    // checksum/framing/apply failures (replay stops)
};

/// Replays every intact record of the segment at `path` through `apply`,
/// in order, decoding inserts for a `dim`-wide knowledge base. A torn tail
/// (incomplete final frame) is truncated off the file when
/// `truncate_torn_tail` is set, so a recovered writer appends at a clean
/// boundary. A corrupt record (full frame, bad checksum, or an
/// apply failure) stops the replay — everything before it is kept. Never
/// returns an error for bad log bytes; only an unreadable file is an
/// error. A missing file replays zero records.
Status ReplayWalSegment(const std::string& path, int dim,
                        bool truncate_torn_tail,
                        const std::function<Status(const KbMutation&)>& apply,
                        WalReplayStats* stats);

/// Payload-agnostic frame replay: walks the [u32 length][u32 crc][payload]
/// framing at `path` and hands every intact payload to `apply`, with the
/// same torn-tail / corruption semantics as ReplayWalSegment (which is
/// built on this). Non-KB logs that reuse the WAL framing — the lifecycle
/// feedback log — recover through here with their own payload decoding.
Status ReplayWalFrames(const std::string& path, bool truncate_torn_tail,
                       const std::function<Status(std::string_view)>& apply,
                       WalReplayStats* stats);

}  // namespace htapex

#endif  // HTAPEX_DURABLE_WAL_H_
