#ifndef HTAPEX_COMMON_FAULT_H_
#define HTAPEX_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"

namespace htapex {

/// Canonical fault-point names. A point only fires when the active spec
/// names it; unknown names in a spec are rejected at parse time so typos
/// fail loudly instead of silently injecting nothing.
inline constexpr char kFaultLlmTimeout[] = "llm.timeout";
inline constexpr char kFaultLlmTransient[] = "llm.transient_error";
inline constexpr char kFaultLlmGarbled[] = "llm.garbled_output";
inline constexpr char kFaultLlmSlow[] = "llm.slow_generation";
inline constexpr char kFaultKbInsert[] = "kb.insert";
// Durability crash points (src/durable/): a fired draw simulates the
// process dying at that instant of the write path — a torn WAL append, a
// crash before fsync (the unsynced suffix is lost), a half-written
// snapshot temp file, or a crash before the atomic snapshot rename.
inline constexpr char kFaultWalAppend[] = "wal.append";
inline constexpr char kFaultWalFsync[] = "wal.fsync";
inline constexpr char kFaultSnapshotWrite[] = "snapshot.write";
inline constexpr char kFaultSnapshotRename[] = "snapshot.rename";
// Sharded-tier fault points (src/service/sharded_service.*): shard.kill
// simulates a whole shard dying mid-request (service torn down without a
// clean-shutdown snapshot, disk left as-is); shard.stall simulates a
// slow/hung shard (adds latency and counts against its health); and
// replicate.drop simulates the correction-replication link to the successor
// shard failing (the mutation is aborted and never acked — zero
// acknowledged corrections may be lost).
inline constexpr char kFaultShardKill[] = "shard.kill";
inline constexpr char kFaultShardStall[] = "shard.stall";
inline constexpr char kFaultReplicateDrop[] = "replicate.drop";
// Model-lifecycle fault points (src/lifecycle/): retrain.fail aborts a
// candidate retrain (bad data, OOM, a dead training job — the serving
// snapshot must keep answering); shadow.stall stalls one shadow-scoring
// beat (adds simulated latency; too many consecutive stalls abort the
// shadow run and discard the candidate); swap.publish fails the atomic
// snapshot publication itself — the old snapshot stays live, version and
// CRC unchanged, and the candidate is discarded.
inline constexpr char kFaultRetrainFail[] = "retrain.fail";
inline constexpr char kFaultShadowStall[] = "shadow.stall";
inline constexpr char kFaultSwapPublish[] = "swap.publish";

/// Largest latency a spec may inject: one simulated hour, far above the
/// hundreds of milliseconds real specs use, and small enough that the
/// simulated clocks' integer microseconds never overflow.
inline constexpr double kMaxFaultLatencyMs = 3'600'000.0;

/// Per-point injection parameters.
struct FaultSpec {
  double probability = 0.0;  // chance a draw fires, in [0, 1]
  double latency_ms = 0.0;   // extra simulated latency when fired (0 = point default)
};

/// Outcome of one draw.
struct FaultDraw {
  bool fired = false;
  double latency_ms = 0.0;
};

/// Stable 64-bit mix of a seed and three draw coordinates (splitmix64-style
/// finalization per term). Exposed so backoff jitter can share the keying
/// discipline: every random decision in the resilience layer is a pure
/// function of (seed, purpose, request key, attempt).
uint64_t MixFaultSeed(uint64_t seed, uint64_t a, uint64_t b, uint64_t c);

/// Deterministic, registry-based fault injector.
///
/// A spec names fault points with per-point probability and latency, e.g.
///   "llm.transient_error:p=0.2;llm.timeout:p=0.1,lat=500;kb.insert:p=0.1"
/// parsed from a --faults CLI flag or the HTAPEX_FAULTS environment
/// variable. Draws are keyed by (seed, point, key, attempt) — NOT by a
/// shared RNG stream — so two runs with the same spec produce identical
/// fault decisions for every request regardless of thread interleaving or
/// call order.
///
/// Cheap to copy (shared immutable state); Draw is thread-safe and
/// lock-free. An empty injector (default-constructed or empty spec) never
/// fires and short-circuits immediately.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Parses a spec string. Empty spec yields a disabled injector. Errors
  /// (kInvalidArgument) on unknown point names, malformed fragments, and
  /// values that are not finite or out of range: p outside [0, 1], lat
  /// outside [0, kMaxFaultLatencyMs].
  static Result<FaultInjector> Parse(const std::string& spec,
                                     uint64_t seed = 42);

  /// The HTAPEX_FAULTS environment spec ("" when unset).
  static std::string EnvSpec();
  /// The HTAPEX_FAULT_SEED environment value, or `fallback` when unset.
  static uint64_t EnvSeed(uint64_t fallback);

  bool enabled() const { return state_ != nullptr && !state_->points.empty(); }

  /// The configured spec for `point`, or nullptr when the point is not
  /// active.
  const FaultSpec* Find(std::string_view point) const;

  /// Deterministic Bernoulli draw for `point`. `key` identifies the request
  /// (e.g. a hash of the SQL), `attempt` the retry ordinal; together with
  /// the seed they fully determine the outcome.
  FaultDraw Draw(std::string_view point, uint64_t key, uint64_t attempt) const;

  /// How many draws on `point` have fired so far (process lifetime of this
  /// injector's shared state).
  uint64_t FireCount(std::string_view point) const;

  uint64_t seed() const { return state_ == nullptr ? 0 : state_->seed; }

  /// Round-trippable normalized spec, e.g. for logging the active faults.
  std::string ToString() const;

 private:
  struct PointState {
    FaultSpec spec;
    mutable std::atomic<uint64_t> fires{0};
  };
  struct State {
    uint64_t seed = 42;
    // Immutable after Parse; map nodes give PointState stable addresses.
    std::map<std::string, PointState, std::less<>> points;
  };

  std::shared_ptr<State> state_;
};

}  // namespace htapex

#endif  // HTAPEX_COMMON_FAULT_H_
