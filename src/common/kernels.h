#ifndef HTAPEX_COMMON_KERNELS_H_
#define HTAPEX_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace htapex {
namespace kernels {

/// Float32 compute kernels for the serving hot path (router inference,
/// knowledge-base vector search). Each of the four kernels below has three
/// implementations — AVX2+FMA, NEON, and a portable scalar fallback — and
/// startup dispatches to the best one the CPU supports. They are the only
/// SIMD code in the library: each one moves the router's measured cost
/// (EXPERIMENTS S5), which is why it keeps its specializations.
///
/// Numeric contract: all three backends compute the same mathematical
/// expression over float32 inputs. SIMD backends may fuse multiply-adds
/// (FMA), so results can differ from scalar by rounding in the last ulps;
/// they may NOT differ in NaN/inf behaviour — a NaN or inf in the input
/// propagates to the output on every backend (MaxAccum enforces this
/// explicitly, since hardware max instructions quietly drop NaNs).
enum class Backend {
  kScalar = 0,
  kAvx2,
  kNeon,
};

const char* BackendName(Backend backend);

/// True when this build/CPU can run the given backend.
bool BackendSupported(Backend backend);

/// The backend the four kernels below dispatch to. Resolved once, on first
/// use, by CPU detection.
Backend ActiveBackend();

/// Test/bench hook: re-points the dispatch table (and ActiveBackend()) at
/// the given backend if supported (returns false otherwise). NOT
/// thread-safe — call only while no kernels are in flight. Production code
/// must rely on the startup selection instead.
bool ForceBackendForTest(Backend backend);

/// Squared L2 distance between two float32 vectors of length n.
float SquaredL2(const float* a, const float* b, int n);

/// C[m x n] += A[m x k] * B[k x n], all row-major. The workhorse behind the
/// frozen tree-CNN conv layers: all nodes of a layer go through one blocked
/// GEMM instead of per-node branchy matvecs.
void GemmAccum(const float* a, const float* b, float* c, int m, int k, int n);

/// x[i] = max(x[i], 0); NaN stays NaN.
void Relu(float* x, int n);

/// acc[i] = max(acc[i], x[i]); a NaN in either operand yields NaN. Used for
/// the tree-CNN dynamic max pool (column-wise max over node rows).
void MaxAccum(float* acc, const float* x, int n);

// ---------------------------------------------------------------------------
// Batch primitives for the vectorized query executor (vec_executor.*). Plain
// scalar loops outside the dispatch table: SIMD versions of them moved no
// end-to-end number (EXPERIMENTS S5). All masks are byte vectors whose
// elements are strictly 0 or 1 — one byte per row of a column segment.
// ---------------------------------------------------------------------------

/// Comparison selector for the batch mask kernels. Matches the subset of
/// SQL comparison operators with type-exact semantics.
enum class MaskCmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// out[i] = (a[i] <op> lit) ? 1 : 0. Integer comparison is exact (no float
/// round-trip).
void MaskCmpI64(const int64_t* a, int64_t lit, MaskCmpOp op, uint8_t* out,
                int n);

/// out[i] = (a[i] <op> lit) ? 1 : 0 over doubles, with IEEE comparison
/// semantics.
void MaskCmpF64(const double* a, double lit, MaskCmpOp op, uint8_t* out,
                int n);

/// mask[i] &= other[i] (predicate conjunction).
void MaskAnd(uint8_t* mask, const uint8_t* other, int n);

/// mask[i] &= !other[i] — strips rows whose byte is set, e.g. clearing
/// null rows out of a selection mask. Requires 0/1 bytes.
void MaskAndNot(uint8_t* mask, const uint8_t* other, int n);

/// Number of set bytes in mask[0..n).
int64_t CountMask(const uint8_t* mask, int n);

/// Sum of a[0..n), added left to right.
double SumF64(const double* a, int n);

/// Sum of a[0..n); exact (two's-complement).
int64_t SumI64(const int64_t* a, int n);

/// out[i] = the hash Value::Hash() produces for the int64 a[i]: widen to
/// double, take the bit pattern, splitmix-style finalizer. Bit-identical to
/// Value::Hash() — gathered-key join tables and Bloom sifts must agree with
/// the per-row path exactly.
void HashI64(const int64_t* a, uint64_t* out, int n);

/// Same contract over doubles (the shared representation int hashing
/// widens into, so Int(1) and Double(1.0) collide like Value::Hash()).
void HashF64(const double* a, uint64_t* out, int n);

/// FNV-1a 64 over a byte range — Value::Hash() on strings. In the kernel
/// set for uniform counting.
uint64_t HashBytes(const void* data, size_t len);

/// Per-kernel invocation counters (relaxed atomics, process-wide), exported
/// into the Prometheus exposition next to the dispatch gauge so an operator
/// can see both which backend is live and how hot each kernel runs.
template <typename Cell>
struct BasicKernelStats {
  Cell squared_l2{};
  Cell gemm{};
  Cell relu{};
  Cell max_accum{};
  Cell mask_cmp{};
  Cell mask_and{};
  Cell mask_andnot{};
  Cell count_mask{};
  Cell sum_f64{};
  Cell sum_i64{};
  Cell hash_i64{};
  Cell hash_f64{};
  Cell hash_bytes{};

  template <typename F, typename... G>
  static void ForEachField(F&& f, G&... g) {
    constexpr LabeledFamily kernel{"kernel_ops_total",
                                   "Compute-kernel invocations by kernel",
                                   "kernel"};
    f(kernel("squared_l2", "squared_l2"), g.squared_l2...);
    f(kernel("gemm", "gemm"), g.gemm...);
    f(kernel("relu", "relu"), g.relu...);
    f(kernel("max_accum", "max_accum"), g.max_accum...);
    f(kernel("mask_cmp", "mask_cmp"), g.mask_cmp...);
    f(kernel("mask_and", "mask_and"), g.mask_and...);
    f(kernel("mask_andnot", "mask_andnot"), g.mask_andnot...);
    f(kernel("count_mask", "count_mask"), g.count_mask...);
    f(kernel("sum_f64", "sum_f64"), g.sum_f64...);
    f(kernel("sum_i64", "sum_i64"), g.sum_i64...);
    f(kernel("hash_i64", "hash_i64"), g.hash_i64...);
    f(kernel("hash_f64", "hash_f64"), g.hash_f64...);
    f(kernel("hash_bytes", "hash_bytes"), g.hash_bytes...);
  }
};

/// Snapshot of the counters, with the backend they dispatch to.
struct KernelStats : BasicKernelStats<uint64_t> {
  Backend backend = Backend::kScalar;
};
KernelStats Stats();

/// Bump allocator for inference scratch space. One Arena per thread
/// (ThreadArena()); a forward pass Reset()s it and carves all of its
/// activation/gather buffers out of it, so steady-state inference performs
/// zero heap allocations — `grows` stops moving once the high-water mark is
/// reached, which is exactly what bench_kernels asserts.
///
/// Pointers returned by Alloc stay valid until the next Reset() even if a
/// later Alloc has to grow (growth appends a new chunk; it never moves
/// existing ones). Reset() coalesces multiple chunks into one, so the
/// steady state is a single buffer reused forever.
class Arena {
 public:
  struct Stats {
    uint64_t grows = 0;       // heap allocations performed (ever)
    uint64_t resets = 0;      // Reset() calls
    size_t capacity_bytes = 0;
    size_t used_bytes = 0;
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// n floats of scratch, zero-initialization NOT guaranteed.
  float* AllocFloats(size_t n);
  /// Same buffer pool, int-typed view (gather index lists).
  int* AllocInts(size_t n);
  /// Typed views used by the vectorized executor's per-morsel scratch.
  double* AllocDoubles(size_t n);
  int64_t* AllocInt64s(size_t n);
  uint64_t* AllocU64s(size_t n);
  uint8_t* AllocU8(size_t n);

  /// Makes all previously allocated memory reusable (no free).
  void Reset();

  Stats stats() const { return stats_; }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    size_t capacity = 0;  // bytes
    size_t used = 0;      // bytes
  };

  void* AllocBytes(size_t bytes);

  std::vector<Chunk> chunks_;
  Stats stats_;
};

/// The calling thread's inference arena.
Arena& ThreadArena();

}  // namespace kernels
}  // namespace htapex

#endif  // HTAPEX_COMMON_KERNELS_H_
