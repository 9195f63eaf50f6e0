#include "common/kernels.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <string_view>

#include "common/hash.h"

#if defined(__x86_64__) || defined(_M_X64)
#define HTAPEX_SIMD_X86 1
#include <immintrin.h>
#endif

namespace htapex {
namespace kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference backend. Every SIMD path must match these expressions
// (modulo FMA rounding); the unit tests hold that contract.
// ---------------------------------------------------------------------------

float SquaredL2Scalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void GemmAccumScalar(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      const float* brow = b + static_cast<size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ReluScalar(float* x, int n) {
  // x < 0 is false for NaN, so NaN passes through (the documented
  // propagation contract).
  for (int i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

void MaxAccumScalar(float* acc, const float* x, int n) {
  for (int i = 0; i < n; ++i) {
    if (std::isnan(acc[i]) || std::isnan(x[i])) {
      acc[i] = std::numeric_limits<float>::quiet_NaN();
    } else if (x[i] > acc[i]) {
      acc[i] = x[i];
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA backend. Compiled with per-function target attributes so no
// special flags are needed for the rest of the library; only ever called
// after __builtin_cpu_supports confirmed both features.
// ---------------------------------------------------------------------------

#if HTAPEX_SIMD_X86

__attribute__((target("avx2,fma"))) float SquaredL2Avx2(const float* a,
                                                        const float* b,
                                                        int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 lo = _mm256_castps256_ps128(acc0);
  __m128 hi = _mm256_extractf128_ps(acc0, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);
  __m128 sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
  __m128 sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 1));
  float acc = _mm_cvtss_f32(sum1);
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

__attribute__((target("avx2,fma"))) void GemmAccumAvx2(const float* a,
                                                       const float* b,
                                                       float* c, int m, int k,
                                                       int n) {
  int i = 0;
  // 4x16 register tile: 8 YMM accumulators live across the whole k loop.
  // One C row alone chains every FMA through the same accumulator pair
  // (latency-bound, ~1/4 of FMA throughput); four rows give eight
  // independent chains, enough to keep both FMA ports busy, and amortize
  // each B-row load over four rows.
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + static_cast<size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0r = c + static_cast<size_t>(i) * n;
    float* c1r = c0r + n;
    float* c2r = c1r + n;
    float* c3r = c2r + n;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 acc00 = _mm256_loadu_ps(c0r + j);
      __m256 acc01 = _mm256_loadu_ps(c0r + j + 8);
      __m256 acc10 = _mm256_loadu_ps(c1r + j);
      __m256 acc11 = _mm256_loadu_ps(c1r + j + 8);
      __m256 acc20 = _mm256_loadu_ps(c2r + j);
      __m256 acc21 = _mm256_loadu_ps(c2r + j + 8);
      __m256 acc30 = _mm256_loadu_ps(c3r + j);
      __m256 acc31 = _mm256_loadu_ps(c3r + j + 8);
      for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<size_t>(kk) * n + j;
        __m256 b0 = _mm256_loadu_ps(brow);
        __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a0[kk]);
        acc00 = _mm256_fmadd_ps(av, b0, acc00);
        acc01 = _mm256_fmadd_ps(av, b1, acc01);
        av = _mm256_set1_ps(a1[kk]);
        acc10 = _mm256_fmadd_ps(av, b0, acc10);
        acc11 = _mm256_fmadd_ps(av, b1, acc11);
        av = _mm256_set1_ps(a2[kk]);
        acc20 = _mm256_fmadd_ps(av, b0, acc20);
        acc21 = _mm256_fmadd_ps(av, b1, acc21);
        av = _mm256_set1_ps(a3[kk]);
        acc30 = _mm256_fmadd_ps(av, b0, acc30);
        acc31 = _mm256_fmadd_ps(av, b1, acc31);
      }
      _mm256_storeu_ps(c0r + j, acc00);
      _mm256_storeu_ps(c0r + j + 8, acc01);
      _mm256_storeu_ps(c1r + j, acc10);
      _mm256_storeu_ps(c1r + j + 8, acc11);
      _mm256_storeu_ps(c2r + j, acc20);
      _mm256_storeu_ps(c2r + j + 8, acc21);
      _mm256_storeu_ps(c3r + j, acc30);
      _mm256_storeu_ps(c3r + j + 8, acc31);
    }
    // Column tail: fall through to the single-row kernel for j..n on each
    // of the four rows.
    if (j < n) {
      for (int r = 0; r < 4; ++r) {
        const float* arow = a + static_cast<size_t>(i + r) * k;
        float* crow = c + static_cast<size_t>(i + r) * n;
        int jj = j;
        for (; jj + 8 <= n; jj += 8) {
          __m256 acc = _mm256_loadu_ps(crow + jj);
          for (int kk = 0; kk < k; ++kk) {
            acc = _mm256_fmadd_ps(
                _mm256_set1_ps(arow[kk]),
                _mm256_loadu_ps(b + static_cast<size_t>(kk) * n + jj), acc);
          }
          _mm256_storeu_ps(crow + jj, acc);
        }
        for (; jj < n; ++jj) {
          float acc = crow[jj];
          for (int kk = 0; kk < k; ++kk) {
            acc += arow[kk] * b[static_cast<size_t>(kk) * n + jj];
          }
          crow[jj] = acc;
        }
      }
    }
  }
  // Row tail (< 4 rows): single-row kernel.
  for (; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    int j = 0;
    // 16-wide column blocks: two YMM accumulators live across the whole k
    // loop, so each C element is loaded/stored once per block.
    for (; j + 16 <= n; j += 16) {
      __m256 c0 = _mm256_loadu_ps(crow + j);
      __m256 c1 = _mm256_loadu_ps(crow + j + 8);
      for (int kk = 0; kk < k; ++kk) {
        __m256 av = _mm256_set1_ps(arow[kk]);
        const float* brow = b + static_cast<size_t>(kk) * n + j;
        c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), c0);
        c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), c1);
      }
      _mm256_storeu_ps(crow + j, c0);
      _mm256_storeu_ps(crow + j + 8, c1);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 c0 = _mm256_loadu_ps(crow + j);
      for (int kk = 0; kk < k; ++kk) {
        __m256 av = _mm256_set1_ps(arow[kk]);
        c0 = _mm256_fmadd_ps(
            av, _mm256_loadu_ps(b + static_cast<size_t>(kk) * n + j), c0);
      }
      _mm256_storeu_ps(crow + j, c0);
    }
    for (; j < n; ++j) {
      float acc = crow[j];
      for (int kk = 0; kk < k; ++kk) {
        acc += arow[kk] * b[static_cast<size_t>(kk) * n + j];
      }
      crow[j] = acc;
    }
  }
}

__attribute__((target("avx2,fma"))) void ReluAvx2(float* x, int n) {
  __m256 zero = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    // max(0, v): VMAXPS returns the second operand when either is NaN, so a
    // NaN input survives — same contract as the scalar path.
    _mm256_storeu_ps(x + i, _mm256_max_ps(zero, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

__attribute__((target("avx2,fma"))) void MaxAccumAvx2(float* acc,
                                                      const float* x, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 a = _mm256_loadu_ps(acc + i);
    __m256 v = _mm256_loadu_ps(x + i);
    __m256 mx = _mm256_max_ps(a, v);
    // Re-inject NaN where either operand was NaN (unordered lanes).
    __m256 unord = _mm256_cmp_ps(a, v, _CMP_UNORD_Q);
    __m256 qnan = _mm256_set1_ps(std::numeric_limits<float>::quiet_NaN());
    _mm256_storeu_ps(acc + i, _mm256_blendv_ps(mx, qnan, unord));
  }
  for (; i < n; ++i) {
    if (std::isnan(acc[i]) || std::isnan(x[i])) {
      acc[i] = std::numeric_limits<float>::quiet_NaN();
    } else if (x[i] > acc[i]) {
      acc[i] = x[i];
    }
  }
}

#endif  // HTAPEX_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch: a table of function pointers filled in once at startup (or by
// ForceBackendForTest). Invocation counters live next to it.
// ---------------------------------------------------------------------------

struct DispatchTable {
  Backend backend = Backend::kScalar;
  float (*squared_l2)(const float*, const float*, int) = SquaredL2Scalar;
  void (*gemm)(const float*, const float*, float*, int, int, int) =
      GemmAccumScalar;
  void (*relu)(float*, int) = ReluScalar;
  void (*max_accum)(float*, const float*, int) = MaxAccumScalar;
};

BasicKernelStats<Counter>& Counters() {
  static BasicKernelStats<Counter> counters;
  return counters;
}

DispatchTable MakeTable(Backend backend) {
  DispatchTable t;
  switch (backend) {
#if HTAPEX_SIMD_X86
    case Backend::kAvx2:
      t = {Backend::kAvx2, SquaredL2Avx2, GemmAccumAvx2, ReluAvx2,
           MaxAccumAvx2};
      break;
#endif
    default:
      break;  // scalar, or a backend this build cannot run
  }
  return t;
}

Backend BestNativeBackend() {
  return BackendSupported(Backend::kAvx2) ? Backend::kAvx2 : Backend::kScalar;
}

DispatchTable& Table() {
  static DispatchTable table = MakeTable(BestNativeBackend());
  return table;
}

template <typename T>
void MaskCmpT(const T* a, T lit, MaskCmpOp op, uint8_t* out, int n) {
  switch (op) {
    case MaskCmpOp::kEq:
      for (int i = 0; i < n; ++i) out[i] = a[i] == lit ? 1 : 0;
      break;
    case MaskCmpOp::kNe:
      for (int i = 0; i < n; ++i) out[i] = a[i] != lit ? 1 : 0;
      break;
    case MaskCmpOp::kLt:
      for (int i = 0; i < n; ++i) out[i] = a[i] < lit ? 1 : 0;
      break;
    case MaskCmpOp::kLe:
      for (int i = 0; i < n; ++i) out[i] = a[i] <= lit ? 1 : 0;
      break;
    case MaskCmpOp::kGt:
      for (int i = 0; i < n; ++i) out[i] = a[i] > lit ? 1 : 0;
      break;
    case MaskCmpOp::kGe:
      for (int i = 0; i < n; ++i) out[i] = a[i] >= lit ? 1 : 0;
      break;
  }
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool BackendSupported(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if HTAPEX_SIMD_X86
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

Backend ActiveBackend() { return Table().backend; }

bool ForceBackendForTest(Backend backend) {
  if (!BackendSupported(backend)) return false;
  Table() = MakeTable(backend);
  return true;
}

float SquaredL2(const float* a, const float* b, int n) {
  Counters().squared_l2.Inc();
  return Table().squared_l2(a, b, n);
}

void GemmAccum(const float* a, const float* b, float* c, int m, int k,
               int n) {
  Counters().gemm.Inc();
  Table().gemm(a, b, c, m, k, n);
}

void Relu(float* x, int n) {
  Counters().relu.Inc();
  Table().relu(x, n);
}

void MaxAccum(float* acc, const float* x, int n) {
  Counters().max_accum.Inc();
  Table().max_accum(acc, x, n);
}

void MaskCmpI64(const int64_t* a, int64_t lit, MaskCmpOp op, uint8_t* out,
                int n) {
  Counters().mask_cmp.Inc();
  MaskCmpT(a, lit, op, out, n);
}

void MaskCmpF64(const double* a, double lit, MaskCmpOp op, uint8_t* out,
                int n) {
  Counters().mask_cmp.Inc();
  MaskCmpT(a, lit, op, out, n);
}

void MaskAnd(uint8_t* mask, const uint8_t* other, int n) {
  Counters().mask_and.Inc();
  for (int i = 0; i < n; ++i) mask[i] &= other[i];
}

void MaskAndNot(uint8_t* mask, const uint8_t* other, int n) {
  Counters().mask_andnot.Inc();
  for (int i = 0; i < n; ++i) {
    mask[i] = static_cast<uint8_t>(mask[i] & (other[i] ^ 1));
  }
}

int64_t CountMask(const uint8_t* mask, int n) {
  Counters().count_mask.Inc();
  int64_t count = 0;
  for (int i = 0; i < n; ++i) count += mask[i];
  return count;
}

double SumF64(const double* a, int n) {
  Counters().sum_f64.Inc();
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += a[i];
  return acc;
}

__int128 SumI64(const int64_t* a, int n) {
  Counters().sum_i64.Inc();
  __int128 acc = 0;
  for (int i = 0; i < n; ++i) acc += a[i];
  return acc;
}

void HashI64(const int64_t* a, uint64_t* out, int n) {
  Counters().hash_i64.Inc();
  for (int i = 0; i < n; ++i) {
    out[i] = Fmix64(HashBits(static_cast<double>(a[i])));
  }
}

void HashF64(const double* a, uint64_t* out, int n) {
  Counters().hash_f64.Inc();
  for (int i = 0; i < n; ++i) out[i] = Fmix64(HashBits(a[i]));
}

uint64_t HashBytes(const void* data, size_t len) {
  Counters().hash_bytes.Inc();
  return Fnv1a64(std::string_view(static_cast<const char*>(data), len));
}

KernelStats Stats() { return {LoadStats(Counters()), ActiveBackend()}; }

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

namespace {
constexpr size_t kArenaAlign = 64;  // cache line; covers any vector width
constexpr size_t kArenaMinChunk = 16 * 1024;

size_t AlignUp(size_t v) {
  return (v + (kArenaAlign - 1)) & ~(kArenaAlign - 1);
}
}  // namespace

void* Arena::AllocBytes(size_t bytes) {
  bytes = AlignUp(bytes);
  if (!chunks_.empty()) {
    Chunk& cur = chunks_.back();
    if (cur.used + bytes <= cur.capacity) {
      void* p = cur.data.get() + cur.used;
      cur.used += bytes;
      stats_.used_bytes += bytes;
      return p;
    }
  }
  // Grow: a fresh chunk at least double the current total, so the number of
  // growths is logarithmic in the high-water mark. Existing chunks are left
  // in place (outstanding pointers stay valid until Reset).
  size_t want = bytes;
  if (want < kArenaMinChunk) want = kArenaMinChunk;
  if (want < 2 * stats_.capacity_bytes) want = 2 * stats_.capacity_bytes;
  Chunk next;
  // new[] guarantees alignment only to max_align_t; the bump offsets are
  // 64-aligned relative to the base, which is all the unaligned-load SIMD
  // paths need. (No aligned loads are used anywhere in this library.)
  next.data = std::make_unique<unsigned char[]>(want);
  next.capacity = want;
  next.used = bytes;
  stats_.capacity_bytes += want;
  stats_.used_bytes += bytes;
  ++stats_.grows;
  chunks_.push_back(std::move(next));
  return chunks_.back().data.get();
}

float* Arena::AllocFloats(size_t n) {
  return static_cast<float*>(AllocBytes(n * sizeof(float)));
}

int* Arena::AllocInts(size_t n) {
  return static_cast<int*>(AllocBytes(n * sizeof(int)));
}

double* Arena::AllocDoubles(size_t n) {
  return static_cast<double*>(AllocBytes(n * sizeof(double)));
}

int64_t* Arena::AllocInt64s(size_t n) {
  return static_cast<int64_t*>(AllocBytes(n * sizeof(int64_t)));
}

uint64_t* Arena::AllocU64s(size_t n) {
  return static_cast<uint64_t*>(AllocBytes(n * sizeof(uint64_t)));
}

uint8_t* Arena::AllocU8(size_t n) { return static_cast<uint8_t*>(AllocBytes(n)); }

void Arena::Reset() {
  ++stats_.resets;
  stats_.used_bytes = 0;
  if (chunks_.size() > 1) {
    // Coalesce so the steady state is exactly one buffer: one more
    // allocation now, zero forever after.
    size_t total = stats_.capacity_bytes;
    chunks_.clear();
    Chunk merged;
    merged.data = std::make_unique<unsigned char[]>(total);
    merged.capacity = total;
    stats_.capacity_bytes = total;
    ++stats_.grows;
    chunks_.push_back(std::move(merged));
    return;
  }
  if (!chunks_.empty()) chunks_.back().used = 0;
}

Arena& ThreadArena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace kernels
}  // namespace htapex
