#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "vectordb/vector_store.h"

namespace htapex {
namespace kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNan = std::numeric_limits<float>::quiet_NaN();

/// Every backend this build/CPU can actually run (scalar always qualifies).
std::vector<Backend> SupportedBackends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    if (BackendSupported(b)) out.push_back(b);
  }
  return out;
}

/// Restores the startup dispatch choice after each test so a forced
/// backend cannot leak into later tests in this process.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { startup_ = ActiveBackend(); }
  void TearDown() override { ASSERT_TRUE(ForceBackendForTest(startup_)); }
  Backend startup_ = Backend::kScalar;
};

std::vector<float> RandomVec(Rng* rng, int n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->UniformReal(-2, 2));
  return v;
}

// Double-precision references: the SIMD paths may reassociate and fuse, so
// comparisons allow rounding slack proportional to the reduction length.

double RefSquaredL2(const float* a, const float* b, int n) {
  double acc = 0;
  for (int i = 0; i < n; ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

void RefGemmAccum(const float* a, const float* b, double* c, int m, int k,
                  int n) {
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      double av = a[i * k + kk];
      for (int j = 0; j < n; ++j) {
        c[i * n + j] += av * b[kk * n + j];
      }
    }
  }
}

// The lengths cover every tail case: empty, below one SIMD lane, exactly
// one/two lanes, lane+1, and well past the blocked-GEMM j-block width.
const int kLengths[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100};

TEST_F(KernelsTest, SquaredL2MatchesReferenceOnEveryBackend) {
  Rng rng(11);
  for (Backend backend : SupportedBackends()) {
    ASSERT_TRUE(ForceBackendForTest(backend));
    for (int n : kLengths) {
      // +1 slack so the offset-by-one (unaligned) view stays in bounds.
      std::vector<float> a = RandomVec(&rng, n + 1);
      std::vector<float> b = RandomVec(&rng, n + 1);
      for (int off : {0, 1}) {
        const float* pa = a.data() + off;
        const float* pb = b.data() + off;
        double ref = RefSquaredL2(pa, pb, n);
        EXPECT_NEAR(SquaredL2(pa, pb, n), ref, 1e-4 * (1 + ref))
            << BackendName(backend) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST_F(KernelsTest, GemmAccumMatchesReferenceOnEveryBackend) {
  Rng rng(12);
  const int shapes[][3] = {{1, 1, 1},  {1, 5, 2},  {3, 5, 7},  {4, 16, 16},
                           {2, 8, 33}, {7, 21, 32}, {5, 32, 8}, {1, 64, 2}};
  for (Backend backend : SupportedBackends()) {
    ASSERT_TRUE(ForceBackendForTest(backend));
    for (const auto& s : shapes) {
      int m = s[0], k = s[1], n = s[2];
      std::vector<float> a = RandomVec(&rng, m * k);
      std::vector<float> b = RandomVec(&rng, k * n);
      std::vector<float> c = RandomVec(&rng, m * n);  // accumulate on top
      std::vector<double> ref(c.begin(), c.end());
      GemmAccum(a.data(), b.data(), c.data(), m, k, n);
      RefGemmAccum(a.data(), b.data(), ref.data(), m, k, n);
      for (int i = 0; i < m * n; ++i) {
        EXPECT_NEAR(c[static_cast<size_t>(i)], ref[static_cast<size_t>(i)],
                    1e-4)
            << BackendName(backend) << " " << m << "x" << k << "x" << n
            << " elem " << i;
      }
    }
  }
}

TEST_F(KernelsTest, ReluClampsAndKeepsNanInf) {
  for (Backend backend : SupportedBackends()) {
    ASSERT_TRUE(ForceBackendForTest(backend));
    std::vector<float> x = {-1.5f, 0.0f, 2.5f, -0.0f, kNan, kInf, -kInf,
                            3.0f, -7.0f};
    Relu(x.data(), static_cast<int>(x.size()));
    EXPECT_EQ(x[0], 0.0f) << BackendName(backend);
    EXPECT_EQ(x[1], 0.0f);
    EXPECT_EQ(x[2], 2.5f);
    EXPECT_EQ(x[3], 0.0f);
    EXPECT_TRUE(std::isnan(x[4])) << BackendName(backend);
    EXPECT_EQ(x[5], kInf);
    EXPECT_EQ(x[6], 0.0f);
    EXPECT_EQ(x[7], 3.0f);
    EXPECT_EQ(x[8], 0.0f);
  }
}

TEST_F(KernelsTest, MaxAccumSemantics) {
  Rng rng(16);
  for (Backend backend : SupportedBackends()) {
    ASSERT_TRUE(ForceBackendForTest(backend));
    for (int n : kLengths) {
      std::vector<float> acc = RandomVec(&rng, n);
      std::vector<float> x = RandomVec(&rng, n);
      std::vector<float> expect = acc;
      for (int i = 0; i < n; ++i) {
        expect[static_cast<size_t>(i)] =
            std::max(expect[static_cast<size_t>(i)], x[static_cast<size_t>(i)]);
      }
      MaxAccum(acc.data(), x.data(), n);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(acc[static_cast<size_t>(i)], expect[static_cast<size_t>(i)])
            << BackendName(backend) << " n=" << n << " elem " << i;
      }
    }
    // NaN in either operand wins.
    std::vector<float> acc = {1.0f, kNan, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f,
                              9.0f};
    std::vector<float> x = {2.0f, 0.0f, kNan, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f,
                            kNan};
    MaxAccum(acc.data(), x.data(), 9);
    EXPECT_EQ(acc[0], 2.0f) << BackendName(backend);
    EXPECT_TRUE(std::isnan(acc[1]));
    EXPECT_TRUE(std::isnan(acc[2]));
    EXPECT_EQ(acc[3], 4.0f);
    EXPECT_TRUE(std::isnan(acc[8]));
  }
}

TEST_F(KernelsTest, DispatchAndCounters) {
  // Scalar can always be forced; an unsupported backend is refused and
  // leaves the active choice untouched. A value past the last enumerator
  // is unsupported on every CPU, so the refusal is checked on AVX2 runners
  // too.
  Backend before = ActiveBackend();
  for (Backend b : {Backend::kAvx2, static_cast<Backend>(2)}) {
    if (!BackendSupported(b)) {
      EXPECT_FALSE(ForceBackendForTest(b));
      EXPECT_EQ(ActiveBackend(), before);
    }
  }
  EXPECT_FALSE(BackendSupported(static_cast<Backend>(2)));
  ASSERT_TRUE(ForceBackendForTest(Backend::kScalar));
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  KernelStats s0 = Stats();
  std::vector<float> a(8, 1.0f), b(8, 2.0f);
  (void)SquaredL2(a.data(), b.data(), 8);
  Relu(a.data(), 8);
  MaxAccum(a.data(), b.data(), 8);
  const uint8_t mask[4] = {1, 0, 1, 1};
  EXPECT_EQ(CountMask(mask, 4), 3);
  KernelStats s1 = Stats();
  EXPECT_EQ(s1.backend, Backend::kScalar);
  EXPECT_EQ(s1.squared_l2, s0.squared_l2 + 1);
  EXPECT_EQ(s1.relu, s0.relu + 1);
  EXPECT_EQ(s1.max_accum, s0.max_accum + 1);
  EXPECT_EQ(s1.count_mask, s0.count_mask + 1);
}

/// The executor's bulk hashes feed join tables and Bloom sifts that the
/// row executor builds through Value::Hash(), so the two must agree bit for
/// bit, edge values included.
TEST(KernelHashTest, MatchesValueHashBitForBit) {
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<int64_t> ints = {0,         1,         -1,
                                     INT64_MIN, INT64_MAX, two53 - 1,
                                     two53 + 1};
  std::vector<uint64_t> hashes(ints.size());
  HashI64(ints.data(), hashes.data(), static_cast<int>(ints.size()));
  for (size_t i = 0; i < ints.size(); ++i) {
    EXPECT_EQ(hashes[i], Value::Int(ints[i]).Hash()) << ints[i];
  }

  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> doubles = {
      0.0, 1.0, -1.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(), static_cast<double>(two53 - 1),
      static_cast<double>(two53 + 1), static_cast<double>(INT64_MIN),
      static_cast<double>(INT64_MAX)};
  hashes.resize(doubles.size());
  HashF64(doubles.data(), hashes.data(), static_cast<int>(doubles.size()));
  for (size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ(hashes[i], Value::Double(doubles[i]).Hash()) << doubles[i];
  }
  // Int(0), 0.0 and -0.0 compare equal, so every path hashes them equal.
  ASSERT_EQ(Value::Int(0).Compare(Value::Double(-0.0)), 0);
  ASSERT_EQ(Value::Double(0.0).Compare(Value::Double(-0.0)), 0);
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Double(0.0).Hash());
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Int(0).Hash());
  EXPECT_EQ(hashes[0], hashes[3]);  // HashF64 of 0.0 and of -0.0
  EXPECT_EQ(hashes[3], Value::Int(0).Hash());

  std::string kilobyte(1024, '\0');
  for (size_t i = 0; i < kilobyte.size(); ++i) {
    kilobyte[i] = static_cast<char>(i * 31 % 251);
  }
  for (const std::string& s : {std::string(), kilobyte}) {
    EXPECT_EQ(HashBytes(s.data(), s.size()), Value::Str(s).Hash())
        << s.size() << " bytes";
  }
}

TEST_F(KernelsTest, ScalarBackendIsBitwiseDeterministic) {
  ASSERT_TRUE(ForceBackendForTest(Backend::kScalar));
  Rng rng(17);
  std::vector<float> a = RandomVec(&rng, 37);
  std::vector<float> b = RandomVec(&rng, 37);
  float d1 = SquaredL2(a.data(), b.data(), 37);
  float d2 = SquaredL2(a.data(), b.data(), 37);
  EXPECT_EQ(d1, d2);
  std::vector<float> c1(21, 0.0f), c2(21, 0.0f);
  GemmAccum(a.data(), b.data(), c1.data(), 3, 7, 3);
  GemmAccum(a.data(), b.data(), c2.data(), 3, 7, 3);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(c1[static_cast<size_t>(i)], c2[static_cast<size_t>(i)]);
  }
}

TEST_F(KernelsTest, ArenaPointerStabilityAndSteadyState) {
  Arena arena;
  Arena::Stats s0 = arena.stats();
  EXPECT_EQ(s0.grows, 0u);
  float* first = arena.AllocFloats(100);
  first[0] = 42.0f;
  first[99] = 7.0f;
  uint64_t grows_after_first = arena.stats().grows;
  EXPECT_GE(grows_after_first, 1u);
  // Force growth: the first block must stay addressable (chunk append, not
  // realloc).
  float* big = arena.AllocFloats(1 << 20);
  big[0] = 1.0f;
  EXPECT_EQ(first[0], 42.0f);
  EXPECT_EQ(first[99], 7.0f);
  EXPECT_GT(arena.stats().grows, grows_after_first);

  // After a Reset the coalesced capacity covers the whole previous
  // footprint, so replaying the same allocation pattern never grows again.
  arena.Reset();
  uint64_t steady_grows = arena.stats().grows;
  for (int round = 0; round < 10; ++round) {
    arena.Reset();
    float* p = arena.AllocFloats(100);
    int* q = arena.AllocInts(50);
    float* r = arena.AllocFloats(1 << 20);
    p[0] = q[0] = 0;
    r[0] = 0;
    EXPECT_EQ(arena.stats().grows, steady_grows) << "round " << round;
  }
  EXPECT_GE(arena.stats().resets, 11u);
  EXPECT_LE(arena.stats().used_bytes, arena.stats().capacity_bytes);
}

TEST_F(KernelsTest, ThreadArenaIsReusable) {
  Arena& arena = ThreadArena();
  arena.Reset();
  float* p = arena.AllocFloats(16);
  for (int i = 0; i < 16; ++i) p[i] = static_cast<float>(i);
  EXPECT_EQ(p[15], 15.0f);
  EXPECT_EQ(&arena, &ThreadArena());
}

/// Vector search must return identical ids (and tie order) whichever
/// backend computes the distances — SIMD reassociation may move a distance
/// by ulps but the paper-scale id separation dwarfs that.
TEST_F(KernelsTest, SearchBackendParity) {
  Rng rng(18);
  const int dim = 16, count = 200, k = 5;
  VectorStore store(dim);
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < count; ++i) {
    std::vector<double> v(dim);
    for (double& x : v) x = rng.UniformReal(-1, 1);
    ASSERT_TRUE(store.Add(v).ok());
    if (i % 20 == 0) queries.push_back(std::move(v));
  }
  for (const auto& q : queries) {
    ASSERT_TRUE(ForceBackendForTest(Backend::kScalar));
    std::vector<SearchHit> store_scalar = store.Search(q, k);
    ASSERT_TRUE(ForceBackendForTest(startup_));
    std::vector<SearchHit> store_native = store.Search(q, k);
    ASSERT_EQ(store_scalar.size(), store_native.size());
    for (size_t i = 0; i < store_scalar.size(); ++i) {
      EXPECT_EQ(store_scalar[i].id, store_native[i].id) << "hit " << i;
      EXPECT_NEAR(store_scalar[i].distance, store_native[i].distance, 1e-3);
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace htapex
