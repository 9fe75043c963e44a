// Reference-parity, determinism, and regression tests for the GEMM kernel
// pair (gemm_ref / gemm_blocked). Runs under both LEGW_KERNEL settings via
// the ctest registrations in tests/CMakeLists.txt; the parity tests pin both
// implementations explicitly so they are env-independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/counters.hpp"
#include "core/flags.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"

namespace legw::core {
namespace {

struct GemmCase {
  i64 m, n, k;
  bool trans_a, trans_b;
  i64 lda, ldb, ldc;  // >= the minimal leading dimension
  float alpha, beta;
  u64 seed;
  double zero_frac = 0.0;  // fraction of A/B entries forced to exactly 0
};

std::vector<float> random_buf(i64 rows, i64 ld, Rng& rng, double zero_frac) {
  std::vector<float> v(static_cast<std::size_t>(rows * ld) + 1);
  for (auto& x : v) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
    if (zero_frac > 0.0 && rng.uniform() < zero_frac) x = 0.0f;
  }
  return v;
}

// Checks gemm_ref and gemm_blocked against a double-precision oracle with a
// per-element rounding bound, against each other, and that neither touches
// the padding between ldc rows.
void check_parity(const GemmCase& cs) {
  SCOPED_TRACE(testing::Message()
               << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k << " ta="
               << cs.trans_a << " tb=" << cs.trans_b << " lda=" << cs.lda
               << " ldb=" << cs.ldb << " ldc=" << cs.ldc << " alpha="
               << cs.alpha << " beta=" << cs.beta << " seed=" << cs.seed);
  Rng rng(cs.seed);
  const i64 a_rows = cs.trans_a ? cs.k : cs.m;
  const i64 b_rows = cs.trans_b ? cs.n : cs.k;
  const std::vector<float> a = random_buf(a_rows, cs.lda, rng, cs.zero_frac);
  const std::vector<float> b = random_buf(b_rows, cs.ldb, rng, cs.zero_frac);
  const std::vector<float> c0 = random_buf(cs.m, cs.ldc, rng, 0.0);

  std::vector<float> c_ref = c0;
  std::vector<float> c_blk = c0;
  gemm_ref(cs.trans_a, cs.trans_b, cs.m, cs.n, cs.k, cs.alpha, a.data(),
           cs.lda, b.data(), cs.ldb, cs.beta, c_ref.data(), cs.ldc);
  gemm_blocked(cs.trans_a, cs.trans_b, cs.m, cs.n, cs.k, cs.alpha, a.data(),
               cs.lda, b.data(), cs.ldb, cs.beta, c_blk.data(), cs.ldc);

  auto a_at = [&](i64 i, i64 p) {
    return static_cast<double>(
        a[static_cast<std::size_t>(cs.trans_a ? p * cs.lda + i
                                              : i * cs.lda + p)]);
  };
  auto b_at = [&](i64 p, i64 j) {
    return static_cast<double>(
        b[static_cast<std::size_t>(cs.trans_b ? j * cs.ldb + p
                                              : p * cs.ldb + j)]);
  };

  const double eps = std::numeric_limits<float>::epsilon();
  for (i64 i = 0; i < cs.m; ++i) {
    for (i64 j = 0; j < cs.n; ++j) {
      double dot = 0.0, absdot = 0.0;
      for (i64 p = 0; p < cs.k; ++p) {
        const double prod = a_at(i, p) * b_at(p, j);
        dot += prod;
        absdot += std::fabs(prod);
      }
      const std::size_t idx = static_cast<std::size_t>(i * cs.ldc + j);
      const double c0v = static_cast<double>(c0[idx]);
      const double oracle = cs.beta * c0v + cs.alpha * dot;
      // Worst-case float rounding of a k-term recurrence plus the beta-scale
      // and final add: each of the ~(k+3) float operations contributes at
      // most eps relative to the running magnitude.
      const double bound =
          2.0 * eps * (static_cast<double>(cs.k) + 3.0) *
              (std::fabs(cs.alpha) * absdot + std::fabs(cs.beta * c0v)) +
          1e-35;
      EXPECT_NEAR(c_ref[idx], oracle, bound) << "ref at (" << i << "," << j
                                             << ")";
      EXPECT_NEAR(c_blk[idx], oracle, bound) << "blocked at (" << i << ","
                                             << j << ")";
      EXPECT_NEAR(c_blk[idx], c_ref[idx], bound)
          << "ref vs blocked at (" << i << "," << j << ")";
    }
    // Padding columns [n, ldc) of every row must be untouched by both.
    for (i64 j = cs.n; j < cs.ldc; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i * cs.ldc + j);
      EXPECT_EQ(c_ref[idx], c0[idx]) << "ref wrote padding at row " << i;
      EXPECT_EQ(c_blk[idx], c0[idx]) << "blocked wrote padding at row " << i;
    }
  }
}

TEST(GemmParity, RandomizedSweep) {
  // ~200 randomized cases over sizes (including degenerate {0, 1}), all four
  // transpose combos, non-trivial leading dimensions, and the alpha/beta set
  // from the issue spec.
  const i64 sizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 48, 64};
  const float coeffs[] = {0.0f, 1.0f, -0.5f, 2.0f};
  Rng rng(20260806);
  int cases = 0;
  for (int iter = 0; iter < 50; ++iter) {
    const i64 m = sizes[rng.uniform_int(std::size(sizes))];
    const i64 n = sizes[rng.uniform_int(std::size(sizes))];
    const i64 k = sizes[rng.uniform_int(std::size(sizes))];
    for (int t = 0; t < 4; ++t) {
      GemmCase cs;
      cs.m = m;
      cs.n = n;
      cs.k = k;
      cs.trans_a = (t & 1) != 0;
      cs.trans_b = (t & 2) != 0;
      cs.lda = (cs.trans_a ? m : k) + static_cast<i64>(rng.uniform_int(4));
      cs.ldb = (cs.trans_b ? k : n) + static_cast<i64>(rng.uniform_int(4));
      cs.ldc = n + static_cast<i64>(rng.uniform_int(4));
      if (cs.lda == 0) cs.lda = 1;
      if (cs.ldb == 0) cs.ldb = 1;
      if (cs.ldc == 0) cs.ldc = 1;
      cs.alpha = coeffs[rng.uniform_int(4)];
      cs.beta = coeffs[rng.uniform_int(4)];
      cs.seed = rng.next_u64();
      check_parity(cs);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 200);
}

TEST(GemmParity, PanelCrossingShapes) {
  // Shapes that cross the MC=128 / KC=256 / NC=960 panel boundaries and the
  // 8x48 micro-tile edges, for every transpose combo.
  const GemmCase shapes[] = {
      {300, 70, 600, false, false, 600, 70, 70, 1.0f, 0.0f, 11},
      {130, 1000, 40, false, false, 40, 1000, 1003, -0.5f, 1.0f, 12},
      {129, 49, 257, false, false, 257, 49, 49, 2.0f, -0.5f, 13},
      {65, 97, 310, false, false, 310, 97, 99, 1.0f, 2.0f, 14},
  };
  for (const GemmCase& base : shapes) {
    for (int t = 0; t < 4; ++t) {
      GemmCase cs = base;
      cs.trans_a = (t & 1) != 0;
      cs.trans_b = (t & 2) != 0;
      cs.lda = (cs.trans_a ? cs.m : cs.k) + 2;
      cs.ldb = (cs.trans_b ? cs.k : cs.n) + 1;
      check_parity(cs);
    }
  }
}

TEST(GemmParity, ZeroLadenInputsRegression) {
  // Regression for the removed aip == 0 skip branch in the nn/tn row
  // kernels: heavily zero-laden operands (including entire zero rows of A)
  // must produce identical results on every path.
  for (int t = 0; t < 4; ++t) {
    GemmCase cs;
    cs.m = 37;
    cs.n = 53;
    cs.k = 61;
    cs.trans_a = (t & 1) != 0;
    cs.trans_b = (t & 2) != 0;
    cs.lda = cs.trans_a ? cs.m : cs.k;
    cs.ldb = cs.trans_b ? cs.k : cs.n;
    cs.ldc = cs.n + 3;
    cs.alpha = 1.0f;
    cs.beta = 1.0f;
    cs.seed = 99 + static_cast<u64>(t);
    cs.zero_frac = 0.5;
    check_parity(cs);
  }
  // An all-zero A against a dense B (the degenerate case the branch targeted).
  const i64 m = 24, n = 50, k = 40;
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  Rng rng(5);
  std::vector<float> b = random_buf(k, n, rng, 0.0);
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 7.0f);
  std::vector<float> c_blk = c_ref;
  gemm_ref(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
           c_ref.data(), n);
  gemm_blocked(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
               c_blk.data(), n);
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    EXPECT_EQ(c_ref[i], 7.0f);
    EXPECT_EQ(c_blk[i], 7.0f);
  }
}

// Scalar model of gemm_blocked's per-element summation order: the beta pass
// first, alpha folded into A, then for each KC-deep panel (KC = 256, as in
// gemm_blocked.cpp) an accumulator started at 0 and built by one std::fma per
// ascending p, added into C when the panel ends. The goldens depend on this
// order, so the blocked kernel must match it bit for bit on every path.
std::vector<float> blocked_order_oracle(const GemmCase& cs,
                                        const std::vector<float>& a,
                                        const std::vector<float>& b,
                                        std::vector<float> c) {
  constexpr i64 kKc = 256;
  for (i64 i = 0; i < cs.m; ++i) {
    for (i64 j = 0; j < cs.n; ++j) {
      float& cij = c[static_cast<std::size_t>(i * cs.ldc + j)];
      if (cs.beta == 0.0f) {
        cij = 0.0f;
      } else if (cs.beta != 1.0f) {
        cij *= cs.beta;
      }
    }
  }
  if (cs.k == 0 || cs.alpha == 0.0f) return c;
  for (i64 i = 0; i < cs.m; ++i) {
    for (i64 j = 0; j < cs.n; ++j) {
      float& cij = c[static_cast<std::size_t>(i * cs.ldc + j)];
      for (i64 kk = 0; kk < cs.k; kk += kKc) {
        float acc = 0.0f;
        for (i64 p = kk; p < std::min(cs.k, kk + kKc); ++p) {
          const float av =
              cs.alpha * a[static_cast<std::size_t>(
                             cs.trans_a ? p * cs.lda + i : i * cs.lda + p)];
          const float bv = b[static_cast<std::size_t>(
              cs.trans_b ? j * cs.ldb + p : p * cs.ldb + j)];
          acc = std::fma(av, bv, acc);
        }
        cij += acc;
      }
    }
  }
  return c;
}

TEST(GemmOrder, BlockedMatchesFmaOrderOracleBitwise) {
  // Full tiles, mr < 8 and nr < 48 edge tiles, K crossing one and two KC
  // panels, M crossing MC = 128 and N crossing NC = 960, in all four
  // transpose cases. gemm_blocked runs once on the global pool (4 threads
  // under the .blocked-mt4 registration) and once from inside a pool chunk,
  // where its parallel_for runs serially on one thread.
  const GemmCase shapes[] = {
      {8, 48, 256, false, false, 0, 0, 48, 1.0f, 0.0f, 21},
      {5, 30, 100, false, false, 0, 0, 33, -0.5f, 1.0f, 22},
      {13, 49, 257, false, false, 0, 0, 50, 2.0f, -0.5f, 23},
      {7, 47, 9, false, false, 0, 0, 47, 1.0f, 2.0f, 24},
      {130, 97, 600, false, false, 0, 0, 99, 1.0f, 1.0f, 25},
      {9, 1000, 300, false, false, 0, 0, 1001, -0.5f, 0.0f, 26},
      {1, 1, 513, false, false, 0, 0, 1, 1.0f, 1.0f, 27},
  };
  ThreadPool outer(2);
  for (const GemmCase& base : shapes) {
    for (int t = 0; t < 4; ++t) {
      GemmCase cs = base;
      cs.trans_a = (t & 1) != 0;
      cs.trans_b = (t & 2) != 0;
      cs.lda = (cs.trans_a ? cs.m : cs.k) + 1;
      cs.ldb = (cs.trans_b ? cs.k : cs.n) + 3;
      SCOPED_TRACE(testing::Message()
                   << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
                   << " ta=" << cs.trans_a << " tb=" << cs.trans_b);
      Rng rng(cs.seed);
      const std::vector<float> a =
          random_buf(cs.trans_a ? cs.k : cs.m, cs.lda, rng, 0.0);
      const std::vector<float> b =
          random_buf(cs.trans_b ? cs.n : cs.k, cs.ldb, rng, 0.0);
      const std::vector<float> c0 = random_buf(cs.m, cs.ldc, rng, 0.0);
      const std::vector<float> want = blocked_order_oracle(cs, a, b, c0);

      std::vector<float> pooled = c0;
      gemm_blocked(cs.trans_a, cs.trans_b, cs.m, cs.n, cs.k, cs.alpha,
                   a.data(), cs.lda, b.data(), cs.ldb, cs.beta, pooled.data(),
                   cs.ldc);
      std::vector<float> serial = c0;
      outer.parallel_for(0, 2, 1, [&](i64 begin, i64) {
        if (begin != 0) return;
        gemm_blocked(cs.trans_a, cs.trans_b, cs.m, cs.n, cs.k, cs.alpha,
                     a.data(), cs.lda, b.data(), cs.ldb, cs.beta,
                     serial.data(), cs.ldc);
      });
      ASSERT_EQ(0, std::memcmp(want.data(), pooled.data(),
                               want.size() * sizeof(float)))
          << "pooled gemm_blocked left the FMA order";
      ASSERT_EQ(0, std::memcmp(want.data(), serial.data(),
                               want.size() * sizeof(float)))
          << "serial gemm_blocked left the FMA order";
    }
  }
}

TEST(GemmPacked, MatchesGemmBitwise) {
  // gemm_packed against gemm on the same operands, under whichever kernel
  // the registration selects: mr < 8 and nr < 48 edge tiles, K past one and
  // two KC panels, N past NC = 960 (several packed column blocks), both
  // A transposes, B transposed or not at pack time, beta in {0, 1, 0.5}.
  // Each call bumps the dispatch counter gemm bumps, once.
  const GemmCase shapes[] = {
      {5, 30, 100, false, false, 0, 0, 33, 1.0f, 0.0f, 41},
      {13, 49, 257, false, false, 0, 0, 50, -0.5f, 0.0f, 42},
      {9, 1000, 300, false, false, 0, 0, 1001, 1.0f, 0.0f, 43},
      {130, 97, 600, false, false, 0, 0, 99, 2.0f, 0.0f, 44},
      {8, 1930, 513, false, false, 0, 0, 1930, 1.0f, 0.0f, 45},
  };
  const DispatchCounter counter = gemm_kernel() == GemmKernel::kRef
                                      ? DispatchCounter::kGemmRef
                                      : DispatchCounter::kGemmBlocked;
  for (const GemmCase& base : shapes) {
    for (int t = 0; t < 4; ++t) {
      for (const float beta : {0.0f, 1.0f, 0.5f}) {
        GemmCase cs = base;
        cs.trans_a = (t & 1) != 0;
        cs.trans_b = (t & 2) != 0;
        cs.lda = (cs.trans_a ? cs.m : cs.k) + 1;
        cs.ldb = (cs.trans_b ? cs.k : cs.n) + 3;
        cs.beta = beta;
        SCOPED_TRACE(testing::Message()
                     << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
                     << " ta=" << cs.trans_a << " tb=" << cs.trans_b
                     << " beta=" << beta);
        Rng rng(cs.seed);
        const std::vector<float> a =
            random_buf(cs.trans_a ? cs.k : cs.m, cs.lda, rng, 0.0);
        const std::vector<float> b =
            random_buf(cs.trans_b ? cs.n : cs.k, cs.ldb, rng, 0.0);
        const std::vector<float> c0 = random_buf(cs.m, cs.ldc, rng, 0.0);

        std::vector<float> want = c0;
        gemm(cs.trans_a, cs.trans_b, cs.m, cs.n, cs.k, cs.alpha, a.data(),
             cs.lda, b.data(), cs.ldb, cs.beta, want.data(), cs.ldc);
        const PackedB packed = pack_b(cs.trans_b, cs.n, cs.k, b.data(), cs.ldb);
        std::vector<float> got = c0;
        const i64 calls = dispatch_count(counter);
        gemm_packed(cs.trans_a, cs.m, cs.alpha, a.data(), cs.lda, packed,
                    cs.beta, got.data(), cs.ldc);
        EXPECT_EQ(dispatch_count(counter), calls + 1);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(float)))
            << "gemm_packed differs from gemm";
      }
    }
  }
}

TEST(GemmDeterminism, BitwiseIdenticalAcrossRuns) {
  // At a fixed thread count, repeated gemm_blocked runs must be bitwise
  // identical — no run-to-run variation from partitioning or packing.
  const i64 m = 210, n = 190, k = 300;
  Rng rng(77);
  std::vector<float> a = random_buf(m, k, rng, 0.0);
  std::vector<float> b = random_buf(k, n, rng, 0.0);
  std::vector<float> c1(static_cast<std::size_t>(m * n), 0.0f);
  for (int run = 0; run < 3; ++run) {
    std::vector<float> c2(static_cast<std::size_t>(m * n), 0.0f);
    gemm_blocked(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                 (run == 0 ? c1 : c2).data(), n);
    if (run > 0) {
      ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                               c1.size() * sizeof(float)))
          << "run " << run << " differs bitwise";
    }
  }
}

TEST(GemmDeterminism, RowPartitionInvariance) {
  // The cross-thread-count contract: parallelisation partitions C rows, and
  // partitioning must not change any per-row reduction order. Computing row
  // ranges in separate calls simulates arbitrary chunk boundaries (including
  // ones that split an 8-row micro-panel); results must be bitwise identical
  // to the single full-range call.
  const i64 m = 150, n = 100, k = 280;
  Rng rng(88);
  std::vector<float> a = random_buf(m, k, rng, 0.0);
  std::vector<float> b = random_buf(k, n, rng, 0.0);
  std::vector<float> c_full(static_cast<std::size_t>(m * n), 0.0f);
  gemm_blocked(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
               c_full.data(), n);
  for (const i64 split : {1LL, 8LL, 67LL, 128LL, 149LL}) {
    std::vector<float> c_split(static_cast<std::size_t>(m * n), 0.0f);
    gemm_blocked(false, false, split, n, k, 1.0f, a.data(), k, b.data(), n,
                 0.0f, c_split.data(), n);
    gemm_blocked(false, false, m - split, n, k, 1.0f, a.data() + split * k, k,
                 b.data(), n, 0.0f, c_split.data() + split * n, n);
    ASSERT_EQ(0, std::memcmp(c_full.data(), c_split.data(),
                             c_full.size() * sizeof(float)))
        << "split at row " << split << " changed bits";
  }
}

TEST(GemmDispatch, HonoursKernelSelection) {
  const GemmKernel saved = gemm_kernel();
  const i64 n = 40;
  Rng rng(3);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);

  std::vector<float> c_ref(static_cast<std::size_t>(n * n), 0.0f);
  std::vector<float> c_blk = c_ref;
  gemm_ref(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
           c_ref.data(), n);
  gemm_blocked(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
               c_blk.data(), n);

  set_gemm_kernel(GemmKernel::kRef);
  Tensor via_ref = matmul(a, b);
  set_gemm_kernel(GemmKernel::kBlocked);
  Tensor via_blk = matmul(a, b);
  set_gemm_kernel(saved);

  ASSERT_EQ(0, std::memcmp(via_ref.data(), c_ref.data(),
                           c_ref.size() * sizeof(float)));
  ASSERT_EQ(0, std::memcmp(via_blk.data(), c_blk.data(),
                           c_blk.size() * sizeof(float)));
  EXPECT_TRUE(set_gemm_kernel("ref"));
  EXPECT_EQ(gemm_kernel(), GemmKernel::kRef);
  EXPECT_TRUE(set_gemm_kernel("blocked"));
  EXPECT_EQ(gemm_kernel(), GemmKernel::kBlocked);
  EXPECT_FALSE(set_gemm_kernel("turbo"));
  EXPECT_EQ(gemm_kernel(), GemmKernel::kBlocked);
  set_gemm_kernel(saved);
}

}  // namespace
}  // namespace legw::core
