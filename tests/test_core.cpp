// Correctness tests for DGEFMM: every schedule, odd-size strategy,
// transpose combination, and alpha/beta case against the reference GEMM.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/gemm.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

using core::CutoffCriterion;
using core::DgefmmConfig;
using core::DgefmmStats;
using core::OddStrategy;
using core::Scheme;

// A cutoff small enough that all test shapes recurse several levels.
CutoffCriterion deep_cutoff() { return CutoffCriterion::square_simple(8); }

double tol_for(index_t k) {
  // Strassen loses a small constant factor of accuracy per level; entries
  // are in [-1, 1], so this is generous yet tight enough to catch real
  // schedule bugs (which produce O(1) errors).
  return 1e-11 * (static_cast<double>(k) + 10.0);
}

struct Shape {
  index_t m, n, k;
};

// Odd, even, prime, and highly rectangular shapes.
const std::vector<Shape> kShapes = {
    {24, 24, 24}, {25, 25, 25}, {32, 32, 32}, {25, 24, 23}, {13, 50, 14},
    {48, 31, 65}, {101, 97, 103}, {64, 64, 64}, {96, 17, 96}, {33, 129, 65},
    {2, 2, 2},    {3, 3, 3},     {16, 1, 16},  {1, 16, 16},  {16, 16, 1},
};

void run_case(const Shape& s, Trans ta, Trans tb, double alpha, double beta,
              const DgefmmConfig& cfg, double tol_scale = 1.0) {
  Rng rng(static_cast<std::uint64_t>(s.m * 1000003 + s.n * 1009 + s.k));
  const index_t a_rows = is_trans(ta) ? s.k : s.m;
  const index_t a_cols = is_trans(ta) ? s.m : s.k;
  const index_t b_rows = is_trans(tb) ? s.n : s.k;
  const index_t b_cols = is_trans(tb) ? s.k : s.n;
  const index_t lda = a_rows + 2, ldb = b_rows + 5, ldc = s.m + 3;
  Matrix a(lda, a_cols), b(ldb, b_cols), c(ldc, s.n), c_ref(ldc, s.n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c.view(), rng);
  copy(c.view(), c_ref.view());

  const int info = core::dgefmm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda,
                                b.data(), ldb, beta, c.data(), ldc, cfg);
  ASSERT_EQ(info, 0);
  blas::gemm_reference(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(),
                       ldb, beta, c_ref.data(), ldc);

  double worst = 0.0;
  for (index_t j = 0; j < s.n; ++j) {
    for (index_t i = 0; i < s.m; ++i) {
      worst = std::max(worst, std::abs(c(i, j) - c_ref(i, j)));
    }
  }
  EXPECT_LT(worst, tol_for(s.k) * tol_scale)
      << "m=" << s.m << " n=" << s.n << " k=" << s.k
      << " ta=" << (is_trans(ta) ? "T" : "N")
      << " tb=" << (is_trans(tb) ? "T" : "N") << " alpha=" << alpha
      << " beta=" << beta;
  // The ldc padding rows must be untouched.
  for (index_t j = 0; j < s.n; ++j) {
    for (index_t i = s.m; i < ldc; ++i) {
      EXPECT_EQ(c(i, j), c_ref(i, j));
    }
  }
}

// ---------------------------------------------------------- trans sweep

class DgefmmTransSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};
// params: shape index, trans pair index, alpha/beta pair index

TEST_P(DgefmmTransSweep, MatchesReference) {
  const auto [si, ti, abi] = GetParam();
  const Shape s = kShapes[static_cast<std::size_t>(si)];
  const Trans tas[] = {Trans::no, Trans::transpose, Trans::no,
                       Trans::transpose};
  const Trans tbs[] = {Trans::no, Trans::no, Trans::transpose,
                       Trans::transpose};
  const double alphas[] = {1.0, 2.5, 1.0, -0.5};
  const double betas[] = {0.0, 0.0, 1.0, 0.25};
  DgefmmConfig cfg;
  cfg.cutoff = deep_cutoff();
  run_case(s, tas[ti], tbs[ti], alphas[abi], betas[abi], cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DgefmmTransSweep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(kShapes.size())),
                       ::testing::Range(0, 4), ::testing::Range(0, 4)));

// ---------------------------------------------------------- scheme sweep

class DgefmmSchemeSweep
    : public ::testing::TestWithParam<std::tuple<Scheme, int, int>> {};

TEST_P(DgefmmSchemeSweep, MatchesReference) {
  const auto [scheme, si, abi] = GetParam();
  const Shape s = kShapes[static_cast<std::size_t>(si)];
  const double alphas[] = {1.0, 1.0, -2.0};
  const double betas[] = {0.0, 1.0, 0.5};
  DgefmmConfig cfg;
  cfg.cutoff = deep_cutoff();
  cfg.scheme = scheme;
  run_case(s, Trans::no, Trans::no, alphas[abi], betas[abi], cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DgefmmSchemeSweep,
    ::testing::Combine(::testing::Values(Scheme::automatic, Scheme::strassen1,
                                         Scheme::strassen2, Scheme::original),
                       ::testing::Range(0, static_cast<int>(kShapes.size())),
                       ::testing::Range(0, 3)));

// ---------------------------------------------------------- odd strategies

class DgefmmOddStrategySweep
    : public ::testing::TestWithParam<std::tuple<OddStrategy, int, int>> {};

TEST_P(DgefmmOddStrategySweep, MatchesReference) {
  const auto [odd, si, ti] = GetParam();
  const Shape s = kShapes[static_cast<std::size_t>(si)];
  const Trans tas[] = {Trans::no, Trans::transpose};
  const Trans tbs[] = {Trans::no, Trans::transpose};
  DgefmmConfig cfg;
  cfg.cutoff = deep_cutoff();
  cfg.odd = odd;
  run_case(s, tas[ti], tbs[ti], 1.0, 0.0, cfg);
  run_case(s, tas[ti], tbs[ti], 0.5, -1.5, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DgefmmOddStrategySweep,
    ::testing::Combine(::testing::Values(OddStrategy::dynamic_peeling,
                                         OddStrategy::dynamic_padding,
                                         OddStrategy::static_padding),
                       ::testing::Range(0, static_cast<int>(kShapes.size())),
                       ::testing::Range(0, 2)));

// ---------------------------------------------------------- criteria sweep

TEST(Dgefmm, AllCutoffCriteriaAgree) {
  const Shape s{150, 140, 130};
  Rng rng(77);
  Matrix a = random_matrix(s.m, s.k, rng);
  Matrix b = random_matrix(s.k, s.n, rng);
  Matrix c_ref(s.m, s.n);
  fill(c_ref.view(), 0.0);
  blas::gemm_reference(Trans::no, Trans::no, s.m, s.n, s.k, 1.0, a.data(),
                       a.ld(), b.data(), b.ld(), 0.0, c_ref.data(),
                       c_ref.ld());
  for (const CutoffCriterion& cut :
       {CutoffCriterion::op_count(), CutoffCriterion::square_simple(32),
        CutoffCriterion::higham_scaled(32),
        CutoffCriterion::parameterized(20, 30, 25),
        CutoffCriterion::hybrid(32, 20, 30, 25), CutoffCriterion::fixed_depth(3),
        CutoffCriterion::never_recurse()}) {
    DgefmmConfig cfg;
    cfg.cutoff = cut;
    Matrix c(s.m, s.n);
    fill(c.view(), 0.0);
    ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0, a.data(),
                           a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(),
                           cfg),
              0);
    EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), tol_for(s.k))
        << cut.describe();
  }
}

// ---------------------------------------------------------- determinism

TEST(Dgefmm, BitIdenticalAcrossRuns) {
  const Shape s{77, 91, 85};
  Rng rng(31);
  Matrix a = random_matrix(s.m, s.k, rng);
  Matrix b = random_matrix(s.k, s.n, rng);
  DgefmmConfig cfg;
  cfg.cutoff = deep_cutoff();
  Matrix c1(s.m, s.n), c2(s.m, s.n);
  fill(c1.view(), 0.0);
  fill(c2.view(), 0.0);
  EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0,
                            a.data(), a.ld(), b.data(), b.ld(), 0.0,
                            c1.data(), c1.ld(), cfg));
  EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0,
                            a.data(), a.ld(), b.data(), b.ld(), 0.0,
                            c2.data(), c2.ld(), cfg));
  EXPECT_EQ(max_abs_diff(c1.view(), c2.view()), 0.0);
}

// ---------------------------------------------------------- identities

TEST(Dgefmm, MultiplyByIdentity) {
  Rng rng(8);
  Matrix a = random_matrix(41, 41, rng);
  Matrix eye(41, 41);
  set_identity(eye.view());
  Matrix c(41, 41);
  fill(c.view(), 0.0);
  DgefmmConfig cfg;
  cfg.cutoff = deep_cutoff();
  EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, 41, 41, 41, 1.0, a.data(),
                            41, eye.data(), 41, 0.0, c.data(), 41, cfg));
  EXPECT_LT(max_abs_diff(c.view(), a.view()), 1e-12);
}

TEST(Dgefmm, BetaOnlyAccumulation) {
  // alpha = 0 must reduce to C <- beta*C regardless of A/B contents.
  Matrix a(10, 10), b(10, 10), c(10, 10);
  fill(a.view(), std::nan(""));
  fill(b.view(), std::nan(""));
  fill(c.view(), 3.0);
  EXPECT_EQ(core::dgefmm(Trans::no, Trans::no, 10, 10, 10, 0.0, a.data(), 10,
                         b.data(), 10, 0.5, c.data(), 10),
            0);
  EXPECT_DOUBLE_EQ(c(5, 5), 1.5);
}

TEST(Dgefmm, DegenerateDimensions) {
  Matrix c(4, 4);
  fill(c.view(), 7.0);
  // m == 0 and n == 0 are quick returns (leading dimensions must still be
  // valid, per the BLAS argument-checking convention).
  EXPECT_EQ(core::dgefmm(Trans::no, Trans::no, 0, 4, 4, 1.0, nullptr, 1,
                         nullptr, 4, 0.0, c.data(), 1),
            0);
  EXPECT_EQ(core::dgefmm(Trans::no, Trans::no, 4, 0, 4, 1.0, nullptr, 4,
                         nullptr, 4, 0.0, c.data(), 4),
            0);
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
  // k == 0 scales C.
  EXPECT_EQ(core::dgefmm(Trans::no, Trans::no, 4, 4, 0, 1.0, nullptr, 4,
                         nullptr, 1, 2.0, c.data(), 4),
            0);
  EXPECT_DOUBLE_EQ(c(0, 0), 14.0);
}

// ---------------------------------------------------------- argument checks

TEST(Dgefmm, ArgumentCheckingReturnsBlasInfoCodes) {
  Matrix a(8, 8), b(8, 8), c(8, 8);
  auto call = [&](index_t m, index_t n, index_t k, index_t lda, index_t ldb,
                  index_t ldc) {
    return core::dgefmm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), lda,
                        b.data(), ldb, 0.0, c.data(), ldc);
  };
  EXPECT_EQ(call(-1, 8, 8, 8, 8, 8), 3);
  EXPECT_EQ(call(8, -2, 8, 8, 8, 8), 4);
  EXPECT_EQ(call(8, 8, -1, 8, 8, 8), 5);
  EXPECT_EQ(call(8, 8, 8, 7, 8, 8), 8);   // lda < m
  EXPECT_EQ(call(8, 8, 8, 8, 7, 8), 10);  // ldb < k
  EXPECT_EQ(call(8, 8, 8, 8, 8, 7), 13);  // ldc < m
  EXPECT_EQ(call(8, 8, 8, 8, 8, 8), 0);
  // Transposed A: lda must cover k, not m.
  EXPECT_EQ(core::dgefmm(Trans::transpose, Trans::no, 4, 8, 8, 1.0, a.data(),
                         7, b.data(), 8, 0.0, c.data(), 8),
            8);
  EXPECT_EQ(core::dgefmm(Trans::transpose, Trans::no, 4, 8, 8, 1.0, a.data(),
                         8, b.data(), 8, 0.0, c.data(), 4),
            0);
}

// ---------------------------------------------------------- stats

TEST(Dgefmm, StatsCountRecursionTree) {
  // Fixed depth d on a power-of-two problem: sum_{i<d} 7^i Strassen nodes
  // and 7^d base DGEMMs.
  for (int d = 0; d <= 3; ++d) {
    DgefmmStats stats;
    DgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::fixed_depth(d);
    cfg.stats = &stats;
    const index_t m = 16 << d;
    Rng rng(4);
    Matrix a = random_matrix(m, m, rng);
    Matrix b = random_matrix(m, m, rng);
    Matrix c(m, m);
    fill(c.view(), 0.0);
    EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, m, m, m, 1.0, a.data(),
                              m, b.data(), m, 0.0, c.data(), m, cfg));
    count_t levels = 0, p7 = 1;
    for (int i = 0; i < d; ++i) {
      levels += p7;
      p7 *= 7;
    }
    EXPECT_EQ(stats.strassen_levels, levels) << "d=" << d;
    EXPECT_EQ(stats.base_gemms, p7) << "d=" << d;
    EXPECT_EQ(stats.max_depth, d) << "d=" << d;
    EXPECT_EQ(stats.peel_fixups, 0) << "d=" << d;
  }
}

TEST(Dgefmm, StatsCountPeelFixups) {
  DgefmmStats stats;
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::fixed_depth(1);
  cfg.stats = &stats;
  const index_t m = 25, k = 25, n = 25;  // all odd: 4 fix-ups at the top
  Rng rng(4);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n);
  fill(c.view(), 0.0);
  EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m,
                            b.data(), k, 0.0, c.data(), m, cfg));
  EXPECT_EQ(stats.peel_fixups, 4);
  EXPECT_EQ(stats.strassen_levels, 1);
  EXPECT_EQ(stats.base_gemms, 7);
}

// ---------------------------------------------------------- workspace reuse

TEST(Dgefmm, ExternalArenaIsReusedWithoutGrowth) {
  const Shape s{100, 90, 110};
  DgefmmConfig cfg;
  cfg.cutoff = deep_cutoff();
  Arena arena;
  cfg.workspace = &arena;
  Rng rng(12);
  Matrix a = random_matrix(s.m, s.k, rng);
  Matrix b = random_matrix(s.k, s.n, rng);
  Matrix c(s.m, s.n);
  fill(c.view(), 0.0);
  EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0,
                            a.data(), s.m, b.data(), s.k, 0.0, c.data(), s.m,
                            cfg));
  const std::size_t cap_after_first = arena.capacity();
  EXPECT_GT(cap_after_first, 0u);
  EXPECT_EQ(arena.in_use(), 0u);  // everything released
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0,
                              a.data(), s.m, b.data(), s.k, 0.0, c.data(),
                              s.m, cfg));
  }
  EXPECT_EQ(arena.capacity(), cap_after_first);
}

TEST(Dgefmm, NeverRecurseEqualsDgemm) {
  const Shape s{60, 70, 50};
  Rng rng(3);
  Matrix a = random_matrix(s.m, s.k, rng);
  Matrix b = random_matrix(s.k, s.n, rng);
  Matrix c1(s.m, s.n), c2(s.m, s.n);
  fill_random(c1.view(), rng);
  copy(c1.view(), c2.view());
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::never_recurse();
  EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.5,
                            a.data(), s.m, b.data(), s.k, 0.5, c1.data(),
                            s.m, cfg));
  blas::dgemm(Trans::no, Trans::no, s.m, s.n, s.k, 1.5, a.data(), s.m,
              b.data(), s.k, 0.5, c2.data(), s.m);
  // Identical code path => bit-identical results.
  EXPECT_EQ(max_abs_diff(c1.view(), c2.view()), 0.0);
}

// ------------------------------------------------------ orientation parity

template <class T>
MatrixT<T> random_t(index_t m, index_t n, Rng& rng) {
  if constexpr (std::is_same_v<T, float>) {
    return random_matrix_f(m, n, rng);
  } else {
    return random_matrix(m, n, rng);
  }
}

template <class T>
MatrixT<T> transposed_copy(const MatrixT<T>& x) {
  MatrixT<T> t(x.cols(), x.rows());
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) t(j, i) = x(i, j);
  }
  return t;
}

// A transposed operand's Strassen sums are written row-major and run
// unit-stride, and the products pack either orientation into the same
// bytes. On even shapes (no peel fix-ups) every schedule must therefore
// give C bitwise equal to the NN call on materialised transposes, from the
// same workspace.
template <class T>
void expect_orientation_parity(index_t m, index_t n, index_t k) {
  struct Case {
    Scheme scheme;
    T beta;
  };
  const Case cases[] = {{Scheme::strassen1, T(0)},
                        {Scheme::strassen1, T(0.5)},
                        {Scheme::strassen2, T(0.5)},
                        {Scheme::original, T(0)},
                        {Scheme::original, T(0.5)}};
  Rng rng(91);
  const MatrixT<T> a = random_t<T>(m, k, rng);
  const MatrixT<T> b = random_t<T>(k, n, rng);
  const MatrixT<T> c0 = random_t<T>(m, n, rng);
  const MatrixT<T> at = transposed_copy(a);
  const MatrixT<T> bt = transposed_copy(b);
  const std::size_t bytes =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(n) * sizeof(T);
  for (int depth = 1; depth <= 2; ++depth) {
    for (const Case& cs : cases) {
      const auto run = [&](Trans ta, Trans tb, MatrixT<T>& c,
                           DgefmmStats& stats) {
        copy(c0.view(), c.view());
        core::GefmmConfigT<T> cfg;
        cfg.cutoff = CutoffCriterion::fixed_depth(depth);
        cfg.scheme = cs.scheme;
        cfg.stats = &stats;
        const MatrixT<T>& ao = is_trans(ta) ? at : a;
        const MatrixT<T>& bo = is_trans(tb) ? bt : b;
        int info;
        if constexpr (std::is_same_v<T, float>) {
          info = core::sgefmm(ta, tb, m, n, k, 1.25f, ao.data(), ao.ld(),
                              bo.data(), bo.ld(), cs.beta, c.data(), c.ld(),
                              cfg);
        } else {
          info = core::dgefmm(ta, tb, m, n, k, 1.25, ao.data(), ao.ld(),
                              bo.data(), bo.ld(), cs.beta, c.data(), c.ld(),
                              cfg);
        }
        ASSERT_EQ(info, 0);
      };
      MatrixT<T> want(m, n);
      DgefmmStats want_stats;
      run(Trans::no, Trans::no, want, want_stats);
      EXPECT_EQ(want_stats.max_depth, depth);
      EXPECT_EQ(want_stats.peel_fixups, 0);
      for (const auto& [ta, tb] :
           {std::pair{Trans::transpose, Trans::no},
            std::pair{Trans::no, Trans::transpose},
            std::pair{Trans::transpose, Trans::transpose}}) {
        SCOPED_TRACE(::testing::Message()
                     << m << "x" << n << "x" << k << " depth " << depth
                     << " " << core::scheme_name(cs.scheme) << " beta "
                     << cs.beta << " op " << (is_trans(ta) ? 'T' : 'N')
                     << (is_trans(tb) ? 'T' : 'N'));
        MatrixT<T> got(m, n);
        DgefmmStats got_stats;
        run(ta, tb, got, got_stats);
        EXPECT_EQ(std::memcmp(want.data(), got.data(), bytes), 0);
        EXPECT_EQ(got_stats.peak_workspace, want_stats.peak_workspace);
      }
    }
  }
}

TEST(OrientationParity, DgefmmTransposedEqualsMaterialisedBitwise) {
  expect_orientation_parity<double>(256, 256, 256);
  expect_orientation_parity<double>(384, 256, 320);
}

TEST(OrientationParity, SgefmmTransposedEqualsMaterialisedBitwise) {
  expect_orientation_parity<float>(256, 256, 256);
  expect_orientation_parity<float>(384, 256, 320);
}

}  // namespace
}  // namespace strassen
