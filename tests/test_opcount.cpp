// Operation-count instrumentation tests.
//
// Two layers:
//  1. Closed forms: with a fixed recursion depth on power-of-two shapes and
//     alpha=1/beta=0, the instrumented implementation must perform EXACTLY
//     the operation count of the Section 2 model (eqs. 3-5).
//  2. A mirror predictor replicating the recursion driver, the schedules,
//     and the peeling fix-ups asserts exact counter equality for arbitrary
//     (odd, rectangular) shapes, schemes, and alpha/beta -- a structural
//     invariant much stronger than numerical correctness alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/dgefmm.hpp"
#include "model/opmodel.hpp"
#include "support/opcount.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

using core::CutoffCriterion;
using core::DgefmmConfig;
using core::Scheme;

count_t measured_ops(index_t m, index_t n, index_t k, double alpha,
                     double beta, const DgefmmConfig& cfg,
                     Trans ta = Trans::no, Trans tb = Trans::no) {
  Rng rng(55);
  const index_t ar = is_trans(ta) ? k : m, br = is_trans(tb) ? n : k;
  Matrix a = random_matrix(ar, is_trans(ta) ? m : k, rng);
  Matrix b = random_matrix(br, is_trans(tb) ? k : n, rng);
  Matrix c = random_matrix(m, n, rng);
  opcount::ScopedCounting guard;
  EXPECT_EQ(core::dgefmm(ta, tb, m, n, k, alpha, a.data(), ar, b.data(), br,
                         beta, c.data(), m, cfg),
            0);
  return opcount::counters().total();
}

// ------------------------------------------------- closed-form equality

TEST(OpCountClosedForm, Strassen1MatchesEq4) {
  for (int d = 0; d <= 3; ++d) {
    for (index_t m0 : {4, 6, 10}) {
      DgefmmConfig cfg;
      cfg.cutoff = CutoffCriterion::fixed_depth(d);
      cfg.scheme = Scheme::strassen1;
      const index_t m = m0 << d;
      EXPECT_EQ(measured_ops(m, m, m, 1.0, 0.0, cfg),
                model::winograd_cost_square(m0, d))
          << "m0=" << m0 << " d=" << d;
    }
  }
}

TEST(OpCountClosedForm, Strassen1RectangularMatchesEq3) {
  for (int d = 0; d <= 3; ++d) {
    DgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::fixed_depth(d);
    cfg.scheme = Scheme::strassen1;
    const index_t m0 = 4, k0 = 6, n0 = 10;
    EXPECT_EQ(measured_ops(m0 << d, n0 << d, k0 << d, 1.0, 0.0, cfg),
              model::winograd_cost_depth(m0, k0, n0, d))
        << "d=" << d;
  }
}

TEST(OpCountClosedForm, OriginalVariantMatchesEq5) {
  for (int d = 0; d <= 3; ++d) {
    DgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::fixed_depth(d);
    cfg.scheme = Scheme::original;
    const index_t m0 = 6;
    EXPECT_EQ(measured_ops(m0 << d, m0 << d, m0 << d, 1.0, 0.0, cfg),
              model::original_cost_square(m0, d))
        << "d=" << d;
  }
}

TEST(OpCountClosedForm, NeverRecurseMatchesStandardCost) {
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::never_recurse();
  EXPECT_EQ(measured_ops(24, 30, 18, 1.0, 0.0, cfg),
            model::standard_cost(24, 18, 30));
}

// ------------------------------------------------- mirror predictor

// Replicates the exact recording behaviour of the implementation.
struct Mirror {
  const DgefmmConfig& cfg;

  static count_t c2(index_t a, index_t b) {
    return static_cast<count_t>(a) * b;
  }

  // blas::dgemm's record_ops.
  count_t gemm(index_t m, index_t k, index_t n, double alpha,
               double beta) const {
    if (m == 0 || n == 0) return 0;
    count_t ops = 0;
    if (k > 0 && alpha != 0.0) {
      ops += c2(m, k) * n;            // multiplies
      ops += c2(m, (k - 1)) * n;      // inner-product additions
      if (beta != 0.0) ops += c2(m, n);
      if (alpha != 1.0) ops += c2(m, n);
    }
    if (beta != 0.0 && beta != 1.0) ops += c2(m, n);
    return ops;
  }

  static count_t axpby(double a, double b, index_t m, index_t n) {
    if (b == 0.0) return (a == 1.0) ? 0 : c2(m, n);
    if (a == 1.0 && b == 1.0) return c2(m, n);
    count_t ops = c2(m, n);           // additions
    if (a != 1.0) ops += c2(m, n);
    if (b != 1.0) ops += c2(m, n);
    return ops;
  }

  count_t peel(index_t m, index_t k, index_t n, index_t me, index_t ke,
               index_t ne, double /*alpha*/, double /*beta*/) const {
    count_t ops = 0;
    if (ke < k && me > 0 && ne > 0) ops += 2 * c2(me, ne);  // DGER
    if (ne < n && me > 0) ops += 2 * c2(me, k);             // DGEMV (column)
    if (me < m && ne > 0) ops += 2 * c2(k, ne);             // DGEMV (row)
    if (me < m && ne < n) ops += 2 * k;                     // corner DDOT
    return ops;
  }

  count_t fmm(index_t m, index_t k, index_t n, double alpha, double beta,
              int depth) const {
    if (m == 0 || n == 0) return 0;
    if (m < 2 || k < 2 || n < 2 || alpha == 0.0 ||
        cfg.cutoff.stop(m, k, n, depth)) {
      return gemm(m, k, n, alpha, beta);
    }
    const index_t me = m & ~index_t{1}, ke = k & ~index_t{1},
                  ne = n & ~index_t{1};
    const index_t m2 = me / 2, k2 = ke / 2, n2 = ne / 2;
    count_t ops = schedule(m2, k2, n2, alpha, beta, depth);
    if (((m | k | n) & 1) != 0) ops += peel(m, k, n, me, ke, ne, alpha, beta);
    return ops;
  }

  count_t schedule(index_t m2, index_t k2, index_t n2, double alpha,
                   double beta, int depth) const {
    Scheme s = cfg.scheme;
    if (s == Scheme::automatic || s == Scheme::fused) {
      // The fused schedule's classic recursion below the fusion resolves
      // exactly like automatic (this mirror does not model fused levels).
      s = (beta == 0.0) ? Scheme::strassen1 : Scheme::strassen2;
    }
    const count_t g_mk = c2(m2, k2), g_kn = c2(k2, n2), g_mn = c2(m2, n2);
    auto child = [&](double a, double b) {
      return fmm(m2, k2, n2, a, b, depth + 1);
    };
    switch (s) {
      case Scheme::automatic:
      case Scheme::fused:
      case Scheme::strassen1:
        if (beta == 0.0) {
          // 4 + 4 operand passes, 7 C passes, 7 pure-multiply children.
          return 4 * g_mk + 4 * g_kn + 7 * g_mn + 7 * child(alpha, 0.0);
        }
        // General form: 4 + 4 operand passes, 7 add_inplace passes, 4
        // axpby(1, ., beta, .) passes, 7 pure-multiply children.
        return 4 * g_mk + 4 * g_kn + 7 * g_mn +
               4 * axpby(1.0, beta, m2, n2) + 7 * child(alpha, 0.0);
      case Scheme::strassen2:
        return 4 * g_mk + 4 * g_kn + 3 * g_mn +
               3 * axpby(1.0, beta, m2, n2) + 2 * child(alpha, 0.0) +
               3 * child(alpha, 1.0) + child(-alpha, beta) +
               child(alpha, 1.0);
      case Scheme::original: {
        const count_t base =
            5 * g_mk + 5 * g_kn + 8 * g_mn + 7 * child(alpha, 0.0);
        if (beta == 0.0) return base;
        // Ctmp wrapper: one axpby(1, Ctmp, beta, C) over the even core.
        return base + axpby(1.0, beta, 2 * m2, 2 * n2);
      }
    }
    return 0;
  }
};

class OpCountMirror
    : public ::testing::TestWithParam<
          std::tuple<Scheme, std::tuple<index_t, index_t, index_t>,
                     std::tuple<double, double>>> {};

TEST_P(OpCountMirror, MeasuredEqualsMirror) {
  // Asserts the paper's serial recursion: pin the pool-aware depth to P = 1.
  core::detail::ScopedPoolWorkers serial_depth(1);
  const auto [scheme, shape, ab] = GetParam();
  const auto [m, n, k] = shape;
  const auto [alpha, beta] = ab;
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(8);
  cfg.scheme = scheme;
  const Mirror mirror{cfg};
  EXPECT_EQ(measured_ops(m, n, k, alpha, beta, cfg),
            mirror.fmm(m, k, n, alpha, beta, 0))
      << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
      << " beta=" << beta;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OpCountMirror,
    ::testing::Combine(
        ::testing::Values(Scheme::automatic, Scheme::strassen1,
                          Scheme::strassen2, Scheme::original),
        ::testing::Values(std::tuple<index_t, index_t, index_t>{64, 64, 64},
                          std::tuple<index_t, index_t, index_t>{65, 65, 65},
                          std::tuple<index_t, index_t, index_t>{63, 64, 65},
                          std::tuple<index_t, index_t, index_t>{33, 97, 51},
                          std::tuple<index_t, index_t, index_t>{101, 25, 49}),
        ::testing::Values(std::tuple<double, double>{1.0, 0.0},
                          std::tuple<double, double>{1.0, 1.0},
                          std::tuple<double, double>{2.0, 0.5},
                          std::tuple<double, double>{-1.0, 1.0})));

// Transposed operands change the storage order of the operand sums and
// the loop order of the peel fix-ups, never the counts: each fix-up is
// recorded once by its caller however it is split over the pool. 515 x 387
// x 451 is odd in every dimension and large enough for the fix-ups to fan
// out at any gemm-thread setting above 1.
TEST(OpCountMirrorTransposed, OddTransposedShapesEqualMirror) {
  core::detail::ScopedPoolWorkers serial_depth(1);
  const index_t m = 515, n = 387, k = 451;
  for (const Scheme scheme : {Scheme::automatic, Scheme::strassen1,
                              Scheme::strassen2, Scheme::original}) {
    for (const Trans ta : {Trans::no, Trans::transpose}) {
      for (const Trans tb : {Trans::no, Trans::transpose}) {
        DgefmmConfig cfg;
        cfg.cutoff = CutoffCriterion::square_simple(96);
        cfg.scheme = scheme;
        const Mirror mirror{cfg};
        EXPECT_EQ(measured_ops(m, n, k, 2.0, 0.5, cfg, ta, tb),
                  mirror.fmm(m, k, n, 2.0, 0.5, 0))
            << core::scheme_name(scheme) << " op "
            << (is_trans(ta) ? 'T' : 'N') << (is_trans(tb) ? 'T' : 'N');
      }
    }
  }
}

TEST(OpCount, CountingDisabledByDefaultIsCheap) {
  opcount::reset();
  opcount::set_enabled(false);
  Rng rng(1);
  Matrix a = random_matrix(32, 32, rng);
  Matrix b = random_matrix(32, 32, rng);
  Matrix c(32, 32);
  fill(c.view(), 0.0);
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::fixed_depth(1);
  EXPECT_EQ(0, core::dgefmm(Trans::no, Trans::no, 32, 32, 32, 1.0, a.data(),
                            32, b.data(), 32, 0.0, c.data(), 32, cfg));
  EXPECT_EQ(opcount::counters().total(), 0);
}

TEST(OpCount, StrassenBeatsStandardAboveModelCutoff) {
  // End-to-end sanity: for a 256^3 problem with cutoff 16 the instrumented
  // Strassen op count must be below the standard algorithm's count (and
  // clearly not absurdly small).
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(16);
  cfg.scheme = Scheme::strassen1;
  const count_t strassen_ops = measured_ops(256, 256, 256, 1.0, 0.0, cfg);
  const count_t standard_ops = model::standard_cost(256, 256, 256);
  EXPECT_LT(strassen_ops, standard_ops);
  EXPECT_GT(strassen_ops, standard_ops / 2);
}

}  // namespace
}  // namespace strassen
