// Workspace accounting tests: the measured arena high-water mark must equal
// the exact predictor and respect the paper's closed-form bounds (Section
// 3.2, Table 1).
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "core/workspace.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

using core::CutoffCriterion;
using core::DgefmmConfig;
using core::DgefmmStats;
using core::OddStrategy;
using core::Scheme;

struct Shape {
  index_t m, n, k;
};

const std::vector<Shape> kShapes = {
    {64, 64, 64},  {65, 65, 65},   {63, 65, 64},  {100, 40, 70},
    {40, 100, 70}, {128, 128, 128}, {129, 127, 125}, {30, 200, 30},
    {17, 17, 17},
};

std::size_t measured_peak(const Shape& s, double beta,
                          const DgefmmConfig& base_cfg) {
  DgefmmConfig cfg = base_cfg;
  Arena arena;
  cfg.workspace = &arena;
  Rng rng(101);
  Matrix a = random_matrix(s.m, s.k, rng);
  Matrix b = random_matrix(s.k, s.n, rng);
  Matrix c = random_matrix(s.m, s.n, rng);
  EXPECT_EQ(core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0, a.data(),
                         s.m, b.data(), s.k, beta, c.data(), s.m, cfg),
            0);
  return arena.peak();
}

class WorkspaceExactness
    : public ::testing::TestWithParam<
          std::tuple<Scheme, OddStrategy, int, double>> {};

TEST_P(WorkspaceExactness, MeasuredPeakEqualsPredictor) {
  const auto [scheme, odd, si, beta] = GetParam();
  const Shape s = kShapes[static_cast<std::size_t>(si)];
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(8);
  cfg.scheme = scheme;
  cfg.odd = odd;
  const count_t predicted =
      core::dgefmm_workspace_doubles(s.m, s.n, s.k, beta, cfg);
  const std::size_t peak = measured_peak(s, beta, cfg);
  EXPECT_EQ(static_cast<count_t>(peak), predicted)
      << "m=" << s.m << " n=" << s.n << " k=" << s.k << " beta=" << beta;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkspaceExactness,
    ::testing::Combine(
        ::testing::Values(Scheme::automatic, Scheme::strassen1,
                          Scheme::strassen2, Scheme::original, Scheme::fused),
        ::testing::Values(OddStrategy::dynamic_peeling,
                          OddStrategy::dynamic_padding,
                          OddStrategy::static_padding),
        ::testing::Range(0, static_cast<int>(kShapes.size())),
        ::testing::Values(0.0, 1.0)));

TEST(WorkspaceBounds, Strassen1Beta0WithinPaperBound) {
  // Paper: extra storage <= (m*max(k,n) + kn)/3 for STRASSEN1, beta = 0.
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(8);
  cfg.scheme = Scheme::strassen1;
  for (const Shape& s : kShapes) {
    const count_t need = core::dgefmm_workspace_doubles(s.m, s.n, s.k, 0.0, cfg);
    EXPECT_LE(static_cast<double>(need),
              core::bound_strassen1_beta0(s.m, s.k, s.n) + 1.0)
        << s.m << " " << s.n << " " << s.k;
  }
}

TEST(WorkspaceBounds, Strassen2WithinPaperBound) {
  // Paper: extra storage <= (mk + kn + mn)/3 for STRASSEN2 -- "the minimum
  // number possible".
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(8);
  cfg.scheme = Scheme::strassen2;
  for (const Shape& s : kShapes) {
    const count_t need = core::dgefmm_workspace_doubles(s.m, s.n, s.k, 1.0, cfg);
    EXPECT_LE(static_cast<double>(need),
              core::bound_strassen2(s.m, s.k, s.n) + 1.0)
        << s.m << " " << s.n << " " << s.k;
  }
}

TEST(WorkspaceBounds, Strassen1GeneralWithinPaperBound) {
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(8);
  cfg.scheme = Scheme::strassen1;
  for (const Shape& s : kShapes) {
    const count_t need = core::dgefmm_workspace_doubles(s.m, s.n, s.k, 1.0, cfg);
    EXPECT_LE(static_cast<double>(need),
              core::bound_strassen1_general(s.m, s.k, s.n) + 1.0)
        << s.m << " " << s.n << " " << s.k;
  }
}

TEST(WorkspaceBounds, SquareAsymptoticCoefficients) {
  // Table 1 coefficients for order-m matrices under deep recursion:
  //   DGEFMM beta == 0 : 2/3 m^2, DGEFMM beta != 0 : 1 m^2,
  //   STRASSEN1 beta != 0 : 2 m^2.
  const index_t m = 1024;
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::fixed_depth(6);
  const double m2 = static_cast<double>(m) * m;

  cfg.scheme = Scheme::automatic;
  const double c_beta0 =
      static_cast<double>(core::dgefmm_workspace_doubles(m, m, m, 0.0, cfg)) /
      m2;
  EXPECT_GT(c_beta0, 0.60);
  EXPECT_LE(c_beta0, 2.0 / 3.0 + 1e-9);

  const double c_general =
      static_cast<double>(core::dgefmm_workspace_doubles(m, m, m, 1.0, cfg)) /
      m2;
  EXPECT_GT(c_general, 0.95);
  EXPECT_LE(c_general, 1.0 + 1e-9);

  // STRASSEN1 with beta != 0 uses the six-temporary level only at the top
  // (its seven sub-products are beta == 0), so the exact requirement is
  // 3/2 m^2 + m^2/6 = 5/3 m^2 -- below the paper's all-levels-general bound
  // of 2 m^2.
  cfg.scheme = Scheme::strassen1;
  const double c_s1_general =
      static_cast<double>(core::dgefmm_workspace_doubles(m, m, m, 1.0, cfg)) /
      m2;
  EXPECT_GT(c_s1_general, 1.60);
  EXPECT_LE(c_s1_general, 2.0 + 1e-9);
}

TEST(WorkspaceBounds, FusedStrictlyBelowStrassen2AtFusedLevels) {
  // The fused schedule forms operand sums inside the GEMM pack buffers, so
  // the fused levels themselves allocate nothing; only leaves that still
  // recurse classically materialize temporaries -- at quarter dimensions.
  // Its requirement must therefore be strictly below STRASSEN2's
  // (mk + kn + mn)/3, the serial schedules' minimum.
  DgefmmConfig fused, s2;
  fused.cutoff = s2.cutoff = CutoffCriterion::square_simple(8);
  fused.scheme = Scheme::fused;
  s2.scheme = Scheme::strassen2;
  for (const index_t n : {64, 128, 256, 512, 1024}) {
    const count_t w_fused = core::dgefmm_workspace_doubles(n, n, n, 1.0, fused);
    const count_t w_s2 = core::dgefmm_workspace_doubles(n, n, n, 1.0, s2);
    EXPECT_LT(w_fused, w_s2) << "n=" << n;
  }
}

TEST(WorkspaceBounds, FullyFusedRecursionNeedsNoWorkspace) {
  // When the cutoff is reached exactly at the fused leaves, the whole
  // multiply is 49 packed-GEMM calls and zero arena doubles.
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::fixed_depth(2);
  cfg.scheme = Scheme::fused;
  EXPECT_EQ(core::dgefmm_workspace_doubles(64, 64, 64, 1.0, cfg), 0);
  EXPECT_EQ(core::dgefmm_workspace_doubles(256, 192, 320, 0.0, cfg), 0);
}

TEST(WorkspaceBounds, PeelingNeedsNoExtraMemoryOverEvenCore) {
  // Dynamic peeling adds zero workspace: an odd problem costs exactly what
  // its even core costs.
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(8);
  const count_t odd = core::dgefmm_workspace_doubles(65, 65, 65, 0.0, cfg);
  const count_t even = core::dgefmm_workspace_doubles(64, 64, 64, 0.0, cfg);
  EXPECT_EQ(odd, even);
}

TEST(WorkspaceBounds, DynamicPaddingCostsMoreThanPeelingOnOddSizes) {
  DgefmmConfig peel, pad;
  peel.cutoff = pad.cutoff = CutoffCriterion::square_simple(8);
  peel.odd = OddStrategy::dynamic_peeling;
  pad.odd = OddStrategy::dynamic_padding;
  const count_t w_peel = core::dgefmm_workspace_doubles(65, 65, 65, 0.0, peel);
  const count_t w_pad = core::dgefmm_workspace_doubles(65, 65, 65, 0.0, pad);
  EXPECT_GT(w_pad, w_peel);
  // Padding at the top level alone costs three padded operand copies,
  // ~3*66^2 doubles.
  EXPECT_GT(w_pad - w_peel, 3 * 60 * 60);
}

TEST(WorkspaceBounds, NoRecursionNeedsNoWorkspace) {
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::never_recurse();
  EXPECT_EQ(core::dgefmm_workspace_doubles(500, 500, 500, 0.0, cfg), 0);
}

TEST(WorkspaceError, UndersizedCallerArenaThrows) {
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(8);
  Arena arena(16);     // far too small
  (void)arena.alloc(1);      // mark in use so dgefmm cannot silently regrow it
  cfg.workspace = &arena;
  Rng rng(5);
  Matrix a = random_matrix(64, 64, rng);
  Matrix b = random_matrix(64, 64, rng);
  Matrix c(64, 64);
  fill(c.view(), 0.0);
  EXPECT_THROW((void)core::dgefmm(Trans::no, Trans::no, 64, 64, 64, 1.0,
                                  a.data(), 64, b.data(), 64, 0.0, c.data(),
                                  64, cfg),
               WorkspaceError);
}

TEST(WorkspaceError, UndersizedCallerArenaFallsBackWhenAsked) {
  // Same undersized in-use arena as above, but with the fallback failure
  // policy: the call degrades to the workspace-free DGEMM path, records the
  // degradation, and still returns the right product.
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(8);
  cfg.on_failure = core::FailurePolicy::fallback;
  DgefmmStats stats;
  cfg.stats = &stats;
  Arena arena(16);
  (void)arena.alloc(1);
  cfg.workspace = &arena;
  Rng rng(6);
  Matrix a = random_matrix(64, 64, rng);
  Matrix b = random_matrix(64, 64, rng);
  Matrix c(64, 64), c_ref(64, 64);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  EXPECT_EQ(core::dgefmm(Trans::no, Trans::no, 64, 64, 64, 1.0, a.data(), 64,
                         b.data(), 64, 0.0, c.data(), 64, cfg),
            0);
  EXPECT_EQ(stats.fallbacks, 1);
  blas::gemm_reference(Trans::no, Trans::no, 64, 64, 64, 1.0, a.data(), 64,
                       b.data(), 64, 0.0, c_ref.data(), 64);
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-11);
  // The caller's live allocation is still intact and the arena unused
  // beyond it.
  EXPECT_EQ(arena.in_use(), 1u);
}

// ---------------------------------------------------------------------------
// The pool-aware recursion depth (CutoffCriterion::stop on a pool of P
// workers). Pinned through the internal seam, so both checks mean the same
// on every host.

// Levels the paper's eq. (15) takes on the even-halving chain of (m, k, n):
// every node of one call's recursion has the same shape at a given depth.
int paper_depth(index_t m, index_t k, index_t n) {
  const CutoffCriterion paper =
      CutoffCriterion::paper_default(blas::Machine::rs6000);
  int d = 0;
  while (m >= 2 && k >= 2 && n >= 2 && !paper.stop(m, k, n, d)) {
    m = (m & ~index_t{1}) / 2;
    k = (k & ~index_t{1}) / 2;
    n = (n & ~index_t{1}) / 2;
    ++d;
  }
  return d;
}

count_t pow7(int d) {
  count_t p = 1;
  for (int i = 0; i < d; ++i) p *= 7;
  return p;
}

struct DenseShape {
  index_t m, n, k;
  Trans ta, tb;
  double beta;
  const char* name;
};

// The repository benchmark's f64 shapes (paper Tables 2-3 and the
// odd-peeling case).
constexpr DenseShape kDenseShapes[] = {
    {2048, 2048, 2048, Trans::no, Trans::no, 0.0, "sq2048"},
    {2047, 2047, 2047, Trans::transpose, Trans::no, 1.0, "odd2047"},
    {3072, 3072, 768, Trans::no, Trans::no, 1.0, "rect3072k768"},
    {1536, 3072, 2560, Trans::no, Trans::transpose, 0.0,
     "rect1536x3072k2560"},
};

// Runs the default drop-in on one shape and returns its stats; C is
// returned through `c`.
DgefmmStats run_default(const DenseShape& sh, Matrix& c, std::uint64_t seed,
                        const CutoffCriterion* cutoff = nullptr) {
  Rng rng(seed);
  const index_t ar = sh.ta == Trans::no ? sh.m : sh.k;
  const index_t ac = sh.ta == Trans::no ? sh.k : sh.m;
  const index_t br = sh.tb == Trans::no ? sh.k : sh.n;
  const index_t bc = sh.tb == Trans::no ? sh.n : sh.k;
  const Matrix a = random_matrix(ar, ac, rng);
  const Matrix b = random_matrix(br, bc, rng);
  c = random_matrix(sh.m, sh.n, rng);
  DgefmmStats stats;
  DgefmmConfig cfg;
  if (cutoff != nullptr) cfg.cutoff = *cutoff;
  cfg.stats = &stats;
  EXPECT_EQ(core::dgefmm(sh.ta, sh.tb, sh.m, sh.n, sh.k, 1.0, a.data(), ar,
                         b.data(), br, sh.beta, c.data(), sh.m, cfg),
            0);
  return stats;
}

TEST(PoolDepth, OneWorkerRunsThePaperRecursion) {
  // With P = 1 the drop-in is the paper's DGEFMM: depth and leaf count from
  // eq. (15) alone, peak == the P = 1 prediction, and C bit-identical to
  // the same uniform recursion forced by depth (fixed_depth is untouched by
  // the pool, so that run may use any P). Half-size benchmark shapes keep
  // the serial-depth runs short.
  const DenseShape shapes[] = {
      {1024, 1024, 1024, Trans::no, Trans::no, 0.0, "sq1024"},
      {1023, 1023, 1023, Trans::transpose, Trans::no, 1.0, "odd1023"},
      {1536, 1536, 384, Trans::no, Trans::no, 1.0, "rect1536k384"},
  };
  for (const DenseShape& sh : shapes) {
    SCOPED_TRACE(sh.name);
    const int d = paper_depth(sh.m, sh.k, sh.n);
    ASSERT_GE(d, 2);
    Matrix c1, c_fixed;
    DgefmmStats stats;
    count_t predicted = 0;
    {
      core::detail::ScopedPoolWorkers serial_depth(1);
      stats = run_default(sh, c1, 77);
      predicted = core::workspace_doubles(sh.m, sh.n, sh.k, sh.beta,
                                          DgefmmConfig{});
    }
    EXPECT_EQ(stats.pool_workers, 1);
    EXPECT_EQ(stats.max_depth, d);
    EXPECT_EQ(stats.base_gemms, pow7(d));
    EXPECT_EQ(stats.peak_workspace, static_cast<std::size_t>(predicted));
    {
      core::detail::ScopedPoolWorkers four(4);
      const CutoffCriterion fixed = CutoffCriterion::fixed_depth(d);
      (void)run_default(sh, c_fixed, 77, &fixed);
    }
    EXPECT_EQ(std::memcmp(c1.data(), c_fixed.data(),
                          sizeof(double) * static_cast<std::size_t>(sh.m) *
                              static_cast<std::size_t>(sh.n)),
              0);
  }
}

TEST(PoolDepth, FourWorkersPredictionEqualsPeakOnDenseShapes) {
  // P = 4 never takes more levels than P = 1 (sq2048: 2 instead of 4) and
  // the predictor follows it exactly, odd peeling included.
  core::detail::ScopedPoolWorkers four(4);
  for (const DenseShape& sh : kDenseShapes) {
    SCOPED_TRACE(sh.name);
    Matrix c;
    const DgefmmStats stats = run_default(sh, c, 91);
    const count_t predicted =
        core::workspace_doubles(sh.m, sh.n, sh.k, sh.beta, DgefmmConfig{});
    EXPECT_EQ(stats.pool_workers, 4);
    EXPECT_EQ(stats.peak_workspace, static_cast<std::size_t>(predicted));
    EXPECT_LE(stats.max_depth, paper_depth(sh.m, sh.k, sh.n));
    if (sh.m == 2048) {
      EXPECT_EQ(stats.max_depth, 2);
    }
  }
  // The f32 shape through sgefmm.
  const index_t n = 3072;
  Rng rng(92);
  const MatrixF a = random_matrix_f(n, n, rng);
  const MatrixF b = random_matrix_f(n, n, rng);
  MatrixF c(n, n);
  DgefmmStats stats;
  core::SgefmmConfig cfg;
  cfg.stats = &stats;
  ASSERT_EQ(core::sgefmm(Trans::no, Trans::no, n, n, n, 1.0f, a.data(), n,
                         b.data(), n, 0.0f, c.data(), n, cfg),
            0);
  EXPECT_EQ(stats.peak_workspace,
            static_cast<std::size_t>(core::workspace_floats(
                n, n, n, 0.0f, core::SgefmmConfig{})));
  EXPECT_LT(stats.max_depth, paper_depth(n, n, n));
}

}  // namespace
}  // namespace strassen
