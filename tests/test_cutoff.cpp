// Tests for the runtime cutoff criteria (eqs. 7, 10-15).
#include <gtest/gtest.h>

#include "core/cutoff.hpp"
#include "support/thread_pool.hpp"
#include "model/cutoff_theory.hpp"

namespace strassen {
namespace {

using core::CutoffCriterion;
using core::CutoffKind;

TEST(Cutoff, OpCountAgreesWithModel) {
  const CutoffCriterion c = CutoffCriterion::op_count();
  for (index_t m : {2, 6, 12, 13, 40}) {
    for (index_t k : {2, 14, 40}) {
      for (index_t n : {2, 84, 86, 400}) {
        EXPECT_EQ(c.stop(m, k, n, 0), model::standard_preferred(m, k, n))
            << m << " " << k << " " << n;
      }
    }
  }
}

TEST(Cutoff, SquareSimpleStopsWhenAnyDimensionSmall) {
  const CutoffCriterion c = CutoffCriterion::square_simple(199);
  EXPECT_TRUE(c.stop(199, 1000, 1000, 0));
  EXPECT_TRUE(c.stop(1000, 199, 1000, 0));
  EXPECT_TRUE(c.stop(1000, 1000, 199, 0));
  EXPECT_FALSE(c.stop(200, 200, 200, 0));
  EXPECT_TRUE(c.stop(199, 199, 199, 0));
}

TEST(Cutoff, SquareSimpleBlocksTheBeneficialRectangularCase) {
  // The paper's motivating case: (11) with tau=199 prevents recursion on
  // m=160, n=957, k=1957 although it is beneficial.
  const CutoffCriterion simple = CutoffCriterion::square_simple(199);
  EXPECT_TRUE(simple.stop(160, 1957, 957, 0));
  const CutoffCriterion hybrid =
      CutoffCriterion::paper_default(blas::Machine::rs6000);
  EXPECT_FALSE(hybrid.stop(160, 1957, 957, 0));
}

TEST(Cutoff, HighamScaledReducesToSquareCutoff) {
  // (12) reduces to m <= tau on square inputs.
  const CutoffCriterion c = CutoffCriterion::higham_scaled(129);
  EXPECT_TRUE(c.stop(129, 129, 129, 0));
  EXPECT_FALSE(c.stop(130, 130, 130, 0));
}

TEST(Cutoff, ParameterizedMatchesEq14) {
  // (14): stop iff 1 < tau_m/m + tau_k/k + tau_n/n.
  const CutoffCriterion c = CutoffCriterion::parameterized(75, 125, 95);
  auto rhs = [&](double m, double k, double n) {
    return 75.0 / m + 125.0 / k + 95.0 / n;
  };
  struct Case {
    index_t m, k, n;
  };
  for (const Case cs : {Case{100, 200, 150}, Case{300, 300, 300},
                        Case{80, 2000, 2000}, Case{70, 2000, 2000},
                        Case{500, 126, 96}}) {
    const bool stop_expected =
        rhs(static_cast<double>(cs.m), static_cast<double>(cs.k),
            static_cast<double>(cs.n)) >= 1.0;
    EXPECT_EQ(c.stop(cs.m, cs.k, cs.n, 0), stop_expected)
        << cs.m << " " << cs.k << " " << cs.n;
  }
}

TEST(Cutoff, HybridAlwaysRecursesWhenAllLarge) {
  const CutoffCriterion c = CutoffCriterion::hybrid(199, 75, 125, 95);
  EXPECT_FALSE(c.stop(200, 200, 200, 0));
  EXPECT_FALSE(c.stop(5000, 5000, 5000, 0));
}

TEST(Cutoff, HybridAlwaysStopsWhenAllSmall) {
  const CutoffCriterion c = CutoffCriterion::hybrid(199, 75, 125, 95);
  EXPECT_TRUE(c.stop(199, 199, 199, 0));
  EXPECT_TRUE(c.stop(12, 12, 12, 0));
}

TEST(Cutoff, HybridDelegatesToParameterizedInMixedRegion) {
  const CutoffCriterion hybrid = CutoffCriterion::hybrid(199, 75, 125, 95);
  const CutoffCriterion param = CutoffCriterion::parameterized(75, 125, 95);
  // Mixed region: some dimensions <= tau, some > tau.
  struct Case {
    index_t m, k, n;
  };
  for (const Case cs :
       {Case{100, 2000, 2000}, Case{80, 1500, 900}, Case{76, 2000, 96},
        Case{150, 150, 2000}, Case{199, 200, 200}}) {
    const bool any_small = cs.m <= 199 || cs.k <= 199 || cs.n <= 199;
    const bool all_small = cs.m <= 199 && cs.k <= 199 && cs.n <= 199;
    ASSERT_TRUE(any_small && !all_small);
    EXPECT_EQ(hybrid.stop(cs.m, cs.k, cs.n, 0),
              param.stop(cs.m, cs.k, cs.n, 0))
        << cs.m << " " << cs.k << " " << cs.n;
  }
}

TEST(Cutoff, FixedDepth) {
  const CutoffCriterion c = CutoffCriterion::fixed_depth(3);
  EXPECT_FALSE(c.stop(1000, 1000, 1000, 0));
  EXPECT_FALSE(c.stop(1000, 1000, 1000, 2));
  EXPECT_TRUE(c.stop(1000, 1000, 1000, 3));
  EXPECT_TRUE(c.stop(1000, 1000, 1000, 7));
}

TEST(Cutoff, NeverRecurse) {
  const CutoffCriterion c = CutoffCriterion::never_recurse();
  EXPECT_TRUE(c.stop(100000, 100000, 100000, 0));
}

TEST(Cutoff, PaperDefaultsMatchTables2And3) {
  const CutoffCriterion rs = CutoffCriterion::paper_default(blas::Machine::rs6000);
  EXPECT_DOUBLE_EQ(rs.tau, 199.0);
  EXPECT_DOUBLE_EQ(rs.tau_m, 75.0);
  EXPECT_DOUBLE_EQ(rs.tau_k, 125.0);
  EXPECT_DOUBLE_EQ(rs.tau_n, 95.0);
  const CutoffCriterion c90 = CutoffCriterion::paper_default(blas::Machine::c90);
  EXPECT_DOUBLE_EQ(c90.tau, 129.0);
  const CutoffCriterion t3d = CutoffCriterion::paper_default(blas::Machine::t3d);
  EXPECT_DOUBLE_EQ(t3d.tau, 325.0);
}

TEST(Cutoff, DescribeMentionsKind) {
  EXPECT_NE(CutoffCriterion::hybrid(199, 75, 125, 95).describe().find("hybrid"),
            std::string::npos);
  EXPECT_NE(CutoffCriterion::op_count().describe().find("op-count"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Pool-aware depth (CutoffCriterion::stop on a criterion resolved for a pool
// of P workers): a level is taken only where the rule still recurses on one
// worker's share, the larger output dimension divided by P.

// Levels the recursion takes on an even-halving chain from (m, k, n).
int chain_depth(const CutoffCriterion& c, index_t m, index_t k, index_t n) {
  int d = 0;
  while (m >= 2 && k >= 2 && n >= 2 && !c.stop(m, k, n, d)) {
    m = (m & ~index_t{1}) / 2;
    k = (k & ~index_t{1}) / 2;
    n = (n & ~index_t{1}) / 2;
    ++d;
  }
  return d;
}

TEST(PoolDepth, OneWorkerIsThePaperRule) {
  const CutoffCriterion kinds[] = {
      CutoffCriterion::paper_default(blas::Machine::rs6000),
      CutoffCriterion::square_simple(64), CutoffCriterion::higham_scaled(64),
      CutoffCriterion::parameterized(75, 125, 95), CutoffCriterion::op_count(),
      CutoffCriterion::fixed_depth(3)};
  for (const CutoffCriterion& c : kinds) {
    const CutoffCriterion one = core::detail::on_pool(c, 1);
    for (index_t m = 8; m <= 4096; m = m * 3 / 2 + 1) {
      for (index_t n = 8; n <= 4096; n = n * 5 / 3 + 7) {
        for (const index_t k : {index_t{16}, index_t{150}, index_t{999}}) {
          for (int d = 0; d < 4; ++d) {
            ASSERT_EQ(one.stop(m, k, n, d), c.stop(m, k, n, d))
                << c.describe() << " " << m << "x" << k << "x" << n;
          }
        }
      }
    }
  }
}

TEST(PoolDepth, SharesTheLargerOutputDimension) {
  const CutoffCriterion paper =
      CutoffCriterion::paper_default(blas::Machine::rs6000);
  const CutoffCriterion four = core::detail::on_pool(paper, 4);
  // sq2048 recurses four levels on one worker, two on four: at 512^3 a
  // quarter of the rows (128) is below tau and eq. (13) says stop.
  EXPECT_EQ(chain_depth(paper, 2048, 2048, 2048), 4);
  EXPECT_EQ(chain_depth(four, 2048, 2048, 2048), 2);
  EXPECT_FALSE(four.stop(1024, 1024, 1024, 1));
  EXPECT_TRUE(four.stop(512, 512, 512, 2));
  // The share divides the larger output dimension: a quarter of 780 is
  // 195 <= tau, and eq. (13) stops on it whichever of m and n it is.
  EXPECT_FALSE(paper.stop(220, 300, 780, 0));
  EXPECT_TRUE(four.stop(220, 300, 780, 0));
  EXPECT_TRUE(four.stop(780, 300, 220, 0));
  EXPECT_FALSE(four.stop(780, 300, 800, 0));  // n = 800 is shared instead
  // Rounding up: 1001 rows share as 251.
  EXPECT_EQ(four.stop(1001, 500, 700, 0), paper.stop(251, 500, 700, 0));
  // Never deeper than the paper rule, and fixed depths stay fixed.
  for (index_t s = 64; s <= 8192; s *= 2) {
    EXPECT_LE(chain_depth(four, s, s, s), chain_depth(paper, s, s, s));
  }
  const CutoffCriterion fixed =
      core::detail::on_pool(CutoffCriterion::fixed_depth(2), 16);
  EXPECT_EQ(chain_depth(fixed, 4096, 4096, 4096), 2);
}

TEST(PoolDepth, WorkersComeFromThePoolSizeUnlessPinned) {
  EXPECT_EQ(core::detail::pool_workers(),
            static_cast<int>(parallel::global_pool_size()));
  {
    core::detail::ScopedPoolWorkers pin(3);
    EXPECT_EQ(core::detail::pool_workers(), 3);
    {
      core::detail::ScopedPoolWorkers inner(1);
      EXPECT_EQ(core::detail::pool_workers(), 1);
    }
    EXPECT_EQ(core::detail::pool_workers(), 3);
  }
  EXPECT_EQ(core::detail::pool_workers(),
            static_cast<int>(parallel::global_pool_size()));
}

}  // namespace
}  // namespace strassen
