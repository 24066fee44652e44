// Failure-contract tests (DESIGN.md section 7).
//
// The fault sweeps are the heart of this file: for every shape x schedule x
// policy combination they fail the Nth resource acquisition for every N,
// asserting the contract each time -- strict means a clean typed error with
// C bit-identical to the pre-call snapshot, fallback means a correct
// product with the degradation recorded in the stats. The number of
// acquisitions is counted, not guessed: a disarmed census of the call is
// checked against the closed forms in fault_census.hpp (DESIGN.md section
// 7), every N up to that count must fire, and N = count + 1 must run
// clean.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <new>
#include <optional>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/packed_loop.hpp"
#include "core/cabi.hpp"
#include "core/dgefmm.hpp"
#include "core/workspace.hpp"
#include "fault_census.hpp"
#include "support/faultinject.hpp"
#include "support/matrix.hpp"
#include "support/memadvise.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace strassen {
namespace {

namespace fi = faultinject;

using core::CutoffCriterion;
using core::DgefmmConfig;
using core::DgefmmStats;
using core::FailurePolicy;
using core::Scheme;

// Every test leaves the process-global injection state disarmed.
class FaultInject : public ::testing::Test {
 protected:
  void TearDown() override { fi::disarm(); }
};

TEST_F(FaultInject, CountdownFiresExactlyOnce) {
  fi::arm(3, fi::Site::arena_alloc);
  EXPECT_TRUE(fi::armed());
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
  const long before = fi::injected_total();
  EXPECT_TRUE(fi::should_fail(fi::Site::arena_alloc));
  EXPECT_EQ(fi::injected_total(), before + 1);
  EXPECT_FALSE(fi::armed());
  // One-shot: once fired, the harness has disarmed itself.
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
  EXPECT_EQ(fi::injected_total(), before + 1);
}

TEST_F(FaultInject, SiteFilterIgnoresOtherSites) {
  fi::arm(1, fi::Site::pool_task);
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_reserve));
  EXPECT_FALSE(fi::should_fail(fi::Site::buffer_alloc));
  EXPECT_TRUE(fi::should_fail(fi::Site::pool_task));
}

TEST_F(FaultInject, WildcardMatchesEverySite) {
  fi::arm(2);
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_reserve));
  EXPECT_TRUE(fi::should_fail(fi::Site::buffer_alloc));
}

TEST_F(FaultInject, ScopedSuspendMasksTheCallingThread) {
  fi::arm(1);
  {
    fi::ScopedSuspend guard;
    EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
    EXPECT_TRUE(fi::armed());  // masked checks do not consume the countdown
  }
  EXPECT_TRUE(fi::should_fail(fi::Site::arena_alloc));
}

TEST_F(FaultInject, ArmedReserveThrowsWorkspaceError) {
  Arena arena;
  fi::arm(1, fi::Site::arena_reserve);
  EXPECT_THROW(arena.reserve(64), WorkspaceError);
  // The failed reserve must not have corrupted the arena.
  EXPECT_NO_THROW(arena.reserve(64));
  double* p = arena.alloc(64);
  EXPECT_NE(p, nullptr);
}

TEST_F(FaultInject, ArmedBufferAllocThrowsBadAlloc) {
  fi::arm(1, fi::Site::buffer_alloc);
  EXPECT_THROW(
      {
        Matrix m(8, 8);
        (void)m;
      },
      std::bad_alloc);
}

TEST_F(FaultInject, SiteNamesAreDistinct) {
  EXPECT_STRNE(fi::site_name(fi::Site::arena_alloc),
               fi::site_name(fi::Site::arena_reserve));
  EXPECT_STRNE(fi::site_name(fi::Site::buffer_alloc),
               fi::site_name(fi::Site::pool_task));
}

// ---------------------------------------------------------------------------
// Arena debug guards: canary past the newest allocation, poison on release.

class ArenaGuards : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = fi::arena_guards();
    fi::set_arena_guards(true);
  }
  void TearDown() override {
    fi::set_arena_guards(prev_);
    fi::disarm();
  }
  bool prev_ = false;
};

TEST_F(ArenaGuards, OverrunDetectedAtNextAlloc) {
  Arena arena(64);
  double* p = arena.alloc(8);
  p[8] = 1.0;  // one past the end: lands on the canary
  (void)arena.alloc(1);
  EXPECT_TRUE(arena.corruption_detected());
}

TEST_F(ArenaGuards, OverrunDetectedAtRelease) {
  Arena arena(64);
  const std::size_t mark = arena.mark();
  double* p = arena.alloc(4);
  p[4] = 2.0;
  arena.release(mark);
  EXPECT_TRUE(arena.corruption_detected());
}

TEST_F(ArenaGuards, InBoundsUseIsClean) {
  Arena arena(64);
  const std::size_t mark = arena.mark();
  double* p = arena.alloc(8);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<double>(i);
  arena.release(mark);
  double* q = arena.alloc(16);
  for (int i = 0; i < 16; ++i) q[i] = 1.0;
  arena.release(mark);
  EXPECT_FALSE(arena.corruption_detected());
}

TEST_F(ArenaGuards, ReleasedRangeIsPoisonedWithNaNs) {
  Arena arena(64);
  double* p = arena.alloc(8);
  for (int i = 0; i < 8; ++i) p[i] = 1.0;
  arena.release(0);
  // p[0] now holds the canary for the new (empty) stack top; everything
  // past it must carry the poison pattern.
  EXPECT_NE(p[0], 1.0);
  for (int i = 1; i < 8; ++i) {
    EXPECT_TRUE(std::isnan(p[i])) << "released double " << i
                                  << " not poisoned";
  }
}

TEST_F(ArenaGuards, GuardDoesNotChangeAccountingOrAddresses) {
  Arena with(64), without(64);
  double* pw = with.alloc(10);
  fi::set_arena_guards(false);
  double* po = without.alloc(10);
  fi::set_arena_guards(true);
  EXPECT_EQ(pw - with.alloc(5), po - without.alloc(5));
  EXPECT_EQ(with.peak(), without.peak());
  EXPECT_EQ(with.in_use(), without.in_use());
}

TEST_F(ArenaGuards, ExactlyFullArenaSkipsTheCanary) {
  Arena arena(8);
  double* p = arena.alloc(8);  // no room left for a guard word
  for (int i = 0; i < 8; ++i) p[i] = 1.0;
  arena.release(0);
  (void)arena.alloc(8);
  EXPECT_FALSE(arena.corruption_detected());
}

TEST_F(ArenaGuards, DisabledGuardsDetectNothing) {
  fi::set_arena_guards(false);
  Arena arena(64);
  double* p = arena.alloc(4);
  p[4] = 2.0;
  arena.release(0);
  (void)arena.alloc(1);
  EXPECT_FALSE(arena.corruption_detected());
}

// ---------------------------------------------------------------------------
// The fault sweeps.

struct Problem {
  index_t m, n, k;
  double alpha, beta;
  Matrix a, b, c0, want;

  Problem(index_t m_, index_t n_, index_t k_, double alpha_, double beta_,
          std::uint64_t seed)
      : m(m_), n(n_), k(k_), alpha(alpha_), beta(beta_) {
    Rng rng(seed);
    a = random_matrix(m, k, rng);
    b = random_matrix(k, n, rng);
    c0 = random_matrix(m, n, rng);
    want = Matrix(m, n);
    copy(c0.view(), want.view());
    blas::gemm_reference(Trans::no, Trans::no, m, n, k, alpha, a.data(), m,
                         b.data(), k, beta, want.data(), m);
  }
};

// One armed call through `call`; checks the policy contract against the
// problem's reference result. Returns true when the fault actually fired
// (so the sweep must continue with the next countdown).
template <class Call>
bool check_armed_call(const Problem& p, FailurePolicy policy,
                      const DgefmmStats& stats, long nth, Call&& call) {
  Matrix c(p.m, p.n);
  copy(p.c0.view(), c.view());
  std::vector<double> snapshot(c.data(),
                               c.data() + static_cast<std::size_t>(p.m) * p.n);

  const long before = fi::injected_total();
  fi::arm(nth);
  bool threw = false;
  int info = -999;
  try {
    info = call(c);
  } catch (const Error&) {
    threw = true;
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  fi::disarm();
  const bool fired = fi::injected_total() > before;

  if (!fired) {
    // Countdown outlived the call's acquisitions: a clean, correct run.
    EXPECT_FALSE(threw);
    EXPECT_EQ(info, 0);
    EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
    return false;
  }
  if (policy == FailurePolicy::strict) {
    EXPECT_TRUE(threw) << "strict policy must surface the injected fault";
    EXPECT_EQ(std::memcmp(c.data(), snapshot.data(),
                          snapshot.size() * sizeof(double)),
              0)
        << "strict policy must leave C bit-identical";
  } else {
    EXPECT_FALSE(threw) << "fallback policy must absorb the injected fault";
    EXPECT_EQ(info, 0);
    EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
    EXPECT_GE(stats.fallbacks, 1)
        << "fallback degradation must be recorded in the stats";
  }
  return true;
}

// Fails acquisition 1..acquisitions in turn, then requires the next run
// to be clean. `run(c, stats)` makes one call; a cold sweep releases every
// thread's pack scratch before each one.
template <class Run>
void sweep_counted(const Problem& p, FailurePolicy policy, long acquisitions,
                   bool cold, Run&& run) {
  for (long nth = 1; nth <= acquisitions + 1; ++nth) {
    SCOPED_TRACE(::testing::Message() << (cold ? "cold " : "warm ") << "nth "
                                      << nth << " of " << acquisitions);
    if (cold) census::release_all_pack_scratch();
    DgefmmStats stats;
    const bool fired = check_armed_call(
        p, policy, stats, nth, [&](Matrix& c) { return run(c, &stats); });
    EXPECT_EQ(fired, nth <= acquisitions)
        << "the census counted " << acquisitions << " acquisitions";
    if (fired && policy == FailurePolicy::fallback) {
      EXPECT_GT(stats.faults_injected, 0);
    }
  }
}

// Counts one dgefmm call's acquisitions, steady and cold, checks both
// against the closed forms in fault_census.hpp and sweeps every one of
// them. `plan` receives a clean call's stats.
void sweep_call(const Problem& p, const DgefmmConfig& cfg,
                FailurePolicy policy, DgefmmStats* plan) {
  const auto run = [&](Matrix& c, DgefmmStats* stats) {
    DgefmmConfig call = cfg;
    call.on_failure = policy;
    call.stats = stats;
    return core::dgefmm(Trans::no, Trans::no, p.m, p.n, p.k, p.alpha,
                        p.a.data(), p.m, p.b.data(), p.k, p.beta, c.data(),
                        p.m, call);
  };
  Matrix scratch(p.m, p.n);  // allocated outside the census
  const auto clean_call = [&] {
    copy(p.c0.view(), scratch.view());
    ASSERT_EQ(run(scratch, nullptr), 0);
  };
  const long acquisitions = census::count_acquisitions(clean_call);
  const long steady = census::serial_acquisitions(
      /*local_arena=*/true,
      core::workspace_doubles(p.m, p.n, p.k, p.beta, cfg) > 0);
  EXPECT_EQ(acquisitions, steady);
  sweep_counted(p, policy, acquisitions, /*cold=*/false, run);

  // Whether the call's pre-flight warms the pool workers, read back from a
  // clean call's stats.
  copy(p.c0.view(), scratch.view());
  ASSERT_EQ(run(scratch, plan), 0);
  const long cold = census::count_cold_acquisitions(clean_call);
  EXPECT_EQ(cold, steady + census::cold_scratch_acquisitions(
                               plan->gemm_threads > 1,
                               static_cast<long>(
                                   parallel::global_pool().size())));
  sweep_counted(p, policy, cold, /*cold=*/true, run);
}

// Serial sweeps run the paper's recursion depth (P = 1) by default, so the
// small shapes still recurse; `pool_depth` keeps the host's pool-aware
// depth instead.
void sweep_serial(index_t m, index_t n, index_t k, Scheme scheme, double beta,
                  FailurePolicy policy, std::uint64_t seed,
                  bool pool_depth = false) {
  std::optional<core::detail::ScopedPoolWorkers> serial_depth;
  if (!pool_depth) serial_depth.emplace(1);
  SCOPED_TRACE(::testing::Message()
               << "serial " << m << "x" << n << "x" << k << " scheme "
               << static_cast<int>(scheme) << " beta " << beta);
  const Problem p(m, n, k, 1.0, beta, seed);
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(16);
  cfg.scheme = scheme;
  DgefmmStats plan;
  sweep_call(p, cfg, policy, &plan);
}

// Parallel sweeps pin the calling thread's gemm-thread setting to
// `gemm_threads` (> 1) and the recursion to `depth` levels, so on any host
// the packed GEMMs and quadrant passes of the swept call fan out over the
// pool: every fallible acquisition, including the pool workers' warm-up,
// must still fire before the first write to C.
void sweep_parallel(index_t m, index_t n, index_t k, Scheme scheme,
                    double beta, FailurePolicy policy, std::uint64_t seed,
                    int gemm_threads, int depth = 1) {
  blas::ScopedGemmThreads fan(gemm_threads);
  SCOPED_TRACE(::testing::Message()
               << "parallel " << m << "x" << n << "x" << k << " scheme "
               << static_cast<int>(scheme) << " beta " << beta
               << " gemm threads " << gemm_threads << " depth " << depth);
  const Problem p(m, n, k, 1.0, beta, seed);
  DgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::fixed_depth(depth);
  cfg.scheme = scheme;
  DgefmmStats plan;
  sweep_call(p, cfg, policy, &plan);
  EXPECT_EQ(plan.max_depth, depth);
  EXPECT_EQ(plan.gemm_threads, gemm_threads) << "the call must fan out";
}

TEST_F(FaultInject, SerialSweepStrassen1Strict) {
  sweep_serial(64, 64, 64, Scheme::strassen1, 0.0, FailurePolicy::strict, 11);
}

TEST_F(FaultInject, SerialSweepStrassen1Fallback) {
  sweep_serial(64, 64, 64, Scheme::strassen1, 0.0, FailurePolicy::fallback,
               11);
}

TEST_F(FaultInject, SerialSweepStrassen2Strict) {
  sweep_serial(64, 64, 64, Scheme::strassen2, 1.3, FailurePolicy::strict, 12);
}

TEST_F(FaultInject, SerialSweepStrassen2Fallback) {
  sweep_serial(64, 64, 64, Scheme::strassen2, 1.3, FailurePolicy::fallback,
               12);
}

TEST_F(FaultInject, SerialSweepFusedStrict) {
  sweep_serial(64, 64, 64, Scheme::fused, 0.7, FailurePolicy::strict, 13);
}

TEST_F(FaultInject, SerialSweepFusedFallback) {
  sweep_serial(64, 64, 64, Scheme::fused, 0.7, FailurePolicy::fallback, 13);
}

TEST_F(FaultInject, SerialSweepOddRectangularStrict) {
  sweep_serial(65, 63, 61, Scheme::automatic, 1.3, FailurePolicy::strict, 14);
  sweep_serial(96, 48, 72, Scheme::automatic, 0.0, FailurePolicy::strict, 15);
}

TEST_F(FaultInject, SerialSweepOddRectangularFallback) {
  sweep_serial(65, 63, 61, Scheme::automatic, 1.3, FailurePolicy::fallback,
               14);
  sweep_serial(96, 48, 72, Scheme::automatic, 0.0, FailurePolicy::fallback,
               15);
}

// The host's pool-aware depth: at 256^3 with tau 16 a 4-worker pool still
// recurses two levels, and the top-level GEMM fan-out makes the per-worker
// warm part of the first call.
TEST_F(FaultInject, SerialSweepPoolDepthStrict) {
  sweep_serial(256, 256, 256, Scheme::automatic, 0.5, FailurePolicy::strict,
               16, /*pool_depth=*/true);
}

TEST_F(FaultInject, SerialSweepPoolDepthFallback) {
  sweep_serial(256, 256, 256, Scheme::automatic, 0.5,
               FailurePolicy::fallback, 16, /*pool_depth=*/true);
}

TEST_F(FaultInject, ParallelSweepClassicStrict) {
  sweep_parallel(256, 256, 256, Scheme::automatic, 1.3,
                 FailurePolicy::strict, 21, /*gemm_threads=*/3);
}

TEST_F(FaultInject, ParallelSweepClassicFallback) {
  sweep_parallel(256, 256, 256, Scheme::automatic, 1.3,
                 FailurePolicy::fallback, 21, /*gemm_threads=*/3);
}

TEST_F(FaultInject, ParallelSweepFusedStrict) {
  sweep_parallel(258, 258, 258, Scheme::fused, 0.0, FailurePolicy::strict,
                 22, /*gemm_threads=*/2);
}

TEST_F(FaultInject, ParallelSweepFusedFallback) {
  sweep_parallel(258, 258, 258, Scheme::fused, 0.0, FailurePolicy::fallback,
                 22, /*gemm_threads=*/2);
}

// Odd dimensions: the peel fix-ups run after the even core; they split
// over the pool when large enough, and acquire nothing either way.
TEST_F(FaultInject, ParallelSweepOddStrict) {
  sweep_parallel(257, 255, 253, Scheme::automatic, 0.5,
                 FailurePolicy::strict, 23, /*gemm_threads=*/3);
}

TEST_F(FaultInject, ParallelSweepOddFallback) {
  sweep_parallel(257, 255, 253, Scheme::automatic, 0.5,
                 FailurePolicy::fallback, 23, /*gemm_threads=*/3);
}

// Two levels: 49 products, with every quadrant pass of both levels fanned
// out; the acquisition set is still the serial one.
TEST_F(FaultInject, ParallelSweepDepth2Strict) {
  sweep_parallel(256, 256, 256, Scheme::automatic, 1.3,
                 FailurePolicy::strict, 24, /*gemm_threads=*/4, 2);
}

TEST_F(FaultInject, ParallelSweepDepth2Fallback) {
  sweep_parallel(256, 256, 256, Scheme::automatic, 1.3,
                 FailurePolicy::fallback, 24, /*gemm_threads=*/4, 2);
}

TEST_F(FaultInject, ParallelSweepDepth2FusedStrict) {
  sweep_parallel(256, 256, 256, Scheme::fused, 0.0, FailurePolicy::strict,
                 25, /*gemm_threads=*/4, 2);
}

TEST_F(FaultInject, ParallelSweepDepth2FusedFallback) {
  sweep_parallel(256, 256, 256, Scheme::fused, 0.0, FailurePolicy::fallback,
                 25, /*gemm_threads=*/4, 2);
}

// Huge-page advice rides on the same buffer allocations the injector
// already fails (Site::buffer_alloc); with the switch on, the acquisition
// set and the contract are unchanged, at the paper's depth and at the
// host's pool-aware depth.
TEST_F(FaultInject, SweepsUnchangedWithHugePagesOn) {
  ScopedHugePages hp(true);
  sweep_serial(64, 64, 64, Scheme::strassen1, 0.0, FailurePolicy::strict, 27);
  sweep_serial(256, 256, 256, Scheme::fused, 0.0, FailurePolicy::strict, 27,
               /*pool_depth=*/true);
}

// ---------------------------------------------------------------------------
// The C ABI under injected faults: nothing may unwind through extern "C".

// The binding's thread-local arena is a caller arena: after the census
// warm-up it already holds the prediction, so each call only probes it.
long cabi_acquisitions(const Problem& p) {
  Matrix c(p.m, p.n);  // allocated outside the census
  const auto call = [&] {
    copy(p.c0.view(), c.view());
    ASSERT_EQ(strassen_dgefmm_tuned('N', 'N', p.m, p.n, p.k, p.alpha,
                                    p.a.data(), p.m, p.b.data(), p.k, p.beta,
                                    c.data(), p.m, 8, 8, 8, 8),
              0);
  };
  const long acquisitions = census::count_acquisitions(call);
  EXPECT_EQ(acquisitions, census::serial_acquisitions(/*local_arena=*/false,
                                                      /*workspace=*/true));
  return acquisitions;
}

TEST_F(FaultInject, CAbiSweepFallbackAlwaysSucceeds) {
  const Problem p(64, 64, 64, 1.0, 0.5, 31);
  strassen_dgefmm_set_failure_policy('F');
  const long acquisitions = cabi_acquisitions(p);
  for (long nth = 1; nth <= acquisitions + 1; ++nth) {
    SCOPED_TRACE(::testing::Message() << "cabi fallback nth " << nth);
    Matrix c(p.m, p.n);
    copy(p.c0.view(), c.view());
    const long before = fi::injected_total();
    fi::arm(nth);
    const int info = strassen_dgefmm_tuned('N', 'N', p.m, p.n, p.k, p.alpha,
                                           p.a.data(), p.m, p.b.data(), p.k,
                                           p.beta, c.data(), p.m, 8, 8, 8, 8);
    fi::disarm();
    // Drop-in DGEMM semantics: fault or not, the call succeeds and the
    // product is right.
    EXPECT_EQ(info, 0);
    EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
    EXPECT_EQ(fi::injected_total() > before, nth <= acquisitions);
  }
}

TEST_F(FaultInject, CAbiSweepStrictReportsNegativeInfo) {
  const Problem p(64, 64, 64, 1.0, 0.5, 32);
  strassen_dgefmm_set_failure_policy('S');
  const long acquisitions = cabi_acquisitions(p);
  for (long nth = 1; nth <= acquisitions + 1; ++nth) {
    SCOPED_TRACE(::testing::Message() << "cabi strict nth " << nth);
    Matrix c(p.m, p.n);
    copy(p.c0.view(), c.view());
    std::vector<double> snapshot(
        c.data(), c.data() + static_cast<std::size_t>(p.m) * p.n);
    const long before = fi::injected_total();
    fi::arm(nth);
    const int info = strassen_dgefmm_tuned('N', 'N', p.m, p.n, p.k, p.alpha,
                                           p.a.data(), p.m, p.b.data(), p.k,
                                           p.beta, c.data(), p.m, 8, 8, 8, 8);
    fi::disarm();
    const bool fired = fi::injected_total() > before;
    EXPECT_EQ(fired, nth <= acquisitions);
    if (!fired) {
      EXPECT_EQ(info, 0);
      EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
      continue;
    }
    EXPECT_LT(info, 0) << "strict C ABI must report the fault as info";
    EXPECT_GE(info, STRASSEN_INFO_UNKNOWN);
    EXPECT_EQ(std::memcmp(c.data(), snapshot.data(),
                          snapshot.size() * sizeof(double)),
              0)
        << "strict C ABI must leave C bit-identical";
  }
  strassen_dgefmm_set_failure_policy('F');
}

}  // namespace
}  // namespace strassen
