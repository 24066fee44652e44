// Tests for the parallel extension: the thread pool's allocation-free
// batch path, and the drop-in dgefmm/sgefmm on the whole pool -- agreement
// with the reference, bitwise determinism across gemm-thread settings and
// concurrent callers, the memory-system knobs, and lazy pool construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/machine.hpp"
#include "blas/packed_loop.hpp"
#include "blas/prefetch.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "core/workspace.hpp"
#include "support/errors.hpp"
#include "support/faultinject.hpp"
#include "support/matrix.hpp"
#include "support/memadvise.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace strassen {
namespace {

// --- ThreadPool::run_batch_nofail --------------------------------------------

// One raw task per slot: bumps a shared counter.
struct CountTask {
  std::atomic<int>* counter = nullptr;
};

void count_body(void* arg) {
  static_cast<CountTask*>(arg)->counter->fetch_add(1);
}

void run_counting_batch(parallel::ThreadPool& pool, std::atomic<int>& counter,
                        std::size_t n) {
  std::vector<CountTask> args(n, CountTask{&counter});
  std::vector<parallel::ThreadPool::RawTask> tasks(n);
  for (std::size_t i = 0; i < n; ++i) tasks[i] = {&count_body, &args[i]};
  pool.run_batch_nofail(tasks.data(), tasks.size());
}

TEST(ThreadPool, RunsAllTasks) {
  parallel::ThreadPool pool(4);
  std::atomic<int> counter{0};
  run_counting_batch(pool, counter, 100);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SequentialBatches) {
  parallel::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    run_counting_batch(pool, counter, 10);
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

// A task that fails to start (the pool_task fault site) surfaces as
// TaskError once the batch drains, and the pool stays usable.
TEST(ThreadPool, PropagatesTaskException) {
  parallel::ThreadPool pool(2);
  std::atomic<int> counter{0};
  faultinject::arm(1, faultinject::Site::pool_task);
  EXPECT_THROW(run_counting_batch(pool, counter, 2), TaskError);
  faultinject::disarm();
  EXPECT_EQ(counter.load(), 1) << "the other task still ran";
  run_counting_batch(pool, counter, 1);
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  parallel::ThreadPool pool(1);
  EXPECT_NO_THROW(pool.run_batch_nofail(nullptr, 0));
}

// Under the submitter's ScopedSuspend every task runs suspended too: an
// armed countdown is neither consumed by the pool_task entry hook nor by
// a fallible site the task body checks.
struct ProbeTask {
  std::atomic<int>* ran = nullptr;
  std::atomic<int>* would_fail = nullptr;
};

void probe_body(void* arg) {
  const ProbeTask* t = static_cast<const ProbeTask*>(arg);
  if (faultinject::should_fail(faultinject::Site::buffer_alloc)) {
    t->would_fail->fetch_add(1);
  }
  t->ran->fetch_add(1);
}

TEST(ThreadPool, NofailBatchCarriesTheCallersSuspend) {
  parallel::ThreadPool pool(3);
  std::atomic<int> ran{0}, would_fail{0};
  std::vector<ProbeTask> args(16, ProbeTask{&ran, &would_fail});
  std::vector<parallel::ThreadPool::RawTask> tasks(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    tasks[i] = {&probe_body, &args[i]};
  }
  faultinject::arm(1);
  {
    faultinject::ScopedSuspend no_fail;
    EXPECT_NO_THROW(pool.run_batch_nofail(tasks.data(), tasks.size()));
  }
  EXPECT_TRUE(faultinject::armed()) << "no task consumed the countdown";
  faultinject::disarm();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(would_fail.load(), 0);
}

// Several threads submitting at once each drain their own batches: no
// batch is lost or run twice, whatever the interleaving.
TEST(ThreadPool, ConcurrentSubmittersDrainTheirOwnBatches) {
  parallel::ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int batch = 0; batch < 50; ++batch) {
        run_counting_batch(pool, counter, 10);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(counter.load(), 4 * 50 * 10);
}

// --- run_ranges_nofail ---------------------------------------------------------

TEST(ThreadPool, RunRangesCoversEveryUnitOnce) {
  parallel::ThreadPool pool(3);
  for (const int parts : {1, 2, 3, 7, parallel::kMaxRanges,
                          parallel::kMaxRanges + 5}) {
    for (const std::int64_t units : {0, 1, 5, 64, 1001}) {
      SCOPED_TRACE(::testing::Message() << "parts " << parts << " units "
                                        << units);
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(units));
      auto body = [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      };
      parallel::run_ranges_nofail(pool, units, 4, parts, body);
      for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

// The split depends on (units, grain, parts) alone: every range starts on
// a whole grain, sizes differ by at most one grain (the last range may end
// short at `units`), and a one-worker pool gets the same ranges as a
// four-worker one.
TEST(ThreadPool, RunRangesSplitIsWholeGrainsAndIndependentOfThePool) {
  using Ranges = std::vector<std::pair<std::int64_t, std::int64_t>>;
  const auto split = [](parallel::ThreadPool& pool, std::int64_t units,
                        std::int64_t grain, int parts) {
    std::mutex mu;
    Ranges out;
    auto body = [&](std::int64_t lo, std::int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      out.emplace_back(lo, hi);
    };
    parallel::run_ranges_nofail(pool, units, grain, parts, body);
    std::sort(out.begin(), out.end());
    return out;
  };
  parallel::ThreadPool one(1), four(4);
  const std::int64_t grain = 8;
  for (const std::int64_t units : {7, 64, 333, 4096}) {
    for (const int parts : {2, 3, 5}) {
      SCOPED_TRACE(::testing::Message() << "units " << units << " parts "
                                        << parts);
      const Ranges r = split(one, units, grain, parts);
      EXPECT_EQ(r, split(four, units, grain, parts));
      const std::int64_t grains = (units + grain - 1) / grain;
      EXPECT_EQ(static_cast<std::int64_t>(r.size()),
                std::min<std::int64_t>(parts, grains));
      std::int64_t smallest = units, largest = 0;
      for (std::size_t i = 0; i < r.size(); ++i) {
        EXPECT_EQ(r[i].first % grain, 0);
        EXPECT_EQ(r[i].first, i == 0 ? 0 : r[i - 1].second);
        EXPECT_LT(r[i].first, r[i].second);
        if (r[i].second != units) {
          EXPECT_EQ(r[i].second % grain, 0);
          smallest = std::min(smallest, r[i].second - r[i].first);
        }
        largest = std::max(largest, r[i].second - r[i].first);
      }
      ASSERT_FALSE(r.empty());
      EXPECT_EQ(r.back().second, units);
      if (smallest < units) {
        EXPECT_LE(largest - smallest, grain);
      }
    }
  }
}

// --- run_on_each_worker -------------------------------------------------------

TEST(ThreadPool, RunOnEachWorkerVisitsEveryWorkerOnce) {
  parallel::ThreadPool pool(3);
  EXPECT_FALSE(pool.on_worker_thread());
  std::mutex mu;
  std::vector<std::size_t> indices;
  std::vector<std::thread::id> ids;
  std::atomic<int> on_worker{0};
  pool.run_on_each_worker([&](std::size_t index) {
    if (pool.on_worker_thread() && parallel::on_pool_worker()) {
      on_worker.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mu);
    indices.push_back(index);
    ids.push_back(std::this_thread::get_id());
  });
  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(on_worker.load(), 3);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
      << "each invocation runs on its own worker thread";
  EXPECT_EQ(std::find(ids.begin(), ids.end(), std::this_thread::get_id()),
            ids.end())
      << "never on the caller";
}

// An exception from one worker's invocation is rethrown after every worker
// has finished, and the pool stays usable.
TEST(ThreadPool, RunOnEachWorkerRethrowsAfterAllFinishAndStaysUsable) {
  parallel::ThreadPool pool(3);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.run_on_each_worker([&](std::size_t index) {
                 finished.fetch_add(1);
                 if (index == 1) throw std::runtime_error("worker 1");
               }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  std::atomic<int> counter{0};
  pool.run_on_each_worker([&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
  run_counting_batch(pool, counter, 5);
  EXPECT_EQ(counter.load(), 8);
}

// Callers of run_on_each_worker on one pool are serialized: each call
// still visits every worker exactly once.
TEST(ThreadPool, RunOnEachWorkerSerializesConcurrentCallers) {
  parallel::ThreadPool pool(3);
  std::atomic<int> visits[2][3] = {};
  std::vector<std::thread> callers;
  for (int caller = 0; caller < 2; ++caller) {
    callers.emplace_back([&, caller] {
      for (int rep = 0; rep < 20; ++rep) {
        pool.run_on_each_worker(
            [&](std::size_t index) { visits[caller][index].fetch_add(1); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int caller = 0; caller < 2; ++caller) {
    for (int index = 0; index < 3; ++index) {
      EXPECT_EQ(visits[caller][index].load(), 20)
          << "caller " << caller << " worker " << index;
    }
  }
}

// --- blas::dgemm / sgemm on the pool -------------------------------------------

// The gemm-thread settings the tests below sweep: serial, two, an odd
// width whose partitions all end in a remainder task, and the ambient
// default (-1: no override, so scripts/check.sh's STRASSEN_GEMM_THREADS
// sweep reaches it too).
constexpr int kGemmThreadSettings[] = {1, 2, 3, -1};

std::string gemm_threads_label(int threads) {
  return threads < 0 ? std::string("default") : std::to_string(threads);
}

// Runs blas::dgemm (or sgemm) on op(A) op(B) at every gemm-thread setting:
// each result must match the reference and be bitwise the serial one.
template <class T>
void gemm_matches_reference_at_every_setting(Trans ta, Trans tb, index_t m,
                                             index_t n, index_t k,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const index_t a_rows = is_trans(ta) ? k : m;
  const index_t a_cols = is_trans(ta) ? m : k;
  const index_t b_rows = is_trans(tb) ? n : k;
  const index_t b_cols = is_trans(tb) ? k : n;
  MatrixT<T> a, b, c0;
  if constexpr (std::is_same_v<T, float>) {
    a = random_matrix_f(a_rows, a_cols, rng);
    b = random_matrix_f(b_rows, b_cols, rng);
    c0 = random_matrix_f(m, n, rng);
  } else {
    a = random_matrix(a_rows, a_cols, rng);
    b = random_matrix(b_rows, b_cols, rng);
    c0 = random_matrix(m, n, rng);
  }
  const T alpha = T(1.5), beta = T(0.5);
  const auto run = [&](int threads, MatrixT<T>& c) {
    std::optional<blas::ScopedGemmThreads> width;
    if (threads > 0) width.emplace(threads);
    copy(c0.view(), c.view());
    if constexpr (std::is_same_v<T, float>) {
      blas::sgemm(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
                  beta, c.data(), c.ld());
    } else {
      blas::dgemm(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
                  beta, c.data(), c.ld());
    }
  };
  {
    blas::ScopedGemmThreads three(3);
    EXPECT_GT(blas::packed_gemm_threads<T>(
                  blas::blocking_for_t<T>(blas::active_machine()), m, n, k),
              1)
        << "the shape must fan out";
  }
  MatrixT<T> ref(m, n);
  copy(c0.view(), ref.view());
  blas::gemm_reference(ta, tb, m, n, k, alpha, a.data(), a.ld(), b.data(),
                       b.ld(), beta, ref.data(), ref.ld());
  const double tol = (std::is_same_v<T, float> ? 1e-5 : 1e-13) *
                     (static_cast<double>(k) + 10.0);
  MatrixT<T> serial(m, n);
  run(1, serial);
  const std::size_t bytes =
      sizeof(T) * static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
  for (const int threads : kGemmThreadSettings) {
    SCOPED_TRACE("gemm threads " + gemm_threads_label(threads));
    MatrixT<T> c(m, n);
    run(threads, c);
    EXPECT_LT(max_abs_diff(c.view(), ref.view()), tol);
    EXPECT_EQ(std::memcmp(c.data(), serial.data(), bytes), 0);
  }
}

TEST(ParallelGemm, MatchesReference) {
  gemm_matches_reference_at_every_setting<double>(Trans::no, Trans::no, 90,
                                                  257, 300, 31);
}

TEST(ParallelGemm, TransposedOperands) {
  gemm_matches_reference_at_every_setting<double>(
      Trans::transpose, Trans::transpose, 64, 260, 280, 32);
  gemm_matches_reference_at_every_setting<double>(
      Trans::transpose, Trans::no, 200, 130, 150, 34);
  gemm_matches_reference_at_every_setting<double>(
      Trans::no, Trans::transpose, 130, 200, 150, 35);
}

TEST(ParallelGemm, SgemmMatchesReference) {
  gemm_matches_reference_at_every_setting<float>(Trans::no, Trans::transpose,
                                                 90, 257, 300, 36);
}

// A product too small to split runs the serial loop nest whatever the
// setting, so it gives the serial bits.
TEST(ParallelGemm, SmallProblemFallsBackToSerial) {
  Rng rng(33);
  const index_t m = 8, n = 8, k = 8;
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n), c_ref(m, n);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  {
    blas::ScopedGemmThreads four(4);
    EXPECT_EQ(blas::packed_gemm_threads(
                  blas::blocking_for_t<double>(blas::active_machine()), m, n,
                  k),
              1);
    blas::dgemm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m, b.data(), k,
                0.0, c.data(), m);
  }
  {
    blas::ScopedGemmThreads one(1);
    blas::dgemm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m, b.data(), k,
                0.0, c_ref.data(), m);
  }
  EXPECT_EQ(max_abs_diff(c.view(), c_ref.view()), 0.0);
}

// Empty products at a fan-out setting: m or n = 0 leaves C alone, and
// k = 0 or alpha = 0 only scales C by beta.
TEST(ParallelGemm, EmptyProductsOnlyScaleC) {
  blas::ScopedGemmThreads four(4);
  const index_t m = 64, n = 300;
  Rng rng(38);
  const Matrix a = random_matrix(m, 200, rng);
  const Matrix b = random_matrix(200, n, rng);
  const Matrix c0 = random_matrix(m, n, rng);
  Matrix c(m, n), want(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) want(i, j) = 0.5 * c0(i, j);
  }
  copy(c0.view(), c.view());
  blas::dgemm(Trans::no, Trans::no, 0, n, 200, 1.0, a.data(), m, b.data(),
              200, 0.5, c.data(), m);
  blas::dgemm(Trans::no, Trans::no, m, 0, 200, 1.0, a.data(), m, b.data(),
              200, 0.5, c.data(), m);
  EXPECT_EQ(max_abs_diff(c.view(), c0.view()), 0.0);
  blas::dgemm(Trans::no, Trans::no, m, n, 0, 1.0, a.data(), m, b.data(), 1,
              0.5, c.data(), m);
  EXPECT_EQ(max_abs_diff(c.view(), want.view()), 0.0);
  copy(c0.view(), c.view());
  blas::dgemm(Trans::no, Trans::no, m, n, 200, 0.0, a.data(), m, b.data(),
              200, 0.5, c.data(), m);
  EXPECT_EQ(max_abs_diff(c.view(), want.view()), 0.0);
}

// Threads that call dgemm at once share the global pool; each still gets
// the serial bits.
TEST(ParallelGemm, ConcurrentCallersMatchSerialBitwise) {
  const index_t m = 160, n = 200, k = 180;
  Rng rng(37);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix serial(m, n);
  fill(serial.view(), 0.0);
  {
    blas::ScopedGemmThreads one(1);
    blas::dgemm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m, b.data(), k,
                0.0, serial.data(), m);
  }
  std::vector<Matrix> out;
  for (int t = 0; t < 3; ++t) out.emplace_back(m, n);
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&, t] {
      blas::ScopedGemmThreads fan(t + 2);
      Matrix& c = out[static_cast<std::size_t>(t)];
      fill(c.view(), 0.0);
      for (int rep = 0; rep < 3; ++rep) {
        blas::dgemm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m,
                    b.data(), k, 0.0, c.data(), m);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(n);
  for (const Matrix& c : out) {
    EXPECT_EQ(std::memcmp(c.data(), serial.data(), bytes), 0);
  }
}

// --- the drop-in on the pool against the reference ---------------------------

struct Case {
  index_t m, n, k;
  Trans ta, tb;
  double alpha, beta;
};

const Case kCases[] = {
    {128, 128, 128, Trans::no, Trans::no, 1.0, 0.0},
    {129, 127, 125, Trans::no, Trans::no, 1.0, 0.0},
    {120, 140, 100, Trans::no, Trans::no, 2.0, -0.5},
    {96, 96, 96, Trans::transpose, Trans::no, 1.0, 1.0},
    {101, 99, 97, Trans::transpose, Trans::transpose, -1.0, 0.25},
    {16, 16, 16, Trans::no, Trans::no, 1.0, 0.0},  // below the cutoff
};

// Runs kCases[index] through dgefmm at the host's pool-aware depth and
// default gemm-thread width and compares against the reference GEMM.
void check_case_against_reference(int index, core::Scheme scheme,
                                  std::uint64_t seed) {
  const Case cs = kCases[index];
  Rng rng(seed);
  const index_t a_rows = is_trans(cs.ta) ? cs.k : cs.m;
  const index_t a_cols = is_trans(cs.ta) ? cs.m : cs.k;
  const index_t b_rows = is_trans(cs.tb) ? cs.n : cs.k;
  const index_t b_cols = is_trans(cs.tb) ? cs.k : cs.n;
  Matrix a = random_matrix(a_rows, a_cols, rng);
  Matrix b = random_matrix(b_rows, b_cols, rng);
  Matrix c = random_matrix(cs.m, cs.n, rng);
  Matrix c_ref(cs.m, cs.n);
  copy(c.view(), c_ref.view());

  core::DgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  cfg.scheme = scheme;
  ASSERT_EQ(core::dgefmm(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
                         a.ld(), b.data(), b.ld(), cs.beta, c.data(), c.ld(),
                         cfg),
            0);
  blas::gemm_reference(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
                       a.ld(), b.data(), b.ld(), cs.beta, c_ref.data(),
                       c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()),
            1e-11 * (static_cast<double>(cs.k) + 10.0));
}

class ParallelStrassenCases : public ::testing::TestWithParam<int> {};

TEST_P(ParallelStrassenCases, MatchesReference) {
  check_case_against_reference(GetParam(), core::Scheme::automatic,
                               100 + static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Cases, ParallelStrassenCases, ::testing::Range(0, 6));

class ParallelFusedCases : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFusedCases, FusedScheduleMatchesReference) {
  check_case_against_reference(GetParam(), core::Scheme::fused,
                               200 + static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Cases, ParallelFusedCases, ::testing::Range(0, 6));

TEST(ParallelStrassen, InvalidArgumentsReported) {
  Matrix a(8, 8), b(8, 8), c(8, 8);
  core::DgefmmConfig cfg;
  EXPECT_EQ(core::dgefmm(Trans::no, Trans::no, 8, 8, 8, 1.0, a.data(), 4,
                         b.data(), 8, 0.0, c.data(), 8, cfg),
            8);
}

// The scheduler fields of DgefmmStats are always 0: every call runs the
// serial recursion, parallel only inside its GEMMs and quadrant passes.
TEST(ParallelStrassen, SchedulerStatsStayZero) {
  const index_t n = 128;
  Rng rng(57);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  fill(c.view(), 0.0);
  core::DgefmmStats stats;
  core::DgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  cfg.stats = &stats;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(),
                         a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(),
                         cfg),
            0);
  EXPECT_GE(stats.strassen_levels, 1);
  EXPECT_EQ(stats.steals, 0);
  EXPECT_EQ(stats.dag_nodes, 0);
  EXPECT_EQ(stats.dag_lanes, 0);
  EXPECT_EQ(stats.fallbacks, 0);
  EXPECT_NE(stats.kernel, nullptr);
}

// The predicted workspace is exactly the arena's high-water mark at every
// gemm-thread setting and operand orientation: the fan-out borrows no
// workspace of its own, and a transposed operand's row-major sums fill the
// same temporaries.
TEST(ParallelStrassen, WorkspacePredictionIsExact) {
  const index_t n = 144;
  Rng rng(55);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  for (const core::Scheme scheme :
       {core::Scheme::automatic, core::Scheme::fused}) {
    for (int depth = 1; depth <= 2; ++depth) {
      for (const int threads : kGemmThreadSettings) {
        for (const int op : {0, 1, 2, 3}) {
          const Trans ta = (op & 1) != 0 ? Trans::transpose : Trans::no;
          const Trans tb = (op & 2) != 0 ? Trans::transpose : Trans::no;
          SCOPED_TRACE(::testing::Message()
                       << "scheme " << static_cast<int>(scheme) << " depth "
                       << depth << " gemm threads "
                       << gemm_threads_label(threads) << " op "
                       << (is_trans(ta) ? 'T' : 'N')
                       << (is_trans(tb) ? 'T' : 'N'));
          std::optional<blas::ScopedGemmThreads> width;
          if (threads > 0) width.emplace(threads);
          fill(c.view(), 0.0);
          Arena arena;
          core::DgefmmStats stats;
          core::DgefmmConfig cfg;
          cfg.cutoff = core::CutoffCriterion::fixed_depth(depth);
          cfg.scheme = scheme;
          cfg.workspace = &arena;
          cfg.stats = &stats;
          const count_t predicted =
              core::workspace_doubles(n, n, n, 0.0, cfg);
          ASSERT_EQ(core::dgefmm(ta, tb, n, n, n, 1.0, a.data(), a.ld(),
                                 b.data(), b.ld(), 0.0, c.data(), c.ld(),
                                 cfg),
                    0);
          EXPECT_EQ(stats.max_depth, depth);
          // Two fused levels at beta = 0 write C directly: no workspace.
          if (scheme == core::Scheme::automatic) {
            EXPECT_GT(predicted, 0);
          }
          EXPECT_EQ(arena.peak(), static_cast<std::size_t>(predicted));
          EXPECT_EQ(stats.peak_workspace,
                    static_cast<std::size_t>(predicted));
        }
      }
    }
  }
}

// --- bitwise determinism across gemm-thread settings -------------------------

// C must be bitwise identical for every gemm-thread setting: the packed
// loop's partitions write disjoint tiles with a sequential k loop, the
// quadrant adds are elementwise, and each peel fix-up splits over
// independent output entries with the serial arithmetic. Exercised over
// both schemes, recursion depths 1 and 2, NN/TN/NT operands (transposed
// operands take the row-major sums and the other fix-up loop orders) and
// an even, a small odd and a large odd shape; at 515 the fix-ups are large
// enough to fan out over the pool.
class DeterminismMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(DeterminismMatrix, BitwiseIdenticalAcrossGemmThreads) {
  const int scheme_idx = std::get<0>(GetParam());
  const int depth = std::get<1>(GetParam());
  const index_t sizes[] = {128, 117, 515};
  const index_t n = sizes[std::get<2>(GetParam())];
  const int op = std::get<3>(GetParam());
  const Trans ta = op == 1 ? Trans::transpose : Trans::no;
  const Trans tb = op == 2 ? Trans::transpose : Trans::no;
  Rng rng(400 + static_cast<std::uint64_t>(scheme_idx * 10 + depth));
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c0 = random_matrix(n, n, rng);

  auto run = [&](int threads, Matrix& c) {
    std::optional<blas::ScopedGemmThreads> width;
    if (threads > 0) width.emplace(threads);
    copy(c0.view(), c.view());
    core::DgefmmStats stats;
    core::DgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::fixed_depth(depth);
    cfg.scheme = scheme_idx == 0 ? core::Scheme::automatic
                                 : core::Scheme::fused;
    cfg.stats = &stats;
    ASSERT_EQ(core::dgefmm(ta, tb, n, n, n, 1.25, a.data(), a.ld(), b.data(),
                           b.ld(), -0.5, c.data(), c.ld(), cfg),
              0);
    EXPECT_EQ(stats.max_depth, depth);
  };

  Matrix base(n, n), other(n, n);
  run(1, base);
  const std::size_t bytes =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
      sizeof(double);
  for (const int threads : kGemmThreadSettings) {
    SCOPED_TRACE("gemm threads " + gemm_threads_label(threads));
    run(threads, other);
    EXPECT_EQ(std::memcmp(base.data(), other.data(), bytes), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DeterminismMatrix,
    ::testing::Combine(::testing::Values(0, 1),      // automatic, fused
                       ::testing::Values(1, 2),      // recursion depth
                       ::testing::Values(0, 1, 2),   // 128, 117, 515
                       ::testing::Values(0, 1, 2)));  // NN, TN, NT

// --- memory-system tuning: huge pages, prefetch ------------------------------

// The full knob matrix (prefetch on/off x huge pages on/off x gemm-thread
// settings) must be bitwise invisible: every combination produces the same
// C as the all-off serial run. Prefetch changes cache residency and huge
// pages change page backing -- neither may change a value or an
// accumulation order.
TEST(MemorySystem, KnobMatrixBitwiseIdenticalAcrossThreadCounts) {
  const index_t n = 160;
  Rng rng(606);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c0 = random_matrix(n, n, rng);
  const std::size_t bytes = static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n) * sizeof(double);

  auto run = [&](bool pf, bool huge, int threads, Matrix& c) {
    blas::ScopedPackPrefetch prefetch(pf);
    ScopedHugePages hp(huge);
    std::optional<blas::ScopedGemmThreads> width;
    if (threads > 0) width.emplace(threads);
    copy(c0.view(), c.view());
    core::DgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::square_simple(24);
    cfg.scheme = core::Scheme::fused;
    ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.25, a.data(),
                           a.ld(), b.data(), b.ld(), -0.5, c.data(), c.ld(),
                           cfg),
              0);
  };

  Matrix base(n, n), other(n, n);
  run(false, false, 1, base);
  for (const bool pf : {false, true}) {
    for (const bool huge : {false, true}) {
      for (const int threads : kGemmThreadSettings) {
        SCOPED_TRACE(std::string("prefetch=") + (pf ? "on" : "off") +
                     " hugepages=" + (huge ? "on" : "off") +
                     " threads=" + gemm_threads_label(threads));
        run(pf, huge, threads, other);
        EXPECT_EQ(std::memcmp(base.data(), other.data(), bytes), 0);
      }
    }
  }
}

// The stats report exactly what the call's arena got advised: equal to the
// arena's own accounting when the switch is on, zero when off. (Whether
// the kernel grants the advice is host-dependent; equality is the
// contract, not a particular byte count.)
TEST(MemorySystem, HugePageStatsMatchArenaAccounting) {
  const index_t n = 192;
  Rng rng(608);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  for (const bool huge : {false, true}) {
    for (const int threads : kGemmThreadSettings) {
      SCOPED_TRACE(std::string(huge ? "hugepages=on" : "hugepages=off") +
                   " threads=" + gemm_threads_label(threads));
      ScopedHugePages hp(huge);
      std::optional<blas::ScopedGemmThreads> width;
      if (threads > 0) width.emplace(threads);
      fill(c.view(), 0.0);
      Arena arena;
      core::DgefmmStats stats;
      core::DgefmmConfig cfg;
      cfg.cutoff = core::CutoffCriterion::square_simple(24);
      cfg.workspace = &arena;
      cfg.stats = &stats;
      ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(),
                             a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(),
                             cfg),
                0);
      EXPECT_GT(stats.peak_workspace, 0u) << "the call must use the arena";
      EXPECT_EQ(stats.hugepage_bytes, arena.huge_advised_bytes());
      if (!huge) {
        EXPECT_EQ(stats.hugepage_bytes, 0u);
      }
    }
  }
}

// Run to run, and across gemm-thread settings, the same call gives the
// same bits: the partitions are static.
TEST(ParallelStrassen, DeterministicAcrossRuns) {
  Rng rng(9);
  const index_t n = 100;
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix first(n, n);
  core::DgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  const auto run = [&](Matrix& c) {
    fill(c.view(), 0.0);
    ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                           b.data(), n, 0.0, c.data(), n, cfg),
              0);
  };
  run(first);
  for (const int threads : kGemmThreadSettings) {
    SCOPED_TRACE("gemm threads " + gemm_threads_label(threads));
    std::optional<blas::ScopedGemmThreads> width;
    if (threads > 0) width.emplace(threads);
    for (int rep = 0; rep < 2; ++rep) {
      Matrix again(n, n);
      run(again);
      EXPECT_EQ(max_abs_diff(first.view(), again.view()), 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// The default drop-in on the whole pool: at a fixed pool size its bits do
// not depend on the calling thread's gemm-thread setting (serial, or any
// width of the 2-D packed-loop and quadrant-add fan-out), nor on how many
// calls share the pool at once from other threads (as serving workers
// do). P is pinned so the recursion is the same on every host.

template <class T>
void default_gefmm_bitwise_across_settings() {
  core::detail::ScopedPoolWorkers pool_depth(4);
  const index_t m = 700, n = 600, k = 500;
  Rng rng(2024);
  MatrixT<T> a, b, c0;
  if constexpr (std::is_same_v<T, float>) {
    a = random_matrix_f(m, k, rng);
    b = random_matrix_f(k, n, rng);
    c0 = random_matrix_f(m, n, rng);
  } else {
    a = random_matrix(m, k, rng);
    b = random_matrix(k, n, rng);
    c0 = random_matrix(m, n, rng);
  }
  const auto call = [&](MatrixT<T>& c, core::DgefmmStats* stats) {
    copy(c0.view(), c.view());
    core::GefmmConfigT<T> cfg;
    cfg.stats = stats;
    int info;
    if constexpr (std::is_same_v<T, float>) {
      info = core::sgefmm(Trans::no, Trans::no, m, n, k, 1.5f, a.data(), m,
                          b.data(), k, 0.5f, c.data(), m, cfg);
    } else {
      info = core::dgefmm(Trans::no, Trans::no, m, n, k, 1.5, a.data(), m,
                          b.data(), k, 0.5, c.data(), m, cfg);
    }
    EXPECT_EQ(info, 0);
  };
  const std::size_t bytes = sizeof(T) * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(n);
  MatrixT<T> serial(m, n);
  core::DgefmmStats serial_stats;
  {
    blas::ScopedGemmThreads one(1);
    call(serial, &serial_stats);
  }
  EXPECT_GE(serial_stats.max_depth, 1) << "the shape must recurse";
  EXPECT_EQ(serial_stats.pool_workers, 4);
  for (const int threads : {2, 3, 4}) {
    SCOPED_TRACE("gemm threads " + std::to_string(threads));
    blas::ScopedGemmThreads fan(threads);
    MatrixT<T> c(m, n);
    core::DgefmmStats stats;
    call(c, &stats);
    EXPECT_EQ(std::memcmp(c.data(), serial.data(), bytes), 0);
    EXPECT_EQ(stats.max_depth, serial_stats.max_depth);
    EXPECT_EQ(stats.base_gemms, serial_stats.base_gemms);
  }
  for (const std::size_t calls : {1u, 2u, 4u}) {
    SCOPED_TRACE("concurrent calls " + std::to_string(calls));
    std::vector<MatrixT<T>> out;
    for (std::size_t l = 0; l < calls; ++l) out.emplace_back(m, n);
    std::vector<std::thread> callers;
    for (std::size_t l = 0; l < calls; ++l) {
      callers.emplace_back([&, l] { call(out[l], nullptr); });
    }
    for (std::thread& t : callers) t.join();
    for (const MatrixT<T>& c : out) {
      EXPECT_EQ(std::memcmp(c.data(), serial.data(), bytes), 0);
    }
  }
}

TEST(PoolDepth, DefaultDgefmmBitwiseAcrossGemmThreadsAndConcurrentCalls) {
  default_gefmm_bitwise_across_settings<double>();
}

TEST(PoolDepth, DefaultSgefmmBitwiseAcrossGemmThreadsAndConcurrentCalls) {
  default_gefmm_bitwise_across_settings<float>();
}

// Threads of this process as Linux reports them, or -1 without /proc.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = -1;
      status >> n;
      return n;
    }
  }
  return -1;
}

// The drop-in's pre-flight builds the global pool (which starts
// global_pool_size() threads and can fail) only when the call's packed
// GEMMs or elementwise passes can fan out. None of these calls can: a 2x2,
// a call below the default cutoff, and a recursing 64^3 call whose leaves
// and quadrant passes are all below the fan-out thresholds. If an earlier
// test in this process already built the pool, the count is unchanged
// either way.
TEST(PoolConstruction, CallsThatCannotFanOutDoNotBuildThePool) {
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  Rng rng(91);
  for (const index_t n : {index_t{2}, index_t{64}}) {
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, n, rng);
    Matrix c(n, n);
    core::DgefmmConfig cfg;
    ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                           b.data(), n, 0.0, c.data(), n, cfg),
              0);
    core::DgefmmStats stats;
    cfg.cutoff = core::CutoffCriterion::square_simple(16);
    cfg.stats = &stats;
    ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                           b.data(), n, 0.0, c.data(), n, cfg),
              0);
    EXPECT_EQ(stats.gemm_threads, 1);
    const MatrixF af = random_matrix_f(n, n, rng);
    const MatrixF bf = random_matrix_f(n, n, rng);
    MatrixF cf(n, n);
    ASSERT_EQ(core::sgefmm(Trans::no, Trans::no, n, n, n, 1.0f, af.data(), n,
                           bf.data(), n, 0.0f, cf.data(), n,
                           core::SgefmmConfig{}),
              0);
  }
  EXPECT_EQ(process_threads(), before);
}

}  // namespace
}  // namespace strassen
