// Prepacked-operand tests (DESIGN.md section 15).
//
// Three contracts are pinned here:
//
//  1. Bitwise parity: a product that streams panels from a prepacked
//     handle (or the fused sweep's panel cache) produces exactly the bytes
//     a fresh-packing run produces -- memcmp equality, not a tolerance --
//     across kernels, element types, thread counts, and schedules
//     (including schedules that ignore the handles entirely).
//  2. Hard-miss discipline: any stamp or source-identity mismatch (stale
//     kernel, wrong view, wrong side) refuses the handle and falls back to
//     fresh packing, counting a pack miss -- never a partial answer.
//  3. Failure contracts over the new fallible acquisition site (the
//     handle's owned image buffer): strict callers see the typed error
//     with C untouched, the C ABI maps it to STRASSEN_INFO_ALLOC, and a
//     driver call holding handles keeps the section-7 sweep contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/machine.hpp"
#include "blas/pack_operand.hpp"
#include "blas/packed_loop.hpp"
#include "core/cabi.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "core/winograd_fused.hpp"
#include "core/workspace.hpp"
#include "serve/serve.hpp"
#include "serve/serve_cabi.hpp"
#include "support/faultinject.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

namespace fi = faultinject;

using core::CutoffCriterion;
using core::FailurePolicy;
using core::Scheme;

template <class T>
BasicView<const T> cview(const MatrixT<T>& m) {
  return m.view();
}

template <class T>
MatrixT<T> random_matrix_t(index_t m, index_t n, Rng& rng) {
  if constexpr (std::is_same_v<T, float>) {
    return random_matrix_f(m, n, rng);
  } else {
    return random_matrix(m, n, rng);
  }
}

template <class T>
int gefmm_t(index_t m, index_t n, index_t k, T alpha, const T* a, index_t lda,
            const T* b, index_t ldb, T beta, T* c, index_t ldc,
            const core::GefmmConfigT<T>& cfg) {
  if constexpr (std::is_same_v<T, float>) {
    return core::sgefmm(Trans::no, Trans::no, m, n, k, alpha, a, lda, b, ldb,
                        beta, c, ldc, cfg);
  } else {
    return core::dgefmm(Trans::no, Trans::no, m, n, k, alpha, a, lda, b, ldb,
                        beta, c, ldc, cfg);
  }
}

template <class T>
void expect_bitwise(const MatrixT<T>& got, const MatrixT<T>& want,
                    const char* what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.rows()) *
                            static_cast<std::size_t>(got.cols()) * sizeof(T)),
            0)
      << what << ": prepacked result is not bitwise identical";
}

// ---------------------------------------------------------------------------
// Handle geometry and the low-level streamed GEMM.

TEST(PackOperand, SizeQueriesMatchClosedFormGeometry) {
  const blas::GemmBlocking bk =
      blas::blocking_for_t<double>(blas::active_machine());
  const blas::KernelInfo& kv = blas::active_kernel();
  // Exercise strip remainders on both sides of every blocking parameter.
  for (const index_t m : {index_t{8}, index_t{40}, bk.mc + 8}) {
    for (const index_t k : {index_t{16}, bk.kc + 8}) {
      EXPECT_EQ(blas::gefmm_pack_a_elements<double>(m, k),
                blas::packed_a_total(bk, kv.mr, m, k));
      EXPECT_EQ(blas::gefmm_pack_b_elements<double>(k, m),
                blas::packed_b_total(bk, kv.nr, k, m));
    }
  }
}

template <class T>
void streamed_gemm_bitwise_equals_fresh() {
  const index_t m = 24, n = 96, k = 40;
  Rng rng(501);
  MatrixT<T> a = random_matrix_t<T>(m, k, rng);
  MatrixT<T> b = random_matrix_t<T>(k, n, rng);
  MatrixT<T> c0 = random_matrix_t<T>(m, n, rng);
  const T alpha = T(1.5), beta = T(0.25);

  MatrixT<T> want(m, n);
  copy(c0.view(), want.view());
  blas::gemm_view(alpha, cview(a), cview(b), beta, want.view());

  const blas::PackedOperandT<T> pa = blas::gefmm_pack_a<T>(cview(a));
  const blas::PackedOperandT<T> pb = blas::gefmm_pack_b<T>(cview(b));
  ASSERT_TRUE(pa.valid());
  ASSERT_TRUE(pb.valid());

  struct Case {
    const blas::PackedOperandT<T>* pa;
    const blas::PackedOperandT<T>* pb;
    const char* name;
  };
  const Case cases[] = {{&pa, nullptr, "A only"},
                        {nullptr, &pb, "B only"},
                        {&pa, &pb, "A and B"}};
  for (const Case& cs : cases) {
    MatrixT<T> c(m, n);
    copy(c0.view(), c.view());
    ASSERT_TRUE(blas::gemm_view_prepacked(alpha, cview(a),
                                          cview(b), beta, c.view(),
                                          cs.pa, cs.pb))
        << cs.name;
    expect_bitwise(c, want, cs.name);
  }
}

TEST(PackOperand, StreamedGemmBitwiseEqualsFreshDouble) {
  streamed_gemm_bitwise_equals_fresh<double>();
}

TEST(PackOperand, StreamedGemmBitwiseEqualsFreshFloat) {
  streamed_gemm_bitwise_equals_fresh<float>();
}

TEST(PackOperand, ConsultIsHardMissOnSourceIdentityMismatch) {
  const index_t m = 16, k = 24;
  Rng rng(502);
  Matrix a = random_matrix(m, k, rng);
  Matrix other = random_matrix(m, k, rng);
  const blas::PackedOperand pa = blas::gefmm_pack_a<double>(cview(a));

  EXPECT_TRUE(blas::packed_operand_matches(pa, 'a', cview(a)));
  // Wrong side, wrong base, wrong shape: each alone is a hard miss.
  EXPECT_FALSE(blas::packed_operand_matches(pa, 'b', cview(a)));
  EXPECT_FALSE(blas::packed_operand_matches(pa, 'a', cview(other)));
  ConstView shrunk = cview(a);
  shrunk.rows -= 1;
  EXPECT_FALSE(blas::packed_operand_matches(pa, 'a', shrunk));

  // A mismatched handle makes the streamed entry refuse without touching C.
  Matrix b = random_matrix(k, m, rng);
  Matrix c = random_matrix(m, m, rng);
  Matrix snapshot(m, m);
  copy(c.view(), snapshot.view());
  const blas::PackedOperand stale = blas::gefmm_pack_a<double>(
      cview(other));
  EXPECT_FALSE(blas::gemm_view_prepacked(1.0, cview(a), cview(b),
                                         0.0, c.view(), &stale, nullptr));
  expect_bitwise(c, snapshot, "refused consult must not touch C");
}

TEST(PackOperand, ConsultIsHardMissAfterKernelSwitch) {
  const index_t k = 24, n = 16;
  Rng rng(503);
  Matrix b = random_matrix(k, n, rng);
  const blas::PackedOperand pb = blas::gefmm_pack_b<double>(cview(b));
  ASSERT_TRUE(blas::packed_operand_matches(pb, 'b', cview(b)));

  const blas::KernelArch active = blas::active_kernel().arch;
  for (const blas::KernelArch arch : blas::kAllKernelArches) {
    if (arch == active || !blas::kernel_supported(arch)) continue;
    blas::ScopedKernel pin(arch);
    EXPECT_FALSE(blas::packed_operand_matches(pb, 'b', cview(b)))
        << "image packed under " << pb.kernel << " consulted under "
        << blas::active_kernel().name;
  }
}

TEST(PackOperand, CallerStoragePackMatchesOwnedImage) {
  const index_t k = 40, n = 24;
  Rng rng(504);
  Matrix b = random_matrix(k, n, rng);
  const blas::PackedOperand owned = blas::gefmm_pack_b<double>(cview(b));

  const std::size_t elems = blas::gefmm_pack_b_elements<double>(k, n);
  ASSERT_EQ(owned.elems, elems);
  AlignedBuffer storage(elems);
  const blas::PackedOperand ext =
      blas::gefmm_pack_b<double>(cview(b), storage.data(), elems);
  EXPECT_EQ(ext.data(), storage.data());
  EXPECT_EQ(std::memcmp(owned.data(), ext.data(), elems * sizeof(double)), 0)
      << "caller-storage image must equal the owned image byte for byte";

  // Undersized caller storage is a typed error, not a truncated image.
  EXPECT_THROW((void)blas::gefmm_pack_b<double>(cview(b),
                                                storage.data(), elems - 1),
               Error);
}

// ---------------------------------------------------------------------------
// Driver parity matrix: kernel x element x threads x scheme. Handles are
// consulted only where the call reduces to one top-level packed GEMM; every
// other schedule must ignore them. Either way the result must be bitwise
// identical to the same call without handles.

template <class T>
void driver_parity_matrix() {
  struct Shape {
    index_t s;
    CutoffCriterion cutoff;
    const char* name;
  };
  const Shape shapes[] = {
      // Below-cutoff: reduces to one GEMM, the consult streams.
      {48, CutoffCriterion::paper_default(blas::active_machine()), "gemm"},
      // Recursing: the schedules split; the handles must be ignored.
      {96, CutoffCriterion::square_simple(32), "recursing"},
  };
  const Scheme schemes[] = {Scheme::automatic, Scheme::strassen1,
                            Scheme::strassen2, Scheme::fused};
  const blas::KernelArch active = blas::active_kernel_t<T>().arch;
  Rng rng(505);

  for (const blas::KernelArch arch : blas::kAllKernelArches) {
    if (!blas::kernel_supported(arch)) continue;
    blas::ScopedKernel pin(arch);
    for (const Shape& shape : shapes) {
      const index_t s = shape.s;
      MatrixT<T> a = random_matrix_t<T>(s, s, rng);
      MatrixT<T> b = random_matrix_t<T>(s, s, rng);
      MatrixT<T> c0 = random_matrix_t<T>(s, s, rng);
      // Handles packed under the pinned kernel, against these exact views.
      const blas::PackedOperandT<T> pa = blas::gefmm_pack_a<T>(cview(a));
      const blas::PackedOperandT<T> pb = blas::gefmm_pack_b<T>(cview(b));
      for (const Scheme scheme : schemes) {
        for (const int threads : {1, 2}) {
          SCOPED_TRACE(::testing::Message()
                       << "kernel " << blas::active_kernel_t<T>().name
                       << " shape " << shape.name << " scheme "
                       << static_cast<int>(scheme) << " threads " << threads);
          blas::ScopedGemmThreads gt(threads);
          core::GefmmConfigT<T> cfg;
          cfg.cutoff = shape.cutoff;
          cfg.scheme = scheme;

          MatrixT<T> want(s, s);
          copy(c0.view(), want.view());
          ASSERT_EQ(gefmm_t<T>(s, s, s, T(1), a.data(), a.ld(), b.data(),
                               b.ld(), T(0.5), want.data(), want.ld(), cfg),
                    0);

          core::DgefmmStats stats;
          cfg.stats = &stats;
          cfg.packed_a = &pa;
          cfg.packed_b = &pb;
          MatrixT<T> c(s, s);
          copy(c0.view(), c.view());
          ASSERT_EQ(gefmm_t<T>(s, s, s, T(1), a.data(), a.ld(), b.data(),
                               b.ld(), T(0.5), c.data(), c.ld(), cfg),
                    0);
          expect_bitwise(c, want, shape.name);
          if (std::strcmp(shape.name, "gemm") == 0) {
            EXPECT_GT(stats.pack_hits, 0)
                << "gemm-reducible call must stream from the handles";
            EXPECT_EQ(stats.pack_misses, 0);
            EXPECT_EQ(stats.base_gemms, 1);
          }
        }
      }
    }
  }
  EXPECT_EQ(blas::active_kernel_t<T>().arch, active);  // pins restored
}

TEST(PrepackDriver, ParityMatrixDouble) { driver_parity_matrix<double>(); }
TEST(PrepackDriver, ParityMatrixFloat) { driver_parity_matrix<float>(); }

TEST(PrepackDriver, SourceMismatchCountsMissAndStaysCorrect) {
  const index_t s = 48;
  Rng rng(506);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix fresh_b = random_matrix(s, s, rng);
  Matrix c(s, s), want(s, s);
  fill(c.view(), 0.0);
  fill(want.view(), 0.0);
  blas::gemm_reference(Trans::no, Trans::no, s, s, s, 1.0, a.data(), a.ld(),
                       b.data(), b.ld(), 0.0, want.data(), want.ld());

  // Handle stamps fresh_b, but the call multiplies b: a hard miss that
  // must fall back to fresh packing, count misses, and stay correct.
  const blas::PackedOperand stale =
      blas::gefmm_pack_b<double>(cview(fresh_b));
  core::DgefmmStats stats;
  core::DgefmmConfig cfg;
  cfg.stats = &stats;
  cfg.packed_b = &stale;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(), a.ld(),
                         b.data(), b.ld(), 0.0, c.data(), c.ld(), cfg),
            0);
  EXPECT_GT(stats.pack_misses, 0);
  EXPECT_EQ(stats.pack_hits, 0);
  EXPECT_LT(max_abs_diff(c.view(), want.view()),
            1e-12 * (static_cast<double>(s) + 1.0));
}

// ---------------------------------------------------------------------------
// The per-call panel cache (fused sweep) and its accounting invariant.

TEST(PanelCache, AcquireBuildsOnceThenStreamsFromTheSamImage) {
  const blas::GemmBlocking bk =
      blas::blocking_for_t<double>(blas::active_machine());
  const index_t rows = 16, cols = 24;
  Rng rng(507);
  Matrix src = random_matrix(rows, cols, rng);
  const std::size_t need =
      blas::gefmm_pack_a_elements<double>(rows, cols) +
      kBufferAlignment / sizeof(double);
  AlignedBuffer slab(need);
  blas::PanelCache cache(bk, slab.data(), need);

  ASSERT_TRUE(cache.register_entry('a', src.data(), 1, src.ld(), rows, cols));
  EXPECT_EQ(cache.misses(), 0);
  const double* img =
      cache.acquire('a', src.data(), 1, src.ld(), rows, cols);
  ASSERT_NE(img, nullptr);
  const count_t build_misses = cache.misses();
  EXPECT_GT(build_misses, 0) << "first acquire packs: one miss per block";
  // Second acquire streams the same image with no further packing.
  EXPECT_EQ(cache.acquire('a', src.data(), 1, src.ld(), rows, cols), img);
  EXPECT_EQ(cache.misses(), build_misses);
  // The cached image equals a fresh handle pack of the same view byte for
  // byte -- the panel cache's half of the bitwise-parity guarantee.
  const blas::PackedOperand fresh =
      blas::gefmm_pack_a<double>(cview(src));
  EXPECT_EQ(std::memcmp(img, fresh.data(), fresh.elems * sizeof(double)), 0);
}

TEST(PanelCache, UnregisteredSourceMissesToNull) {
  const blas::GemmBlocking bk =
      blas::blocking_for_t<double>(blas::active_machine());
  double slab[64];
  blas::PanelCache cache(bk, slab, 64);
  double x = 1.0;
  EXPECT_EQ(cache.acquire('a', &x, 1, 1, 1, 1), nullptr);
}

TEST(PanelCache, RegisterRefusesWhenSlabIsFull) {
  const blas::GemmBlocking bk =
      blas::blocking_for_t<double>(blas::active_machine());
  const index_t rows = 16, cols = 24;
  Rng rng(508);
  Matrix src = random_matrix(rows, cols, rng);
  // Slab deliberately one element short of the image (plus no alignment
  // slack): registration must refuse, leaving acquire() to miss.
  const std::size_t short_elems =
      blas::gefmm_pack_a_elements<double>(rows, cols) - 1;
  AlignedBuffer slab(short_elems);
  blas::PanelCache cache(bk, slab.data(), short_elems);
  EXPECT_FALSE(
      cache.register_entry('a', src.data(), 1, src.ld(), rows, cols));
  EXPECT_EQ(cache.acquire('a', src.data(), 1, src.ld(), rows, cols), nullptr);
}

TEST(PanelCache, PredictorCarvesSlabOnlyPastOneColumnStrip) {
  // Asserts the paper's serial recursion: pin the pool-aware depth to P = 1.
  core::detail::ScopedPoolWorkers serial_depth(1);
  // The cache pays off only when a fused leaf's n extent spans several GEMM
  // column strips; below that the predictor must carve nothing, keeping
  // Table-1-scale workspace bounds exact.
  core::DgefmmConfig cfg;
  cfg.scheme = Scheme::fused;
  cfg.fused_levels = 1;
  cfg.cutoff = CutoffCriterion::square_simple(256);
  EXPECT_EQ(core::detail::fused_cache_elements<double>(256, 256, 256, cfg, 0),
            0);

  // Past one strip (leaf nB > blocking nc) the slab is carved; prediction
  // and the fmm_fused carve share this one function, so the workspace
  // predictor's prediction == peak invariant holds with the cache on. The
  // shapes are arithmetic only -- nothing here allocates at this scale.
  const blas::GemmBlocking bk =
      blas::blocking_for_t<double>(blas::active_machine());
  const index_t leaf = bk.nc + 8;  // one leaf just past one column strip
  const index_t top = 2 * leaf;
  cfg.cutoff = CutoffCriterion::square_simple(static_cast<double>(leaf) + 4);
  const count_t carve =
      core::detail::fused_cache_elements<double>(top, top, top, cfg, 0);
  EXPECT_GT(carve, 0);

  core::DgefmmConfig off = cfg;
  off.panel_cache = false;
  EXPECT_EQ(core::detail::fused_cache_elements<double>(top, top, top, off, 0),
            0);
  EXPECT_EQ(core::workspace_doubles(top, top, top, 0.0, cfg) -
                core::workspace_doubles(top, top, top, 0.0, off),
            carve)
      << "predictor must add exactly the slab fmm_fused carves";
}

TEST(PanelCache, PredictionEqualsPeakWithCacheOn) {
  // End-to-end at test scale: a fused run with the cache enabled must stay
  // within (and exactly account for) the predicted reservation.
  const index_t s = 96;
  core::DgefmmConfig cfg;
  cfg.scheme = Scheme::fused;
  cfg.cutoff = CutoffCriterion::square_simple(32);
  cfg.panel_cache = true;
  const count_t predicted = core::workspace_doubles(s, s, s, 0.0, cfg);
  Rng rng(509);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s);
  fill(c.view(), 0.0);
  Arena arena(static_cast<std::size_t>(predicted));
  core::DgefmmStats stats;
  cfg.workspace = &arena;
  cfg.stats = &stats;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(), a.ld(),
                         b.data(), b.ld(), 0.0, c.data(), c.ld(), cfg),
            0);
  EXPECT_LE(stats.peak_workspace, static_cast<std::size_t>(predicted));
  EXPECT_EQ(arena.capacity(), static_cast<std::size_t>(predicted))
      << "the exactly-sized arena must not have grown";
}

// ---------------------------------------------------------------------------
// Serving: a shared packed-B handle rides the queue.

TEST(ServePrepack, PackedBRequestMatchesFreshBitwise) {
  const index_t s = 40;
  Rng rng(510);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c0 = random_matrix(s, s, rng);
  const blas::PackedOperand pb = blas::gefmm_pack_b<double>(cview(b));

  serve::Queue q;
  serve::GemmRequest req;
  req.m = req.n = req.k = s;
  req.alpha = 1.0;
  req.a = a.data();
  req.lda = a.ld();
  req.b = b.data();
  req.ldb = b.ld();
  req.beta = 0.5;
  req.ldc = s;

  Matrix want(s, s);
  copy(c0.view(), want.view());
  req.c = want.data();
  ASSERT_EQ(q.submit(req).wait(), 0);

  Matrix c(s, s);
  copy(c0.view(), c.view());
  req.c = c.data();
  req.packed_b = &pb;
  ASSERT_EQ(q.submit(req).wait(), 0);
  expect_bitwise(c, want, "serve packed_b");
  EXPECT_GT(q.stats().gefmm.pack_hits, 0)
      << "the admitted run must have streamed from the shared handle";

  // A recursing shape does not reduce to one top-level packed GEMM, so the
  // driver does not consult the handle (documented): the same request with
  // the handle gives the drop-in's bits. P = 1 keeps n = 96 recursing on
  // any host.
  core::detail::ScopedPoolWorkers serial_depth(1);
  const index_t r = 96;
  Matrix ra = random_matrix(r, r, rng);
  Matrix rb = random_matrix(r, r, rng);
  Matrix rc(r, r), rwant(r, r);
  fill(rc.view(), 0.0);
  fill(rwant.view(), 0.0);
  const blas::PackedOperand rpb = blas::gefmm_pack_b<double>(cview(rb));
  serve::GemmRequest rreq;
  rreq.m = rreq.n = rreq.k = r;
  rreq.a = ra.data();
  rreq.lda = ra.ld();
  rreq.b = rb.data();
  rreq.ldb = rb.ld();
  rreq.c = rwant.data();
  rreq.ldc = r;
  rreq.cutoff = CutoffCriterion::square_simple(32);
  ASSERT_EQ(q.submit(rreq).wait(), 0);
  rreq.c = rc.data();
  rreq.packed_b = &rpb;
  ASSERT_EQ(q.submit(rreq).wait(), 0);
  expect_bitwise(rc, rwant, "serve recursion ignores packed_b");
}

// ---------------------------------------------------------------------------
// C ABI: pack handles, the packed submit, and the error surface.

TEST(ServeCAbiPrepack, PackSubmitWaitFreeRoundtrip) {
  const index_t s = 40;
  Rng rng(511);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c = random_matrix(s, s, rng);
  Matrix want(s, s);
  copy(c.view(), want.view());
  {
    blas::ScopedGemmThreads serial(1);
    blas::dgemm(Trans::no, Trans::no, s, s, s, 1.5, a.data(), a.ld(),
                b.data(), b.ld(), 0.25, want.data(), want.ld());
  }

  std::int64_t elems = 0;
  ASSERT_EQ(strassen_dgefmm_pack_b_size('N', s, s, &elems), 0);
  EXPECT_EQ(static_cast<std::size_t>(elems),
            blas::gefmm_pack_b_elements<double>(s, s));

  std::int64_t ph = 0;
  ASSERT_EQ(strassen_dgefmm_pack_b('N', s, s, b.data(), b.ld(), &ph), 0);
  EXPECT_GT(ph, 0);

  std::int64_t h = 0;
  ASSERT_EQ(strassen_dgefmm_submit_packed('N', 'N', s, s, s, 1.5, a.data(),
                                          a.ld(), b.data(), b.ld(), 0.25,
                                          c.data(), c.ld(), ph,
                                          /*deadline_ms=*/0, &h),
            0);
  EXPECT_EQ(strassen_dgefmm_wait(h), 0);
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-10);

  EXPECT_EQ(strassen_dgefmm_pack_free(ph), 0);
  EXPECT_EQ(strassen_dgefmm_pack_free(ph), STRASSEN_INFO_BAD_HANDLE)
      << "double free must be a bad handle, not a crash";
}

TEST(ServeCAbiPrepack, FloatPackSubmitRoundtrip) {
  const index_t s = 40;
  Rng rng(512);
  MatrixF a = random_matrix_f(s, s, rng);
  MatrixF b = random_matrix_f(s, s, rng);
  MatrixF c = random_matrix_f(s, s, rng);
  MatrixF want(s, s);
  copy(c.view(), want.view());
  {
    blas::ScopedGemmThreads serial(1);
    blas::sgemm(Trans::no, Trans::no, s, s, s, 1.5f, a.data(), a.ld(),
                b.data(), b.ld(), 0.25f, want.data(), want.ld());
  }
  std::int64_t ph = 0;
  ASSERT_EQ(strassen_sgefmm_pack_b('N', s, s, b.data(), b.ld(), &ph), 0);
  std::int64_t h = 0;
  ASSERT_EQ(strassen_sgefmm_submit_packed('N', 'N', s, s, s, 1.5f, a.data(),
                                          a.ld(), b.data(), b.ld(), 0.25f,
                                          c.data(), c.ld(), ph,
                                          /*deadline_ms=*/0, &h),
            0);
  EXPECT_EQ(strassen_sgefmm_wait(h), 0);
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-3f);
  EXPECT_EQ(strassen_sgefmm_pack_free(ph), 0);
}

TEST(ServeCAbiPrepack, ArgumentErrorsAndBadHandles) {
  double x = 1.0;
  std::int64_t out = 0;
  // pack_b_size: bad transb, negative dims, null out pointer.
  EXPECT_EQ(strassen_dgefmm_pack_b_size('X', 4, 4, &out), 1);
  EXPECT_EQ(strassen_dgefmm_pack_b_size('N', -1, 4, &out), 2);
  EXPECT_EQ(strassen_dgefmm_pack_b_size('N', 4, -1, &out), 3);
  EXPECT_EQ(strassen_dgefmm_pack_b_size('N', 4, 4, nullptr), 15);
  // pack_b: null source, undersized leading dimension, null out handle.
  std::int64_t ph = 0;
  EXPECT_EQ(strassen_dgefmm_pack_b('N', 1, 1, nullptr, 1, &ph), 4);
  EXPECT_EQ(strassen_dgefmm_pack_b('N', 2, 2, &x, 1, &ph), 5);
  EXPECT_EQ(strassen_dgefmm_pack_b('N', 1, 1, &x, 1, nullptr), 15);
  // Unknown pack handle at submit: bad handle, nothing enqueued.
  std::int64_t h = 0;
  EXPECT_EQ(strassen_dgefmm_submit_packed('N', 'N', 1, 1, 1, 1.0, &x, 1, &x,
                                          1, 0.0, &x, 1, /*pack_handle=*/777,
                                          0, &h),
            STRASSEN_INFO_BAD_HANDLE);
  EXPECT_EQ(strassen_dgefmm_pack_free(777), STRASSEN_INFO_BAD_HANDLE);
}

TEST(ServeCAbiPrepack, PackHandlesSurviveServeShutdown) {
  // Pack handles are weights caches with a different lifetime than the
  // queue: shutdown drains requests but must not invalidate packs.
  const index_t s = 24;
  Rng rng(513);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s), want(s, s);
  fill(c.view(), 0.0);
  fill(want.view(), 0.0);
  blas::gemm_reference(Trans::no, Trans::no, s, s, s, 1.0, a.data(), a.ld(),
                       b.data(), b.ld(), 0.0, want.data(), want.ld());
  std::int64_t ph = 0;
  ASSERT_EQ(strassen_dgefmm_pack_b('N', s, s, b.data(), b.ld(), &ph), 0);
  strassen_serve_shutdown();
  std::int64_t h = 0;
  ASSERT_EQ(strassen_dgefmm_submit_packed('N', 'N', s, s, s, 1.0, a.data(),
                                          a.ld(), b.data(), b.ld(), 0.0,
                                          c.data(), c.ld(), ph, 0, &h),
            0);
  EXPECT_EQ(strassen_dgefmm_wait(h), 0);
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-10);
  EXPECT_EQ(strassen_dgefmm_pack_free(ph), 0);
}

// ---------------------------------------------------------------------------
// Failure contracts over the new fallible site (handle image allocation).

class PrepackFaults : public ::testing::Test {
 protected:
  void TearDown() override { fi::disarm(); }
};

TEST_F(PrepackFaults, PackAllocationSweepThrowsCleanly) {
  const index_t k = 32, n = 32;
  Rng rng(514);
  Matrix b = random_matrix(k, n, rng);
  // Outcome-based sweep over the pack call's acquisitions: every armed
  // countdown either fires (std::bad_alloc, no handle escapes) or the run
  // completes with a valid, consultable handle.
  bool completed = false;
  for (long nth = 1; nth <= 16 && !completed; ++nth) {
    const long before = fi::injected_total();
    fi::arm(nth, fi::Site::buffer_alloc);
    try {
      const blas::PackedOperand pb =
          blas::gefmm_pack_b<double>(cview(b));
      EXPECT_TRUE(pb.valid());
      completed = true;
    } catch (const std::bad_alloc&) {
      EXPECT_GT(fi::injected_total(), before)
          << "bad_alloc without an injected fault";
    }
    fi::disarm();
  }
  EXPECT_TRUE(completed) << "pack never survived 16 acquisitions";
}

TEST_F(PrepackFaults, CAbiPackMapsAllocFailureToInfoAlloc) {
  const index_t k = 16, n = 16;
  Rng rng(515);
  Matrix b = random_matrix(k, n, rng);
  std::int64_t ph = 0;
  fi::arm(1, fi::Site::buffer_alloc);
  EXPECT_EQ(strassen_dgefmm_pack_b('N', k, n, b.data(), b.ld(), &ph),
            STRASSEN_INFO_ALLOC);
  fi::disarm();
  // The failed pack registered nothing: the handle out-param is untouched
  // and a retry without the fault succeeds.
  EXPECT_EQ(ph, 0);
  ASSERT_EQ(strassen_dgefmm_pack_b('N', k, n, b.data(), b.ld(), &ph), 0);
  EXPECT_EQ(strassen_dgefmm_pack_free(ph), 0);
}

// Section-7 fault sweep with handles attached: for every countdown until a
// clean run, strict leaves C bit-identical and fallback still produces the
// correct product. Covers both the streamed gemm-reducible shape and a
// recursing shape that carries (and ignores) the handles.
void sweep_with_handles(index_t s, const CutoffCriterion& cutoff,
                        FailurePolicy policy, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c0 = random_matrix(s, s, rng);
  Matrix want(s, s);
  copy(c0.view(), want.view());
  blas::gemm_reference(Trans::no, Trans::no, s, s, s, 1.0, a.data(), a.ld(),
                       b.data(), b.ld(), 0.5, want.data(), want.ld());
  const blas::PackedOperand pa = blas::gefmm_pack_a<double>(cview(a));
  const blas::PackedOperand pb = blas::gefmm_pack_b<double>(cview(b));

  for (long nth = 1; nth <= 64; ++nth) {
    SCOPED_TRACE(::testing::Message() << "s " << s << " nth " << nth);
    Matrix c(s, s);
    copy(c0.view(), c.view());
    std::vector<double> snapshot(
        c.data(), c.data() + static_cast<std::size_t>(s) * s);
    core::DgefmmStats stats;
    core::DgefmmConfig cfg;
    cfg.cutoff = cutoff;
    cfg.on_failure = policy;
    cfg.stats = &stats;
    cfg.packed_a = &pa;
    cfg.packed_b = &pb;

    const long before = fi::injected_total();
    fi::arm(nth);
    bool threw = false;
    int info = -999;
    try {
      info = core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(),
                          a.ld(), b.data(), b.ld(), 0.5, c.data(), c.ld(),
                          cfg);
    } catch (const Error&) {
      threw = true;
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    fi::disarm();
    if (fi::injected_total() == before) {
      EXPECT_FALSE(threw);
      EXPECT_EQ(info, 0);
      EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-10);
      return;  // countdown outlived the acquisitions: sweep complete
    }
    if (policy == FailurePolicy::strict) {
      EXPECT_TRUE(threw);
      EXPECT_EQ(std::memcmp(c.data(), snapshot.data(),
                            snapshot.size() * sizeof(double)),
                0)
          << "strict policy must leave C bit-identical";
    } else {
      EXPECT_FALSE(threw);
      EXPECT_EQ(info, 0);
      EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-10);
    }
  }
  FAIL() << "sweep did not reach a fault-free run";
}

TEST_F(PrepackFaults, StreamedShapeSweepStrict) {
  sweep_with_handles(48, CutoffCriterion::paper_default(blas::active_machine()),
                     FailurePolicy::strict, 516);
}

TEST_F(PrepackFaults, StreamedShapeSweepFallback) {
  sweep_with_handles(48, CutoffCriterion::paper_default(blas::active_machine()),
                     FailurePolicy::fallback, 516);
}

TEST_F(PrepackFaults, RecursingShapeSweepStrict) {
  sweep_with_handles(96, CutoffCriterion::square_simple(32),
                     FailurePolicy::strict, 517);
}

TEST_F(PrepackFaults, RecursingShapeSweepFallback) {
  sweep_with_handles(96, CutoffCriterion::square_simple(32),
                     FailurePolicy::fallback, 517);
}

}  // namespace
}  // namespace strassen
