// The layer probes: roof.* host probes (roof.cpp) and single-layer timings
// of blas and core entry points, each the denominator or numerator of a
// per-layer fraction.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/pack_operand.hpp"
#include "blas/packed_loop.hpp"
#include "core/add_kernels.hpp"
#include "core/dgefmm.hpp"
#include "support/aligned_buffer.hpp"
#include "support/random.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace strassen;

namespace {

// Median seconds of `reps` calls of fn.
template <class F>
double median_time(int reps, F&& fn) {
  std::vector<double> ts;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    ts.push_back(now_s() - t0);
  }
  return median(ts);
}

double gemm_seconds(index_t n, int reps, const Matrix& a, const Matrix& b,
                    Matrix& c) {
  return median_time(reps, [&] {
    Span s("blas.dgemm");
    blas::dgemm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), a.ld(),
                b.data(), b.ld(), 0.0, c.data(), c.ld());
  });
}

}  // namespace

void layer_probes(Ctx& ctx, index_t leaf_order) {
  const bool tiny = ctx.args.tiny;
  const int cores = int(std::max(1u, std::thread::hardware_concurrency()));
  Metrics& m = ctx.m;

  // roof.*
  const long iters = tiny ? 200000 : 100000000;
  const double fma1 = fma_gflops(1, iters, 5);
  m.set("roof.fma_gflops_1c", fma1, "GFLOPS");
  m.set("roof.fma_gflops_all", fma_gflops(cores, iters, 5), "GFLOPS");
  // The triad's three arrays together span at least 4x the last-level cache.
  const std::size_t total_bytes =
      tiny ? (std::size_t(48) << 20) : std::size_t(4) * std::size_t(l3_bytes());
  const std::size_t elems = total_bytes / (3 * sizeof(double));
  const double stream = triad_gbps(elems, cores, 5);
  m.set("roof.stream_gbps", stream, "GB/s");
  std::printf("roof: triad arrays 3 x %.0f MiB = %.0f MiB, last-level cache "
              "%.0f MiB, %d threads\n",
              double(elems) * 8.0 / (1 << 20),
              3.0 * double(elems) * 8.0 / (1 << 20),
              double(l3_bytes()) / (1 << 20), cores);

  Rng rng(ctx.args.seed + 99);
  const index_t big = tiny ? 256 : 2048;
  const Matrix a = random_matrix(big, big, rng), b = random_matrix(big, big, rng);
  Matrix c(big, big);

  // blas.kernel_peak_frac: 1-thread in-cache dgemm over the 1-core peak.
  {
    const index_t n = tiny ? 64 : 256;
    blas::ScopedGemmThreads one(1);
    const int reps = tiny ? 5 : 200;
    const double t = gemm_seconds(n, reps, a, b, c);
    m.set("blas.kernel_peak_frac", 2.0 * n * n * n / t * 1e-9 / fma1,
          "ratio");
  }
  // blas.leaf_gflops: dgemm at the dense leaf order, on the pool.
  {
    const index_t n = std::max<index_t>(1, std::min(leaf_order, big));
    const double t = gemm_seconds(n, tiny ? 5 : 50, a, b, c);
    m.set("blas.leaf_gflops", 2.0 * n * n * n / t * 1e-9, "GFLOPS");
  }
  // blas.dgemm_thread_eff: pool-wide over cores x 1-thread rate at 2048^3.
  {
    double t1 = 0.0, tn = 0.0;
    {
      blas::ScopedGemmThreads one(1);
      t1 = gemm_seconds(big, 3, a, b, c);
    }
    {
      blas::ScopedGemmThreads all(cores);
      tn = gemm_seconds(big, 3, a, b, c);
    }
    m.set("blas.dgemm_thread_eff", t1 / (double(cores) * tn), "ratio");
  }
  // blas.pack_b_gbps: packing a serving weight into preallocated storage,
  // bytes read plus written.
  {
    const std::size_t elems = blas::gefmm_pack_b_elements<double>(big, big);
    AlignedBufferT<double> storage(elems);
    const double t = median_time(5, [&] {
      Span s("blas.gefmm_pack_b");
      (void)blas::gefmm_pack_b<double>(b.view(), storage.data(), elems);
    });
    m.set("blas.pack_b_gbps", 16.0 * double(big) * double(big) / t * 1e-9,
          "GB/s");
  }
  // blas.skinny_gbps: skinny products streaming a prepacked weight; bytes
  // are the packed image plus A and C.
  {
    const index_t mm = 64;
    const blas::PackedOperand h = blas::gefmm_pack_b<double>(b.view());
    const ConstView av = a.view().block(0, 0, mm, big);
    MutView cv = c.view().block(0, 0, mm, big);
    bool streamed = true;
    const double t = median_time(tiny ? 5 : 100, [&] {
      Span s("blas.gemm_view_prepacked");
      streamed = blas::gemm_view_prepacked(1.0, av, b.view(), 0.0, cv,
                                           nullptr, &h) &&
                 streamed;
    });
    const double bytes =
        8.0 * (double(h.elems) + 2.0 * double(mm) * double(big));
    m.set("blas.skinny_gbps", streamed ? bytes / t * 1e-9 : 0.0, "GB/s");
  }
  // core.add_gbps: quadrant-size add on views of the square operands.
  {
    const index_t h = big / 2;
    const ConstView x = a.view().block(0, 0, h, h);
    const ConstView y = b.view().block(h, h, h, h);
    MutView d = c.view().block(0, h, h, h);
    const double t = median_time(tiny ? 5 : 20, [&] {
      Span s("core.add");
      core::add(x, y, d);
    });
    m.set("core.add_gbps", 3.0 * 8.0 * double(h) * double(h) / t * 1e-9,
          "GB/s");
  }
  // core.level_overhead_share: one Strassen level against its 7 products.
  {
    const index_t h = big / 2;
    core::DgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::fixed_depth(1);
    const double one = median_time(3, [&] {
      Span s("core.dgefmm");
      (void)core::dgefmm(Trans::no, Trans::no, big, big, big, 1.0, a.data(),
                         a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), cfg);
    });
    const double half = gemm_seconds(h, 5, a, b, c);
    m.set("core.level_overhead_share", (one - 7.0 * half) / one, "ratio");
  }
}

}  // namespace perfbench
