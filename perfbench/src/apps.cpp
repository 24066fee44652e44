// `apps`: the paper's application (the ISDA symmetric eigensolver, Table 6)
// and blocked LU with a solve, both multiplying through
// core::gemm_backend_dgefmm() behind a GemmFn wrapper that times and counts
// every call. ISDA is checked for eigen-residual and orthogonality, LU for
// the relative residual of the solve.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "core/gemm_backend.hpp"
#include "eigen/isda.hpp"
#include "solver/lu.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace strassen;

namespace {

// Rounds of the program's own set-up per run; setup_s is their median.
constexpr int kSetupRounds = 5;

// A pair (one ISDA solve and one LU solve) failing to finish within this
// limit counts against ok_share; the seed's pairs take about ten seconds.
constexpr double kPairLimitS = 60.0;
constexpr index_t kLuBlock = 64;
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

struct MmMeter {
  double seconds = 0.0;
  double flops = 0.0;
  long calls = 0;
};

// The GemmFn the applications see: the dgefmm backend, timed per call.
core::GemmFn metered(core::GemmFn inner, MmMeter& meter) {
  return [inner = std::move(inner), &meter](
             Trans ta, Trans tb, index_t m, index_t n, index_t k, double alpha,
             const double* a, index_t lda, const double* b, index_t ldb,
             double beta, double* c, index_t ldc) {
    Span span("core.gemmfn");
    const double t0 = now_s();
    inner(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    meter.seconds += now_s() - t0;
    meter.flops += 2.0 * double(m) * double(n) * double(k);
    ++meter.calls;
  };
}

struct Inputs {
  Matrix sym;      // ISDA input
  Matrix lu_a;     // LU system
  Matrix lu_b;
  explicit Inputs(const Args& args) {
    const index_t n_isda = args.tiny ? 64 : 1024;
    const index_t n_lu = args.tiny ? 128 : 4096;
    Rng rng(args.seed * 0xd1b54a32d192ed03ULL + 3);
    sym = Matrix(n_isda, n_isda);
    fill_random_symmetric(sym.view(), rng);
    lu_a = random_matrix(n_lu, n_lu, rng);
    lu_b = random_matrix(n_lu, 1, rng);
  }
};

struct PairResult {
  double isda_s = 0.0, lu_s = 0.0;
  bool ok = false;
  MmMeter isda_mm, lu_mm;
  eigen::IsdaStats isda;
  double isda_residual = 0.0, isda_orth = 0.0, lu_residual = 0.0;
};

// ||A V - V diag(w)||_F / ||A||_F and ||V^T V - I||_F, with blas::dgemm.
void isda_check(const Matrix& a, const eigen::IsdaResult& r, double& res,
                double& orth) {
  const index_t n = a.rows();
  Matrix av(n, n), vtv(n, n);
  const Matrix& v = r.eigenvectors;
  blas::dgemm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), a.ld(), v.data(),
              v.ld(), 0.0, av.data(), av.ld());
  blas::dgemm(Trans::transpose, Trans::no, n, n, n, 1.0, v.data(), v.ld(),
              v.data(), v.ld(), 0.0, vtv.data(), vtv.ld());
  double s_res = 0.0, s_orth = 0.0;
  for (index_t j = 0; j < n; ++j) {
    const double w = r.eigenvalues[std::size_t(j)];
    for (index_t i = 0; i < n; ++i) {
      const double d = av(i, j) - v(i, j) * w;
      const double e = vtv(i, j) - (i == j ? 1.0 : 0.0);
      s_res += d * d;
      s_orth += e * e;
    }
  }
  res = std::sqrt(s_res) / frobenius_norm(a.view());
  orth = std::sqrt(s_orth);
}

PairResult run_pair(const Inputs& in, const core::GemmFn& backend,
                    Tally& tally) {
  Span pair("apps.pair");
  PairResult p;
  bool isda_ok = false, lu_ok = false;
  {
    eigen::IsdaOptions opts;
    opts.base_size = 32;
    opts.gemm = metered(backend, p.isda_mm);
    eigen::IsdaResult r;
    const double t0 = now_s();
    {
      Span s("eigen.isda_eigensolver");
      r = eigen::isda_eigensolver(in.sym.view(), opts);
    }
    p.isda_s = now_s() - t0;
    p.isda = r.stats;
    const double n = double(in.sym.rows());
    if (r.eigenvalues.size() == std::size_t(in.sym.rows())) {
      isda_check(in.sym, r, p.isda_residual, p.isda_orth);
      // ISDA's projector iteration stops at ||B^2 - B||_F / s <= 1e-12, so
      // the bound is that tolerance scaled by n, far above rounding.
      isda_ok = p.isda_residual <= 1e-12 * n && p.isda_orth <= 1e-12 * n;
    }
    tally.add(isda_ok);
  }
  {
    solver::LuOptions opts;
    opts.block = kLuBlock;
    opts.gemm = metered(backend, p.lu_mm);
    const double t0 = now_s();
    Matrix x;
    solver::LuFactors f;
    {
      Span s("solver.lu_factor");
      f = solver::lu_factor(in.lu_a.view(), opts);
    }
    if (f.info == 0) {
      Span s("solver.lu_solve");
      x = solver::lu_solve(f, in.lu_b.view());
    }
    p.lu_s = now_s() - t0;
    if (f.info == 0) {
      p.lu_residual =
          solver::relative_residual(in.lu_a.view(), x.view(), in.lu_b.view());
      // Backward-stable solve: residual within 10 n u.
      lu_ok = p.lu_residual <= 10.0 * double(in.lu_a.rows()) * kUnitRoundoff;
    }
    tally.add(lu_ok);
  }
  p.ok = isda_ok && lu_ok;
  return p;
}

// The program's own set-up: the dgefmm backend (with its shared workspace
// arena) and one warm-up multiply of each application's shape class; the
// first round also starts the pool.
core::GemmFn build_backend(const Args& args, bool first, double& seconds) {
  const index_t n = args.tiny ? 64 : 1024, kb = kLuBlock;
  Rng rng(args.seed + 17);
  const Matrix a = random_matrix(n, n, rng), b = random_matrix(n, n, rng);
  Matrix c(n, n);
  const double t0 = now_s();
  if (first) {
    (void)parallel::global_pool().size();
    (void)blas::active_kernel();
  }
  core::GemmFn fn = core::gemm_backend_dgefmm();
  fn(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
     c.data(), n);
  fn(Trans::no, Trans::no, n, n, kb, -1.0, a.data(), n, b.data(), n, 1.0,
     c.data(), n);
  seconds = now_s() - t0;
  return fn;
}

}  // namespace

void apps_run(Ctx& ctx) {
  const Inputs in(ctx.args);
  core::GemmFn backend;
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    double s = 0.0;
    backend = build_backend(ctx.args, r == 0, s);
    rounds.push_back(s);
  }
  ctx.m.set("setup_s", median(rounds), "s");

  std::vector<double> pair_s;
  double mm_flops = 0.0, mm_s = 0.0;
  long within = 0;
  const double start = now_s();
  do {
    const PairResult p = run_pair(in, backend, ctx.tally);
    pair_s.push_back(p.isda_s + p.lu_s);
    if (p.ok && pair_s.back() <= kPairLimitS) ++within;
    mm_flops += p.isda_mm.flops + p.lu_mm.flops;
    mm_s += p.isda_mm.seconds + p.lu_mm.seconds;
    std::printf("apps: isda %.3f s (mm %.3f s, %lld beta iterations)"
                "  lu %.3f s (mm %.3f s)\n",
                p.isda_s, p.isda_mm.seconds,
                static_cast<long long>(p.isda.beta_iterations), p.lu_s,
                p.lu_mm.seconds);
  } while (now_s() - start < ctx.args.seconds);

  ctx.m.set("gflops_f64", mm_flops / mm_s * 1e-9, "GFLOPS");
  ctx.m.set("unit_ms_p50", median(pair_s) * 1e3, "ms");
  ctx.m.set("ok_share", double(within) / double(pair_s.size()), "ratio");
}

void apps_layers(Ctx& ctx, bool overhead) {
  Tracer& tracer = Tracer::get();
  tracer.enable(false);
  const Inputs in(ctx.args);
  double unused = 0.0;
  const core::GemmFn backend = build_backend(ctx.args, true, unused);
  PairResult p;
  if (overhead) {
    const PairResult u = run_pair(in, backend, ctx.tally);
    tracer.enable(true);
    p = run_pair(in, backend, ctx.tally);
    set_overhead(ctx, u.isda_s + u.lu_s, p.isda_s + p.lu_s);
  } else {
    tracer.enable(true);
    p = run_pair(in, backend, ctx.tally);
  }

  Metrics& m = ctx.m;
  m.set("eigen.isda_s", p.isda_s, "s");
  m.set("eigen.isda_mm_s", p.isda_mm.seconds, "s");
  m.set("eigen.isda_self_s", p.isda_s - p.isda_mm.seconds, "s");
  m.set("eigen.beta_iterations", double(p.isda.beta_iterations), "count");
  m.set("eigen.gemm_calls", double(p.isda_mm.calls), "count");
  m.set("eigen.residual", p.isda_residual, "ratio");
  m.set("eigen.orthogonality", p.isda_orth, "ratio");
  m.set("solver.lu_s", p.lu_s, "s");
  m.set("solver.lu_mm_s", p.lu_mm.seconds, "s");
  m.set("solver.lu_self_s", p.lu_s - p.lu_mm.seconds, "s");
  m.set("solver.gemm_calls", double(p.lu_mm.calls), "count");
  m.set("solver.residual", p.lu_residual, "ratio");
}

}  // namespace perfbench
