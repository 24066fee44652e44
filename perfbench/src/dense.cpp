// `dense`: a fixed sequence of drop-in core::dgefmm calls plus one sgefmm
// call (paper Tables 2-3 style shapes), repeated for the run. Every output
// is checked against a blas::dgemm / blas::sgemm reference computed outside
// the timed calls, within the Higham-style Winograd bound.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace strassen;

namespace {

// A pass (one call of every shape) failing to finish within this limit
// counts against ok_share; the seed's passes take a few seconds.
constexpr double kPassLimitS = 15.0;

struct ShapeSpec {
  const char* name;
  Trans ta, tb;
  index_t m, n, k;
  double beta;
  bool f32;
};

const ShapeSpec kShapes[] = {
    {"sq2048", Trans::no, Trans::no, 2048, 2048, 2048, 0.0, false},
    {"odd2047", Trans::transpose, Trans::no, 2047, 2047, 2047, 1.0, false},
    {"rect3072k768", Trans::no, Trans::no, 3072, 3072, 768, 1.0, false},
    {"rect1536x3072k2560", Trans::no, Trans::transpose, 1536, 3072, 2560, 0.0,
     false},
    {"f32sq3072", Trans::no, Trans::no, 3072, 3072, 3072, 0.0, true},
};

// Self-test sizes keep the odd extent odd.
index_t scaled(index_t v, bool tiny) {
  return tiny ? (v % 2 == 1 ? v / 16 | 1 : v / 16) : v;
}

struct CallResult {
  double seconds = 0.0;
  int info = 0;
  bool ok = false;
  double err_ratio = 0.0;
  core::DgefmmStats stats;
};

class ShapeBase {
 public:
  virtual ~ShapeBase() = default;
  /// One timed drop-in call; checked (and tallied) once the reference
  /// exists.
  virtual CallResult call(Tally& tally) = 0;
  /// Computes the reference product; returns its seconds.
  virtual double reference() = 0;
  /// Normwise error of the current output over the Winograd bound for a
  /// call that recursed `levels` deep.
  virtual double err_ratio(int levels) const = 0;
  ShapeSpec spec{};
  bool have_ref = false;
  double flops() const {
    return 2.0 * double(spec.m) * double(spec.n) * double(spec.k);
  }
};

template <class T>
class Shape final : public ShapeBase {
 public:
  Shape(const ShapeSpec& s, Rng& rng) {
    spec = s;
    const index_t ar = is_trans(s.ta) ? s.k : s.m;
    const index_t ac = is_trans(s.ta) ? s.m : s.k;
    const index_t br = is_trans(s.tb) ? s.n : s.k;
    const index_t bc = is_trans(s.tb) ? s.k : s.n;
    a_ = MatrixT<T>(ar, ac);
    b_ = MatrixT<T>(br, bc);
    c_ = MatrixT<T>(s.m, s.n);
    ref_ = MatrixT<T>(s.m, s.n);
    fill_random(a_.view(), rng);
    fill_random(b_.view(), rng);
    if (s.beta != 0.0) {
      c0_ = MatrixT<T>(s.m, s.n);
      fill_random(c0_.view(), rng);
      cmax_ = max_abs(c0_.view());
    }
    amax_ = max_abs(a_.view());
    bmax_ = max_abs(b_.view());
  }

  CallResult call(Tally& tally) override {
    if (spec.beta != 0.0) copy(c0_.view(), c_.view());
    CallResult r;
    core::GefmmConfigT<T> cfg;
    cfg.stats = &r.stats;
    {
      Span span(std::is_same_v<T, float> ? "core.sgefmm" : "core.dgefmm");
      const double t0 = now_s();
      if constexpr (std::is_same_v<T, float>) {
        r.info = core::sgefmm(spec.ta, spec.tb, spec.m, spec.n, spec.k, 1.0f,
                              a_.data(), a_.ld(), b_.data(), b_.ld(),
                              float(spec.beta), c_.data(), c_.ld(), cfg);
      } else {
        r.info = core::dgefmm(spec.ta, spec.tb, spec.m, spec.n, spec.k, 1.0,
                              a_.data(), a_.ld(), b_.data(), b_.ld(),
                              spec.beta, c_.data(), c_.ld(), cfg);
      }
      r.seconds = now_s() - t0;
    }
    if (have_ref) {
      r.err_ratio = err_ratio(r.stats.max_depth);
      r.ok = r.info == 0 && r.err_ratio <= 1.0;
      tally.add(r.ok);
    }
    return r;
  }

  double reference() override {
    if (spec.beta != 0.0) copy(c0_.view(), ref_.view());
    Span span("blas.dgemm_reference");
    const double t0 = now_s();
    if constexpr (std::is_same_v<T, float>) {
      blas::sgemm(spec.ta, spec.tb, spec.m, spec.n, spec.k, 1.0f, a_.data(),
                  a_.ld(), b_.data(), b_.ld(), float(spec.beta), ref_.data(),
                  ref_.ld());
    } else {
      blas::dgemm(spec.ta, spec.tb, spec.m, spec.n, spec.k, 1.0, a_.data(),
                  a_.ld(), b_.data(), b_.ld(), spec.beta, ref_.data(),
                  ref_.ld());
    }
    have_ref = true;
    return now_s() - t0;
  }

  double err_ratio(int levels) const override {
    const double u = std::numeric_limits<T>::epsilon() / 2;
    const double bound = winograd_bound(spec.k, levels, u, 1.0, amax_, bmax_,
                                        spec.beta, cmax_);
    const double r = max_abs_diff(c_.view(), ref_.view()) / bound;
    return std::isfinite(r) ? r : std::numeric_limits<double>::infinity();
  }

 private:
  MatrixT<T> a_, b_, c_, c0_, ref_;
  double amax_ = 0.0, bmax_ = 0.0, cmax_ = 0.0;
};

std::vector<std::unique_ptr<ShapeBase>> make_shapes(const Args& args) {
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::unique_ptr<ShapeBase>> out;
  for (ShapeSpec s : kShapes) {
    s.m = scaled(s.m, args.tiny);
    s.n = scaled(s.n, args.tiny);
    s.k = scaled(s.k, args.tiny);
    if (s.f32) {
      out.push_back(std::make_unique<Shape<float>>(s, rng));
    } else {
      out.push_back(std::make_unique<Shape<double>>(s, rng));
    }
  }
  return out;
}

struct PassResult {
  double seconds = 0.0;  // sum of the five call times
  bool ok = true;
  std::vector<CallResult> calls;
};

PassResult run_pass(std::vector<std::unique_ptr<ShapeBase>>& shapes,
                    Tally& tally) {
  Span span("dense.pass");
  PassResult p;
  for (auto& s : shapes) {
    p.calls.push_back(s->call(tally));
    p.seconds += p.calls.back().seconds;
    p.ok = p.ok && p.calls.back().ok;
  }
  return p;
}

// Set-up rounds per run: each is a full pass, so dense keeps the fewest.
constexpr int kSetupRounds = 3;

// The program's own set-up, repeated kSetupRounds times: the first round
// starts the pool and resolves the kernel; each round makes the first
// (warm-up) call of every shape with fresh per-call workspace. The
// reference products are computed after the cold round and are not timed.
double dense_setup(std::vector<std::unique_ptr<ShapeBase>>& shapes,
                   Tally& tally) {
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    double t = 0.0;
    if (r == 0) {
      const double t0 = now_s();
      (void)parallel::global_pool().size();
      (void)blas::active_kernel();
      t += now_s() - t0;
      std::vector<CallResult> cold;  // checked once the references exist
      for (auto& s : shapes) {
        cold.push_back(s->call(tally));
        t += cold.back().seconds;
      }
      for (auto& s : shapes) (void)s->reference();
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        const double ratio = shapes[i]->err_ratio(cold[i].stats.max_depth);
        tally.add(cold[i].info == 0 && ratio <= 1.0);
      }
    } else {
      t = run_pass(shapes, tally).seconds;
    }
    rounds.push_back(t);
  }
  return median(rounds);
}

}  // namespace

void dense_run(Ctx& ctx) {
  auto shapes = make_shapes(ctx.args);
  ctx.m.set("setup_s", dense_setup(shapes, ctx.tally), "s");

  std::vector<double> pass_s;
  std::vector<std::vector<double>> call_s(shapes.size());
  long within = 0;
  const double start = now_s();
  do {
    const PassResult p = run_pass(shapes, ctx.tally);
    pass_s.push_back(p.seconds);
    if (p.ok && p.seconds <= kPassLimitS) ++within;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      call_s[i].push_back(p.calls[i].seconds);
    }
  } while (now_s() - start < ctx.args.seconds);

  // gflops_f64 = sum 2mnk / sum wall over the f64 shapes, each shape's wall
  // taken as its median call.
  double f64_flops = 0.0, f64_s = 0.0;
  std::printf("dense: %zu passes\n", pass_s.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const double t = median(call_s[i]);
    std::printf("  %-20s median %9.2f ms  %7.2f GFLOPS\n",
                shapes[i]->spec.name, t * 1e3, shapes[i]->flops() / t * 1e-9);
    if (!shapes[i]->spec.f32) {
      f64_flops += shapes[i]->flops();
      f64_s += t;
    }
  }
  ctx.m.set("gflops_f64", f64_flops / f64_s * 1e-9, "GFLOPS");
  ctx.m.set("unit_ms_p50", median(pass_s) * 1e3, "ms");
  ctx.m.set("ok_share", double(within) / double(pass_s.size()), "ratio");
}

int dense_layers(Ctx& ctx, bool overhead) {
  Tracer& tracer = Tracer::get();
  tracer.enable(false);
  auto shapes = make_shapes(ctx.args);
  for (auto& s : shapes) (void)s->call(ctx.tally);  // warm-up, unchecked
  tracer.enable(true);

  // Reference products (median of three), printed beside each dense row
  // like SLATE's ref_gflops; blas.dgemm_gflops aggregates the f64 shapes.
  double ref_flops = 0.0, ref_s = 0.0;
  std::vector<double> ref_t;
  for (auto& s : shapes) {
    std::vector<double> ts;
    for (int r = 0; r < (ctx.args.tiny ? 1 : 3); ++r) ts.push_back(s->reference());
    ref_t.push_back(median(ts));
    if (!s->spec.f32) {
      ref_flops += s->flops();
      ref_s += ref_t.back();
    }
  }

  // Traced passes; with `overhead`, one untraced pass first.
  double untraced = 0.0;
  if (overhead) {
    tracer.enable(false);
    untraced = run_pass(shapes, ctx.tally).seconds;
    tracer.enable(true);
  }
  const int passes = ctx.args.tiny ? 1 : 3;
  std::vector<PassResult> runs;
  for (int p = 0; p < passes; ++p) runs.push_back(run_pass(shapes, ctx.tally));
  if (overhead) set_overhead(ctx, untraced, runs.front().seconds);

  const PassResult& last = runs.back();
  count_t levels = 0, base = 0, peel = 0;
  int sq_depth = 0;
  double ws_mb = 0.0, err_max = 0.0, f32_flops = 0.0, f32_s = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ShapeSpec& sp = shapes[i]->spec;
    const core::DgefmmStats& st = last.calls[i].stats;
    levels += st.strassen_levels;
    base += st.base_gemms;
    peel += st.peel_fixups;
    if (i == 0) sq_depth = st.max_depth;
    ws_mb = std::max(ws_mb, double(st.peak_workspace) *
                                (sp.f32 ? 4.0 : 8.0) / (1024.0 * 1024.0));
    std::vector<double> ts;
    for (const PassResult& r : runs) {
      ts.push_back(r.calls[i].seconds);
      err_max = std::max(err_max, r.calls[i].err_ratio);
      if (sp.f32) {
        f32_flops += shapes[i]->flops();
        f32_s += r.calls[i].seconds;
      }
    }
    const double t = median(ts);
    ctx.m.set(std::string("core.call_ms.") + sp.name, t * 1e3, "ms");
    std::printf("  %-20s %9.2f ms %7.2f GFLOPS | ref %9.2f ms %7.2f GFLOPS"
                " | depth %d base_gemms %lld\n",
                sp.name, t * 1e3, shapes[i]->flops() / t * 1e-9,
                ref_t[i] * 1e3, shapes[i]->flops() / ref_t[i] * 1e-9,
                st.max_depth, static_cast<long long>(st.base_gemms));
  }
  ctx.m.set("core.gflops_f32", f32_flops / f32_s * 1e-9, "GFLOPS");
  ctx.m.set("blas.dgemm_gflops", ref_flops / ref_s * 1e-9, "GFLOPS");
  ctx.m.set("core.strassen_levels", double(levels), "count");
  ctx.m.set("core.base_gemms", double(base), "count");
  ctx.m.set("core.peel_fixups", double(peel), "count");
  ctx.m.set("core.max_depth", double(sq_depth), "count");
  ctx.m.set("core.workspace_mb", ws_mb, "MiB");
  ctx.m.set("core.err_ratio_max", err_max, "ratio");
  return sq_depth;
}

}  // namespace perfbench
