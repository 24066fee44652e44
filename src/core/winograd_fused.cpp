#include "core/winograd_fused.hpp"

#include <algorithm>
#include <cassert>

#include "blas/gemm.hpp"
#include "blas/pack_operand.hpp"
#include "blas/packed_loop.hpp"
#include "core/add_kernels.hpp"
#include "core/peeling.hpp"
#include "core/workspace.hpp"
#include "support/opcount.hpp"
#include "verify/proofs.hpp"

namespace strassen::core::detail {

namespace {

constexpr int kMaxTerms = blas::kPackMaxTerms;
constexpr int kMaxDests = blas::kPackMaxDests;

// The packed-GEMM skeleton must be able to hold any operand combination or
// destination set the verified fused tables produce -- including the fully
// composed two-level table.
static_assert(verify::max_fused_terms(verify::kFusedL1,
                                      verify::kFusedL1Products) *
                      verify::max_fused_terms(verify::kFusedL1,
                                              verify::kFusedL1Products) <=
                  kMaxTerms,
              "two fused levels exceed the pack skeleton's term capacity");
static_assert(verify::max_fused_terms(verify::kFusedL2.p,
                                      verify::kFusedL2Products) <= kMaxTerms,
              "composed L2 table exceeds the pack skeleton's term capacity");
static_assert(kMaxTerms <= verify::kMaxFusedTerms &&
                  kMaxDests <= verify::kMaxFusedTerms,
              "verify IR term capacity out of sync with the pack skeleton");

// A linear combination of up to kMaxTerms equally shaped operand views:
// one term at the top, doubling per fused level (Strassen sums at most two
// quadrants per operand per level).
template <class T>
struct Comb {
  BasicView<const T> v[kMaxTerms];
  T g[kMaxTerms];
  int n = 0;

  void add(BasicView<const T> view, T gamma) {
    assert(n < kMaxTerms);
    v[n] = view;
    g[n] = gamma;
    ++n;
  }
};

// Up to kMaxDests destination blocks, each with its own +/- alpha scale.
template <class T>
struct Dests {
  BasicView<T> v[kMaxDests];
  T g[kMaxDests];
  int n = 0;

  void add(BasicView<T> view, T gamma) {
    assert(n < kMaxDests);
    v[n] = view;
    g[n] = gamma;
    ++n;
  }
};

// The 7-product table lives in verify/schedule_ir.hpp (verify::kFusedL1,
// Strassen's original construction -- the variant whose products each read
// at most two quadrants per operand and write at most two quadrants of C,
// the property the 2-term/2-destination fusion needs). Its algebra, its
// zero-temporary claim, and the composed two-level table are all
// static_asserted in verify/proofs.hpp; emit() below expands the same
// table recursively, so the executed coefficients are the proved ones.
// Quadrants are indexed 0=11, 1=12, 2=21, 3=22.

template <class View>
View quadrant_of(const View& x, int q) {
  const index_t r2 = x.rows / 2, c2 = x.cols / 2;
  return x.block((q >> 1) * r2, (q & 1) * c2, r2, c2);
}

// State threaded through one fused top-level invocation. `touched` tracks
// which C blocks have already absorbed their beta*C term, so beta is
// applied exactly once per block no matter how many products land there.
template <class T>
struct FusedRun {
  CtxT<T>* ctx = nullptr;
  T beta = T(0);
  // Resolved once per fused subtree. Derived from the active micro-kernel's
  // register tile for this element type and the detected caches
  // (blas::blocking_for_t), so the fused leaves below automatically follow
  // a kernel switch; the leaves may also fan out over the pool
  // (blas::packed_gemm_threads), which is safe here because the driver
  // pre-warmed every worker's pack scratch before entering the no-fail
  // region.
  blas::GemmBlocking bk{};
  // Per-call packed-panel cache (null: packing always fresh). Set only by
  // fmm_fused when every leaf is a packed product and the leaf n extent
  // spans multiple GEMM column strips -- the shape where the loop nest
  // would re-pack the same A quadrant once per strip. Every image is
  // filled on the submitting thread before the leaf's packed call fans
  // out, so workers only ever read it -- no synchronization needed.
  blas::PanelCacheT<T>* cache = nullptr;
  T* touched[16] = {};
  int ntouched = 0;

  bool first_touch(T* p) {
    for (int i = 0; i < ntouched; ++i) {
      if (touched[i] == p) return false;
    }
    assert(ntouched < 16);
    touched[ntouched++] = p;
    return true;
  }
};

// d <- combination (one assignment pass plus one accumulate pass per extra
// term), used when a leaf continues with the classic recursion.
template <class T>
void materialize(const Comb<T>& x, BasicView<T> d) {
  axpby(x.g[0], x.v[0], T(0), d);
  for (int i = 1; i < x.n; ++i) axpy(x.g[i], x.v[i], d);
}

// One leaf product: a single fused packed-GEMM call when the cutoff says
// these dimensions are DGEMM-sized, otherwise materialize the operand
// combinations and continue with the classic schedules below the fusion.
template <class T>
void fused_leaf(FusedRun<T>& run, const Comb<T>& a, const Comb<T>& b,
                const Dests<T>& c, int depth) {
  CtxT<T>& ctx = *run.ctx;
  const index_t ml = a.v[0].rows, kl = a.v[0].cols, nl = b.v[0].cols;

  if (!ctx.cfg->cutoff.stop(ml, kl, nl, depth)) {
    ArenaScopeT scope(*ctx.arena);
    BasicView<T> ta = arena_matrix(*ctx.arena, ml, kl);
    materialize(a, ta);
    BasicView<T> tb = arena_matrix(*ctx.arena, kl, nl);
    materialize(b, tb);
    BasicView<T> p = arena_matrix(*ctx.arena, ml, nl);
    fmm<T>(T(1), ta, tb, T(0), p, ctx, depth);
    for (int i = 0; i < c.n; ++i) {
      if (run.first_touch(c.v[i].p)) {
        axpby(c.g[i], p, run.beta, c.v[i]);
      } else {
        axpy(c.g[i], p, c.v[i]);
      }
    }
    return;
  }

  blas::PackCombT<T> pa;
  for (int i = 0; i < a.n; ++i) pa.add(a.v[i], a.g[i]);
  blas::PackCombT<T> pb;
  for (int i = 0; i < b.n; ++i) pb.add(b.v[i], b.g[i]);
  blas::WriteDestT<T> dst[kMaxDests];
  for (int i = 0; i < c.n; ++i) {
    dst[i] = blas::write_dest(c.v[i], c.g[i],
                              run.first_touch(c.v[i].p) ? run.beta : T(1));
  }
  // A product whose A side is one pure quadrant (single term, gamma == 1)
  // can stream that quadrant's packed image from the per-call cache instead
  // of re-packing it for every nc column strip of this product.
  blas::PackedStreamsT<T> streams;
  if (run.cache != nullptr && a.n == 1 && a.g[0] == T(1)) {
    streams.a = run.cache->acquire('a', a.v[0].p, a.v[0].rs, a.v[0].cs,
                                   a.v[0].rows, a.v[0].cols);
    if (streams.a != nullptr) {
      run.cache->note_hits(blas::packed_a_blocks(run.bk, ml, nl, kl));
    } else {
      run.cache->note_misses(blas::packed_a_blocks(run.bk, ml, nl, kl));
    }
  }
  blas::packed_gemm_multi(run.bk, ml, nl, kl, pa, pb, dst, c.n, streams);

  if (opcount::enabled()) {
    opcount::record_gemm(ml, kl, nl, /*accumulate=*/true);
    const count_t comb_adds = static_cast<count_t>(a.n - 1) * ml * kl +
                              static_cast<count_t>(b.n - 1) * kl * nl +
                              static_cast<count_t>(c.n - 1) * ml * nl;
    if (comb_adds > 0) opcount::record_add(comb_adds);
  }
  if (ctx.stats != nullptr) {
    ++ctx.stats->base_gemms;
    ++ctx.stats->fused_products;
  }
}

// Expands `levels` fused Strassen levels: each level substitutes every term
// and destination with its quadrants per verify::kFusedL1 and recurses, so
// term and destination counts double per level (bounded by the skeleton's
// 4; at two levels this realizes verify::kFusedL2 product by product).
template <class T>
void emit(FusedRun<T>& run, int levels, const Comb<T>& a, const Comb<T>& b,
          const Dests<T>& c, int depth) {
  if (levels == 0) {
    fused_leaf(run, a, b, c, depth);
    return;
  }
  for (const verify::FProduct& spec : verify::kFusedL1) {
    Comb<T> sa;
    for (int e = 0; e < spec.na; ++e) {
      for (int t = 0; t < a.n; ++t) {
        sa.add(quadrant_of(a.v[t], spec.a[e].q),
               a.g[t] * static_cast<T>(spec.a[e].g));
      }
    }
    Comb<T> sb;
    for (int e = 0; e < spec.nb; ++e) {
      for (int t = 0; t < b.n; ++t) {
        sb.add(quadrant_of(b.v[t], spec.b[e].q),
               b.g[t] * static_cast<T>(spec.b[e].g));
      }
    }
    Dests<T> sc;
    for (int e = 0; e < spec.nc; ++e) {
      for (int t = 0; t < c.n; ++t) {
        sc.add(quadrant_of(c.v[t], spec.c[e].q),
               c.g[t] * static_cast<T>(spec.c[e].g));
      }
    }
    emit(run, levels - 1, sa, sb, sc, depth + 1);
  }
}

int clamp_fused_levels(int requested) {
  return std::clamp(requested, 1, 2);
}

// Collects the distinct A-side leaf blocks -- (block row, block col) on the
// 2^levels quadrant grid -- of fused products whose A combination is a
// single source with gamma == +1: the only operands the panel cache can
// stream (their packed image is a pure copy of one quadrant). Derived from
// the proved tables, not hard-coded: at one level these are the products of
// verify::kFusedL1 with a 1-term positive A side, at two levels the outer x
// inner compositions where both factors are 1-term (the composed gamma
// stays +1 because every 1-term A entry of the table is positive). Returns
// the key count (each key occurs in exactly one product -- Strassen's 7
// combinations are deliberately distinct -- so cross-product reuse does not
// exist; the cache's payoff is the per-strip re-pack inside one product).
int fused_gamma1_a_keys(int levels, int rc[][2]) {
  int n = 0;
  if (levels == 1) {
    for (const verify::FProduct& spec : verify::kFusedL1) {
      if (spec.na != 1 || spec.a[0].g != 1) continue;
      rc[n][0] = spec.a[0].q >> 1;
      rc[n][1] = spec.a[0].q & 1;
      ++n;
    }
    return n;
  }
  assert(levels == 2);
  for (const verify::FProduct& outer : verify::kFusedL1) {
    if (outer.na != 1) continue;
    for (const verify::FProduct& inner : verify::kFusedL1) {
      if (inner.na != 1 || outer.a[0].g * inner.a[0].g != 1) continue;
      const int row = (outer.a[0].q >> 1) * 2 + (inner.a[0].q >> 1);
      const int col = (outer.a[0].q & 1) * 2 + (inner.a[0].q & 1);
      bool seen = false;
      for (int i = 0; i < n; ++i) {
        if (rc[i][0] == row && rc[i][1] == col) seen = true;
      }
      if (!seen && n < 8) {
        rc[n][0] = row;
        rc[n][1] = col;
        ++n;
      }
    }
  }
  return n;
}

}  // namespace

template <class T>
count_t fused_cache_elements(index_t m, index_t k, index_t n,
                             const GefmmConfigT<T>& cfg, int depth) {
  if (!cfg.panel_cache || depth != 0) return 0;
  if (m == 0 || n == 0) return 0;
  // Mirror of fmm_fused's dispatch, so the predicted slab exists exactly
  // when fmm_fused carves one: the gemm_view routes allocate nothing, and
  // leaves that still recurse classically never enter the packed sweep.
  if (m < 2 || k < 2 || n < 2 || cfg.cutoff.stop(m, k, n, depth)) return 0;
  const index_t me = m & ~index_t{1};
  const index_t ke = k & ~index_t{1};
  const index_t ne = n & ~index_t{1};
  const index_t m2 = me / 2, k2 = ke / 2, n2 = ne / 2;
  int levels = 1;
  if (clamp_fused_levels(cfg.fused_levels) >= 2 &&
      ((m2 | k2 | n2) & 1) == 0 && !cfg.cutoff.stop(m2, k2, n2, depth + 1)) {
    levels = 2;
  }
  const index_t mB = me >> levels, kB = ke >> levels, nB = ne >> levels;
  if (!cfg.cutoff.stop(mB, kB, nB, depth + levels)) return 0;
  const blas::GemmBlocking bk =
      blas::blocking_for_t<T>(blas::active_machine());
  // The cache pays off only when one product's n extent spans several GEMM
  // column strips (the loop nest re-packs A once per strip); below that,
  // carve nothing so Table-1-scale shapes keep their exact paper bounds.
  if (nB <= bk.nc) return 0;
  int rc[8][2];
  const int nkeys = fused_gamma1_a_keys(levels, rc);
  const std::size_t per =
      blas::packed_a_total(bk, blas::active_kernel_t<T>().mr, mB, kB) +
      kBufferAlignment / sizeof(T);  // per-image alignment slack
  return static_cast<count_t>(nkeys) * static_cast<count_t>(per);
}

template count_t fused_cache_elements<double>(index_t, index_t, index_t,
                                              const DgefmmConfig&, int);
template count_t fused_cache_elements<float>(index_t, index_t, index_t,
                                             const SgefmmConfig&, int);

template <class T>
void fmm_fused(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
               BasicView<T> c, CtxT<T>& ctx, int depth) {
  const index_t m = c.rows, n = c.cols, k = a.cols;
  assert(a.rows == m && b.rows == k && b.cols == n);
  if (m == 0 || n == 0) return;

  const bool degenerate = (m < 2 || k < 2 || n < 2);
  if (degenerate || alpha == T(0) || ctx.cfg->cutoff.stop(m, k, n, depth)) {
    blas::gemm_view(alpha, a, b, beta, c);
    if (ctx.stats != nullptr) ++ctx.stats->base_gemms;
    return;
  }

  // Odd dimensions are always dynamically peeled at fused levels: padding
  // would reintroduce exactly the copy passes fusion removes.
  const bool odd = ((m | k | n) & 1) != 0;
  const index_t me = m & ~index_t{1};
  const index_t ke = k & ~index_t{1};
  const index_t ne = n & ~index_t{1};
  const index_t m2 = me / 2, k2 = ke / 2, n2 = ne / 2;

  int levels = 1;
  if (clamp_fused_levels(ctx.cfg->fused_levels) >= 2 &&
      ((m2 | k2 | n2) & 1) == 0 &&
      !ctx.cfg->cutoff.stop(m2, k2, n2, depth + 1)) {
    levels = 2;
  }

  if (ctx.stats != nullptr) {
    // One fused level is one Strassen node; two fused levels stand in for a
    // node plus its seven children.
    ctx.stats->strassen_levels += (levels == 2) ? 8 : 1;
    ctx.stats->fused_depth = std::max(ctx.stats->fused_depth, levels);
    ctx.stats->max_depth = std::max(ctx.stats->max_depth, depth + levels);
  }

  FusedRun<T> run;
  run.ctx = &ctx;
  run.beta = beta;
  run.bk = blas::blocking_for_t<T>(blas::active_machine());

  // Packed-panel cache: when every leaf is a packed product whose n extent
  // spans multiple GEMM column strips, carve the slab the workspace
  // predictor already accounted for (same fused_cache_elements call, so
  // prediction == peak stays exact) and register the pure single-quadrant
  // A operands the sweep will stream. The scope releases the slab with the
  // call; peak() keeps the high-water mark for the stats.
  ArenaScopeT cache_scope(*ctx.arena);
  const count_t cache_need = fused_cache_elements<T>(m, k, n, *ctx.cfg, depth);
  T* slab = cache_need > 0
                ? ctx.arena->alloc(static_cast<std::size_t>(cache_need))
                : nullptr;
  blas::PanelCacheT<T> cache(run.bk, slab,
                             slab != nullptr
                                 ? static_cast<std::size_t>(cache_need)
                                 : 0);
  if (slab != nullptr) {
    const BasicView<const T> a_even = a.block(0, 0, me, ke);
    const index_t mB = me >> levels, kB = ke >> levels;
    int rc[8][2];
    const int nkeys = fused_gamma1_a_keys(levels, rc);
    for (int i = 0; i < nkeys; ++i) {
      const BasicView<const T> q =
          a_even.block(rc[i][0] * mB, rc[i][1] * kB, mB, kB);
      (void)cache.register_entry('a', q.p, q.rs, q.cs, mB, kB);
    }
    run.cache = &cache;
  }

  Comb<T> ca;
  ca.add(a.block(0, 0, me, ke), T(1));
  Comb<T> cb;
  cb.add(b.block(0, 0, ke, ne), T(1));
  Dests<T> dc;
  dc.add(c.block(0, 0, me, ne), alpha);
  emit(run, levels, ca, cb, dc, depth);

  if (ctx.stats != nullptr && run.cache != nullptr) {
    ctx.stats->pack_hits += cache.hits();
    ctx.stats->pack_misses += cache.misses();
  }

  if (odd) {
    const int fixups =
        peel_fixups(alpha, a, b, beta, c, me, ke, ne, ctx.arena->owns(a.p),
                    ctx.arena->owns(b.p));
    if (ctx.stats != nullptr) ctx.stats->peel_fixups += fixups;
  }
  if (ctx.stats != nullptr) {
    ctx.stats->peak_workspace =
        std::max(ctx.stats->peak_workspace, ctx.arena->peak());
  }
}

count_t fused_product_workspace(index_t m, index_t k, index_t n,
                                const DgefmmConfig& cfg, int depth) {
  if (cfg.cutoff.stop(m, k, n, depth)) return 0;
  return static_cast<count_t>(m) * k + static_cast<count_t>(k) * n +
         static_cast<count_t>(m) * n +
         workspace_doubles_at(m, n, k, 0.0, cfg, depth);
}

template void fmm_fused<double>(double, ConstView, ConstView, double, MutView,
                                CtxT<double>&, int);
template void fmm_fused<float>(float, ConstViewF, ConstViewF, float, MutViewF,
                               CtxT<float>&, int);

}  // namespace strassen::core::detail
