#include "core/winograd.hpp"

#include <algorithm>
#include <cassert>

#include "blas/gemm.hpp"
#include "core/add_kernels.hpp"
#include "core/padding.hpp"
#include "core/peeling.hpp"
#include "core/strassen_original.hpp"
#include "verify/proofs.hpp"

namespace strassen::core::detail {

template <class T>
void run_ir_schedule(const verify::Schedule& s, T alpha, BasicView<const T> a,
                     BasicView<const T> b, T beta, BasicView<T> c,
                     CtxT<T>& ctx, int depth) {
  namespace v = verify;
  const index_t m2 = a.rows / 2, k2 = a.cols / 2, n2 = b.cols / 2;
  ArenaScopeT scope(*ctx.arena);

  // Arena temporaries, allocated in declaration order so the arena layout
  // (and with it the workspace accounting that verify::footprint_doubles
  // charges, an element count shared by both precisions) is deterministic.
  // Each temporary keeps the view of its latest write: the dual-role
  // STRASSEN1 X buffer changes logical shape between writes, and any
  // temporary may change storage orientation (see dst below).
  T* tbuf[v::kMaxTemps] = {};
  index_t tld[v::kMaxTemps] = {};
  BasicView<T> tview[v::kMaxTemps] = {};
  for (int d = 0; d < s.ntemps; ++d) {
    const v::TempDecl& td = s.temps[d];
    const int t = td.reg - v::kT0;
    index_t r = 0, cl = 0;
    switch (td.shape) {
      case v::Shape::mk: r = m2; cl = k2; break;
      case v::Shape::kn: r = k2; cl = n2; break;
      case v::Shape::mn: r = m2; cl = n2; break;
      case v::Shape::m_maxkn: r = m2; cl = std::max(k2, n2); break;
    }
    tbuf[t] = ctx.arena->alloc(static_cast<std::size_t>(r) * cl);
    tld[t] = r > 0 ? r : 1;
  }

  const auto cquad = [&](int q) -> BasicView<T> {
    return c.block((q >> 1) * m2, (q & 1) * n2, m2, n2);
  };
  const auto src = [&](int reg) -> BasicView<const T> {
    if (reg < v::kB11) {
      const int q = reg - v::kA11;
      return a.block((q >> 1) * m2, (q & 1) * k2, m2, k2);
    }
    if (reg < v::kC11) {
      const int q = reg - v::kB11;
      return b.block((q >> 1) * k2, (q & 1) * n2, k2, n2);
    }
    if (reg < v::kT0) return cquad(reg - v::kC11);
    return tview[reg - v::kT0];
  };
  // Storage orientation is decided per write. A sum whose sources are all
  // row-major (the quadrants of a transposed operand and the sums formed
  // from them) is written row-major into the same r*cl elements, so its
  // pass runs unit-stride instead of gathering down the source rows; the
  // products pack either orientation into the same bytes. Products and
  // every other write are column-major, as gemm_view requires of C. A
  // write that reads its own destination keeps the orientation it has.
  const auto dst = [&](int reg, index_t r, index_t cl,
                       bool row_major) -> BasicView<T> {
    if (reg >= v::kT0) {
      const int t = reg - v::kT0;
      tview[t] = row_major ? BasicView<T>{tbuf[t], r, cl, cl > 0 ? cl : 1, 1}
                           : make_view(tbuf[t], r, cl, tld[t]);
      return tview[t];
    }
    assert(reg >= v::kC11 && r == m2 && cl == n2 && !row_major);
    return cquad(reg - v::kC11);
  };
  // Numeric value of a coefficient at this level's beta. The IR stores
  // coefficients as doubles (small integers); narrow to T at the point of
  // use so the whole combine runs in the element precision.
  const auto coef = [beta](const v::Coef& cf) -> T {
    return cf.s == v::Sym::beta ? static_cast<T>(cf.v) * beta
                                : static_cast<T>(cf.v);
  };
  // True for a literal +/-1 with no symbolic factor -- the coefficients the
  // fixed add/sub kernels implement. Anything else goes through axpby/axpy,
  // which resolve their own numeric special cases.
  const auto unit = [](const v::Coef& cf) {
    return cf.s == v::Sym::one && (cf.v == 1.0 || cf.v == -1.0);
  };

  for (int i = 0; i < s.nsteps; ++i) {
    const v::Step& st = s.steps[i];
    if (st.op == v::Op::mul) {
      const BasicView<const T> x = src(st.x);
      const BasicView<const T> y = src(st.y);
      assert(coef(st.bc) == T(0) || src(st.dst).col_major());
      BasicView<T> d = dst(st.dst, x.rows, y.cols, false);
      fmm(static_cast<T>(st.am) * alpha, x, y, coef(st.bc), d, ctx,
          depth + 1);
      continue;
    }
    int self = -1;
    bool row_major = st.dst >= v::kT0;
    for (int t = 0; t < st.nt; ++t) {
      if (st.t[t].reg == st.dst) self = t;
      row_major = row_major && !src(st.t[t].reg).col_major();
    }
    const BasicView<const T> s0 = src(st.t[0].reg);
    if (self >= 0) row_major = !src(st.dst).col_major();
    BasicView<T> d = dst(st.dst, s0.rows, s0.cols, row_major);
    if (self < 0) {
      if (st.nt == 1 && st.t[0].c.s == v::Sym::one && st.t[0].c.v == 1.0) {
        copy_into(s0, d);
      } else if (st.nt == 2 && unit(st.t[0].c) && unit(st.t[1].c)) {
        const BasicView<const T> s1 = src(st.t[1].reg);
        if (st.t[0].c.v == 1.0 && st.t[1].c.v == 1.0) {
          add(s0, s1, d);
        } else if (st.t[0].c.v == 1.0) {
          sub(s0, s1, d);
        } else if (st.t[1].c.v == 1.0) {
          sub(s1, s0, d);
        } else {
          axpby(T(-1), s0, T(0), d);
          axpy(T(-1), s1, d);
        }
      } else {
        axpby(coef(st.t[0].c), s0, T(0), d);
        for (int t = 1; t < st.nt; ++t) {
          axpy(coef(st.t[t].c), src(st.t[t].reg), d);
        }
      }
    } else if (st.nt == 2) {
      const v::Term& ts = st.t[self];
      const v::Term& to = st.t[1 - self];
      const BasicView<const T> x = src(to.reg);
      if (unit(ts.c) && unit(to.c)) {
        if (ts.c.v == 1.0 && to.c.v == 1.0) {
          add_inplace(d, x);
        } else if (ts.c.v == 1.0) {
          sub_inplace(d, x);
        } else if (to.c.v == 1.0) {
          rsub_inplace(d, x);
        } else {
          axpby(T(-1), x, T(-1), d);
        }
      } else {
        axpby(coef(to.c), x, coef(ts.c), d);
      }
    } else {
      // Self-referencing with 1 or 3 terms: unused by the shipped tables
      // but kept total so the interpreter handles any schedule the checker
      // accepts.
      T sc = T(0);
      for (int t = 0; t < st.nt; ++t) {
        if (t == self) sc = coef(st.t[t].c);
      }
      bool first = true;
      for (int t = 0; t < st.nt; ++t) {
        if (t == self) continue;
        if (first) {
          axpby(coef(st.t[t].c), src(st.t[t].reg), sc, d);
          first = false;
        } else {
          axpy(coef(st.t[t].c), src(st.t[t].reg), d);
        }
      }
      if (first) scale(sc, d);
    }
  }
}

namespace {

// Dispatches the even-dimensioned core to the configured schedule's
// verified IR table (verify/schedule_ir.hpp; proofs in verify/proofs.hpp).
template <class T>
void run_schedule(T alpha, BasicView<const T> a, BasicView<const T> b,
                  T beta, BasicView<T> c, CtxT<T>& ctx, int depth) {
  Scheme scheme = ctx.cfg->scheme;
  if (scheme == Scheme::automatic || scheme == Scheme::fused) {
    // Scheme::fused reaches the classic recursion only below its fusion
    // depth, where it behaves like the paper's automatic DGEFMM.
    scheme = (beta == T(0)) ? Scheme::strassen1 : Scheme::strassen2;
  }
  switch (scheme) {
    case Scheme::automatic:  // unreachable after resolution above
    case Scheme::fused:      // unreachable after resolution above
    case Scheme::strassen1:
      if (beta == T(0)) {
        run_ir_schedule(verify::kStrassen1Beta0, alpha, a, b, T(0), c, ctx,
                        depth);
      } else {
        run_ir_schedule(verify::kStrassen1General, alpha, a, b, beta, c,
                        ctx, depth);
      }
      return;
    case Scheme::strassen2:
      run_ir_schedule(verify::kStrassen2, alpha, a, b, beta, c, ctx, depth);
      return;
    case Scheme::original:
      run_original_schedule(alpha, a, b, beta, c, ctx, depth);
      return;
  }
}

}  // namespace

template <class T>
void fmm(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
         BasicView<T> c, CtxT<T>& ctx, int depth) {
  const index_t m = c.rows, n = c.cols, k = a.cols;
  assert(a.rows == m && b.rows == k && b.cols == n);
  if (m == 0 || n == 0) return;

  const bool degenerate = (m < 2 || k < 2 || n < 2);
  if (degenerate || alpha == T(0) ||
      ctx.cfg->cutoff.stop(m, k, n, depth)) {
    blas::gemm_view(alpha, a, b, beta, c);
    if (ctx.stats != nullptr) ++ctx.stats->base_gemms;
    return;
  }

  const bool odd = ((m | k | n) & 1) != 0;
  if (odd) {
    switch (ctx.cfg->odd) {
      case OddStrategy::dynamic_peeling:
        break;  // handled below
      case OddStrategy::dynamic_padding:
        pad_dynamic(alpha, a, b, beta, c, ctx, depth);
        return;
      case OddStrategy::static_padding:
        // The public driver pre-pads, so odd dimensions inside the
        // recursion mean the padded depth has been exhausted: stop.
        blas::gemm_view(alpha, a, b, beta, c);
        if (ctx.stats != nullptr) ++ctx.stats->base_gemms;
        return;
    }
  }

  if (ctx.stats != nullptr) {
    ++ctx.stats->strassen_levels;
    ctx.stats->max_depth = std::max(ctx.stats->max_depth, depth + 1);
  }

  const index_t me = m & ~index_t{1};
  const index_t ke = k & ~index_t{1};
  const index_t ne = n & ~index_t{1};
  run_schedule(alpha, a.block(0, 0, me, ke), b.block(0, 0, ke, ne), beta,
               c.block(0, 0, me, ne), ctx, depth);
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

template void fmm<double>(double, ConstView, ConstView, double, MutView,
                          CtxT<double>&, int);
template void fmm<float>(float, ConstViewF, ConstViewF, float, MutViewF,
                         CtxT<float>&, int);
template void run_ir_schedule<double>(const verify::Schedule&, double,
                                      ConstView, ConstView, double, MutView,
                                      CtxT<double>&, int);
template void run_ir_schedule<float>(const verify::Schedule&, float,
                                     ConstViewF, ConstViewF, float, MutViewF,
                                     CtxT<float>&, int);

}  // namespace strassen::core::detail
