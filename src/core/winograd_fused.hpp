// Packing-fused Strassen schedule built on the blas::packed_gemm_multi
// skeleton (see src/blas/packed_loop.hpp and DESIGN.md section 6).
//
// The classic schedules in winograd.cpp spend every operand sum (S/T) and
// every product accumulation (U) as a separate memory pass through arena
// temporaries. The fused schedule instead expresses the top one or two
// recursion levels with Strassen's original seven-product form, where each
// product is
//
//     M = (gamma_1 A_q1 + gamma_2 A_q2) (gamma_1' B_q1 + gamma_2' B_q2),
//     C_q += +/- alpha M   for one or two quadrants of C,
//
// i.e. exactly one packed-GEMM call whose *packing* forms the operand sums
// and whose *epilogue* scatters the accumulator into the destination
// quadrants. No S/T/product temporaries exist at fused levels, so those
// levels allocate zero arena workspace. Composing the form with itself
// yields the two-level variant: 49 products with up to four packing terms
// and four destinations each -- the limits the skeleton supports.
//
// Below the fusion depth (when the cutoff still wants recursion at the
// leaf dimensions) each leaf materializes its operand combinations into
// arena temporaries and continues with the classic schedules, so deep
// problems keep their Strassen arithmetic savings.
//
// Like the classic recursion, everything is templated on the element type;
// the float instantiation drives the float pack/kernel tables of the same
// skeleton.
#pragma once

#include "core/winograd.hpp"

namespace strassen::core::detail {

/// Fused counterpart of fmm: C <- alpha*A*B + beta*C with the top level(s)
/// executed as fused packed-GEMM calls. Odd dimensions are dynamically
/// peeled (cfg.odd only affects the classic recursion below the fusion).
template <class T>
void fmm_fused(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
               BasicView<T> c, CtxT<T>& ctx, int depth);

extern template void fmm_fused<double>(double, ConstView, ConstView, double,
                                       MutView, CtxT<double>&, int);
extern template void fmm_fused<float>(float, ConstViewF, ConstViewF, float,
                                      MutViewF, CtxT<float>&, int);

/// Exact arena elements one fused leaf product allocates at peak when the
/// cutoff still wants recursion at its dimensions: the two materialized
/// operand combinations, the product temporary, and the classic recursion
/// below. The count is in elements of the configuration's precision
/// (identical for both: the recursion allocates by shape, never by byte
/// size).
count_t fused_product_workspace(index_t m, index_t k, index_t n,
                                const DgefmmConfig& cfg, int depth);

/// Exact arena elements the packed-panel cache slab of one fmm_fused call
/// occupies (0 when the cache is off, the leaves recurse classically, or
/// no leaf spans multiple GEMM column strips). Unlike the rest of the
/// workspace math this is element-type specific: the slab holds packed
/// micro-panels shaped by T's active kernel and blocking. fmm_fused carves
/// exactly this amount, so the workspace predictors that add it keep
/// prediction == peak.
template <class T>
count_t fused_cache_elements(index_t m, index_t k, index_t n,
                             const GefmmConfigT<T>& cfg, int depth);

extern template count_t fused_cache_elements<double>(index_t, index_t,
                                                     index_t,
                                                     const DgefmmConfig&,
                                                     int);
extern template count_t fused_cache_elements<float>(index_t, index_t, index_t,
                                                    const SgefmmConfig&, int);

}  // namespace strassen::core::detail
