// Level 2 BLAS subset (matrix-vector operations).
//
// DGEMV and DGER are exactly the routines the paper's dynamic-peeling
// fix-up steps call (Section 3.3): a rank-one update for an odd inner
// dimension and matrix-vector products for odd outer dimensions.
#pragma once

#include "support/config.hpp"

namespace strassen::blas {

/// y <- alpha * op(A) * x + beta * y, with A column-major m x n, ld >= m.
/// op(A) is A when trans == Trans::no (y has m elements, x has n) and A^T
/// otherwise (y has n elements, x has m).
void dgemv(Trans trans, index_t m, index_t n, double alpha, const double* a,
           index_t lda, const double* x, index_t incx, double beta, double* y,
           index_t incy);
void sgemv(Trans trans, index_t m, index_t n, float alpha, const float* a,
           index_t lda, const float* x, index_t incx, float beta, float* y,
           index_t incy);

/// A <- alpha * x * y^T + A, with A column-major m x n.
void dger(index_t m, index_t n, double alpha, const double* x, index_t incx,
          const double* y, index_t incy, double* a, index_t lda);
void sger(index_t m, index_t n, float alpha, const float* x, index_t incx,
          const float* y, index_t incy, float* a, index_t lda);

namespace detail {

/// The xGEMV and xGER arithmetic without their opcount record, for callers
/// that split one logical call into independent output ranges and record
/// it once themselves (the counters are plain globals, so recording from
/// pool tasks would race). Instantiated for double and float.
template <class T>
void gemv_uncounted(Trans trans, index_t m, index_t n, T alpha, const T* a,
                    index_t lda, const T* x, index_t incx, T beta, T* y,
                    index_t incy);
template <class T>
void ger_uncounted(index_t m, index_t n, T alpha, const T* x, index_t incx,
                   const T* y, index_t incy, T* a, index_t lda);

}  // namespace detail

}  // namespace strassen::blas
