#include "blas/level2.hpp"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "blas/level1.hpp"
#include "support/opcount.hpp"

namespace strassen::blas {

namespace detail {

template <class T>
void gemv_uncounted(Trans trans, index_t m, index_t n, T alpha, const T* a,
                    index_t lda, const T* x, index_t incx, T beta, T* y,
                    index_t incy) {
  assert(m >= 0 && n >= 0 && lda >= (m > 0 ? m : 1));
  const index_t ylen = is_trans(trans) ? n : m;
  if (ylen == 0) return;

  if (beta == T(0)) {
    for (index_t i = 0; i < ylen; ++i) y[i * incy] = T(0);
  } else if (beta != T(1)) {
    if constexpr (std::is_same_v<T, float>) {
      sscal(ylen, beta, y, incy);
    } else {
      dscal(ylen, beta, y, incy);
    }
  }
  if (alpha == T(0) || m == 0 || n == 0) return;

  if (!is_trans(trans)) {
    // y += alpha * A x: accumulate columns of A scaled by x.
    for (index_t j = 0; j < n; ++j) {
      if constexpr (std::is_same_v<T, float>) {
        saxpy(m, alpha * x[j * incx], a + j * lda, 1, y, incy);
      } else {
        daxpy(m, alpha * x[j * incx], a + j * lda, 1, y, incy);
      }
    }
  } else {
    // y_j += alpha * (A(:,j) . x).
    for (index_t j = 0; j < n; ++j) {
      if constexpr (std::is_same_v<T, float>) {
        y[j * incy] += alpha * sdot(m, a + j * lda, 1, x, incx);
      } else {
        y[j * incy] += alpha * ddot(m, a + j * lda, 1, x, incx);
      }
    }
  }
}

template <class T>
void ger_uncounted(index_t m, index_t n, T alpha, const T* x, index_t incx,
                   const T* y, index_t incy, T* a, index_t lda) {
  assert(m >= 0 && n >= 0 && lda >= (m > 0 ? m : 1));
  if (m == 0 || n == 0 || alpha == T(0)) return;
  // Row blocks of x, each swept across every column. A strided x (a row of
  // a transposed operand) puts each element on its own page, so it is
  // gathered once per block into a stack array instead of being reread for
  // every column. Each a(i,j) takes the one AXPY update
  // a(i,j) += (alpha*y_j) * x_i, skipped where alpha*y_j == 0 as AXPY does.
  constexpr index_t kRows = 512;
  T xb[kRows];
  for (index_t i0 = 0; i0 < m; i0 += kRows) {
    const index_t mb = std::min(kRows, m - i0);
    const T* xs = x + i0;
    if (incx != 1) {
      for (index_t i = 0; i < mb; ++i) xb[i] = x[(i0 + i) * incx];
      xs = xb;
    }
    for (index_t j = 0; j < n; ++j) {
      const T s = alpha * y[j * incy];
      if (s == T(0)) continue;
      T* aj = a + i0 + j * lda;
      for (index_t i = 0; i < mb; ++i) aj[i] += s * xs[i];
    }
  }
}

template void gemv_uncounted<double>(Trans, index_t, index_t, double,
                                     const double*, index_t, const double*,
                                     index_t, double, double*, index_t);
template void gemv_uncounted<float>(Trans, index_t, index_t, float,
                                    const float*, index_t, const float*,
                                    index_t, float, float*, index_t);
template void ger_uncounted<double>(index_t, index_t, double, const double*,
                                    index_t, const double*, index_t, double*,
                                    index_t);
template void ger_uncounted<float>(index_t, index_t, float, const float*,
                                   index_t, const float*, index_t, float*,
                                   index_t);

}  // namespace detail

namespace {

template <class T>
void gemv_t(Trans trans, index_t m, index_t n, T alpha, const T* a,
            index_t lda, const T* x, index_t incx, T beta, T* y,
            index_t incy) {
  detail::gemv_uncounted<T>(trans, m, n, alpha, a, lda, x, incx, beta, y,
                            incy);
  if ((is_trans(trans) ? n : m) > 0 && alpha != T(0) && m > 0 && n > 0) {
    opcount::record_gemv(m, n);
  }
}

template <class T>
void ger_t(index_t m, index_t n, T alpha, const T* x, index_t incx,
           const T* y, index_t incy, T* a, index_t lda) {
  detail::ger_uncounted<T>(m, n, alpha, x, incx, y, incy, a, lda);
  if (m > 0 && n > 0 && alpha != T(0)) opcount::record_ger(m, n);
}

}  // namespace

void dgemv(Trans trans, index_t m, index_t n, double alpha, const double* a,
           index_t lda, const double* x, index_t incx, double beta, double* y,
           index_t incy) {
  gemv_t<double>(trans, m, n, alpha, a, lda, x, incx, beta, y, incy);
}

void sgemv(Trans trans, index_t m, index_t n, float alpha, const float* a,
           index_t lda, const float* x, index_t incx, float beta, float* y,
           index_t incy) {
  gemv_t<float>(trans, m, n, alpha, a, lda, x, incx, beta, y, incy);
}

void dger(index_t m, index_t n, double alpha, const double* x, index_t incx,
          const double* y, index_t incy, double* a, index_t lda) {
  ger_t<double>(m, n, alpha, x, incx, y, incy, a, lda);
}

void sger(index_t m, index_t n, float alpha, const float* x, index_t incx,
          const float* y, index_t incy, float* a, index_t lda) {
  ger_t<float>(m, n, alpha, x, incx, y, incy, a, lda);
}

}  // namespace strassen::blas
