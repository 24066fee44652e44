#include "core/peeling.hpp"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "blas/level1.hpp"
#include "blas/level2.hpp"
#include "core/add_kernels.hpp"
#include "support/opcount.hpp"

namespace strassen::core {

namespace {

// The arithmetic of one GEMV fix-up y <- alpha * V x + beta * y. Each form
// fixes every y_i's operation sequence; the storage orientation of V only
// decides which loop order streams it unit-stride.
enum class GemvForm {
  axpy,  // DGEMV 'N': y_i += (alpha*x_j) * V(i,j) for j in order, terms
         // with alpha*x_j == 0 skipped
  dot,   // DGEMV 'T': y_i += alpha * (V(i,:) . x), the dot summed in order
};

// y_i <- beta*y_i exactly as DGEMV scales y before accumulating.
template <class T>
void scale_y(T beta, T* y, index_t incy, index_t i0, index_t i1) {
  if (beta == T(1)) return;
  for (index_t i = i0; i < i1; ++i) {
    y[i * incy] = beta == T(0) ? T(0) : y[i * incy] * beta;
  }
}

// The axpy form over a row-major V (V(i,j) = v.p[i*v.rs + j]): each row is
// one unit-stride sweep, four rows at a time for independent chains.
template <class T>
void axpy_form_rows(T alpha, BasicView<const T> v, const T* x, index_t incx,
                    T* y, index_t incy, index_t i0, index_t i1) {
  constexpr index_t kRows = 4;
  for (index_t ib = i0; ib < i1; ib += kRows) {
    const index_t rb = std::min(kRows, i1 - ib);
    T acc[kRows] = {};
    for (index_t r = 0; r < rb; ++r) acc[r] = y[(ib + r) * incy];
    for (index_t j = 0; j < v.cols; ++j) {
      const T s = alpha * x[j * incx];
      if (s == T(0)) continue;
      for (index_t r = 0; r < rb; ++r) acc[r] += s * v.p[(ib + r) * v.rs + j];
    }
    for (index_t r = 0; r < rb; ++r) y[(ib + r) * incy] = acc[r];
  }
}

// The dot form over a column-major V (V(i,j) = v.p[i + j*v.cs]): one
// running sum per row of a block, swept down the columns.
template <class T>
void dot_form_cols(T alpha, BasicView<const T> v, const T* x, index_t incx,
                   T* y, index_t incy, index_t i0, index_t i1) {
  constexpr index_t kRows = 256;
  T sum[kRows];
  for (index_t ib = i0; ib < i1; ib += kRows) {
    const index_t rb = std::min(kRows, i1 - ib);
    for (index_t r = 0; r < rb; ++r) sum[r] = T(0);
    for (index_t j = 0; j < v.cols; ++j) {
      const T xj = x[j * incx];
      const T* col = v.p + ib + j * v.cs;
      for (index_t r = 0; r < rb; ++r) sum[r] += col[r] * xj;
    }
    for (index_t r = 0; r < rb; ++r) y[(ib + r) * incy] += alpha * sum[r];
  }
}

// y <- alpha * V x + beta * y in the given form, split by entries of y over
// the pool (for_pass_ranges). Each range runs its rows with the serial
// arithmetic -- DGEMV itself where the form matches V's storage -- so the
// result is bitwise independent of the split. Records one GEMV.
template <class T>
void gemv_fixup(GemvForm form, T alpha, BasicView<const T> v, const T* x,
                index_t incx, T beta, T* y, index_t incy) {
  assert(v.col_major() || v.row_major());
  const index_t rows = v.rows, cols = v.cols;
  if (rows == 0) return;
  const count_t elems = static_cast<count_t>(rows) * cols;
  for_pass_ranges(rows, elems, [&](index_t i0, index_t i1) {
    if (form == GemvForm::axpy && v.col_major()) {
      blas::detail::gemv_uncounted<T>(Trans::no, i1 - i0, cols, alpha,
                                      v.p + i0, v.cs, x, incx, beta,
                                      y + i0 * incy, incy);
    } else if (form == GemvForm::dot && v.row_major()) {
      blas::detail::gemv_uncounted<T>(Trans::transpose, cols, i1 - i0, alpha,
                                      v.p + i0 * v.rs, v.rs, x, incx, beta,
                                      y + i0 * incy, incy);
    } else {
      scale_y(beta, y, incy, i0, i1);
      if (alpha == T(0) || cols == 0) return;
      if (form == GemvForm::axpy) {
        axpy_form_rows(alpha, v, x, incx, y, incy, i0, i1);
      } else {
        dot_form_cols(alpha, v, x, incx, y, incy, i0, i1);
      }
    }
  });
  if (alpha != T(0) && cols > 0) opcount::record_gemv(rows, cols);
}

template <class T>
int peel_fixups_t(T alpha, BasicView<const T> a, BasicView<const T> b,
                  T beta, BasicView<T> c, index_t me, index_t ke, index_t ne,
                  bool a_temp, bool b_temp) {
  const index_t m = c.rows, n = c.cols, k = a.cols;
  assert(a.rows == m && b.rows == k && b.cols == n);
  assert(me == m || me == m - 1);
  assert(ke == k || ke == k - 1);
  assert(ne == n || ne == n - 1);
  assert(c.col_major());
  int fixups = 0;

  // Odd k: C(0:me, 0:ne) += alpha * A(:, k-1) * B(k-1, :), a rank-1 update
  // on the block that the even core already produced (so beta has been
  // applied there). Split by columns of C.
  if (ke < k && me > 0 && ne > 0) {
    const T* x = &a(0, ke);
    const T* y = &b(ke, 0);
    for_pass_ranges(ne, static_cast<count_t>(me) * ne,
                    [&](index_t j0, index_t j1) {
                      blas::detail::ger_uncounted<T>(
                          me, j1 - j0, alpha, x, a.rs, y + j0 * b.cs, b.cs,
                          c.p + j0 * c.cs, c.cs);
                    });
    if (alpha != T(0)) opcount::record_ger(me, ne);
    ++fixups;
  }

  // The GEMV form of each operand follows its storage orientation as the
  // caller passed it: DGEMV 'N' over a column-major A, 'T' over a row-major
  // one. Workspace temporaries keep the column-major form whatever their
  // orientation (run_ir_schedule writes the sums of a transposed operand
  // row-major), so C's bits never depend on how a temporary is stored.
  const GemvForm a_form =
      (a_temp || a.col_major()) ? GemvForm::axpy : GemvForm::dot;
  const GemvForm bt_form =
      (!b_temp && b.row_major()) ? GemvForm::axpy : GemvForm::dot;

  // Odd n: last column of C over the FULL inner dimension k (eq. 9 combines
  // A11*b12 + a12*b22 into one matrix-vector product).
  if (ne < n && me > 0) {
    gemv_fixup<T>(a_form, alpha, a.block(0, 0, me, k), &b(0, ne), b.rs, beta,
                  &c(0, ne), c.rs);
    ++fixups;
  }

  // Odd m: last row of C over the full k: c21 = alpha * a_row * B(:, 0:ne).
  if (me < m && ne > 0) {
    gemv_fixup<T>(bt_form, alpha, b.block(0, 0, k, ne).transposed(),
                  &a(me, 0), a.cs, beta, &c(me, 0), c.cs);
    ++fixups;
  }

  // Odd m and n: the corner element.
  if (me < m && ne < n) {
    T dot;
    if constexpr (std::is_same_v<T, float>) {
      dot = blas::sdot(k, &a(me, 0), a.cs, &b(0, ne), b.rs);
    } else {
      dot = blas::ddot(k, &a(me, 0), a.cs, &b(0, ne), b.rs);
    }
    c(me, ne) = alpha * dot + (beta == T(0) ? T(0) : beta * c(me, ne));
    if (opcount::enabled()) {
      opcount::record_gemv(1, k);  // k multiplies + k adds, close enough
    }
    ++fixups;
  }
  return fixups;
}

}  // namespace

int peel_fixups(double alpha, ConstView a, ConstView b, double beta, MutView c,
                index_t me, index_t ke, index_t ne, bool a_temp,
                bool b_temp) {
  return peel_fixups_t<double>(alpha, a, b, beta, c, me, ke, ne, a_temp,
                               b_temp);
}

int peel_fixups(float alpha, ConstViewF a, ConstViewF b, float beta,
                MutViewF c, index_t me, index_t ke, index_t ne, bool a_temp,
                bool b_temp) {
  return peel_fixups_t<float>(alpha, a, b, beta, c, me, ke, ne, a_temp,
                              b_temp);
}

}  // namespace strassen::core
