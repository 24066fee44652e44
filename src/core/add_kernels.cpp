#include "core/add_kernels.hpp"

#include <cassert>

#include "blas/kernels.hpp"
#include "support/opcount.hpp"

namespace strassen::core {

namespace {

template <class T>
count_t elems(BasicView<T> d) {
  return static_cast<count_t>(d.rows) * d.cols;
}

// Applies `op(d_elem, x_elem, y_elem)` over all elements: the strided
// fallback for sources whose orientation differs from the destination's
// (the padding copies of a transposed operand). The destination is
// required to be column-major so the inner loop is unit-stride on d.
template <class T, class F>
void zip2(BasicView<const T> x, BasicView<const T> y, BasicView<T> d,
          F&& op) {
  assert(x.rows == d.rows && x.cols == d.cols);
  assert(y.rows == d.rows && y.cols == d.cols);
  assert(d.col_major());
  for_pass_ranges(d.cols, elems(d), [&](index_t j0, index_t j1) {
    for (index_t j = j0; j < j1; ++j) {
      T* dj = d.p + j * d.cs;
      const T* xj = x.p + j * x.cs;
      const T* yj = y.p + j * y.cs;
      for (index_t i = 0; i < d.rows; ++i) {
        dj[i] = op(xj[i * x.rs], yj[i * y.rs]);
      }
    }
  });
}

template <class T, class F>
void zip1(BasicView<T> d, BasicView<const T> x, F&& op) {
  assert(x.rows == d.rows && x.cols == d.cols);
  assert(d.col_major());
  for_pass_ranges(d.cols, elems(d), [&](index_t j0, index_t j1) {
    for (index_t j = j0; j < j1; ++j) {
      T* dj = d.p + j * d.cs;
      const T* xj = x.p + j * x.cs;
      for (index_t i = 0; i < d.rows; ++i) {
        dj[i] = op(dj[i], xj[i * x.rs]);
      }
    }
  });
}

// Columnwise dispatch through the active micro-kernel's contiguous vector
// helpers (blas/kernels.hpp). Callers check that every operand column is
// unit-stride before routing here; mixed-orientation passes (rs != 1) take
// the zip fallbacks above. The helpers live in the ISA-specific kernel
// TUs, so the combines run at the same vector width as the GEMM itself.
template <class T, class F>
void cols2(BasicView<const T> x, BasicView<const T> y, BasicView<T> d,
           F&& col) {
  assert(x.rows == d.rows && x.cols == d.cols);
  assert(y.rows == d.rows && y.cols == d.cols);
  assert(d.col_major());
  for_pass_ranges(d.cols, elems(d), [&](index_t j0, index_t j1) {
    for (index_t j = j0; j < j1; ++j) {
      col(x.p + j * x.cs, y.p + j * y.cs, d.p + j * d.cs, d.rows);
    }
  });
}

template <class T, class F>
void cols1(BasicView<T> d, BasicView<const T> x, F&& col) {
  assert(x.rows == d.rows && x.cols == d.cols);
  assert(d.col_major());
  for_pass_ranges(d.cols, elems(d), [&](index_t j0, index_t j1) {
    for (index_t j = j0; j < j1; ++j) {
      col(x.p + j * x.cs, d.p + j * d.cs, d.rows);
    }
  });
}

// Every pass below first transposes all of its views when d is row-major
// (the transpose of a column-major d over the same storage), so it always
// runs down d's storage order: a row-major d with row-major sources (the
// Strassen sums of a transposed operand) reaches the unit-stride vector
// helpers.
template <class T>
void add_t(BasicView<const T> x, BasicView<const T> y, BasicView<T> d) {
  if (!d.col_major()) {
    add_t<T>(x.transposed(), y.transposed(), d.transposed());
    return;
  }
  if (x.rs == 1 && y.rs == 1) {
    const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
    cols2<T>(x, y, d, [&](const T* xc, const T* yc, T* dc, index_t n) {
      kv.vadd(xc, yc, dc, n);
    });
  } else {
    zip2<T>(x, y, d, [](T a, T b) { return a + b; });
  }
  opcount::record_add(elems(d));
}

template <class T>
void sub_t(BasicView<const T> x, BasicView<const T> y, BasicView<T> d) {
  if (!d.col_major()) {
    sub_t<T>(x.transposed(), y.transposed(), d.transposed());
    return;
  }
  if (x.rs == 1 && y.rs == 1) {
    const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
    cols2<T>(x, y, d, [&](const T* xc, const T* yc, T* dc, index_t n) {
      kv.vsub(xc, yc, dc, n);
    });
  } else {
    zip2<T>(x, y, d, [](T a, T b) { return a - b; });
  }
  opcount::record_add(elems(d));
}

template <class T>
void add_inplace_t(BasicView<T> d, BasicView<const T> x) {
  if (!d.col_major()) {
    add_inplace_t<T>(d.transposed(), x.transposed());
    return;
  }
  if (x.rs == 1) {
    const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
    cols1<T>(d, x, [&](const T* xc, T* dc, index_t n) {
      kv.vaxpby(T(1), xc, T(1), dc, n);
    });
  } else {
    zip1<T>(d, x, [](T dv, T xv) { return dv + xv; });
  }
  opcount::record_add(elems(d));
}

template <class T>
void sub_inplace_t(BasicView<T> d, BasicView<const T> x) {
  if (!d.col_major()) {
    sub_inplace_t<T>(d.transposed(), x.transposed());
    return;
  }
  if (x.rs == 1) {
    const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
    cols1<T>(d, x, [&](const T* xc, T* dc, index_t n) {
      kv.vaxpby(T(-1), xc, T(1), dc, n);
    });
  } else {
    zip1<T>(d, x, [](T dv, T xv) { return dv - xv; });
  }
  opcount::record_add(elems(d));
}

template <class T>
void rsub_inplace_t(BasicView<T> d, BasicView<const T> x) {
  if (!d.col_major()) {
    rsub_inplace_t<T>(d.transposed(), x.transposed());
    return;
  }
  if (x.rs == 1) {
    const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
    cols1<T>(d, x, [&](const T* xc, T* dc, index_t n) {
      kv.vaxpby(T(1), xc, T(-1), dc, n);
    });
  } else {
    zip1<T>(d, x, [](T dv, T xv) { return xv - dv; });
  }
  opcount::record_add(elems(d));
}

template <class T>
void copy_into_t(BasicView<const T> x, BasicView<T> d) {
  if (!d.col_major()) {
    copy_into_t<T>(x.transposed(), d.transposed());
    return;
  }
  // vaxpby with b == 0 never reads d, so this is safe even when d is
  // uninitialized arena storage.
  if (x.rs == 1) {
    const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
    cols1<T>(d, x, [&](const T* xc, T* dc, index_t n) {
      kv.vaxpby(T(1), xc, T(0), dc, n);
    });
  } else {
    zip1<T>(d, x, [](T, T xv) { return xv; });
  }
}

template <class T>
void axpy_t(T a, BasicView<const T> x, BasicView<T> d) {
  if (!d.col_major()) {
    axpy_t<T>(a, x.transposed(), d.transposed());
    return;
  }
  if (a == T(0)) return;
  if (a == T(1)) {
    add_inplace_t<T>(d, x);
    return;
  }
  if (a == T(-1)) {
    sub_inplace_t<T>(d, x);
    return;
  }
  if (x.rs == 1) {
    const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
    cols1<T>(d, x, [&](const T* xc, T* dc, index_t n) {
      kv.vaxpby(a, xc, T(1), dc, n);
    });
  } else {
    zip1<T>(d, x, [a](T dv, T xv) { return dv + a * xv; });
  }
  opcount::record_scale(elems(d));
  opcount::record_add(elems(d));
}

template <class T>
void scale_t(T b, BasicView<T> d) {
  if (!d.col_major()) {
    scale_t<T>(b, d.transposed());
    return;
  }
  if (b == T(1)) return;
  for_pass_ranges(d.cols, elems(d), [&](index_t j0, index_t j1) {
    for (index_t j = j0; j < j1; ++j) {
      T* dj = d.p + j * d.cs;
      if (b == T(0)) {
        for (index_t i = 0; i < d.rows; ++i) dj[i] = T(0);
      } else {
        for (index_t i = 0; i < d.rows; ++i) dj[i] *= b;
      }
    }
  });
  if (b != T(0)) opcount::record_scale(elems(d));
}

template <class T>
void axpby_t(T a, BasicView<const T> x, T b, BasicView<T> d) {
  if (!d.col_major()) {
    axpby_t<T>(a, x.transposed(), b, d.transposed());
    return;
  }
  if (b == T(0)) {
    if (a == T(1)) {
      copy_into_t<T>(x, d);
    } else if (x.rs == 1) {
      const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
      cols1<T>(d, x, [&](const T* xc, T* dc, index_t n) {
        kv.vaxpby(a, xc, T(0), dc, n);
      });
      opcount::record_scale(elems(d));
    } else {
      zip1<T>(d, x, [a](T, T xv) { return a * xv; });
      opcount::record_scale(elems(d));
    }
    return;
  }
  if (a == T(1) && b == T(1)) {
    add_inplace_t<T>(d, x);
    return;
  }
  if (x.rs == 1) {
    const blas::KernelInfoT<T>& kv = blas::active_kernel_t<T>();
    cols1<T>(d, x, [&](const T* xc, T* dc, index_t n) {
      kv.vaxpby(a, xc, b, dc, n);
    });
  } else {
    zip1<T>(d, x, [a, b](T dv, T xv) { return a * xv + b * dv; });
  }
  if (a != T(1)) opcount::record_scale(elems(d));
  if (b != T(1)) opcount::record_scale(elems(d));
  opcount::record_add(elems(d));
}

}  // namespace

int max_pass_tasks(count_t n) {
  // for_pass_ranges splits a pass over `n` elements at most this
  // wide (its column clamp only narrows it).
  return blas::intra_op_tasks(n / kMinPassElems);
}

void add(ConstView x, ConstView y, MutView d) { add_t<double>(x, y, d); }
void add(ConstViewF x, ConstViewF y, MutViewF d) { add_t<float>(x, y, d); }

void sub(ConstView x, ConstView y, MutView d) { sub_t<double>(x, y, d); }
void sub(ConstViewF x, ConstViewF y, MutViewF d) { sub_t<float>(x, y, d); }

void add_inplace(MutView d, ConstView x) { add_inplace_t<double>(d, x); }
void add_inplace(MutViewF d, ConstViewF x) { add_inplace_t<float>(d, x); }

void sub_inplace(MutView d, ConstView x) { sub_inplace_t<double>(d, x); }
void sub_inplace(MutViewF d, ConstViewF x) { sub_inplace_t<float>(d, x); }

void rsub_inplace(MutView d, ConstView x) { rsub_inplace_t<double>(d, x); }
void rsub_inplace(MutViewF d, ConstViewF x) { rsub_inplace_t<float>(d, x); }

void copy_into(ConstView x, MutView d) { copy_into_t<double>(x, d); }
void copy_into(ConstViewF x, MutViewF d) { copy_into_t<float>(x, d); }

void axpy(double a, ConstView x, MutView d) { axpy_t<double>(a, x, d); }
void axpy(float a, ConstViewF x, MutViewF d) { axpy_t<float>(a, x, d); }

void scale(double b, MutView d) { scale_t<double>(b, d); }
void scale(float b, MutViewF d) { scale_t<float>(b, d); }

void axpby(double a, ConstView x, double b, MutView d) {
  axpby_t<double>(a, x, b, d);
}
void axpby(float a, ConstViewF x, float b, MutViewF d) {
  axpby_t<float>(a, x, b, d);
}

}  // namespace strassen::core
