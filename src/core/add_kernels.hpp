// Elementwise matrix kernels used by the Strassen schedules.
//
// These are the G(m,n)-cost passes of the operation-count model: each call
// makes exactly one pass over its operands. Destinations are column-major
// (quadrants of C, product temporaries) or row-major (the sums of a
// transposed operand); sources may be transposed views so that op(A)/op(B)
// never require a physical transpose. A pass runs down its destination's
// storage order, so it is unit-stride whenever every source shares the
// destination's orientation; only mixed-orientation passes (the padding
// copies) take a strided fallback. Each routine is a double/float overload
// pair over one shared template, so both precisions run identical passes
// through the active kernel family's vector helpers. Large passes split by
// column (of the destination's storage) over the global thread pool
// under the calling thread's gemm-thread setting (blas::intra_op_tasks,
// the packed loop's resolution); every element keeps its serial
// arithmetic, so results are bitwise independent of the split. Callers in
// a no-fail region must have resolved that setting in their pre-flight
// (which constructs the pool).
#pragma once

#include <algorithm>

#include "blas/packed_loop.hpp"
#include "support/matrix.hpp"
#include "support/thread_pool.hpp"

namespace strassen::core {

/// Smallest per-task share of one memory-bound pass worth a fan-out, in
/// elements. Measured on a 4-vCPU AVX-512 Xeon by timing cache-resident
/// square add passes with the gate removed at 1, 2 and 4 tasks: a batch
/// costs 15-25 us, so splitting 2^16 elements runs at 0.6-0.7x of serial,
/// 2^16.5 at 1.4-1.6x and 2^17 at 2.2-2.6x. 2^15 per task first splits at
/// 2^16, which leaves the loss band narrow and errs toward splitting the
/// quadrant operands that come from memory.
inline constexpr count_t kMinPassElems = count_t{1} << 15;

/// Runs body(lo, hi) over contiguous ranges covering [0, units) of a pass
/// over `elems` elements: on the calling thread for small passes,
/// otherwise fanned out over the global pool (blas::intra_op_tasks, the
/// packed loop's resolution of the calling thread's gemm-thread setting).
/// Callers split along independent output ranges and compute every
/// element with the serial arithmetic, so results are bitwise independent
/// of the split; opcount recording stays with the caller (the counters
/// are plain globals).
template <class F>
void for_pass_ranges(index_t units, count_t elems, F&& body) {
  const int nt =
      blas::intra_op_tasks(std::min<count_t>(units, elems / kMinPassElems));
  if (nt <= 1) {
    body(index_t{0}, units);
    return;
  }
  parallel::run_ranges_nofail(parallel::global_pool(), units, 1, nt, body);
}

/// Widest column split any elementwise pass over at most `elems` elements
/// can take under the calling thread's gemm-thread setting. Like the
/// passes, it constructs the global pool when it resolves to two or more
/// tasks, so a pre-flight calls it with the largest pass its compute phase
/// will make.
int max_pass_tasks(count_t elems);

/// d = x + y.
void add(ConstView x, ConstView y, MutView d);
void add(ConstViewF x, ConstViewF y, MutViewF d);

/// d = x - y.
void sub(ConstView x, ConstView y, MutView d);
void sub(ConstViewF x, ConstViewF y, MutViewF d);

/// d += x.
void add_inplace(MutView d, ConstView x);
void add_inplace(MutViewF d, ConstViewF x);

/// d -= x.
void sub_inplace(MutView d, ConstView x);
void sub_inplace(MutViewF d, ConstViewF x);

/// d = x - d.
void rsub_inplace(MutView d, ConstView x);
void rsub_inplace(MutViewF d, ConstViewF x);

/// d = x (data movement only; zero cost in the op-count model).
void copy_into(ConstView x, MutView d);
void copy_into(ConstViewF x, MutViewF d);

/// d = a*x + b*d (general accumulate used by the STRASSEN2 schedule to fold
/// beta*C into the result).
void axpby(double a, ConstView x, double b, MutView d);
void axpby(float a, ConstViewF x, float b, MutViewF d);

/// d += a*x.
void axpy(double a, ConstView x, MutView d);
void axpy(float a, ConstViewF x, MutViewF d);

/// d = b*d (b == 0 assigns zero, overwriting NaNs per the BLAS convention).
void scale(double b, MutView d);
void scale(float b, MutViewF d);

}  // namespace strassen::core
