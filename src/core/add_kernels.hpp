// Elementwise matrix kernels used by the Strassen schedules.
//
// These are the G(m,n)-cost passes of the operation-count model: each call
// makes exactly one pass over its operands. Destinations are always plain
// column-major (workspace temporaries or quadrants of C); sources may be
// transposed views so that op(A)/op(B) never require a physical transpose.
// Each routine is a double/float overload pair over one shared template, so
// both precisions run identical passes through the active kernel family's
// vector helpers. Large passes split by column over the global thread pool
// under the calling thread's gemm-thread setting (blas::intra_op_tasks,
// the packed loop's resolution); every element keeps its serial
// arithmetic, so results are bitwise independent of the split. Callers in
// a no-fail region must have resolved that setting in their pre-flight
// (which constructs the pool).
#pragma once

#include "support/matrix.hpp"

namespace strassen::core {

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
