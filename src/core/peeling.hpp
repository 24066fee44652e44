// Dynamic peeling for odd dimensions (Section 3.3 and eq. 9 of the paper).
//
// When any of m, k, n is odd, the last row/column is stripped so that
// Strassen's construction applies to the even-dimensioned core, and the
// stripped pieces contribute through three fix-up steps:
//   * odd k: a rank-one update  C11 += alpha * a_,k-1 * b_k-1,_  (DGER),
//   * odd n: a matrix-vector product for the last column of C     (DGEMV),
//   * odd m: a vector-matrix product for the last row of C        (DGEMV),
//   * odd m and n: a dot product for the corner element           (DDOT).
// No extra workspace is required -- the paper's key argument for peeling
// over padding. Each routine is a double/float overload pair over one
// shared implementation; the float forms dispatch to SGER/SGEMV/SDOT.
#pragma once

#include "support/config.hpp"
#include "support/matrix.hpp"

namespace strassen::core {

/// Applies the peeling fix-ups for C = alpha*A*B + beta*C where the
/// (me x ke x ne) even core has already been computed into C(0:me, 0:ne)
/// (including its beta contribution). A is m x k, B is k x n, C is m x n
/// logical views; me = m or m-1, etc. a_temp / b_temp mark an operand that
/// is a workspace temporary: its GEMV fix-up keeps the arithmetic of a
/// column-major operand whatever the temporary's storage orientation, so
/// C's bits do not depend on how the schedules store their sums.
///
/// Each fix-up is split over independent output ranges on the global pool
/// (the DGER by columns of C, each DGEMV by entries of y) under the calling
/// thread's gemm-thread setting, gated like the quadrant adds; every
/// element keeps its serial arithmetic, so C is bitwise independent of the
/// split. A caller in a no-fail region must have built the pool in its
/// pre-flight (max_pass_tasks over the largest operand).
///
/// Returns the number of fix-up operations performed (0 when all dimensions
/// were already even).
int peel_fixups(double alpha, ConstView a, ConstView b, double beta, MutView c,
                index_t me, index_t ke, index_t ne, bool a_temp = false,
                bool b_temp = false);
int peel_fixups(float alpha, ConstViewF a, ConstViewF b, float beta,
                MutViewF c, index_t me, index_t ke, index_t ne,
                bool a_temp = false, bool b_temp = false);

}  // namespace strassen::core
