// Closed-form acquisition counts for the fault-injection sweeps
// (DESIGN.md section 7, "Counting the acquisitions").
//
// A sweep fails the Nth fallible acquisition of one call for every N. It
// learns how many there are from a disarmed census (faultinject::
// begin_census / end_census) of the call, asserts that count against the
// closed forms below, then sweeps N = 1..count+1 and requires the last run
// to be clean. Every driver is swept twice:
//
//  * steady state: the census and every swept call run after a warm-up
//    call, so the calling thread's pack scratch and the per-worker warm
//    pass (which runs once per blocking) are behind them;
//  * cold: before the census and before every swept call the pack scratch
//    of the calling thread and of every pool worker is released
//    (release_all_pack_scratch), so the pre-flight grows it again and the
//    sweep also fails those buffer allocations and the pinned warm tasks.
#pragma once

#include <cstddef>

#include "blas/packed_loop.hpp"
#include "support/faultinject.hpp"
#include "support/thread_pool.hpp"

namespace strassen::census {

/// One serial dgefmm/sgefmm call in the steady state: Arena::reserve plus
/// the arena buffer when the predicted workspace is nonzero, then
/// Arena::probe -- for a call-local arena. A caller arena that already
/// holds the prediction is only probed. Everything after the probe runs in
/// the no-fail region.
inline long serial_acquisitions(bool local_arena, bool workspace) {
  if (!local_arena) return 1;
  return 2 + (workspace ? 1 : 0);
}

/// One task-DAG call at `depth` (1 or 2) with `lanes` scheduler lanes on a
/// pool of `workers`, in the steady state: reserve + buffer + probe of the
/// single up-front reservation, one carve per product temporary (7^depth)
/// and per lane sub-arena, and -- with more than one lane and nonzero lane
/// workspace -- the first-touch pass, one pool task per worker.
inline long dag_acquisitions(int depth, int lanes, bool lane_workspace,
                             long workers) {
  const long products = depth == 2 ? 49 : 7;
  const long first_touch = (lanes > 1 && lane_workspace) ? workers : 0;
  return 3 + products + lanes + first_touch;
}

/// What a cold call's pre-flight acquires on top of the steady-state
/// count: the calling thread's three pack buffers (A block, shared A
/// block, B block) and, when the call warms the pool workers, one pinned
/// warm task per worker plus that worker's three buffers. The serial
/// driver warms the workers when its top-level GEMM fans out
/// (DgefmmStats::gemm_threads > 1); the DAG driver always does.
inline long cold_scratch_acquisitions(bool warms_workers, long workers) {
  return 3 + (warms_workers ? 4 * workers : 0);
}

/// Frees the pack scratch of the calling thread and of every global-pool
/// worker, both element types. A worker's release also drops the record
/// that the workers are warm, so the next pre-flight runs the per-worker
/// warm pass again. Called disarmed, outside any census.
inline void release_all_pack_scratch() {
  blas::release_pack_capacity<double>();
  blas::release_pack_capacity<float>();
  parallel::global_pool().run_on_each_worker([](std::size_t) {
    blas::release_pack_capacity<double>();
    blas::release_pack_capacity<float>();
  });
}

/// Runs `call` once as a warm-up, then once under a disarmed census, and
/// returns the census count (the steady-state count).
template <class Call>
long count_acquisitions(Call&& call) {
  call();
  faultinject::begin_census();
  call();
  return faultinject::end_census();
}

/// Releases all pack scratch, then runs `call` once under a disarmed
/// census and returns the count (the cold count).
template <class Call>
long count_cold_acquisitions(Call&& call) {
  release_all_pack_scratch();
  faultinject::begin_census();
  call();
  return faultinject::end_census();
}

}  // namespace strassen::census
