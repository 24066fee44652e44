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

/// One admitted serve::Queue request: the lease carve allocates a fresh
/// slab (one AlignedBuffer) unless the pool cache already holds one that
/// fits or the priced need is zero; the driver then runs over the lease's
/// borrowed arena, which already holds the prediction, so it only probes
/// it (serial_acquisitions with a caller arena).
inline long serve_acquisitions(bool fresh_slab) {
  return (fresh_slab ? 1 : 0) + serial_acquisitions(/*local_arena=*/false,
                                                    /*workspace=*/false);
}

/// What a cold call's pre-flight acquires on top of the steady-state
/// count: the calling thread's three pack buffers (A block, shared A
/// block, B block) and, when the call warms the pool workers, one pinned
/// warm task per worker plus that worker's three buffers. The driver
/// warms the workers when its top-level GEMM fans out
/// (DgefmmStats::gemm_threads > 1).
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
