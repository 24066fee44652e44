// Fixed-size thread pool with an allocation-free batch submission path.
//
// The paper lists parallelism as future work (Section 5); this module is
// the corresponding extension. Its callers fan work out from *inside* the
// no-fail compute region, where nothing may allocate: the packed GEMM's
// 2-D macro-loop partition (blas/packed_loop.cpp) and the quadrant adds
// (core/add_kernels.cpp). run_batch_nofail therefore takes a caller-owned
// array of raw function-pointer tasks and keeps all batch bookkeeping on
// the caller's stack, so submission performs no heap operation at all.
// run_on_each_worker is the one fallible entry point: the drivers'
// pre-flight uses it to warm every worker's pack scratch.
//
// run_batch_nofail blocks until its batch drains, and the waiting thread
// help-executes queued raw tasks meanwhile, so progress never depends on
// other threads. This file lives in support/ because the BLAS layer
// depends on it.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace strassen::parallel {

class ThreadPool {
 public:
  /// One allocation-free task: fn(arg). The function pointer and argument
  /// are caller-owned and must outlive the run_batch_nofail call.
  struct RawTask {
    void (*fn)(void*) = nullptr;
    void* arg = nullptr;
  };

  /// Creates `threads` workers (0 means std::thread::hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  /// Runs tasks[0..count) and returns when every one has finished, without
  /// allocating: the batch state lives on this call's stack and the task
  /// array is read in place. Designed for the packed GEMM's intra-product
  /// fan-out inside a no-fail region, which imposes the contract:
  ///
  ///  * if the calling thread holds a faultinject::ScopedSuspend, every
  ///    task runs under a suspend on its executing thread too (the no-fail
  ///    region travels with the batch, and pool_task fault injection is
  ///    likewise suppressed);
  ///  * raw tasks must not throw and must not submit nested batches;
  ///  * while waiting, the calling thread help-executes queued raw tasks.
  ///
  /// Progress never depends on other threads: the caller can always drain
  /// its own batch.
  void run_batch_nofail(const RawTask* tasks, std::size_t count);

  /// Runs fn(worker_index) exactly once on each pool worker thread and
  /// blocks until all have finished; used to warm per-worker thread-local
  /// scratch during a pre-flight. An exception from any invocation is
  /// rethrown (the first one) after all workers finish. Serializes against
  /// concurrent callers. Must not be called from a worker of this pool.
  void run_on_each_worker(const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  // One batch of tasks; lives on the submitting thread's stack for its
  // whole life and is linked into the pool's intrusive FIFO until every
  // task has been claimed.
  struct Batch {
    const RawTask* raw = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;       // first unclaimed task (guarded by mu_)
    std::size_t remaining = 0;  // unfinished tasks (guarded by mu_)
    bool nofail = false;        // extend the submitter's suspend to tasks
    std::exception_ptr first_error;  // guarded by mu_
    Batch* next_batch = nullptr;
  };

  void link_batch(Batch& batch);
  void wait_batch(Batch& batch);
  Batch* claim_locked(std::size_t* index);
  bool claimable_locked() const;  // CV wait predicate
  void execute(Batch* batch, std::size_t index);  // called without mu_
  void worker_loop(std::size_t worker_index);

  mutable std::mutex mu_;
  std::condition_variable cv_;  // new work, task completion, pinned done
  Batch* head_ = nullptr;       // intrusive FIFO of unclaimed batches
  Batch* tail_ = nullptr;
  std::vector<std::function<void(std::size_t)>> pinned_;  // slot per worker
  std::size_t pinned_pending_ = 0;
  std::exception_ptr pinned_error_;
  bool stop_ = false;
  std::mutex warm_mu_;  // serializes run_on_each_worker callers
  std::vector<std::thread> workers_;
};

/// Most ranges one run_ranges_nofail call splits into.
inline constexpr int kMaxRanges = 64;

/// Splits [0, units) into `parts` (clamped to kMaxRanges) contiguous ranges
/// of whole `grain`s whose sizes differ by at most one grain and runs
/// body(lo, hi) for every non-empty range as one run_batch_nofail batch, so
/// the same run_batch_nofail contract applies to body. The split depends on
/// (units, grain, parts) alone, never on pool scheduling. The task records
/// live on this call's stack: no allocation.
template <class F>
void run_ranges_nofail(ThreadPool& pool, std::int64_t units,
                       std::int64_t grain, int parts, F& body) {
  struct Range {
    F* body;
    std::int64_t lo, hi;
  };
  Range ranges[kMaxRanges];
  ThreadPool::RawTask raw[kMaxRanges];
  const std::int64_t grains = (units + grain - 1) / grain;
  parts = std::min(parts, kMaxRanges);
  std::size_t nt = 0;
  for (int t = 0; t < parts; ++t) {
    const std::int64_t lo = std::min(units, grains * t / parts * grain);
    const std::int64_t hi = std::min(units, grains * (t + 1) / parts * grain);
    if (lo == hi) continue;
    ranges[nt] = Range{&body, lo, hi};
    raw[nt] = ThreadPool::RawTask{
        [](void* arg) {
          const Range* r = static_cast<const Range*>(arg);
          (*r->body)(r->lo, r->hi);
        },
        &ranges[nt]};
    ++nt;
  }
  pool.run_batch_nofail(raw, nt);
}

/// True when the calling thread is a worker of any ThreadPool.
bool on_pool_worker();

/// Worker count of global_pool(), known without constructing it (thread
/// creation is fallible, so pure queries such as the workspace predictors
/// must not trigger it): max(1, std::thread::hardware_concurrency()).
std::size_t global_pool_size();

/// Process-wide shared pool (lazily constructed, global_pool_size()
/// workers).
ThreadPool& global_pool();

}  // namespace strassen::parallel
