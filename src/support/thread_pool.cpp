#include "support/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "support/errors.hpp"
#include "support/faultinject.hpp"

namespace strassen::parallel {

namespace {

// Identifies the pool (if any) whose worker the current thread is.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  pinned_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

// Claims one task under mu_, unlinking batches whose tasks have all been
// claimed (their submitters keep waiting on `remaining`, which outlives the
// queue membership).
ThreadPool::Batch* ThreadPool::claim_locked(std::size_t* index) {
  Batch* prev = nullptr;
  Batch* b = head_;
  while (b != nullptr) {
    if (b->next >= b->count) {
      Batch* done = b;
      b = b->next_batch;
      if (prev != nullptr) {
        prev->next_batch = b;
      } else {
        head_ = b;
      }
      if (done == tail_) tail_ = prev;
      done->next_batch = nullptr;
      continue;
    }
    *index = b->next++;
    return b;
  }
  return nullptr;
}

// True exactly when claim_locked would return a task right now: the
// predicate the CV waits re-check without mutating the FIFO.
bool ThreadPool::claimable_locked() const {
  for (const Batch* b = head_; b != nullptr; b = b->next_batch) {
    if (b->next < b->count) return true;
  }
  return false;
}

// Runs one claimed task (mu_ not held). A nofail batch extends the
// submitter's fault-injection suspend onto this thread for the task's
// duration, which also suppresses the pool_task injection hook -- exactly
// the semantics the no-fail compute region requires.
void ThreadPool::execute(Batch* batch, std::size_t index) {
  std::exception_ptr err;
  try {
    std::optional<faultinject::ScopedSuspend> suspend;
    if (batch->nofail) suspend.emplace();
    if (faultinject::should_fail(faultinject::Site::pool_task)) {
      throw TaskError("fault injection: thread-pool task failed to start");
    }
    batch->raw[index].fn(batch->raw[index].arg);
  } catch (...) {
    err = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (err && !batch->first_error) batch->first_error = err;
  if (--batch->remaining == 0) cv_.notify_all();
}

// Links the stack-resident batch into the FIFO and wakes the workers.
void ThreadPool::link_batch(Batch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tail_ != nullptr) {
    tail_->next_batch = &batch;
  } else {
    head_ = &batch;
  }
  tail_ = &batch;
  cv_.notify_all();
}

// Waits for a linked batch to drain, help-executing queued tasks
// meanwhile. Progress never depends on other threads: when nobody else
// claims this batch's tasks, the loop claims and runs them itself.
void ThreadPool::wait_batch(Batch& batch) {
  std::unique_lock<std::mutex> lock(mu_);
  while (batch.remaining > 0) {
    std::size_t index = 0;
    Batch* victim = claim_locked(&index);
    if (victim != nullptr) {
      lock.unlock();  // handoff: run the claimed task without holding mu_
      execute(victim, index);
      lock.lock();
      continue;
    }
    cv_.wait(lock,
             [&] { return batch.remaining == 0 || claimable_locked(); });
  }
  // The batch dies with this stack frame, so it must leave the FIFO now:
  // claim scans unlink fully-claimed batches only lazily, and `remaining`
  // can reach zero before any scan passes by.
  Batch* prev = nullptr;
  for (Batch* b = head_; b != nullptr; prev = b, b = b->next_batch) {
    if (b == &batch) {
      if (prev != nullptr) {
        prev->next_batch = batch.next_batch;
      } else {
        head_ = batch.next_batch;
      }
      if (tail_ == &batch) tail_ = prev;
      batch.next_batch = nullptr;
      break;
    }
  }
}

void ThreadPool::run_batch_nofail(const RawTask* tasks, std::size_t count) {
  if (count == 0) return;
  Batch batch;
  batch.raw = tasks;
  batch.count = count;
  batch.remaining = count;
  batch.nofail = faultinject::suspended();
  link_batch(batch);
  wait_batch(batch);
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

void ThreadPool::run_on_each_worker(
    const std::function<void(std::size_t)>& fn) {
  assert(!on_worker_thread());
  // Serializing callers keeps the per-worker slots single-writer; the warm
  // itself is a pre-flight operation, so blocking here is fine.
  std::lock_guard<std::mutex> warm(warm_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  pinned_error_ = nullptr;
  pinned_pending_ = workers_.size();
  for (auto& slot : pinned_) slot = fn;
  cv_.notify_all();
  // No help-execution needed: every worker returns to its loop (draining
  // its own nested batches on the way) and serves its pinned slot.
  cv_.wait(lock, [this] { return pinned_pending_ == 0; });
  if (pinned_error_) {
    std::exception_ptr err = pinned_error_;
    pinned_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_worker_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Pinned (per-worker) tasks first: pre-flight warm-ups must not queue
    // behind long compute batches.
    if (pinned_[worker_index]) {
      std::function<void(std::size_t)> fn = std::move(pinned_[worker_index]);
      pinned_[worker_index] = nullptr;
      lock.unlock();  // handoff: run the pinned task without holding mu_
      std::exception_ptr err;
      try {
        if (faultinject::should_fail(faultinject::Site::pool_task)) {
          throw TaskError("fault injection: thread-pool task failed to start");
        }
        fn(worker_index);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err && !pinned_error_) pinned_error_ = err;
      --pinned_pending_;
      cv_.notify_all();
      continue;
    }
    std::size_t index = 0;
    if (Batch* batch = claim_locked(&index)) {
      lock.unlock();  // handoff: run the claimed task without holding mu_
      execute(batch, index);
      lock.lock();
      continue;
    }
    if (stop_) return;
    cv_.wait(lock, [&] {
      return stop_ || static_cast<bool>(pinned_[worker_index]) ||
             claimable_locked();
    });
  }
}

bool on_pool_worker() { return t_worker_pool != nullptr; }

std::size_t global_pool_size() {
  static const std::size_t size =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return size;
}

ThreadPool& global_pool() {
  static ThreadPool pool(global_pool_size());
  return pool;
}

}  // namespace strassen::parallel
