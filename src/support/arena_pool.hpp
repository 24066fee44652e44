// Budgeted arena pool for the serving front-end (src/serve).
//
// The serving queue admits a request only when its *exact* predicted
// workspace (core::workspace_doubles and its float twin) fits inside a
// configured element budget. This pool is the accounting authority that
// makes the admission decision provable: it owns every workspace byte the
// serving layer can hand out, and its invariant
//
//     in_use() + cached() <= budget()          (at all times)
//
// is maintained under one mutex, so "peak_total() <= budget()" is a theorem
// about the pool, not a hope about allocator behaviour. A request that
// would break the invariant is simply not carved -- the queue keeps it
// waiting or rejects/sheds it per policy -- which is how the serving layer
// turns OOM into a typed, recoverable outcome (DESIGN.md section 12).
//
// Carving: try_acquire(n) returns a PoolLeaseT holding an exactly-sized
// aligned slab plus a borrowed ArenaT over it. Released
// slabs are cached for reuse -- a mixed-shape request trace re-carves the
// same few sizes constantly -- and the cache is evicted smallest-first
// whenever its retained elements are needed for a new carve, so caching
// never causes an admission failure the uncached pool would not have had.
#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "support/aligned_buffer.hpp"
#include "support/arena.hpp"

namespace strassen {

template <class T>
class ArenaPoolT;

/// RAII carve of one request's workspace out of an ArenaPoolT. Movable,
/// empty-constructible (an admission miss); returns its slab to the pool
/// cache on destruction. arena() is a borrowed, exactly-sized ArenaT over
/// the slab, so a GEFMM driver handed this arena can never allocate beyond
/// the admitted amount -- overflow throws WorkspaceError instead.
template <class T>
class PoolLeaseT {
 public:
  PoolLeaseT() = default;
  PoolLeaseT(const PoolLeaseT&) = delete;
  PoolLeaseT& operator=(const PoolLeaseT&) = delete;
  PoolLeaseT(PoolLeaseT&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        buf_(std::move(other.buf_)),
        arena_(std::move(other.arena_)) {}
  PoolLeaseT& operator=(PoolLeaseT&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = std::exchange(other.pool_, nullptr);
      buf_ = std::move(other.buf_);
      arena_ = std::move(other.arena_);
    }
    return *this;
  }
  ~PoolLeaseT() { release(); }

  /// True when the carve succeeded (empty leases report false).
  explicit operator bool() const { return pool_ != nullptr; }

  /// Elements this lease holds against the pool budget.
  std::size_t size() const { return buf_.size(); }

  /// The borrowed arena over the slab (valid only on a non-empty lease).
  ArenaT<T>& arena() { return arena_; }

  /// Returns the slab to the pool cache early (idempotent).
  void release();

 private:
  friend class ArenaPoolT<T>;
  PoolLeaseT(ArenaPoolT<T>* pool, AlignedBufferT<T> buf)
      : pool_(pool), buf_(std::move(buf)),
        arena_(buf_.data(), buf_.size()) {}

  ArenaPoolT<T>* pool_ = nullptr;
  AlignedBufferT<T> buf_;
  ArenaT<T> arena_;
};

/// Thread-safe pool of workspace slabs under a hard element budget.
template <class T>
class ArenaPoolT {
 public:
  /// Creates a pool that will never hold more than `budget_elements`
  /// elements across leases and cache combined.
  explicit ArenaPoolT(std::size_t budget_elements)
      : budget_(budget_elements) {}
  ArenaPoolT(const ArenaPoolT&) = delete;
  ArenaPoolT& operator=(const ArenaPoolT&) = delete;

  /// Attempts to carve `need` elements. Returns an empty lease when the
  /// carve does not fit *right now* (the caller decides to wait, reject,
  /// or shed); throws only on a genuine std::bad_alloc within budget or an
  /// injected buffer fault -- which the serving layer maps through the
  /// request's failure policy like any other acquisition failure.
  /// try_acquire(0) succeeds with an empty-slab (but engaged) lease.
  [[nodiscard]] PoolLeaseT<T> try_acquire(std::size_t need) {
    std::unique_lock<std::mutex> lock(mu_);
    if (need > budget_ || in_use_ + need > budget_) {
      return PoolLeaseT<T>{};
    }
    if (need == 0) {
      // An engaged empty lease: the request was priced workspace-free, so
      // it must neither consume a cached slab nor allocate.
      return lease_locked(AlignedBufferT<T>());
    }
    // Reuse the smallest cached slab that fits; its full capacity counts
    // against the budget while leased, so accounting stays exact.
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].size() < need) continue;
      if (best == free_.size() || free_[i].size() < free_[best].size()) {
        best = i;
      }
    }
    if (best != free_.size() && in_use_ + free_[best].size() <= budget_) {
      AlignedBufferT<T> buf = std::move(free_[best]);
      free_.erase(free_.begin() +
                  static_cast<std::ptrdiff_t>(best));
      cached_ -= buf.size();
      return lease_locked(std::move(buf));
    }
    // Evict cached slabs (smallest first, so large reusable slabs survive
    // longest) until the fresh carve respects in_use + cached + need <=
    // budget.
    std::sort(free_.begin(), free_.end(),
              [](const AlignedBufferT<T>& a, const AlignedBufferT<T>& b) {
                return a.size() < b.size();
              });
    while (!free_.empty() && in_use_ + cached_ + need > budget_) {
      cached_ -= free_.front().size();
      free_.erase(free_.begin());
    }
    if (in_use_ + cached_ + need > budget_) {
      return PoolLeaseT<T>{};  // cache drained and it still does not fit
    }
    AlignedBufferT<T> buf(need);  // may throw bad_alloc / injected fault
    return lease_locked(std::move(buf));
  }

  /// Hard budget in elements.
  std::size_t budget() const { return budget_; }

  /// Elements currently leased out.
  std::size_t in_use() const {
    std::unique_lock<std::mutex> lock(mu_);
    return in_use_;
  }

  /// Elements retained in the reuse cache.
  std::size_t cached() const {
    std::unique_lock<std::mutex> lock(mu_);
    return cached_;
  }

  /// High-water mark of in_use() + cached() -- the exact-admission
  /// regression asserts peak_total() <= budget() after a soak.
  std::size_t peak_total() const {
    std::unique_lock<std::mutex> lock(mu_);
    return peak_;
  }

  /// Frees every cached slab (leases stay valid).
  void trim() {
    std::unique_lock<std::mutex> lock(mu_);
    free_.clear();
    cached_ = 0;
  }

 private:
  friend class PoolLeaseT<T>;

  PoolLeaseT<T> lease_locked(AlignedBufferT<T> buf) {
    in_use_ += buf.size();
    peak_ = std::max(peak_, in_use_ + cached_);
    return PoolLeaseT<T>(this, std::move(buf));
  }

  void give_back(AlignedBufferT<T> buf) {
    std::unique_lock<std::mutex> lock(mu_);
    in_use_ -= buf.size();
    if (buf.size() > 0) {
      cached_ += buf.size();
      free_.push_back(std::move(buf));
    }
  }

  mutable std::mutex mu_;
  std::size_t budget_;
  std::size_t in_use_ = 0;
  std::size_t cached_ = 0;
  std::size_t peak_ = 0;
  std::vector<AlignedBufferT<T>> free_;
};

template <class T>
void PoolLeaseT<T>::release() {
  if (pool_ == nullptr) return;
  ArenaPoolT<T>* pool = std::exchange(pool_, nullptr);
  arena_ = ArenaT<T>();
  pool->give_back(std::move(buf_));
}

using ArenaPool = ArenaPoolT<double>;
using ArenaPoolF = ArenaPoolT<float>;

}  // namespace strassen
