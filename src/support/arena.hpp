// Stack-discipline workspace arena with high-water-mark instrumentation.
//
// The memory story of the paper (Section 3.2, Table 1) is central to the
// reproduction: DGEFMM's claim is that Winograd-variant Strassen needs only
// (m*max(k,n)+kn)/3 extra doubles when beta == 0 and (mk+kn+mn)/3 when
// beta != 0. Every temporary in the library is drawn from an Arena, whose
// peak() is compared against those closed forms in the tests and printed by
// bench_tab1_memory.
//
// The arena is templated on the element type: DGEFMM draws doubles from an
// ArenaT<double> (the Arena alias), SGEFMM floats from an ArenaT<float>
// (ArenaF). Capacities, peaks, and the Table 1 bounds are all counted in
// elements, so the footprint claims are precision-independent.
//
// Failure semantics (DESIGN.md section 7): reserve() is the arena's only
// true resource acquisition and may fail (std::bad_alloc from the buffer,
// WorkspaceError when misused, or an injected fault). alloc() on a
// correctly pre-sized arena is pure pointer arithmetic; its overflow throw
// signals an internal sizing bug, not resource exhaustion. Both carry
// fault-injection hooks (support/faultinject.hpp) so the failure contract
// is provable under test.
//
// Debug guards: when faultinject::arena_guards() is on (default in debug
// builds), the arena keeps one canary element in the *free* space just past
// the newest live allocation and re-verifies it on every subsequent
// alloc()/release(); a computation that writes past the end of its newest
// block destroys the canary and is reported via corruption_detected().
// release() additionally poisons the freed range with 0xFF bytes (a NaN
// pattern in both precisions), so use-after-release reads surface as NaNs
// in results. The guard lives outside every allocation, so enabling it
// changes neither alloc addresses nor peak() accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "support/aligned_buffer.hpp"
#include "support/errors.hpp"
#include "support/faultinject.hpp"

namespace strassen {

namespace detail {

/// Guard canary bit patterns: arbitrary non-NaN values no computation
/// produces, one per element width.
template <class T>
struct GuardBits;

template <>
struct GuardBits<double> {
  static constexpr std::uint64_t value = 0x5AFEC0DEBADF00DULL;
  using bits_type = std::uint64_t;
};

template <>
struct GuardBits<float> {
  static constexpr std::uint32_t value = 0x5AFEC0DEu;
  using bits_type = std::uint32_t;
};

}  // namespace detail

/// Last-in/first-out allocator over a fixed aligned buffer.
///
/// Allocation is O(1) pointer arithmetic. Recursive algorithms take a mark
/// before allocating level-local temporaries and release back to it on the
/// way out (usually via ArenaScope). The high-water mark records the largest
/// simultaneous footprint ever reached, in elements.
template <class T>
class ArenaT {
 public:
  ArenaT() = default;

  /// Creates an arena holding `capacity` elements.
  explicit ArenaT(std::size_t capacity) : buf_(capacity) {}

  /// Creates an arena over caller-owned storage (borrowed, non-growing).
  /// The serving layer hands each admitted request such an arena over its
  /// exactly-priced lease, so a reserve() beyond the slab is a hard error
  /// rather than a silent second acquisition. `storage` must outlive the
  /// arena.
  ArenaT(T* storage, std::size_t capacity)
      : ext_(storage), ext_size_(capacity) {}

  ArenaT(const ArenaT&) = delete;
  ArenaT& operator=(const ArenaT&) = delete;
  ArenaT(ArenaT&&) = default;
  ArenaT& operator=(ArenaT&&) = default;

  /// Grows the arena to at least `capacity` elements. Only legal when the
  /// arena is unused (top == 0); the library sizes arenas up front. A
  /// borrowed arena cannot grow past its storage. May throw
  /// WorkspaceError (misuse, borrowed overflow, or injected fault) or
  /// std::bad_alloc.
  void reserve(std::size_t capacity) {
    if (top_ != 0) {
      throw WorkspaceError("Arena::reserve called on an arena in use");
    }
    if (faultinject::should_fail(faultinject::Site::arena_reserve)) {
      throw WorkspaceError("fault injection: Arena::reserve(" +
                           std::to_string(capacity) + ") failed");
    }
    if (capacity > cap()) {
      if (ext_ != nullptr) {
        throw WorkspaceError(
            "Arena::reserve(" + std::to_string(capacity) +
            ") on a borrowed arena of " + std::to_string(ext_size_) +
            " elements; borrowed storage cannot grow");
      }
      buf_ = AlignedBufferT<T>(capacity);
      has_guard_ = false;
    }
  }

  /// Returns a pointer to `n` uninitialized elements.
  [[nodiscard]] T* alloc(std::size_t n) {
    if (faultinject::should_fail(faultinject::Site::arena_alloc)) {
      throw WorkspaceError("fault injection: Arena::alloc(" +
                           std::to_string(n) + ") failed");
    }
    if (top_ + n > cap()) {
      throw WorkspaceError(
          "workspace arena exhausted: requested " + std::to_string(n) +
          " elements with " + std::to_string(cap() - top_) +
          " remaining of " + std::to_string(cap()));
    }
    const bool guards = faultinject::arena_guards();
    if (guards) check_guard();
    T* p = base() + top_;
    top_ += n;
    if (top_ > peak_) peak_ = top_;
    if (guards) write_guard();
    return p;
  }

  /// Capacity probe: verifies that `n` elements could be allocated at the
  /// current stack position, without moving the stack or the high-water
  /// mark. Shares alloc()'s fault-injection site, so the acquisition point
  /// that allocation failures map to can be failed deterministically under
  /// test. Throws WorkspaceError on a shortfall (or injected fault).
  void probe(std::size_t n) {
    if (faultinject::should_fail(faultinject::Site::arena_alloc)) {
      throw WorkspaceError("fault injection: Arena::probe(" +
                           std::to_string(n) + ") failed");
    }
    if (top_ + n > cap()) {
      throw WorkspaceError(
          "workspace arena too small: need " + std::to_string(n) +
          " elements with " + std::to_string(cap() - top_) +
          " remaining of " + std::to_string(cap()));
    }
  }

  /// Current stack position, for later release().
  std::size_t mark() const { return top_; }

  /// Pops every allocation made after `mark`.
  void release(std::size_t mark) {
    if (faultinject::arena_guards()) {
      check_guard();
      if (mark < top_) poison(mark, top_);
      top_ = mark;
      write_guard();
    } else {
      top_ = mark;
    }
  }

  /// Elements currently allocated.
  std::size_t in_use() const { return top_; }

  /// True when `p` points into this arena's storage: the operand is a
  /// workspace temporary rather than caller data.
  bool owns(const T* p) const {
    const T* lo = ext_ != nullptr ? ext_ : buf_.data();
    return lo != nullptr && std::less_equal<const T*>()(lo, p) &&
           std::less<const T*>()(p, lo + cap());
  }

  /// Elements still available on top of the current stack position.
  std::size_t remaining() const { return cap() - top_; }

  /// Largest number of elements ever simultaneously allocated.
  std::size_t peak() const { return peak_; }

  /// Total capacity in elements.
  std::size_t capacity() const { return cap(); }

  /// Releases everything and clears the high-water mark (and, with guards
  /// on, any recorded corruption).
  void reset() {
    top_ = 0;
    peak_ = 0;
    has_guard_ = false;
    corrupted_ = false;
  }

  /// True if a guard canary was ever found destroyed (a block overran its
  /// allocation). Only meaningful while faultinject::arena_guards() is on.
  bool corruption_detected() const { return corrupted_; }

  /// Bytes of the owned backing buffer covered by huge-page advice
  /// (support/memadvise.hpp). Borrowed arenas report 0; their storage is
  /// advised (or not) by whoever owns it.
  std::size_t huge_advised_bytes() const { return buf_.huge_advised_bytes(); }

 private:
  // The canary sits at [top_, top_ + 1) -- free space just past the newest
  // live block -- whenever there is room for it.
  static constexpr std::size_t kGuardElements = 1;

  static T guard_pattern() {
    const auto bits = detail::GuardBits<T>::value;
    static_assert(sizeof(bits) == sizeof(T));
    T v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  void write_guard() {
    if (top_ + kGuardElements <= cap()) {
      base()[top_] = guard_pattern();
      guard_pos_ = top_;
      has_guard_ = true;
    } else {
      has_guard_ = false;
    }
  }

  void check_guard() {
    // guard_pos_ == top_ guards against stale state when the guards switch
    // was toggled between alloc and release.
    const auto bits = detail::GuardBits<T>::value;
    if (has_guard_ && guard_pos_ == top_ &&
        std::memcmp(&base()[top_], &bits, sizeof(T)) != 0) {
      corrupted_ = true;
    }
  }

  void poison(std::size_t from, std::size_t to) {
    // 0xFF in every byte is a NaN; reads of released memory propagate.
    std::memset(base() + from, 0xFF, (to - from) * sizeof(T));
  }

  // Borrowed mode: when ext_ is set the arena allocates from caller-owned
  // storage and buf_ stays empty; growing is forbidden.
  T* base() { return ext_ != nullptr ? ext_ : buf_.data(); }
  std::size_t cap() const { return ext_ != nullptr ? ext_size_ : buf_.size(); }

  AlignedBufferT<T> buf_;
  T* ext_ = nullptr;
  std::size_t ext_size_ = 0;
  std::size_t top_ = 0;
  std::size_t peak_ = 0;
  std::size_t guard_pos_ = 0;
  bool has_guard_ = false;
  bool corrupted_ = false;
};

using Arena = ArenaT<double>;
using ArenaF = ArenaT<float>;

/// RAII guard releasing all arena allocations made during its lifetime.
template <class T>
class ArenaScopeT {
 public:
  explicit ArenaScopeT(ArenaT<T>& arena)
      : arena_(arena), mark_(arena.mark()) {}
  ArenaScopeT(const ArenaScopeT&) = delete;
  ArenaScopeT& operator=(const ArenaScopeT&) = delete;
  ~ArenaScopeT() { arena_.release(mark_); }

 private:
  ArenaT<T>& arena_;
  std::size_t mark_;
};

template <class T>
ArenaScopeT(ArenaT<T>&) -> ArenaScopeT<T>;

using ArenaScope = ArenaScopeT<double>;

}  // namespace strassen
