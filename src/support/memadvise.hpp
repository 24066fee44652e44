// Huge-page advice for the numeric buffers (memory-system tuning).
//
// The crossover against a tuned DGEMM is won or lost in the memory system
// (Huang et al., arXiv:1605.01078): at paper scale the packed-GEMM streams
// walk hundreds of megabytes of matrix and workspace storage, and 4 KiB
// pages burn a measurable fraction of the run in TLB misses. When the
// kernel's transparent-huge-page mode is `madvise`, an explicit
// madvise(MADV_HUGEPAGE) over a large allocation lets it be backed by
// 2 MiB pages without forcing THP on for the whole process.
//
// The switch is off by default (STRASSEN_HUGEPAGES=1 enables it; a Scoped
// override serves the tests) because huge pages trade first-touch
// granularity for TLB reach -- on NUMA machines a 2 MiB page lands
// entirely on the node of whichever thread touches it first. Advice is
// exactly that: a failed or
// unsupported madvise degrades to normal pages and the library never
// notices beyond the stats.
#pragma once

#include <cstddef>

namespace strassen {

/// Smallest allocation worth advising: one aligned 2 MiB huge page must
/// fit inside it after rounding the ends to the base-page grid.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Process-wide switch, resolved once from STRASSEN_HUGEPAGES (values
/// "1"/"on" enable) on first query; set_huge_pages overrides it later
/// (tests and benches toggle per run).
bool huge_pages_enabled();
void set_huge_pages(bool on);

/// RAII override of the huge-page switch (the bitwise-identity test matrix
/// sweeps it on and off around otherwise identical calls).
class ScopedHugePages {
 public:
  explicit ScopedHugePages(bool on) : prev_(huge_pages_enabled()) {
    set_huge_pages(on);
  }
  ScopedHugePages(const ScopedHugePages&) = delete;
  ScopedHugePages& operator=(const ScopedHugePages&) = delete;
  ~ScopedHugePages() { set_huge_pages(prev_); }

 private:
  bool prev_;
};

/// Advises the kernel to back [p, p + bytes) with huge pages
/// (madvise(MADV_HUGEPAGE) on Linux). The range is shrunk inward to the
/// base-page grid first (madvise requires page-aligned addresses; the
/// numeric buffers are only cache-line aligned). Returns the number of
/// bytes actually advised: 0 when the switch is off, the platform lacks
/// madvise, the rounded range is empty, or the kernel refused -- all of
/// which are benign degradations to normal pages, never errors.
[[nodiscard]] std::size_t advise_huge_pages(void* p, std::size_t bytes);

}  // namespace strassen
