#include "blas/packed_loop.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>

#include "blas/kernels.hpp"
#include "blas/pack_operand.hpp"
#include "support/aligned_buffer.hpp"
#include "support/thread_pool.hpp"

namespace strassen::blas {

namespace {

// Pack-buffer sizes in elements for a blocking. Padding uses the
// kMaxMRT<T> / kMaxNRT<T> bounds rather than the active kernel's MR/NR so
// scratch warmed for a blocking fits every kernel variant: the worst-case
// edge panel rounds mc up to a multiple of MR (< mc + MR <= mc + kMaxMR),
// likewise for nc.
template <class T>
std::size_t a_pack_elems(const GemmBlocking& bk) {
  return static_cast<std::size_t>(bk.mc + kMaxMRT<T>) *
         static_cast<std::size_t>(bk.kc);
}

template <class T>
std::size_t b_pack_elems(const GemmBlocking& bk) {
  return static_cast<std::size_t>(bk.kc) *
         static_cast<std::size_t>(bk.nc + kMaxNRT<T>);
}

// Per-thread packing buffers, one set per element type. These belong to the
// GEMM implementation (the vendor BLAS on the paper's machines has the same
// kind of internal scratch) and are deliberately *not* drawn from the
// Strassen workspace arena: Table 1 counts Strassen temporaries, not BLAS
// internals. The fused schedule inherits this accounting: its operand sums
// live here, inside buffers a plain GEMM call of the same blocking already
// needs.
//
// Under intra-GEMM parallelism a row-split task packs A into the scratch of
// the thread that executes it, so the GEFMM pre-flight must warm the pool
// workers too (ensure_pack_capacity_all_workers) before the no-fail region.
// The A block a column split shares with its workers lives in a buffer of
// its own: a submitter waiting on its batch help-executes other GEMMs' row
// tasks, which overwrite the executing thread's a_pack, never its a_shared.
template <class T>
struct PackBuffersT {
  AlignedBufferT<T> a_pack;
  AlignedBufferT<T> a_shared;
  AlignedBufferT<T> b_pack;
  void ensure(std::size_t a_need, std::size_t a_shared_need,
              std::size_t b_need) {
    if (a_pack.size() < a_need) a_pack = AlignedBufferT<T>(a_need);
    if (a_shared.size() < a_shared_need) {
      a_shared = AlignedBufferT<T>(a_shared_need);
    }
    if (b_pack.size() < b_need) b_pack = AlignedBufferT<T>(b_need);
  }
};

template <class T>
PackBuffersT<T>& pack_buffers() {
  thread_local PackBuffersT<T> bufs;
  return bufs;
}

// Pack-scratch sizes (A, B) every global-pool worker is known to hold for
// element type T. A worker's scratch only grows, except through
// release_pack_capacity on that worker, which clears the record. Once the
// per-worker warm -- one pinned task per worker, serialized across callers
// -- has covered a blocking, later pre-flights skip it instead of
// synchronizing with every worker on every call.
template <class T>
struct WorkersWarmT {
  std::atomic<std::size_t> a{0};
  std::atomic<std::size_t> b{0};
};

template <class T>
WorkersWarmT<T>& workers_warm() {
  static WorkersWarmT<T> warm;
  return warm;
}

void raise_to(std::atomic<std::size_t>& slot, std::size_t v) {
  std::size_t cur = slot.load(std::memory_order_acquire);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
}

int gemm_threads_env_default() {
  const char* env = std::getenv("STRASSEN_GEMM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 0) return 0;
  return static_cast<int>(std::min<long>(v, kMaxGemmTasks));
}

int& gemm_threads_slot() {
  static const int env_default = gemm_threads_env_default();
  thread_local int setting = env_default;
  return setting;
}

// Smallest per-task share of one (jc, pc) iteration worth a fan-out, in
// multiply-adds. Measured on a 4-vCPU AVX-512 Xeon (mc 336, kc 384) by
// timing GEMMs with the gate removed at 1, 2 and 4 tasks. A batch costs
// 15-25 us whatever its size, so cache-resident compute-bound splits
// break even late: row splits at about 2^20 multiply-adds per iteration,
// column splits (whose shared A block is packed serially first) at
// 2^21.5-2^22.5, and below that run at 0.6-0.9x of serial. Thin products
// that stream a large operand from memory -- n or k of 1-4 against a
// 1023-2047 square -- run 2-5x faster split at the same counts. One gate
// on multiply-adds cannot serve both; 2^18 keeps the thin products
// parallel at the price of the compute-bound band above. (The peel
// fix-ups are DGER/DGEMV calls that never reach this loop; they split
// under the elementwise gate, core::kMinPassElems.)
constexpr count_t kMinTaskFmas = count_t{1} << 18;

// Smallest per-task share of a B block worth packing cooperatively, in
// elements. Measured as above on row splits of 4 tasks with and without
// the cooperative pack: it costs up to 25% at 2^13-2^14 elements per task,
// is even at 2^15, and gains 4% at 2^15.6 and 8% at 2^16.6.
constexpr count_t kMinPackElems = count_t{1} << 15;

// Everything one (jc, pc) iteration shares across its tasks. Lives on the
// submitting thread's stack; tasks read it while the submitter blocks in
// run_batch_nofail.
template <class T>
struct PanelArgsT {
  const KernelInfoT<T>* kv;
  const GemmBlocking* bk;
  const PackCombT<T>* a;
  const PackCombT<T>* b;
  /// Packed B block the micro-kernels read: b_pack, or the block's place
  /// in a prepacked image.
  const T* b_block;
  /// The submitter's B scratch, filled before a row split or panel range
  /// by panel range by the tasks of a column split; null when B streams
  /// from an image.
  T* b_pack;
  /// Packed A block a column split shares (null in a row split).
  const T* a_shared;
  const WriteDestT<T>* dst;
  int ndst;
  index_t jc, pc, nc, kc;
  bool first_panel;
  /// Prepacked op(A) image (null: pack fresh into thread scratch). The
  /// closed-form block offsets need the full operand shape, carried here.
  const T* a_img;
  index_t m_total, k_total;
};

// The macro-kernel: every micro-tile of rows [ic, ic + mc) and NR panels
// [jr0, jr1) of the iteration's C block, from one packed A block. Each C
// micro-tile is written by exactly one call.
template <class T>
void macro_kernel(const PanelArgsT<T>& g, const T* a_block, index_t ic,
                  index_t mc, index_t jr0, index_t jr1) {
  const KernelInfoT<T>& kv = *g.kv;
  alignas(kBufferAlignment) T acc[kMaxMRT<T> * kMaxNRT<T>];
  const index_t kc = g.kc;
  const index_t nc = g.nc;
  const index_t mc_panels = (mc + kv.mr - 1) / kv.mr;
  for (index_t jr = jr0; jr < jr1; ++jr) {
    const T* bp = g.b_block + jr * (kv.nr * kc);
    const index_t cols = std::min(nc - jr * kv.nr, kv.nr);
    for (index_t ir = 0; ir < mc_panels; ++ir) {
      const T* ap = a_block + ir * (kv.mr * kc);
      const index_t rows = std::min(mc - ir * kv.mr, kv.mr);
      kv.micro_kernel(kc, ap, bp, acc);
      for (int d = 0; d < g.ndst; ++d) {
        kv.write_tile(acc, rows, cols, g.dst[d].alpha,
                      g.first_panel ? g.dst[d].beta : T(1),
                      g.dst[d].c + (ic + ir * kv.mr) +
                          (g.jc + jr * kv.nr) * g.dst[d].ldc,
                      g.dst[d].ldc);
      }
    }
  }
}

// Packs A rows [ic, ic + mc) of the current iteration into `out`, or
// returns their position in the prepacked image. The image stores whole
// mc strips as MR-row panels, so rows starting MR-aligned inside a strip
// sit (ic - strip) * kc elements into that strip's block.
template <class T>
const T* a_block_at(const PanelArgsT<T>& g, index_t ic, index_t mc, T* out) {
  if (g.a_img != nullptr) {
    const index_t strip = ic / g.bk->mc * g.bk->mc;
    assert((ic - strip) % g.kv->mr == 0);
    return g.a_img +
           packed_a_offset(*g.bk, g.kv->mr, g.m_total, g.k_total, strip,
                           g.pc) +
           static_cast<std::size_t>(ic - strip) *
               static_cast<std::size_t>(g.kc);
  }
  PackTermT<T> terms[kPackMaxTerms];
  for (int s = 0; s < g.a->n; ++s) {
    terms[s] = g.a->term[s];
    terms[s].p += ic * g.a->term[s].rs + g.pc * g.a->term[s].cs;
  }
  g.kv->pack_a_comb(terms, g.a->n, mc, g.kc, out);
  return out;
}

// Packs B panels [jr0, jr1) of the current iteration into their place in
// g.b_pack. Panels are NR columns wide and laid out back to back, so a
// panel range packs to exactly the bytes the whole-block pack writes there.
template <class T>
void pack_b_panels(const PanelArgsT<T>& g, index_t jr0, index_t jr1) {
  const index_t nr = g.kv->nr;
  const index_t j0 = jr0 * nr;
  const index_t j1 = std::min(g.nc, jr1 * nr);
  PackTermT<T> terms[kPackMaxTerms];
  for (int s = 0; s < g.b->n; ++s) {
    terms[s] = g.b->term[s];
    terms[s].p += g.pc * g.b->term[s].rs + (g.jc + j0) * g.b->term[s].cs;
  }
  g.kv->pack_b_comb(terms, g.b->n, g.kc, j1 - j0, g.b_pack + j0 * g.kc);
}

// Row split: rows [ic0, ic1) in blocks that never cross an mc strip of
// the whole operand (a prepacked image is stored strip by strip), each A
// block packed into the *executing* thread's scratch. Distinct ranges
// touch disjoint C rows, and the per-element arithmetic is the serial
// nest's whatever the split.
template <class T>
void run_rows(const PanelArgsT<T>& g, index_t ic0, index_t ic1) {
  T* a_pack = nullptr;
  if (g.a_img == nullptr) {
    PackBuffersT<T>& bufs = pack_buffers<T>();
    bufs.ensure(a_pack_elems<T>(*g.bk), 0, 0);  // no-op on a warmed thread
    a_pack = bufs.a_pack.data();
  }
  const index_t nc_panels = (g.nc + g.kv->nr - 1) / g.kv->nr;
  for (index_t ic = ic0; ic < ic1;) {
    const index_t strip_end = (ic / g.bk->mc + 1) * g.bk->mc;
    const index_t mc = std::min(ic1, strip_end) - ic;
    macro_kernel(g, a_block_at(g, ic, mc, a_pack), ic, mc, 0, nc_panels);
    ic += mc;
  }
}

// Column split (m <= mc): NR panels [jr0, jr1) of every row against the
// shared A block, packing this range's B panels first when B is fresh.
template <class T>
void run_cols(const PanelArgsT<T>& g, index_t jr0, index_t jr1) {
  if (g.b_pack != nullptr) pack_b_panels(g, jr0, jr1);
  macro_kernel(g, g.a_shared, 0, g.m_total, jr0, jr1);
}

static_assert(kMaxGemmTasks <= parallel::kMaxRanges);

}  // namespace

int gemm_threads() { return gemm_threads_slot(); }

void set_gemm_threads(int threads) {
  gemm_threads_slot() = std::clamp(threads, 0, kMaxGemmTasks);
}

int intra_op_tasks(count_t units) {
  const int setting = gemm_threads();
  if (setting == 1 || units < 2) return 1;
  // Only now touch the pool: a problem too small to split must not
  // construct it (the lazy construction is fallible and belongs in a
  // pre-flight).
  int want = setting;
  if (want == 0) {
    want = static_cast<int>(
        std::min<std::size_t>(parallel::global_pool().size(), kMaxGemmTasks));
  }
  return static_cast<int>(std::max<count_t>(1, std::min<count_t>(want, units)));
}

template <class T>
int packed_gemm_threads(const GemmBlocking& bk, index_t m, index_t n,
                        index_t k) {
  if (m == 0 || n == 0 || k == 0) return 1;
  const KernelInfoT<T>& kv = active_kernel_t<T>();
  const index_t kc = std::min(k, bk.kc);
  const index_t nc = std::min(n, bk.nc);
  // Split units: MR row panels when there are several mc blocks, NR column
  // panels of one iteration otherwise.
  const count_t units = m > bk.mc ? (m + kv.mr - 1) / kv.mr
                                  : (nc + kv.nr - 1) / kv.nr;
  const count_t work = static_cast<count_t>(m) * kc * nc;
  return intra_op_tasks(std::min(units, work / kMinTaskFmas));
}

template int packed_gemm_threads<double>(const GemmBlocking&, index_t,
                                         index_t, index_t);
template int packed_gemm_threads<float>(const GemmBlocking&, index_t, index_t,
                                        index_t);

template <class T>
void packed_gemm_multi(const GemmBlocking& bk, index_t m, index_t n,
                       index_t k, const PackCombT<T>& a,
                       const PackCombT<T>& b, const WriteDestT<T>* dst,
                       int ndst) {
  packed_gemm_multi(bk, m, n, k, a, b, dst, ndst, PackedStreamsT<T>{});
}

template <class T>
void packed_gemm_multi(const GemmBlocking& bk, index_t m, index_t n,
                       index_t k, const PackCombT<T>& a,
                       const PackCombT<T>& b, const WriteDestT<T>* dst,
                       int ndst, const PackedStreamsT<T>& streams) {
  assert(a.n >= 1 && a.n <= kPackMaxTerms);
  assert(b.n >= 1 && b.n <= kPackMaxTerms);
  assert(ndst >= 1 && ndst <= kPackMaxDests);
  // A streamed side is a single gamma == 1 term by contract (the image is a
  // pure reshaping copy of exactly one operand).
  assert(streams.a == nullptr || (a.n == 1 && a.term[0].gamma == T(1)));
  assert(streams.b == nullptr || (b.n == 1 && b.term[0].gamma == T(1)));
  if (m == 0 || n == 0 || k == 0) return;

  const KernelInfoT<T>& kv = active_kernel_t<T>();
  assert(kv.mr <= kMaxMRT<T> && kv.nr <= kMaxNRT<T>);
  const int ntasks = packed_gemm_threads<T>(bk, m, n, k);
  const bool split_cols = ntasks > 1 && m <= bk.mc;
  // A GEFMM pre-flight has built the pool already; a direct BLAS call may
  // build it here, outside any no-fail region.
  parallel::ThreadPool* const pool =
      ntasks > 1 ? &parallel::global_pool() : nullptr;

  PackBuffersT<T>& bufs = pack_buffers<T>();
  const std::size_t a_need = streams.a != nullptr ? 0 : a_pack_elems<T>(bk);
  bufs.ensure(a_need, split_cols ? a_need : 0,
              streams.b != nullptr ? 0 : b_pack_elems<T>(bk));

  for (index_t jc = 0; jc < n; jc += bk.nc) {
    const index_t nc = (n - jc < bk.nc) ? (n - jc) : bk.nc;
    const index_t nc_panels = (nc + kv.nr - 1) / kv.nr;
    for (index_t pc = 0; pc < k; pc += bk.kc) {
      const index_t kc = (k - pc < bk.kc) ? (k - pc) : bk.kc;
      PanelArgsT<T> g{};
      g.kv = &kv;
      g.bk = &bk;
      g.a = &a;
      g.b = &b;
      if (streams.b != nullptr) {
        g.b_block = streams.b + packed_b_offset(bk, kv.nr, k, n, jc, pc);
      } else {
        g.b_pack = bufs.b_pack.data();
        g.b_block = g.b_pack;
      }
      g.dst = dst;
      g.ndst = ndst;
      g.jc = jc;
      g.pc = pc;
      g.nc = nc;
      g.kc = kc;
      g.first_panel = pc == 0;
      g.a_img = streams.a;
      g.m_total = m;
      g.k_total = k;
      if (ntasks <= 1) {
        if (streams.b == nullptr) pack_b_panels(g, 0, nc_panels);
        run_rows(g, 0, m);
      } else if (!split_cols) {
        // Row split: B is packed once for the whole iteration into the
        // submitter's scratch -- by one batch of panel ranges when the
        // block is large enough -- and the row tasks read it there while
        // we block in the batch. Even MR-aligned row ranges, so every task
        // owns whole micro-tile rows of C.
        if (streams.b == nullptr) {
          const int parts = static_cast<int>(std::min<count_t>(
              ntasks, static_cast<count_t>(kc) * nc / kMinPackElems));
          if (parts > 1) {
            auto pack = [&g](index_t lo, index_t hi) {
              pack_b_panels(g, lo, hi);
            };
            parallel::run_ranges_nofail(*pool, nc_panels, 1, parts, pack);
          } else {
            pack_b_panels(g, 0, nc_panels);
          }
        }
        auto rows = [&g](index_t lo, index_t hi) { run_rows(g, lo, hi); };
        parallel::run_ranges_nofail(*pool, m, kv.mr, ntasks, rows);
      } else {
        // Column split (one mc block): the submitter packs the A block
        // once into its shared buffer; each task packs its own B panels
        // into their slots of the submitter's scratch and computes them
        // against the shared A block.
        g.a_shared = a_block_at(g, 0, m, bufs.a_shared.data());
        auto cols = [&g](index_t lo, index_t hi) { run_cols(g, lo, hi); };
        parallel::run_ranges_nofail(*pool, nc_panels, 1, ntasks, cols);
      }
    }
  }
}

template void packed_gemm_multi<double>(const GemmBlocking&, index_t,
                                        index_t, index_t,
                                        const PackCombT<double>&,
                                        const PackCombT<double>&,
                                        const WriteDestT<double>*, int);
template void packed_gemm_multi<float>(const GemmBlocking&, index_t, index_t,
                                       index_t, const PackCombT<float>&,
                                       const PackCombT<float>&,
                                       const WriteDestT<float>*, int);
template void packed_gemm_multi<double>(const GemmBlocking&, index_t,
                                        index_t, index_t,
                                        const PackCombT<double>&,
                                        const PackCombT<double>&,
                                        const WriteDestT<double>*, int,
                                        const PackedStreamsT<double>&);
template void packed_gemm_multi<float>(const GemmBlocking&, index_t, index_t,
                                       index_t, const PackCombT<float>&,
                                       const PackCombT<float>&,
                                       const WriteDestT<float>*, int,
                                       const PackedStreamsT<float>&);

template <class T>
void ensure_pack_capacity(const GemmBlocking& bk) {
  pack_buffers<T>().ensure(a_pack_elems<T>(bk), a_pack_elems<T>(bk),
                           b_pack_elems<T>(bk));
}

template void ensure_pack_capacity<double>(const GemmBlocking&);
template void ensure_pack_capacity<float>(const GemmBlocking&);

template <class T>
void ensure_pack_capacity_all_workers(const GemmBlocking& bk) {
  ensure_pack_capacity<T>(bk);
  parallel::ThreadPool& pool = parallel::global_pool();
  if (pool.on_worker_thread()) return;  // cannot wait on its own pool
  const std::size_t a = a_pack_elems<T>(bk);
  const std::size_t b = b_pack_elems<T>(bk);
  WorkersWarmT<T>& warm = workers_warm<T>();
  if (a <= warm.a.load(std::memory_order_acquire) &&
      b <= warm.b.load(std::memory_order_acquire)) {
    return;
  }
  pool.run_on_each_worker(
      [&bk](std::size_t) { ensure_pack_capacity<T>(bk); });
  raise_to(warm.a, a);
  raise_to(warm.b, b);
}

template void ensure_pack_capacity_all_workers<double>(const GemmBlocking&);
template void ensure_pack_capacity_all_workers<float>(const GemmBlocking&);

template <class T>
void release_pack_capacity() {
  if (parallel::on_pool_worker()) {
    // A worker's scratch is about to shrink: the next pre-flight must warm
    // every worker again.
    workers_warm<T>().a.store(0, std::memory_order_release);
    workers_warm<T>().b.store(0, std::memory_order_release);
  }
  PackBuffersT<T>& bufs = pack_buffers<T>();
  bufs.a_pack = AlignedBufferT<T>();
  bufs.a_shared = AlignedBufferT<T>();
  bufs.b_pack = AlignedBufferT<T>();
}

template void release_pack_capacity<double>();
template void release_pack_capacity<float>();

template <class T>
std::size_t pack_capacity_elements() {
  const PackBuffersT<T>& bufs = pack_buffers<T>();
  return bufs.a_pack.size() + bufs.a_shared.size() + bufs.b_pack.size();
}

template std::size_t pack_capacity_elements<double>();
template std::size_t pack_capacity_elements<float>();

}  // namespace strassen::blas
