// `serve`: a seeded request trace through serve::Queue with 2 serving
// workers. About 92% of requests are skinny (m in {8,16,32,64}) against 4
// shared weight matrices (k, n in {1024, 2048}); three in four of those
// carry a prepacked B handle, the rest pack fresh. About 8% are square
// 768/1024 requests that recurse (through the task DAG by default).
//
// Two phases, load from one generator thread:
//  * paced: open loop, Poisson arrivals at kPacedRate; latency is timed
//    from each request's due time;
//  * burst: closed loop that keeps the bounded queue full; yields capacity.
// Every product is checked against a blas::dgemm reference.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/pack_operand.hpp"
#include "serve/serve.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace strassen;

namespace {

// Rounds of the program's own set-up per run; setup_s is their median.
constexpr int kSetupRounds = 5;

// Fixed paced arrival rate (near half of the seed's burst capacity, ~250
// req/s on the reference host) and the latency limit ok_share counts
// against.
constexpr double kPacedRate = 120.0;     // requests per second
// Burst completions per unit of work (unit_ms_p50).
constexpr std::size_t kBurstUnit = 100;
constexpr double kLatencyLimitMs = 100.0;
constexpr int kServeWorkers = 2;
constexpr std::size_t kQueueCap = 32;
// Output buffers per class: enough for a full queue plus the running and
// the collected requests.
constexpr int kSkinnyOutputs = int(kQueueCap) + kServeWorkers + 4;
constexpr int kSquareOutputs = 6;

const index_t kSkinnyM[] = {8, 16, 32, 64};
constexpr int kVariants = 2;  // activation matrices per (m, k)

struct Req {
  bool square = false;
  int m_idx = 0, w_idx = 0, var = 0, sq_idx = 0;
  bool packed = false;
  double due = 0.0;  // seconds after the phase start
};

// One finished request as the collector saw it.
struct Done {
  bool square = false;
  bool ok = false;
  double flops = 0.0;
  double due = 0.0;         // absolute (benchmark epoch) seconds
  double submit_s = 0.0;    // time submit() was entered
  double submit_us = 0.0;   // time inside submit()
  double complete = 0.0;    // submit_s + ticket latency
  double latency_ms = 0.0;  // from the due time; +inf when failed
  core::DgefmmStats stats;
};

struct Inflight {
  Req req;
  serve::Ticket ticket;
  double* c = nullptr;
  double due = 0.0, submit_s = 0.0, submit_end = 0.0;
  std::uint64_t id = 0;
};

// Everything the workload owns besides the queue: weights, activations,
// square operands, the reference products, and a free list of outputs.
class Model {
 public:
  explicit Model(const Args& args) {
    const bool tiny = args.tiny;
    const index_t big = tiny ? 128 : 2048, small = tiny ? 64 : 1024;
    const index_t wk[4] = {small, small, big, big};
    const index_t wn[4] = {small, big, small, big};
    Rng rng(args.seed * 0x2545f4914f6cdd1dULL + 7);
    for (int w = 0; w < 4; ++w) {
      weights.push_back(random_matrix(wk[w], wn[w], rng));
      wmax[w] = max_abs(weights[w].view());
    }
    for (int mi = 0; mi < 4; ++mi) {
      for (int ki = 0; ki < 2; ++ki) {
        for (int v = 0; v < kVariants; ++v) {
          act.push_back(random_matrix(kSkinnyM[mi], ki == 0 ? small : big,
                                      rng));
          amax.push_back(max_abs(act.back().view()));
        }
      }
    }
    const index_t sq[2] = {tiny ? 48 : 768, tiny ? 64 : 1024};
    for (int s = 0; s < 2; ++s) {
      sq_a.push_back(random_matrix(sq[s], sq[s], rng));
      sq_b.push_back(random_matrix(sq[s], sq[s], rng));
    }
    // Reference products (benchmark input preparation, never timed).
    for (int mi = 0; mi < 4; ++mi) {
      for (int w = 0; w < 4; ++w) {
        for (int v = 0; v < kVariants; ++v) {
          const Matrix& a = activation(mi, w, v);
          Matrix r(a.rows(), weights[w].cols());
          blas::dgemm(Trans::no, Trans::no, r.rows(), r.cols(), a.cols(), 1.0,
                      a.data(), a.ld(), weights[w].data(), weights[w].ld(),
                      0.0, r.data(), r.ld());
          skinny_ref.push_back(std::move(r));
        }
      }
    }
    for (int s = 0; s < 2; ++s) {
      const index_t n = sq_a[s].rows();
      Matrix r(n, n);
      blas::dgemm(Trans::no, Trans::no, n, n, n, 1.0, sq_a[s].data(), n,
                  sq_b[s].data(), n, 0.0, r.data(), n);
      sq_ref.push_back(std::move(r));
    }
  }

  const Matrix& activation(int mi, int w, int v) const {
    const int ki = weights[w].rows() == weights[0].rows() ? 0 : 1;
    return act[(mi * 2 + ki) * kVariants + v];
  }
  double activation_max(int mi, int w, int v) const {
    const int ki = weights[w].rows() == weights[0].rows() ? 0 : 1;
    return amax[(mi * 2 + ki) * kVariants + v];
  }

  double flops(const Req& r) const {
    if (r.square) {
      const double n = double(sq_a[r.sq_idx].rows());
      return 2.0 * n * n * n;
    }
    return 2.0 * double(kSkinnyM[r.m_idx]) * double(weights[r.w_idx].rows()) *
           double(weights[r.w_idx].cols());
  }

  serve::GemmRequest request(const Req& r, double* c,
                             const std::vector<blas::PackedOperand>& packs)
      const {
    serve::GemmRequest q;
    if (r.square) {
      const Matrix& a = sq_a[r.sq_idx];
      q.m = q.n = q.k = a.rows();
      q.a = a.data();
      q.lda = a.ld();
      q.b = sq_b[r.sq_idx].data();
      q.ldb = sq_b[r.sq_idx].ld();
      q.ldc = q.m;
    } else {
      const Matrix& a = activation(r.m_idx, r.w_idx, r.var);
      const Matrix& w = weights[r.w_idx];
      q.m = a.rows();
      q.k = a.cols();
      q.n = w.cols();
      q.a = a.data();
      q.lda = a.ld();
      q.b = w.data();
      q.ldb = w.ld();
      q.ldc = q.m;
      if (r.packed) q.packed_b = &packs[r.w_idx];
    }
    q.c = c;
    return q;
  }

  // Normwise check of the output within the Winograd bound.
  bool check(const Req& r, const double* c, int levels) const {
    const double u = std::numeric_limits<double>::epsilon() / 2;
    if (r.square) {
      const Matrix& ref = sq_ref[r.sq_idx];
      const index_t n = ref.rows();
      const double bound =
          winograd_bound(n, levels, u, 1.0, 1.0, 1.0, 0.0, 0.0);
      return max_abs_diff(make_view(c, n, n, n), ref.view()) <= bound;
    }
    const Matrix& ref = skinny_ref[(r.m_idx * 4 + r.w_idx) * kVariants + r.var];
    const double bound =
        winograd_bound(weights[r.w_idx].rows(), levels, u, 1.0,
                       activation_max(r.m_idx, r.w_idx, r.var),
                       wmax[r.w_idx], 0.0, 0.0);
    return max_abs_diff(make_view(c, ref.rows(), ref.cols(), ref.rows()),
                        ref.view()) <= bound;
  }

  // Output buffers: a fixed pool per request class, each buffer sized for
  // the class's largest product, allocated and touched up front so the
  // run's memory does not depend on how many requests were in flight. The
  // generator waits for a free buffer when a class runs out.
  void allocate_outputs(int skinny, int square) {
    const std::size_t sq = std::size_t(sq_a[1].rows());
    const std::size_t sk = std::size_t(64) * std::size_t(weights[3].cols());
    for (int i = 0; i < skinny + square; ++i) {
      const bool is_sq = i >= skinny;
      owned_.push_back(std::make_unique<Matrix>(
          index_t(is_sq ? sq * sq : sk), 1));
      fill(owned_.back()->view(), 0.0);
      (is_sq ? free_sq_ : free_skinny_).push_back(owned_.back()->data());
    }
  }
  double* acquire(bool square) {
    std::unique_lock<std::mutex> lock(mu_);
    auto& free = square ? free_sq_ : free_skinny_;
    cv_.wait(lock, [&] { return !free.empty(); });
    double* p = free.back();
    free.pop_back();
    return p;
  }
  void release(bool square, double* p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      (square ? free_sq_ : free_skinny_).push_back(p);
    }
    cv_.notify_all();
  }

  std::vector<Matrix> weights, act, sq_a, sq_b, skinny_ref, sq_ref;
  std::vector<double> amax;
  double wmax[4] = {};

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Matrix>> owned_;
  std::vector<double*> free_skinny_, free_sq_;
};

// Seeded request mix, stratified so every seed sends the same mix in a
// different order: each block of kBlock requests holds exactly the square
// share (half of them per size), and the skinny (m, weight) pairs and the
// prepacked/fresh flag cycle through shuffled full rounds.
class Mixer {
 public:
  static constexpr int kBlock = 50;
  static constexpr int kSquares = 4;  // 8% of a block

  explicit Mixer(std::uint64_t seed) : rng_(seed) {}

  Req next() {
    if (block_.empty()) refill();
    const Req r = block_.back();
    block_.pop_back();
    return r;
  }

 private:
  int cycle(std::vector<int>& order, std::size_t& pos, int n) {
    if (pos == order.size()) {
      order.resize(std::size_t(n));
      for (int i = 0; i < n; ++i) order[std::size_t(i)] = i;
      std::shuffle(order.begin(), order.end(), rng_);
      pos = 0;
    }
    return order[pos++];
  }

  void refill() {
    for (int i = 0; i < kBlock; ++i) {
      Req r;
      if (i < kSquares) {
        r.square = true;
        r.sq_idx = i % 2;
      } else {
        const int combo = cycle(combos_, combo_pos_, 16);
        r.m_idx = combo / 4;
        r.w_idx = combo % 4;
        r.packed = cycle(packed_, packed_pos_, 4) != 0;  // 3 of 4 prepacked
        r.var = cycle(vars_, var_pos_, kVariants);
      }
      block_.push_back(r);
    }
    std::shuffle(block_.begin(), block_.end(), rng_);
  }

  std::mt19937_64 rng_;
  std::vector<Req> block_;
  std::vector<int> combos_, packed_, vars_;
  std::size_t combo_pos_ = 0, packed_pos_ = 0, var_pos_ = 0;
};

// The queue and prepacked weights the set-up builds.
struct Service {
  std::vector<blas::PackedOperand> packs;
  std::unique_ptr<serve::Queue> queue;
};

// Source of a phase's requests: a fixed trace, or (when `mix` is set)
// fresh draws without end.
struct Source {
  const std::vector<Req>* trace = nullptr;
  Mixer* mix = nullptr;
  std::size_t pos = 0;
  bool next(Req& r) {
    if (mix != nullptr) {
      r = mix->next();
      return true;
    }
    if (trace == nullptr || pos == trace->size()) return false;
    r = (*trace)[pos++];
    return true;
  }
};

// One phase: a generator thread submits the source's requests (open loop
// at their due times when `paced`, otherwise back-to-back under the
// blocking queue until the source ends or `stop_after` seconds pass); the
// calling thread collects, checks and times every request.
std::vector<Done> run_phase(Model& model, Service& svc, Source src,
                            bool paced, double stop_after, Tally& tally,
                            std::uint64_t& next_req, const char* phase_name) {
  Span phase(phase_name);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Inflight> inflight;
  bool gen_done = false;
  std::atomic<bool> stop{false};
  std::exception_ptr gen_error, collect_error;
  const double t0 = now_s() + 0.02;

  std::thread gen([&] {
    try {
      Span g("serve.generate", 0, phase.id());
      Req r;
      while (!stop && src.next(r)) {
        const double due = paced ? t0 + r.due : now_s();
        if (paced) {
          const double wait = due - now_s();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
        } else if (now_s() - t0 >= stop_after) {
          break;
        }
        Inflight f;
        f.req = r;
        f.c = model.acquire(r.square);
        f.due = due;
        f.id = next_req++;
        const serve::GemmRequest q = model.request(r, f.c, svc.packs);
        f.submit_s = now_s();
        {
          Span s("serve.submit", f.id);
          f.ticket = svc.queue->submit(q);
        }
        f.submit_end = now_s();
        std::lock_guard<std::mutex> lock(mu);
        inflight.push_back(std::move(f));
        cv.notify_one();
      }
    } catch (...) {
      gen_error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu);
    gen_done = true;
    cv.notify_one();
  });

  // Collects in submission order. After a failure it keeps draining (so
  // the generator never waits on a buffer forever), then rethrows.
  std::vector<Done> out;
  for (;;) {
    Inflight f;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !inflight.empty() || gen_done; });
      if (inflight.empty()) break;
      f = std::move(inflight.front());
      inflight.pop_front();
    }
    int info = 0;
    {
      Span w("serve.wait", f.id);
      info = f.ticket.wait();
    }
    try {
      Done d;
      d.square = f.req.square;
      d.flops = model.flops(f.req);
      d.due = f.due;
      d.submit_s = f.submit_s;
      d.submit_us = (f.submit_end - f.submit_s) * 1e6;
      d.complete = f.submit_s + f.ticket.latency_ms() * 1e-3;
      d.stats = f.ticket.stats();
      {
        Span c("serve.check", f.id);
        d.ok = info == 0 &&
               f.ticket.status() == serve::RequestStatus::completed &&
               !f.ticket.degraded() &&
               model.check(f.req, f.c, d.stats.max_depth);
      }
      d.latency_ms = d.ok ? (d.complete - d.due) * 1e3
                          : std::numeric_limits<double>::infinity();
      Tracer::get().add("serve.request", phase.id(), f.id, d.due, d.complete);
      tally.add(d.ok);
      out.push_back(d);
    } catch (...) {
      if (!collect_error) collect_error = std::current_exception();
      stop = true;
    }
    model.release(f.req.square, f.c);
  }
  gen.join();
  if (gen_error) std::rethrow_exception(gen_error);
  if (collect_error) std::rethrow_exception(collect_error);
  return out;
}

std::vector<Req> paced_trace(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  Mixer mix(seed * 0x9e3779b97f4a7c15ULL + 12);
  std::exponential_distribution<double> gap(kPacedRate);
  std::vector<Req> out;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    Req r = mix.next();
    r.due = t;
    out.push_back(r);
  }
  return out;
}

std::vector<Req> closed_trace(std::uint64_t seed, std::size_t n) {
  Mixer mix(seed * 0x9e3779b97f4a7c15ULL + 13);
  std::vector<Req> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(mix.next());
  return out;
}

// Phase helpers: a fixed trace, or endless closed-loop draws.
std::vector<Done> fixed_phase(Model& model, Service& svc,
                              const std::vector<Req>& trace, bool paced,
                              Tally& tally, std::uint64_t& next_req,
                              const char* name) {
  return run_phase(model, svc, Source{&trace, nullptr}, paced, 1e9, tally,
                   next_req, name);
}

std::vector<Done> burst_phase(Model& model, Service& svc, std::uint64_t seed,
                              double seconds, Tally& tally,
                              std::uint64_t& next_req) {
  Mixer mix(seed * 0x9e3779b97f4a7c15ULL + 14);
  return run_phase(model, svc, Source{nullptr, &mix}, false, seconds, tally,
                   next_req, "serve.burst");
}

// The program's own set-up: prepacking the shared weights, building the
// queue, and one warm-up request per class (skinny prepacked, skinny fresh,
// square); the first round also starts the pool. Returns the seconds.
double build_service(Model& model, Service& svc, Tally& tally, bool first) {
  const double t0 = now_s();
  if (first) {
    (void)parallel::global_pool().size();
    (void)blas::active_kernel();
  }
  svc.queue.reset();
  svc.packs.clear();
  for (const Matrix& w : model.weights) {
    svc.packs.push_back(blas::gefmm_pack_b<double>(w.view()));
  }
  serve::ServeOptions opt;
  opt.workers = kServeWorkers;
  opt.queue_cap = kQueueCap;
  opt.policy = serve::OverflowPolicy::block;
  svc.queue = std::make_unique<serve::Queue>(opt);
  Req warm[3];
  warm[0].packed = true;
  warm[2].square = true;
  warm[2].sq_idx = 1;
  for (const Req& r : warm) {
    double* c = model.acquire(r.square);
    serve::Ticket t = svc.queue->submit(model.request(r, c, svc.packs));
    const int info = t.wait();
    tally.add(info == 0 && model.check(r, c, t.stats().max_depth));
    model.release(r.square, c);
  }
  return now_s() - t0;
}

double setup(Model& model, Service& svc, Tally& tally) {
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    rounds.push_back(build_service(model, svc, tally, r == 0));
  }
  return median(rounds);
}

double phase_seconds(const Args& a, double share) {
  return a.tiny ? 0.3 : a.seconds * share;
}

struct PhaseSummary {
  long sent = 0, ok = 0;
};

PhaseSummary summarize(const std::vector<Done>& ds) {
  PhaseSummary s;
  s.sent = long(ds.size());
  for (const Done& d : ds) s.ok += d.ok ? 1 : 0;
  return s;
}

// Burst capacity: requests (and flops) completed correctly inside the
// submission window, over the window; and the median time the queue took
// to complete each run of kBurstUnit consecutive requests in the window.
void burst_rates(const std::vector<Done>& ds, double window, double& rps,
                 double& gflops, double& unit_ms) {
  rps = gflops = unit_ms = 0.0;
  if (ds.empty()) return;
  const double start = ds.front().submit_s, end = start + window;
  std::vector<double> done_at;
  double flops = 0.0;
  for (const Done& d : ds) {
    if (d.ok && d.complete <= end) {
      done_at.push_back(d.complete);
      flops += d.flops;
    }
  }
  rps = double(done_at.size()) / window;
  gflops = flops / window * 1e-9;
  std::sort(done_at.begin(), done_at.end());
  std::vector<double> units;
  for (std::size_t i = kBurstUnit; i < done_at.size(); i += kBurstUnit) {
    units.push_back((done_at[i] - done_at[i - kBurstUnit]) * 1e3);
  }
  unit_ms = median(units);
}

}  // namespace

void serve_run(Ctx& ctx) {
  Model model(ctx.args);
  model.allocate_outputs(kSkinnyOutputs, kSquareOutputs);
  Service svc;
  ctx.m.set("setup_s", setup(model, svc, ctx.tally), "s");

  std::uint64_t next_req = 1;
  const double paced_s = phase_seconds(ctx.args, 0.6);
  const std::vector<Done> paced =
      fixed_phase(model, svc, paced_trace(ctx.args.seed, paced_s), true,
                  ctx.tally, next_req, "serve.paced");
  const double burst_s = phase_seconds(ctx.args, 0.4);
  const std::vector<Done> burst =
      burst_phase(model, svc, ctx.args.seed, burst_s, ctx.tally, next_req);

  std::vector<double> lat;
  long within = 0;
  for (const Done& d : paced) {
    lat.push_back(d.latency_ms);
    if (d.latency_ms <= kLatencyLimitMs) ++within;
  }
  double rps = 0.0, gflops = 0.0, unit_ms = 0.0;
  burst_rates(burst, burst_s, rps, gflops, unit_ms);
  const PhaseSummary ps = summarize(paced), bs = summarize(burst);
  std::printf("serve: paced %ld sent %ld ok at %.0f req/s, limit %.0f ms, "
              "p50 %.2f ms; burst %ld sent %ld ok, capacity %.1f req/s\n",
              ps.sent, ps.ok, kPacedRate, kLatencyLimitMs,
              quantile(lat, 0.5), bs.sent, bs.ok, rps);
  ctx.m.set("gflops_f64", gflops, "GFLOPS");
  ctx.m.set("unit_ms_p50", unit_ms, "ms");
  ctx.m.set("ok_share", double(within) / double(std::max<long>(ps.sent, 1)),
            "ratio");
}

void serve_layers(Ctx& ctx, bool overhead) {
  Tracer& tracer = Tracer::get();
  tracer.enable(false);
  Model model(ctx.args);
  model.allocate_outputs(kSkinnyOutputs, kSquareOutputs);
  Service svc;
  (void)build_service(model, svc, ctx.tally, true);
  std::uint64_t next_req = 1;

  tracer.enable(true);

  // Solo: one request at a time on an idle queue.
  std::vector<double> solo_skinny, solo_square;
  {
    Mixer mix(ctx.args.seed * 31 + 5);
    for (int i = 0; i < Mixer::kBlock; ++i) {  // one block: both classes
      const Req r = mix.next();
      const std::vector<Req> one{r};
      const std::vector<Done> d = fixed_phase(model, svc, one, false,
                                              ctx.tally, next_req, "serve.solo");
      (r.square ? solo_square : solo_skinny)
          .push_back((d[0].complete - d[0].submit_s) * 1e3);
    }
  }
  const double solo_sk = median(solo_skinny), solo_sq = median(solo_square);

  const double paced_s = ctx.args.tiny ? 0.3 : 4.0;
  const std::vector<Done> paced =
      fixed_phase(model, svc, paced_trace(ctx.args.seed, paced_s), true,
                  ctx.tally, next_req, "serve.paced");
  const serve::ServingStats after_paced = svc.queue->stats();
  const double burst_s = ctx.args.tiny ? 0.3 : 3.0;
  const std::vector<Done> burst =
      burst_phase(model, svc, ctx.args.seed, burst_s, ctx.tally, next_req);
  const serve::ServingStats st = svc.queue->stats();

  // After the measured phases, so the queue-depth gauge above excludes it.
  if (overhead) {
    // The same closed-loop batch untraced and traced.
    const std::vector<Req> batch =
        closed_trace(ctx.args.seed + 1, ctx.args.tiny ? 40 : 400);
    tracer.enable(false);
    double t = now_s();
    (void)fixed_phase(model, svc, batch, false, ctx.tally, next_req,
                      "serve.batch");
    const double untraced = now_s() - t;
    tracer.enable(true);
    t = now_s();
    (void)fixed_phase(model, svc, batch, false, ctx.tally, next_req,
                      "serve.batch");
    set_overhead(ctx, untraced, now_s() - t);
  }

  std::vector<double> lat, wait, submit_us, late;
  for (const Done& d : paced) {
    lat.push_back(d.latency_ms);
    if (d.ok) wait.push_back(d.latency_ms - (d.square ? solo_sq : solo_sk));
    submit_us.push_back(d.submit_us);
    late.push_back((d.submit_s - d.due) * 1e3);
  }
  double dag_nodes = 0.0, steals = 0.0, lanes = 0.0, squares = 0.0;
  for (const std::vector<Done>* ph : {&paced, &burst}) {
    for (const Done& d : *ph) {
      if (!d.square || !d.ok) continue;
      squares += 1.0;
      dag_nodes += double(d.stats.dag_nodes);
      steals += double(d.stats.steals);
      lanes = std::max(lanes, double(d.stats.dag_lanes));
    }
  }
  double rps = 0.0, gflops = 0.0, unit_ms = 0.0;
  burst_rates(burst, burst_s, rps, gflops, unit_ms);
  const PhaseSummary ps = summarize(paced), bs = summarize(burst);
  const double hits = double(st.gefmm.pack_hits);
  const double misses = double(st.gefmm.pack_misses);

  Metrics& m = ctx.m;
  m.set("serve.latency_ms_p50", quantile(lat, 0.5), "ms");
  m.set("serve.latency_ms_p99", quantile(lat, 0.99), "ms");
  m.set("serve.capacity_rps", rps, "req/s");
  m.set("serve.submit_us_p50", quantile(submit_us, 0.5), "us");
  m.set("serve.submit_us_p99", quantile(submit_us, 0.99), "us");
  m.set("serve.solo_ms.skinny", solo_sk, "ms");
  m.set("serve.solo_ms.square", solo_sq, "ms");
  m.set("serve.queue_wait_ms_p50", quantile(wait, 0.5), "ms");
  m.set("serve.queue_wait_ms_p99", quantile(wait, 0.99), "ms");
  m.set("serve.peak_queue_depth", double(after_paced.peak_queue_depth),
        "count");
  m.set("serve.pool_peak_mb", double(st.pool_peak) * 8.0 / (1024.0 * 1024.0),
        "MiB");
  m.set("serve.gen_late_ms_p99", quantile(late, 0.99), "ms");
  m.set("serve.paced.sent", double(ps.sent), "count");
  m.set("serve.paced.succeeded", double(ps.ok), "count");
  m.set("serve.paced.failed", double(ps.sent - ps.ok), "count");
  m.set("serve.burst.sent", double(bs.sent), "count");
  m.set("serve.burst.succeeded", double(bs.ok), "count");
  m.set("serve.burst.failed", double(bs.sent - bs.ok), "count");
  m.set("blas.pack_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  m.set("parallel.dag_nodes", squares > 0 ? dag_nodes / squares : 0.0,
        "count");
  m.set("parallel.steals", squares > 0 ? steals / squares : 0.0, "count");
  m.set("parallel.dag_lanes", lanes, "count");
}

}  // namespace perfbench
