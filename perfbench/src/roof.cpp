// Host roofline probes: an independent-accumulator FMA loop for peak
// flops and a multi-threaded STREAM-style triad for bandwidth. This file
// includes no library header and is built with -march=native
// -ffp-contract=fast, so the FMA loop issues the widest fused multiply-adds
// the host has.
#include <memory>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

volatile double sink = 0.0;  // keeps probe results observable

using v8d = double __attribute__((vector_size(64)));
constexpr int kAcc = 12;  // independent accumulators: hides FMA latency

// Returns flops done; `iters` FMA rounds over kAcc vector accumulators.
__attribute__((noinline)) double fma_loop(long iters, double seed) {
  v8d acc[kAcc];
  for (int i = 0; i < kAcc; ++i) acc[i] = v8d{} + seed * (i + 1);
  const v8d x = v8d{} + 0.999999, y = v8d{} + 1e-7;
  for (long it = 0; it < iters; ++it) {
#pragma GCC unroll 12
    for (int i = 0; i < kAcc; ++i) acc[i] = acc[i] * x + y;
  }
  v8d s = v8d{};
  for (int i = 0; i < kAcc; ++i) s += acc[i];
  double sum = 0.0;
  for (int l = 0; l < 8; ++l) sum += s[l];
  sink = sum;
  return double(iters) * kAcc * 8 * 2;
}

}  // namespace

// Median GFLOPS of `reps` timed FMA loops on `threads` threads at once.
double fma_gflops(int threads, long iters, int reps) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::thread> ts;
    std::vector<double> flops(std::size_t(threads), 0.0);
    const double t0 = now_s();
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] { flops[std::size_t(t)] = fma_loop(iters, 1.0 + t); });
    }
    for (std::thread& t : ts) t.join();
    const double dt = now_s() - t0;
    double total = 0.0;
    for (double f : flops) total += f;
    rates.push_back(total / dt * 1e-9);
  }
  return median(rates);
}

// STREAM triad a = b + s*c over `elems` doubles per array, split across
// `threads` threads; returns median computed GB/s (24 bytes per element).
double triad_gbps(std::size_t elems, int threads, int reps) {
  std::unique_ptr<double[]> a(new double[elems]), b(new double[elems]),
      c(new double[elems]);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = elems * std::size_t(t) / std::size_t(threads);
      const std::size_t hi = elems * std::size_t(t + 1) / std::size_t(threads);
      ts.emplace_back([&, lo, hi] { body(lo, hi); });
    }
    for (std::thread& t : ts) t.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {  // first touch per thread
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const double s = 0.5 + r;
    const double t0 = now_s();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    rates.push_back(24.0 * double(elems) / (now_s() - t0) * 1e-9);
  }
  sink = a[elems / 2];
  return median(rates);
}

}  // namespace perfbench
