// The three workloads and the host/layer probes. Each workload has two
// entry points: `*_run` measures the end-to-end metrics with tracing off
// (setup_s is the median of several rounds of the program's own set-up),
// `*_layers` makes the traced pass that yields the per-layer metrics (and,
// when `overhead` is set, also the same unit of work untraced, so the gap
// is reported as trace.overhead_share).
#pragma once

#include <cstddef>

#include "harness.hpp"

namespace perfbench {

struct Ctx {
  const Args& args;
  Metrics& m;
  Tally& tally;
};

void dense_run(Ctx& ctx);
/// Returns the deepest Strassen level the square 2048 call reached.
int dense_layers(Ctx& ctx, bool overhead);

void serve_run(Ctx& ctx);
void serve_layers(Ctx& ctx, bool overhead);

void apps_run(Ctx& ctx);
void apps_layers(Ctx& ctx, bool overhead);

/// roof.* host probes and the blas/core layer probes. `leaf_order` is the
/// order of the bottom-level GEMMs the dense square call reaches.
void layer_probes(Ctx& ctx, index_t leaf_order);

/// Median GFLOPS of `reps` rounds of an FMA loop run on `threads` threads
/// at once, `iters` iterations each.
double fma_gflops(int threads, long iters, int reps);
/// Median computed GB/s (24 bytes per element) of `reps` STREAM triads
/// a = b + s*c over `elems` doubles per array, split over `threads`.
double triad_gbps(std::size_t elems, int threads, int reps);

/// Records trace.overhead_share from one untraced and one traced timing of
/// the same unit of work.
void set_overhead(Ctx& ctx, double untraced_s, double traced_s);

}  // namespace perfbench
