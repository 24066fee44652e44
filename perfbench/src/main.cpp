// strassen_perfbench: the repository benchmark binary (run it through
// perfbench/run.py, which builds it first).
//
//   strassen_perfbench --workload dense|serve|apps --seed N --seconds S
//                      --trace 0|1 [--trace-out FILE] [--git-sha SHA] [--tiny]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// --trace 1 makes the traced per-layer run: every workload's traced pass,
// the host and layer probes, and the selected workload's unit of work once
// untraced as well (trace.overhead_share); the spans are written to
// --trace-out as Chrome trace-event JSON. The last stdout line is the
// result object; everything before it is human-readable detail.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

void set_overhead(Ctx& ctx, double untraced_s, double traced_s) {
  ctx.m.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s,
            "ratio");
}

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: strassen_perfbench --workload "
               "dense|serve|apps --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--git-sha SHA] [--tiny]\n",
               msg);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--trace-out") {
      a.trace_path = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      return false;
    }
  }
  return a.workload == "dense" || a.workload == "serve" ||
         a.workload == "apps";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  Metrics metrics;
  Tally tally;
  Ctx ctx{args, metrics, tally};
  try {
    if (!args.trace) {
      if (args.workload == "dense") dense_run(ctx);
      if (args.workload == "serve") serve_run(ctx);
      if (args.workload == "apps") apps_run(ctx);
      metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
      const int depth = dense_layers(ctx, args.workload == "dense");
      serve_layers(ctx, args.workload == "serve");
      apps_layers(ctx, args.workload == "apps");
      Tracer::get().enable(true);
      layer_probes(ctx, (args.tiny ? 128 : 2048) >> depth);
      Tracer::get().enable(false);
      metrics.set("failed_share",
                  double(tally.failed()) / double(std::max(1L, tally.attempted())),
                  "ratio");
      if (!args.trace_path.empty() &&
          !Tracer::get().write_chrome(args.trace_path, fingerprint_json(args))) {
        std::fprintf(stderr, "error: cannot write %s\n", args.trace_path.c_str());
        return 1;
      }
      std::printf("trace: %zu spans written to %s\n",
                  Tracer::get().spans().size(), args.trace_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("fingerprint: %s\n", fingerprint_json(args).c_str());
  metrics.print_table();
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              tally.failed() == 0 ? "true" : "false", tally.attempted(),
              tally.failed(), metrics.json().c_str());
  return 0;
}
