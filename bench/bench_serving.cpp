// Serving front-end benchmark: a mixed-shape request trace pushed through
// serve::Queue under several admission configurations -- unlimited budget,
// an exactly-sized (undersized for concurrency) budget, a tiny budget under
// the shed policy, and a small bounded queue under the reject policy.
// Reports end-to-end throughput and the queue's p50/p99 completion
// latencies, and emits BENCH_serving.json (path overridable via
// STRASSEN_BENCH_JSON). The undersized-budget row is the robustness claim:
// requests serialize on the workspace pool instead of OOMing or hanging.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/workspace.hpp"
#include "serve/serve.hpp"

using namespace strassen;

namespace {

struct TraceShape {
  index_t n;
  double alpha, beta;
};

struct ConfigResult {
  std::string name;
  std::string policy;
  std::size_t budget;
  std::size_t queue_cap;
  int workers;
  std::size_t requests = 0;
  double seconds = 0.0;
  double rps = 0.0;
  serve::ServingStats stats;
};

// Submits the whole trace from `submitters` threads, each waiting its
// tickets in small bursts over a reused ring of C buffers, and returns the
// wall time from first submit to last completion.
double run_trace(serve::Queue& q, const std::vector<TraceShape>& shapes,
                 const std::vector<Matrix>& as, const std::vector<Matrix>& bs,
                 const core::CutoffCriterion& cutoff, std::size_t requests,
                 int submitters) {
  constexpr std::size_t kBurst = 4;
  Timer timer;
  std::vector<std::thread> threads;
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      const index_t max_n =
          std::max_element(shapes.begin(), shapes.end(),
                           [](const TraceShape& x, const TraceShape& y) {
                             return x.n < y.n;
                           })
              ->n;
      std::vector<Matrix> cs;
      for (std::size_t j = 0; j < kBurst; ++j) cs.emplace_back(max_n, max_n);
      const std::size_t share =
          requests / static_cast<std::size_t>(submitters);
      std::vector<serve::Ticket> tickets;
      for (std::size_t i = 0; i < share; i += kBurst) {
        tickets.clear();
        const std::size_t burst = std::min(kBurst, share - i);
        for (std::size_t j = 0; j < burst; ++j) {
          const std::size_t seq =
              static_cast<std::size_t>(s) * share + i + j;
          const TraceShape& ts = shapes[seq % shapes.size()];
          serve::GemmRequest req;
          req.m = ts.n;
          req.n = ts.n;
          req.k = ts.n;
          req.alpha = ts.alpha;
          req.beta = ts.beta;
          req.a = as[seq % shapes.size()].data();
          req.lda = as[seq % shapes.size()].ld();
          req.b = bs[seq % shapes.size()].data();
          req.ldb = bs[seq % shapes.size()].ld();
          req.c = cs[j].data();
          req.ldc = cs[j].ld();
          req.cutoff = cutoff;
          req.on_failure = core::FailurePolicy::fallback;
          tickets.push_back(q.submit(req));
        }
        for (serve::Ticket& t : tickets) t.wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return timer.seconds();
}

}  // namespace

int main() {
  bench::banner("serving front-end: mixed-shape trace, policies x budgets",
                "robust async serving extension (DESIGN.md section 12)");

  const bool full = bench::full_mode();
  const std::vector<TraceShape> shapes =
      full ? std::vector<TraceShape>{{384, 1.0, 0.0},
                                     {512, 1.5, -0.5},
                                     {768, 1.0, 1.0},
                                     {1024, 1.0, 0.0}}
           : std::vector<TraceShape>{{128, 1.0, 0.0},
                                     {192, 1.5, -0.5},
                                     {256, 1.0, 1.0},
                                     {320, 1.0, 0.0}};
  const std::size_t requests = full ? 384 : 96;
  const int submitters = 2;

  // Shared read-only operands, one pair per trace shape.
  std::vector<Matrix> as, bs;
  {
    Rng rng(2024);
    for (const TraceShape& ts : shapes) {
      as.push_back(random_matrix(ts.n, ts.n, rng));
      bs.push_back(random_matrix(ts.n, ts.n, rng));
    }
  }

  // The drop-in takes a Strassen level only where the cutoff still recurses
  // on one pool worker's share (DESIGN.md section 9.4), so the trace's
  // cutoff is divided by the pool size: every pool recurses as a 96 cutoff
  // does on one worker, and the recursing requests keep a nonzero price.
  const core::CutoffCriterion cutoff = core::CutoffCriterion::square_simple(
      96.0 / static_cast<double>(parallel::global_pool().size()));

  // The exact price of the most expensive request in the trace: a budget
  // of this size admits every request but at most one such run at a time
  // -- deliberately undersized for the concurrency level.
  std::size_t tight = 0;
  {
    core::DgefmmConfig cfg;
    cfg.cutoff = cutoff;
    for (const TraceShape& ts : shapes) {
      tight = std::max(tight, static_cast<std::size_t>(core::workspace_doubles(
                                  ts.n, ts.n, ts.n, ts.beta, cfg)));
    }
  }

  struct Config {
    const char* name;
    serve::OverflowPolicy policy;
    std::size_t budget;
    std::size_t queue_cap;
    int workers;
  };
  // Serving workers follow the bench thread budget
  // (STRASSEN_BENCH_THREADS=N overrides; ServeOptions clamps).
  const int workers = static_cast<int>(
      std::min<std::size_t>(bench::bench_threads(), 64));
  const Config configs[] = {
      {"block-unlimited", serve::OverflowPolicy::block, 0, 64, workers},
      {"block-tight", serve::OverflowPolicy::block, tight, 64, workers},
      {"shed-tiny", serve::OverflowPolicy::shed, 1024, 64, workers},
      {"reject-cap4", serve::OverflowPolicy::reject, 0, 4, workers},
  };

  std::vector<ConfigResult> results;
  for (const Config& cc : configs) {
    serve::ServeOptions opt;
    opt.policy = cc.policy;
    opt.budget_elements = cc.budget;
    opt.queue_cap = cc.queue_cap;
    opt.workers = cc.workers;
    serve::Queue q(opt);
    const double secs =
        run_trace(q, shapes, as, bs, cutoff, requests, submitters);
    ConfigResult r;
    r.name = cc.name;
    r.policy = serve::overflow_policy_name(cc.policy);
    r.budget = cc.budget;
    r.queue_cap = cc.queue_cap;
    r.workers = cc.workers;
    r.requests = requests;
    r.seconds = secs;
    r.rps = static_cast<double>(requests) / secs;
    r.stats = q.stats();
    results.push_back(std::move(r));
  }

  TextTable table({"config", "policy", "budget", "req/s", "p50 ms", "p99 ms",
                   "done", "shed", "rej", "peak ws", "ws<=budget"});
  for (const ConfigResult& r : results) {
    const bool ws_ok = r.budget == 0 || r.stats.pool_peak <= r.budget;
    table.add_row(
        {r.name, r.policy,
         r.budget == 0 ? std::string("inf") : std::to_string(r.budget),
         fmt(r.rps, 1), fmt(r.stats.p50_ms, 2), fmt(r.stats.p99_ms, 2),
         std::to_string(r.stats.completed), std::to_string(r.stats.shed),
         std::to_string(r.stats.rejected),
         std::to_string(r.stats.pool_peak), ws_ok ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\n(block-tight serializes on an exactly-one-largest-run "
               "budget: no OOM, no hang, bounded peak; shed-tiny degrades "
               "every recursing request to the workspace-free GEMM)\n";

  const char* json_env = std::getenv("STRASSEN_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_serving.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"pool_workers\": %zu,\n",
               parallel::global_pool().size());
  std::fprintf(f, "  \"bench_threads\": %zu,\n", bench::bench_threads());
  std::fprintf(f, "  \"trace\": {\"requests\": %zu, \"submitters\": %d, "
                  "\"shapes\": [",
               requests, submitters);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    std::fprintf(f, "%d%s", int(shapes[i].n),
                 i + 1 < shapes.size() ? ", " : "");
  }
  std::fprintf(f, "]},\n");
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(
        f,
        "    {\"config\": \"%s\", \"policy\": \"%s\", "
        "\"budget_elements\": %zu, \"queue_cap\": %zu, \"workers\": %d, "
        "\"requests\": %zu, \"seconds\": %.6f, \"throughput_rps\": %.2f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f, "
        "\"completed\": %llu, \"shed\": %llu, \"rejected\": %llu, "
        "\"expired\": %llu, \"failed\": %llu, \"pool_peak\": %zu, "
        "\"peak_within_budget\": %s}%s\n",
        r.name.c_str(), r.policy.c_str(), r.budget, r.queue_cap, r.workers,
        r.requests, r.seconds, r.rps, r.stats.p50_ms, r.stats.p99_ms,
        r.stats.max_ms,
        static_cast<unsigned long long>(r.stats.completed),
        static_cast<unsigned long long>(r.stats.shed),
        static_cast<unsigned long long>(r.stats.rejected),
        static_cast<unsigned long long>(r.stats.expired),
        static_cast<unsigned long long>(r.stats.failed),
        r.stats.pool_peak,
        r.budget == 0 || r.stats.pool_peak <= r.budget ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
