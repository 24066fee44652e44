// Shared plumbing of the repository benchmark: command-line options, the
// metric sink, operation tallies, the span recorder behind --trace 1, the
// Higham-style error bound the correctness gates use, and small statistics
// helpers. Everything here lives in the benchmark; the library is only ever
// reached through its public headers.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/config.hpp"

namespace perfbench {

using strassen::index_t;

/// Parsed command line (see main.cpp for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         ///< self-test sizes: every shape scaled down
  std::string trace_path;    ///< Chrome trace-event JSON written at exit
  std::string git_sha = "unknown";
};

/// Named metrics with units, in insertion order (each name set once).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The "metrics" object of the result line.
  std::string json() const;
  /// One human-readable line per metric (stdout, before the result line).
  void print_table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operations attempted and failed across a run (thread-safe).
class Tally {
 public:
  void add(bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) ++failed_;
  }
  long attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  long failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

 private:
  mutable std::mutex mu_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Seconds since the process-wide benchmark epoch (steady clock).
double now_s();

/// Span recorder: one span per call into a layer, with name, start, end,
/// parent and (for serving) the request id its spans share. Disabled
/// recorders cost one branch per span. Spans are kept in memory and written
/// as Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  struct SpanRec {
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 for a root span
    std::uint64_t req;     ///< request id shared by one request's spans
    std::string name;
    double t0, t1;         ///< seconds since the benchmark epoch
    int tid;
  };

  static Tracer& get();
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Parent argument meaning "the calling thread's innermost open span".
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  /// Opens a span on the calling thread and returns its id (0 when
  /// disabled). Its parent is `parent`, or with kInherit the thread's
  /// innermost open span.
  std::uint64_t open(const char* name, std::uint64_t req,
                     std::uint64_t parent = kInherit);
  void close(std::uint64_t id);
  /// Records a finished span whose interval was measured elsewhere (a
  /// request timed from its due time to its completion).
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t req,
                    double t0, double t1);

  std::vector<SpanRec> spans() const;
  bool write_chrome(const std::string& path, const std::string& meta) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRec> spans_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t req = 0,
                std::uint64_t parent = Tracer::kInherit)
      : id_(Tracer::get().open(name, req, parent)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (id_ != 0) Tracer::get().close(id_);
  }
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

/// Higham-style normwise forward-error bound for C <- alpha*op(A)*op(B) +
/// beta*C computed by the Winograd variant with `levels` recursion levels
/// over inner dimension k (Higham, "Accuracy and Stability of Numerical
/// Algorithms", Thm. 23.3: [(k0^2 + 6 k0) 18^L - 6 k] u max|A| max|B| with
/// k0 = ceil(k / 2^L)), widened by the conventional reference's own k^2 u
/// term and the beta*C rounding. `u` is the unit roundoff of the type.
double winograd_bound(index_t k, int levels, double u, double alpha,
                      double amax, double bmax, double beta, double cmax);

/// Median, and the nearest-rank q-quantile (q in [0, 1]) of a sample.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MiB (VmHWM).
double peak_rss_mb();

/// Host fingerprint as a JSON object: CPU model, nproc, pool workers,
/// active kernel, detected caches, git sha, set STRASSEN_* switches.
std::string fingerprint_json(const Args& args);

/// Last-level cache size in bytes (sysconf, 8 MiB when not reported).
long l3_bytes();

}  // namespace perfbench
