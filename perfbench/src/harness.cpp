#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "blas/kernels.hpp"
#include "support/thread_pool.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Shortest round-trip text of a double ("with all its digits").
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int idx = next.fetch_add(1);
  return idx;
}

thread_local std::vector<std::uint64_t> open_stack;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << json_escape(entries_[i].name)
       << "\": {\"value\": " << num(entries_[i].value) << ", \"unit\": \""
       << json_escape(entries_[i].unit) << "\"}";
  }
  os << "}";
  return os.str();
}

void Metrics::print_table() const {
  for (const Entry& e : entries_) {
    std::printf("  %-34s %16.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

std::uint64_t Tracer::open(const char* name, std::uint64_t req,
                           std::uint64_t parent) {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  const double t0 = now_s();
  if (parent == kInherit) parent = open_stack.empty() ? 0 : open_stack.back();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    spans_.push_back({id, parent, req, name, t0, -1.0, thread_index()});
  }
  open_stack.push_back(id);
  return id;
}

void Tracer::close(std::uint64_t id) {
  const double t1 = now_s();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->t1 = t1;
      return;
    }
  }
}

std::uint64_t Tracer::add(const char* name, std::uint64_t parent,
                          std::uint64_t req, double t0, double t1) {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back({id, parent, req, name, t0, t1, thread_index()});
  return id;
}

std::vector<Tracer::SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& meta) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanRec> all = spans();
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << meta
      << ", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"cat\": \"" << json_escape(s.name.substr(0, s.name.find('.')))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << num(s.t0 * 1e6)
        << ", \"dur\": " << num((s.t1 - s.t0) * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"req\": " << s.req << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double winograd_bound(index_t k, int levels, double u, double alpha,
                      double amax, double bmax, double beta, double cmax) {
  const double kk = static_cast<double>(k);
  const double scale = std::ldexp(1.0, levels);
  const double k0 = std::ceil(kk / scale);
  const double fmm =
      std::max((k0 * k0 + 6.0 * k0) * std::pow(18.0, levels) - 6.0 * kk,
               kk * kk);
  return (fmm + kk * kk + 2.0) * u * std::abs(alpha) * amax * bmax +
         2.0 * u * std::abs(beta) * cmax;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::ceil(q * static_cast<double>(v.size())) - 1.0;
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(pos, 0.0, double(v.size() - 1)));
  return v[idx];
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

long l3_bytes() {
  long l3 = 0;
#if defined(_SC_LEVEL3_CACHE_SIZE)
  l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  return l3 > 0 ? l3 : 8L * 1024 * 1024;
}

std::string fingerprint_json(const Args& args) {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  long l1 = 0, l2 = 0;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  l1 = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  std::string env = "{";
  bool first = true;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("STRASSEN_", 0) != 0) continue;
    const auto eq = kv.find('=');
    env += std::string(first ? "" : ", ") + "\"" +
           json_escape(kv.substr(0, eq)) + "\": \"" +
           json_escape(eq == std::string::npos ? "" : kv.substr(eq + 1)) +
           "\"";
    first = false;
  }
  env += "}";
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu) << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"pool_workers\": "
     << strassen::parallel::global_pool().size() << ", \"kernel\": \""
     << strassen::blas::active_kernel().name << "\", \"kernel_f32\": \""
     << strassen::blas::active_kernel_f().name << "\", \"l1d_bytes\": " << l1
     << ", \"l2_bytes\": " << l2 << ", \"l3_bytes\": " << l3_bytes()
     << ", \"git_sha\": \"" << json_escape(args.git_sha)
     << "\", \"workload\": \"" << json_escape(args.workload)
     << "\", \"seed\": " << args.seed << ", \"strassen_env\": " << env << "}";
  return os.str();
}

}  // namespace perfbench
