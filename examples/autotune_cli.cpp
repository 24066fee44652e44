// Auto-tuning front end: measures this host's scheme crossovers (and
// optionally the eq.-15 cutoffs), persists them as a params file, reloads
// the file through the checked loader, installs it as the consultable
// policy, and proves a use_tuned call actually consults it.
//
// Usage: autotune_cli [--quick | --full] [--elem f64|f32] [--min-size N]
//                     [--max-size N] [--reps N] [--out PATH]
//
//   --quick  tiny budget for CI (scripts/check.sh): scheme sweep 128..384,
//            one rep, paper-default cutoffs. Seconds, not minutes.
//   --full   also tunes the eq.-15 hybrid cutoffs (both beta cases).
//
// Exits nonzero if any stage fails, including the final consultation
// check, so CI can assert the whole persist -> load -> install -> consult
// chain.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "core/tuned_policy.hpp"
#include "support/random.hpp"
#include "tuning/autotune.hpp"

using namespace strassen;

namespace {

int fail(const std::string& why) {
  std::cerr << "autotune_cli: FAIL: " << why << "\n";
  return 1;
}

// Runs one use_tuned call of order s and returns the consulted path name
// (null when the policy was not consulted -- the failure CI looks for).
template <class T>
const char* run_tuned(index_t s) {
  Rng rng(42);
  MatrixT<T> a, b, c;
  if constexpr (std::is_same_v<T, float>) {
    a = random_matrix_f(s, s, rng);
    b = random_matrix_f(s, s, rng);
    c = random_matrix_f(s, s, rng);
  } else {
    a = random_matrix(s, s, rng);
    b = random_matrix(s, s, rng);
    c = random_matrix(s, s, rng);
  }
  core::DgefmmStats stats;
  core::GefmmConfigT<T> cfg;
  cfg.use_tuned = true;
  cfg.stats = &stats;
  int info;
  if constexpr (std::is_same_v<T, float>) {
    info = core::sgefmm(Trans::no, Trans::no, s, s, s, T(1), a.data(), a.ld(),
                        b.data(), b.ld(), T(0), c.data(), c.ld(), cfg);
  } else {
    info = core::dgefmm(Trans::no, Trans::no, s, s, s, T(1), a.data(), a.ld(),
                        b.data(), b.ld(), T(0), c.data(), c.ld(), cfg);
  }
  return info == 0 ? stats.tuned_path : nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  tuning::AutotuneOptions opts;
  std::string out_path = "dgefmm_tuned.params";
  std::string elem = "f64";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--quick") {
      opts.min_size = 128;
      opts.max_size = 384;
      opts.reps = 1;
      opts.tune_cutoffs = false;
    } else if (arg == "--full") {
      opts.tune_cutoffs = true;
    } else if (arg == "--min-size") {
      if (const char* v = next()) opts.min_size = std::atoll(v);
    } else if (arg == "--max-size") {
      if (const char* v = next()) opts.max_size = std::atoll(v);
    } else if (arg == "--reps") {
      if (const char* v = next()) opts.reps = std::atoi(v);
    } else if (arg == "--out") {
      if (const char* v = next()) out_path = v;
    } else if (arg == "--elem") {
      if (const char* v = next()) elem = v;
      if (elem != "f64" && elem != "f32") {
        return fail("--elem must be f64 or f32");
      }
    } else {
      std::cerr << "usage: autotune_cli [--quick|--full] [--elem f64|f32] "
                   "[--min-size N] [--max-size N] [--reps N] [--out PATH]\n";
      return arg == "--help" ? 0 : 1;
    }
  }

  try {
    std::cout << "autotuning " << elem << " scheme crossovers (sweep "
              << opts.min_size << ".." << opts.max_size << ", reps "
              << opts.reps
              << (opts.tune_cutoffs ? ", with eq.-15 cutoffs" : "") << ")\n";
    const tuning::TunedCriteria tuned = elem == "f32"
                                            ? tuning::autotune_float(opts)
                                            : tuning::autotune_double(opts);
    std::cout << "  kernel      " << tuned.kernel << "\n"
              << "  beta_zero   " << tuned.beta_zero.describe() << "\n"
              << "  general     " << tuned.general.describe() << "\n"
              << "  tau_fused   " << tuned.tau_fused << "\n"
              << "  tau_fused2  " << tuned.tau_fused2
              << (tuned.tau_fused2 == 0 ? " (never)" : "") << "\n"
              << "  tau_hybrid  " << tuned.tau_hybrid
              << (tuned.tau_hybrid == 0 ? " (never)" : "") << "\n"
              << "  tau_s2      " << tuned.tau_s2
              << (tuned.tau_s2 == 0 ? " (never)" : "") << "\n";

    if (!tuning::save_criteria_file(tuned, out_path)) {
      return fail("cannot write " + out_path);
    }
    std::cout << "saved " << out_path << "\n";

    // Round trip through the checked loader, then install: the same chain
    // a production run uses, so a stale-stamp bug fails here and not in a
    // user's dispatch.
    const tuning::TunedCriteria loaded =
        tuning::load_matching_criteria_file(out_path, elem);
    if (!tuning::install_criteria(loaded)) {
      return fail("install_criteria rejected the reloaded file");
    }

    // Consultation proof: a use_tuned call must report which path the
    // policy selected.
    const index_t probe = std::max<index_t>(opts.min_size, 64);
    const char* path = elem == "f32" ? run_tuned<float>(probe)
                                     : run_tuned<double>(probe);
    if (path == nullptr) {
      return fail("use_tuned call did not consult the installed policy");
    }
    std::cout << "consult check: order " << probe << " -> " << path << "\n";
    std::cout << "OK\n";
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return 0;
}
