// Command-line benchmark/driver for DGEFMM, in the spirit of the test
// codes the paper distributed alongside the library ("All of our routines,
// including our Strassen library and test codes ... are available on the
// Web").
//
// Usage:
//   dgefmm_cli [options]
//     --m N --k N --n N         problem shape (default 1024^3)
//     --ta T --tb T             transpose flags: N, T, or C
//     --alpha X --beta X        scalars (default 1, 0)
//     --criterion NAME          hybrid | simple | higham | param | opcount
//                               | depthD (e.g. depth2) | dgemm
//     --tau X --tau-m X --tau-k X --tau-n X   criterion parameters
//     --scheme NAME             auto | s1 | s2 | original | fused
//     --fused-levels N          fusion depth for --scheme fused (1 or 2)
//     --odd NAME                peel | dynpad | staticpad
//     --machine NAME            rs6000 | c90 | t3d
//     --reps N                  timing repetitions (default 3)
//     --verify                  check against the reference GEMM
#include <cstring>
#include <iostream>
#include <string>

#include "blas/gemm.hpp"
#include "core/dgefmm.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"
#include "support/timing.hpp"

using namespace strassen;

namespace {

struct Options {
  index_t m = 1024, k = 1024, n = 1024;
  Trans ta = Trans::no, tb = Trans::no;
  double alpha = 1.0, beta = 0.0;
  std::string criterion = "hybrid";
  double tau = 199, tau_m = 75, tau_k = 125, tau_n = 95;
  std::string scheme = "auto";
  int fused_levels = 2;
  std::string odd = "peel";
  std::string machine = "rs6000";
  int reps = 3;
  bool verify = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "dgefmm_cli: " << msg << " (see the header comment for usage)\n";
  std::exit(2);
}

Trans parse_trans(const std::string& s) {
  if (s == "N" || s == "n") return Trans::no;
  if (s == "T" || s == "t") return Trans::transpose;
  if (s == "C" || s == "c") return Trans::conj_transpose;
  usage_error("bad trans flag '" + s + "'");
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int i) -> std::string {
    if (i + 1 >= argc) usage_error("missing value after " + std::string(argv[i]));
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--m") o.m = std::atoll(need(i++).c_str());
    else if (arg == "--k") o.k = std::atoll(need(i++).c_str());
    else if (arg == "--n") o.n = std::atoll(need(i++).c_str());
    else if (arg == "--ta") o.ta = parse_trans(need(i++));
    else if (arg == "--tb") o.tb = parse_trans(need(i++));
    else if (arg == "--alpha") o.alpha = std::atof(need(i++).c_str());
    else if (arg == "--beta") o.beta = std::atof(need(i++).c_str());
    else if (arg == "--criterion") o.criterion = need(i++);
    else if (arg == "--tau") o.tau = std::atof(need(i++).c_str());
    else if (arg == "--tau-m") o.tau_m = std::atof(need(i++).c_str());
    else if (arg == "--tau-k") o.tau_k = std::atof(need(i++).c_str());
    else if (arg == "--tau-n") o.tau_n = std::atof(need(i++).c_str());
    else if (arg == "--scheme") o.scheme = need(i++);
    else if (arg == "--fused-levels")
      o.fused_levels = std::atoi(need(i++).c_str());
    else if (arg == "--odd") o.odd = need(i++);
    else if (arg == "--machine") o.machine = need(i++);
    else if (arg == "--reps") o.reps = std::atoi(need(i++).c_str());
    else if (arg == "--verify") o.verify = true;
    else usage_error("unknown option '" + arg + "'");
  }
  return o;
}

core::CutoffCriterion make_criterion(const Options& o) {
  if (o.criterion == "hybrid")
    return core::CutoffCriterion::hybrid(o.tau, o.tau_m, o.tau_k, o.tau_n);
  if (o.criterion == "simple")
    return core::CutoffCriterion::square_simple(o.tau);
  if (o.criterion == "higham")
    return core::CutoffCriterion::higham_scaled(o.tau);
  if (o.criterion == "param")
    return core::CutoffCriterion::parameterized(o.tau_m, o.tau_k, o.tau_n);
  if (o.criterion == "opcount") return core::CutoffCriterion::op_count();
  if (o.criterion == "dgemm") return core::CutoffCriterion::never_recurse();
  if (o.criterion.rfind("depth", 0) == 0)
    return core::CutoffCriterion::fixed_depth(
        std::atoi(o.criterion.c_str() + 5));
  usage_error("unknown criterion '" + o.criterion + "'");
}

core::Scheme make_scheme(const Options& o) {
  if (o.scheme == "auto") return core::Scheme::automatic;
  if (o.scheme == "s1") return core::Scheme::strassen1;
  if (o.scheme == "s2") return core::Scheme::strassen2;
  if (o.scheme == "original") return core::Scheme::original;
  if (o.scheme == "fused") return core::Scheme::fused;
  usage_error("unknown scheme '" + o.scheme + "'");
}

core::OddStrategy make_odd(const Options& o) {
  if (o.odd == "peel") return core::OddStrategy::dynamic_peeling;
  if (o.odd == "dynpad") return core::OddStrategy::dynamic_padding;
  if (o.odd == "staticpad") return core::OddStrategy::static_padding;
  usage_error("unknown odd strategy '" + o.odd + "'");
}

blas::Machine make_machine(const Options& o) {
  if (o.machine == "rs6000") return blas::Machine::rs6000;
  if (o.machine == "c90") return blas::Machine::c90;
  if (o.machine == "t3d") return blas::Machine::t3d;
  usage_error("unknown machine '" + o.machine + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  blas::ScopedMachine guard(make_machine(o));

  core::DgefmmConfig cfg;
  cfg.cutoff = make_criterion(o);
  cfg.scheme = make_scheme(o);
  cfg.fused_levels = o.fused_levels;
  cfg.odd = make_odd(o);
  core::DgefmmStats stats;
  cfg.stats = &stats;
  Arena arena;
  cfg.workspace = &arena;

  const index_t a_rows = is_trans(o.ta) ? o.k : o.m;
  const index_t a_cols = is_trans(o.ta) ? o.m : o.k;
  const index_t b_rows = is_trans(o.tb) ? o.n : o.k;
  const index_t b_cols = is_trans(o.tb) ? o.k : o.n;
  Rng rng(42);
  Matrix a = random_matrix(a_rows, a_cols, rng);
  Matrix b = random_matrix(b_rows, b_cols, rng);
  Matrix c0 = random_matrix(o.m, o.n, rng);
  Matrix c(o.m, o.n);

  double best_dgefmm = 1e300, best_dgemm = 1e300;
  int info = 0;
  for (int r = 0; r < o.reps; ++r) {
    copy(c0.view(), c.view());
    stats.reset();
    Timer t;
    info = core::dgefmm(o.ta, o.tb, o.m, o.n, o.k, o.alpha, a.data(), a.ld(),
                        b.data(), b.ld(), o.beta, c.data(), c.ld(), cfg);
    best_dgefmm = std::min(best_dgefmm, t.seconds());
    if (info != 0) {
      std::cerr << "dgefmm: argument " << info << " invalid\n";
      return 1;
    }
  }
  Matrix c_dgemm(o.m, o.n);
  for (int r = 0; r < o.reps; ++r) {
    copy(c0.view(), c_dgemm.view());
    Timer t;
    blas::dgemm(o.ta, o.tb, o.m, o.n, o.k, o.alpha, a.data(), a.ld(),
                b.data(), b.ld(), o.beta, c_dgemm.data(), c_dgemm.ld());
    best_dgemm = std::min(best_dgemm, t.seconds());
  }

  const double gflop = 2.0 * double(o.m) * double(o.k) * double(o.n) * 1e-9;
  std::cout << "problem    : C(" << o.m << "x" << o.n << ") = " << o.alpha
            << "*op(A)(" << o.m << "x" << o.k << ")*op(B) + " << o.beta
            << "*C, machine " << blas::machine_name(blas::active_machine())
            << "\n";
  std::cout << "criterion  : " << cfg.cutoff.describe() << "\n";
  std::cout << "schedule   : " << core::scheme_name(cfg.scheme) << "\n";
  std::cout << "DGEMM      : " << best_dgemm << " s ("
            << gflop / best_dgemm << " GFLOP/s)\n";
  std::cout << "DGEFMM     : " << best_dgefmm << " s ("
            << gflop / best_dgefmm << " effective GFLOP/s), speedup "
            << best_dgemm / best_dgefmm << "x\n";
  std::cout << "recursion  : " << stats.strassen_levels << " Strassen nodes, "
            << stats.base_gemms << " base GEMMs, depth " << stats.max_depth
            << " on a pool of " << stats.pool_workers << ", "
            << stats.peel_fixups << " peel fix-ups\n";
  if (stats.fused_depth > 0) {
    std::cout << "fused      : " << stats.fused_products
              << " fused products at depth " << stats.fused_depth << "\n";
  }
  std::cout << "workspace  : " << stats.peak_workspace << " doubles\n";

  if (o.verify) {
    Matrix c_ref(o.m, o.n);
    copy(c0.view(), c_ref.view());
    blas::gemm_reference(o.ta, o.tb, o.m, o.n, o.k, o.alpha, a.data(), a.ld(),
                         b.data(), b.ld(), o.beta, c_ref.data(), c_ref.ld());
    const double err = max_abs_diff(c.view(), c_ref.view());
    std::cout << "verify     : max |DGEFMM - reference| = " << err << "\n";
    if (err > 1e-8 * double(o.k)) {
      std::cerr << "VERIFICATION FAILED\n";
      return 1;
    }
  }
  return 0;
}
