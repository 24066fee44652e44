#include "tuning/persist.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "blas/kernels.hpp"
#include "support/errors.hpp"

namespace strassen::tuning {

bool TunedCriteria::matches_active_kernel() const {
  // Hard miss on any disagreement, including an absent record: the
  // crossovers are properties of the stamped kernel's GEMM speed, and a
  // file that predates kernel dispatch was measured against whatever the
  // scalar path was then -- loading it under AVX2/AVX-512 dispatch would
  // mis-route every call near the crossover. Float-tuned files check
  // against the float table of the active family.
  if (kernel.empty()) return false;
  const char* active = elem == "f32" ? blas::active_kernel_f().name
                                     : blas::active_kernel().name;
  return kernel == active;
}

TunedCriteria tune_both_cases(const CrossoverOptions& opts) {
  TunedCriteria out;
  out.kernel = blas::active_kernel().name;
  out.elem = "f64";  // the crossover pipeline measures the double vertical
  CrossoverOptions beta0 = opts;
  beta0.alpha = 1.0;
  beta0.beta = 0.0;
  out.beta_zero = tune_hybrid_criterion(beta0);
  CrossoverOptions general = opts;
  general.alpha = 1.0;
  general.beta = 1.0;
  out.general = tune_hybrid_criterion(general);
  return out;
}

namespace {

void write_one(std::ostream& os, const char* prefix,
               const core::CutoffCriterion& c) {
  os << prefix << ".tau = " << c.tau << "\n";
  os << prefix << ".tau_m = " << c.tau_m << "\n";
  os << prefix << ".tau_k = " << c.tau_k << "\n";
  os << prefix << ".tau_n = " << c.tau_n << "\n";
}

}  // namespace

void save_criteria(const TunedCriteria& criteria, std::ostream& os) {
  os << "# DGEFMM tuned cutoff parameters (hybrid criterion, eq. 15)\n";
  os << "format = 1\n";
  if (!criteria.kernel.empty()) os << "kernel = " << criteria.kernel << "\n";
  os << "elem = " << criteria.elem << "\n";
  write_one(os, "beta_zero", criteria.beta_zero);
  write_one(os, "general", criteria.general);
  if (criteria.tau_fused > 0) os << "scheme.fused = " << criteria.tau_fused
                                 << "\n";
  if (criteria.tau_fused2 > 0) os << "scheme.fused2 = " << criteria.tau_fused2
                                  << "\n";
  if (criteria.tau_hybrid > 0) os << "scheme.hybrid = " << criteria.tau_hybrid
                                  << "\n";
  if (criteria.tau_s2 > 0) os << "scheme.s2 = " << criteria.tau_s2 << "\n";
}

bool save_criteria_file(const TunedCriteria& criteria,
                        const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  save_criteria(criteria, os);
  return static_cast<bool>(os);
}

TunedCriteria load_criteria(std::istream& is) {
  std::map<std::string, double> values;
  std::string kernel;
  std::string elem = "f64";  // files predating sgefmm are double-tuned
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key, eq;
    double value;
    if (!(ls >> key)) continue;  // blank line
    if (key == "kernel" || key == "elem") {
      // String-valued keys: the micro-kernel name and element type the
      // tuning ran under.
      std::string sval;
      if (!(ls >> eq) || eq != "=" || !(ls >> sval)) {
        throw Error("tuned-criteria file: malformed line " +
                    std::to_string(lineno) + ": '" + line + "'");
      }
      if (key == "elem" && sval != "f64" && sval != "f32") {
        throw Error("tuned-criteria file: line " + std::to_string(lineno) +
                    ": elem must be f64 or f32, got '" + sval + "'");
      }
      (key == "kernel" ? kernel : elem) = sval;
      continue;
    }
    if (!(ls >> eq) || eq != "=" || !(ls >> value)) {
      if (key == "format") continue;  // tolerate "format = 1"
      throw Error("tuned-criteria file: malformed line " +
                  std::to_string(lineno) + ": '" + line + "'");
    }
    values[key] = value;
  }

  TunedCriteria out;
  out.kernel = kernel;
  out.elem = elem;
  auto fill = [&](const std::string& prefix, core::CutoffCriterion& c) {
    auto get = [&](const std::string& name, double fallback) {
      const auto it = values.find(prefix + "." + name);
      return it == values.end() ? fallback : it->second;
    };
    c = core::CutoffCriterion::hybrid(
        get("tau", c.tau), get("tau_m", c.tau_m), get("tau_k", c.tau_k),
        get("tau_n", c.tau_n));
  };
  fill("beta_zero", out.beta_zero);
  fill("general", out.general);
  auto get_value = [&](const std::string& name, double fallback) {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  };
  out.tau_fused = get_value("scheme.fused", 0);
  out.tau_fused2 = get_value("scheme.fused2", 0);
  out.tau_hybrid = get_value("scheme.hybrid", 0);
  out.tau_s2 = get_value("scheme.s2", 0);
  return out;
}

TunedCriteria load_criteria_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw Error("tuned-criteria file: cannot open '" + path + "'");
  }
  return load_criteria(is);
}

}  // namespace strassen::tuning
