// Runtime cutoff criteria (Sections 2 and 3.4 of the paper).
//
// The cutoff criterion decides, at each recursion level, whether to apply
// another level of Strassen's construction or to call DGEMM. The paper
// studies:
//   (7)  the op-count criterion      mkn <= 4(mk + kn + mn)
//   (10) the square criterion        m <= tau
//   (11) the simple rectangular one  m <= tau or k <= tau or n <= tau
//        (used by Douglas et al.'s DGEMMW)
//   (12) Higham's scaled criterion   mkn <= tau (nk + mn + mk) / 3
//   (13) the parameterized form      mkn <= tau_m*nk + tau_k*mn + tau_n*mk
//   (15) the paper's hybrid: (13) arbitrates, except recursion is always
//        taken when all of m, k, n exceed tau and never when all are <= tau.
// Parameters (tau, tau_m, tau_k, tau_n) come from the empirical tuner
// (src/tuning) or from the paper's measured values (Tables 2-3).
#pragma once

#include <string>

#include "blas/machine.hpp"
#include "support/config.hpp"

namespace strassen::core {

struct CutoffCriterion;

namespace detail {
/// The criterion as the serial drivers apply it on a pool of `workers`
/// (see CutoffCriterion::stop). Internal: the drivers and the workspace
/// predictors call it with pool_workers(); it is not a tuning knob.
CutoffCriterion on_pool(const CutoffCriterion& c, int workers);
}  // namespace detail

/// Which stopping rule is applied at each recursion level.
enum class CutoffKind {
  op_count,       ///< eq. (7), the pure model criterion
  square_simple,  ///< eq. (11): any dimension <= tau (also eq. 10 for square)
  higham_scaled,  ///< eq. (12)
  parameterized,  ///< eq. (13) alone
  hybrid,         ///< eq. (15), the paper's criterion
  fixed_depth,    ///< recurse exactly `depth` levels (analysis/testing)
  never_recurse,  ///< always call DGEMM (baseline)
};

/// A fully-specified stopping rule.
struct CutoffCriterion {
  CutoffKind kind = CutoffKind::hybrid;
  double tau = 199.0;    ///< square crossover
  double tau_m = 75.0;   ///< rectangular parameters (eq. 13)
  double tau_k = 125.0;
  double tau_n = 95.0;
  int depth = 1;         ///< for fixed_depth

  /// True when recursion should STOP and DGEMM be used for (m, k, n) at
  /// recursion depth `d` (top level is d == 0). A criterion the serial
  /// dgefmm/sgefmm drivers resolved for a pool of P > 1 workers
  /// (detail::on_pool) also stops where the rule says stop for one
  /// worker's share of the node -- (m, k, n) with the larger output
  /// dimension divided by P, rounded up: a level is taken only where each
  /// worker still gets a block the rule would recurse on. With P = 1 this
  /// is exactly the rule above.
  bool stop(index_t m, index_t k, index_t n, int d) const;

  /// Factories ----------------------------------------------------------

  static CutoffCriterion op_count();
  static CutoffCriterion square_simple(double tau);
  static CutoffCriterion higham_scaled(double tau);
  static CutoffCriterion parameterized(double tau_m, double tau_k,
                                       double tau_n);
  static CutoffCriterion hybrid(double tau, double tau_m, double tau_k,
                                double tau_n);
  static CutoffCriterion fixed_depth(int depth);
  static CutoffCriterion never_recurse();

  /// The paper's measured parameters for a machine profile (Tables 2-3):
  /// RS/6000: tau=199, (75,125,95); C90: tau=129, (80,45,20);
  /// T3D: tau=325, (125,75,109). These are the library defaults until the
  /// tuner replaces them with values measured on the actual host.
  static CutoffCriterion paper_default(blas::Machine machine);

  std::string describe() const;

 private:
  friend CutoffCriterion detail::on_pool(const CutoffCriterion&, int);
  bool stop_shape(index_t m, index_t k, index_t n, int d) const;
  int pool_workers_ = 1;
};

namespace detail {

/// P for the pool-aware recursion depth: parallel::global_pool_size(),
/// unless a ScopedPoolWorkers pin is live. Never constructs the pool.
int pool_workers();

/// Test seam, not a user knob: pins pool_workers() process-wide for its
/// lifetime so tests can assert the paper's serial (P = 1) recursion
/// counts on any host. Not reentrant across threads; tests hold one at a
/// time.
class ScopedPoolWorkers {
 public:
  explicit ScopedPoolWorkers(int workers);
  ScopedPoolWorkers(const ScopedPoolWorkers&) = delete;
  ScopedPoolWorkers& operator=(const ScopedPoolWorkers&) = delete;
  ~ScopedPoolWorkers();

 private:
  int prev_;
};

}  // namespace detail

}  // namespace strassen::core
