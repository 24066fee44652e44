// Consultable auto-tuned dispatch policy (the "measured crossover" layer).
//
// The paper tunes the eq.-15 hybrid cutoff once per machine (Section 4.2)
// and stores it in a parameters file; this module is the in-process home of
// that measurement, extended with the scheme crossovers the modern code
// paths need: at what equivalent order does the fused Strassen schedule
// overtake plain packed GEMM, when does a second fused level pay, when does
// the classic eq.-15 recursion (whose depth keeps growing with the problem)
// retake the lead from the level-capped fused schedules.
//
// Layering: core cannot depend on tuning/ (which owns measurement and file
// persistence). So the policy lives here
// as a passive registry: tuning/autotune.cpp measures and installs, the
// drivers consult. A policy is stamped with the micro-kernel name it was
// measured under and is a hard miss when the stamp no longer matches the
// active dispatch -- crossovers are properties of the GEMM speed, and a
// stale τ silently mis-routing is exactly the bug this PR fixes.
//
// Concurrency: install publishes a fully-written slot with a release store
// and consult reads with an acquire load, so readers always see a complete
// policy. Installs themselves are configuration actions (autotune runs,
// test setup) and must not race gefmm calls of the same element type --
// the same contract as blas::set_active_kernel.
#pragma once

#include "core/cutoff.hpp"
#include "support/config.hpp"

namespace strassen::core {

/// The schedule the tuned policy selects for one call shape.
enum class TunedPath {
  classic,    ///< no valid policy: the untuned default dispatch
  gemm,       ///< below the fused crossover: plain packed GEMM
  fused_l1,   ///< one fused Strassen level over packed GEMM
  fused_l2,   ///< two fused levels
  hybrid,     ///< classic eq.-15 hybrid recursion (depth scales with size)
  strassen2,  ///< forced STRASSEN2 recursion: the multiply-accumulate
              ///< schedule's three temporaries stay hot where the automatic
              ///< hybrid's per-level schedule churn does not, so past
              ///< tau_s2 it is the classic recursion that actually wins
};

/// Static-storage name for stats and bench JSON.
constexpr const char* tuned_path_name(TunedPath p) {
  switch (p) {
    case TunedPath::classic:
      return "classic";
    case TunedPath::gemm:
      return "gemm";
    case TunedPath::fused_l1:
      return "fused-l1";
    case TunedPath::fused_l2:
      return "fused-l2";
    case TunedPath::hybrid:
      return "hybrid";
    case TunedPath::strassen2:
      return "strassen2";
  }
  return "?";
}

/// One element type's measured dispatch policy. The scheme thresholds are
/// equivalent orders s = cbrt(m*k*n); 0 disables a threshold (tau_fused = 0
/// means "fused from the first size", tau_fused2/tau_hybrid = 0 mean "that
/// schedule never won in the sweep").
struct TunedPolicy {
  /// Eq.-15 hybrid cutoffs per beta case (Section 4.2's two sets), applied
  /// below the fused levels.
  CutoffCriterion beta_zero = CutoffCriterion::hybrid(199, 75, 125, 95);
  CutoffCriterion general = beta_zero;

  double tau_fused = 0;   ///< at or below: plain GEMM beats fused
  double tau_fused2 = 0;  ///< above: two fused levels beat one
  double tau_hybrid = 0;  ///< above: classic hybrid recursion beats fused.
                          ///< The fused schedules cap at two levels; the
                          ///< eq.-15 recursion keeps splitting, so it
                          ///< retakes the lead once two levels leave base
                          ///< products above the kernel's sweet spot.
  double tau_s2 = 0;      ///< above: within the classic-recursion regime
                          ///< (past tau_hybrid), forced STRASSEN2 beats the
                          ///< automatic hybrid. 0 = never measured to win;
                          ///< files from before this threshold existed load
                          ///< as 0 and keep the old hybrid routing.

  /// Micro-kernel stamp (blas::KernelInfo::name) the sweep ran under. A
  /// consult under any other active kernel is a hard miss.
  char kernel[48] = {};

  const CutoffCriterion& select(double beta) const {
    return beta == 0.0 ? beta_zero : general;
  }
};

/// Installs (copies) a policy for element type T and publishes it.
template <class T>
void install_tuned_policy(const TunedPolicy& policy);

/// Drops any installed policy for T (tests restore a clean slate).
template <class T>
void clear_tuned_policy();

/// The installed policy for T, or nullptr when none was installed or the
/// installed one is stamped with a kernel other than the active dispatch
/// (the hard miss). The pointer stays valid until the next install of the
/// same element type.
template <class T>
const TunedPolicy* tuned_policy();

/// The schedule the policy picks for an (m, k, n) call.
TunedPath tuned_path_for(const TunedPolicy& policy, index_t m, index_t k,
                         index_t n);

}  // namespace strassen::core

#include "core/types.hpp"

namespace strassen::core {

/// Resolves use_tuned in place: consults the policy for T, rewrites
/// cutoff/scheme/fused_levels for the selected path, and always clears
/// cfg.use_tuned so the resolved configuration re-enters the driver as an
/// ordinary explicit one. Returns the selected path (classic when no valid
/// policy is installed; the caller owns routing gemm, which needs no
/// recursion config at all). The driver and the workspace predictors both
/// resolve through this single definition, so the predicted arena size is
/// always the size of the schedule that actually runs.
template <class T>
TunedPath resolve_tuned(index_t m, index_t k, index_t n, T beta,
                        GefmmConfigT<T>& cfg) {
  cfg.use_tuned = false;
  const TunedPolicy* policy = tuned_policy<T>();
  if (policy == nullptr) return TunedPath::classic;
  const TunedPath path = tuned_path_for(*policy, m, k, n);
  cfg.cutoff = policy->select(static_cast<double>(beta));
  if (path == TunedPath::fused_l1) {
    cfg.scheme = Scheme::fused;
    cfg.fused_levels = 1;
  } else if (path == TunedPath::fused_l2) {
    cfg.scheme = Scheme::fused;
    cfg.fused_levels = 2;
  } else if (path == TunedPath::hybrid) {
    cfg.scheme = Scheme::automatic;
  } else if (path == TunedPath::strassen2) {
    cfg.scheme = Scheme::strassen2;
  }
  return path;
}

}  // namespace strassen::core
