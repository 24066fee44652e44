// Compile-time proofs for every schedule table in the library.
//
// Including this header is the proof: if any static_assert below fails the
// translation unit does not compile. core/winograd.cpp,
// core/winograd_fused.cpp, core/strassen_original.cpp, and
// core/workspace.cpp all include it, so the code that *executes* the tables
// (and the workspace predictors that charge for them) cannot build against
// an unproved schedule.
//
// What is proved:
//  * Algebra: each classic 2x2 schedule computes C = alpha*A*B (+ beta*C
//    for the general_beta tables) as an exact polynomial identity over the
//    noncommutative block ring (symbolic.hpp).
//  * Storage (Table 1): each schedule's declared temporary lifetimes are
//    tight, and the peak number of simultaneously live temporaries and
//    their per-shape footprint match the Schedule's claims -- the numbers
//    core/workspace.cpp charges per recursion level (pebble.hpp).
//  * Fused tables: the 7-product level-1 table and the composed 49-product
//    level-2 table each compute C = alpha*A*B + beta*C over their block
//    grids, use no temporaries at all, and respect the packed-GEMM
//    skeleton's 4-term/4-destination bound.
#pragma once

#include "verify/pebble.hpp"
#include "verify/schedule_ir.hpp"
#include "verify/symbolic.hpp"

namespace strassen::verify {

// --- Algebraic correctness: C = alpha*A*B + beta*C -------------------------

static_assert(check_schedule(kStrassen1Beta0) == kOk,
              "STRASSEN1 (beta==0) schedule does not compute C = alpha*A*B");
static_assert(check_schedule(kStrassen1General) == kOk,
              "STRASSEN1 (general beta) schedule does not compute "
              "C = alpha*A*B + beta*C");
static_assert(check_schedule(kStrassen2) == kOk,
              "STRASSEN2 schedule does not compute C = alpha*A*B + beta*C");
static_assert(check_schedule(kOriginalBeta0) == kOk,
              "original Strassen schedule does not compute C = alpha*A*B");

// --- Table 1 storage claims ------------------------------------------------

static_assert(check_lifetimes(kStrassen1Beta0) == kOk,
              "STRASSEN1 (beta==0) temporary lifetimes are not tight or do "
              "not peak at 2 temporaries");
static_assert(kStrassen1Beta0.peak_temps == 2,
              "Table 1: STRASSEN1 uses two temporaries per level");
static_assert(check_lifetimes(kStrassen1General) == kOk,
              "STRASSEN1 (general beta) temporary lifetimes are not tight "
              "or do not match the claimed footprint");
static_assert(kStrassen1General.peak_temps == 6,
              "general-beta STRASSEN1 uses R1, R2 and four product "
              "temporaries per level");
static_assert(check_lifetimes(kStrassen2) == kOk,
              "STRASSEN2 temporary lifetimes are not tight or do not peak "
              "at 3 temporaries");
static_assert(kStrassen2.peak_temps == 3,
              "Table 1: STRASSEN2 uses three temporaries per level");
static_assert(check_lifetimes(kOriginalBeta0) == kOk,
              "original-Strassen temporary lifetimes are not tight or do "
              "not peak at 3 temporaries");
static_assert(kOriginalBeta0.peak_temps == 3,
              "original Strassen uses three temporaries per level");

// --- Fused product tables --------------------------------------------------

static_assert(check_fused<2>(kFusedL1, kFusedL1Products) == kOk,
              "fused level-1 (7-product) table does not compute "
              "C = alpha*A*B + beta*C");
static_assert(check_fused<4>(kFusedL2.p, kFusedL2Products) == kOk,
              "fused level-2 (49-product) table does not compute "
              "C = alpha*A*B + beta*C");
static_assert(fused_peak_temps(kFusedL1, kFusedL1Products, 2) == 0,
              "fused level 1 must use zero temporaries");
static_assert(fused_peak_temps(kFusedL2.p, kFusedL2Products, 4) == 0,
              "fused level 2 must use zero temporaries");
static_assert(max_fused_terms(kFusedL1, kFusedL1Products) <= 2,
              "level-1 fused products read/write at most two blocks per "
              "operand");
static_assert(max_fused_terms(kFusedL2.p, kFusedL2Products) <= 4,
              "level-2 fused products must fit the packed-GEMM skeleton's "
              "4-term/4-destination bound");

}  // namespace strassen::verify
