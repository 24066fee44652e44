// Tests for the two-parameter-set feature and its file persistence
// (Section 4.2's "two sets of parameters to handle both cases").
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "blas/kernels.hpp"
#include "support/errors.hpp"
#include "tuning/persist.hpp"

namespace strassen {
namespace {

using core::CutoffCriterion;
using tuning::TunedCriteria;

TunedCriteria sample() {
  TunedCriteria t;
  t.beta_zero = CutoffCriterion::hybrid(199, 75, 125, 95);
  t.general = CutoffCriterion::hybrid(214, 80, 130, 101);
  return t;
}

TEST(Persist, RoundTripThroughStream) {
  const TunedCriteria t = sample();
  std::stringstream ss;
  tuning::save_criteria(t, ss);
  const TunedCriteria back = tuning::load_criteria(ss);
  EXPECT_DOUBLE_EQ(back.beta_zero.tau, 199);
  EXPECT_DOUBLE_EQ(back.beta_zero.tau_m, 75);
  EXPECT_DOUBLE_EQ(back.beta_zero.tau_k, 125);
  EXPECT_DOUBLE_EQ(back.beta_zero.tau_n, 95);
  EXPECT_DOUBLE_EQ(back.general.tau, 214);
  EXPECT_DOUBLE_EQ(back.general.tau_m, 80);
  EXPECT_DOUBLE_EQ(back.general.tau_k, 130);
  EXPECT_DOUBLE_EQ(back.general.tau_n, 101);
  EXPECT_EQ(back.general.kind, core::CutoffKind::hybrid);
}

TEST(Persist, SelectPicksByBeta) {
  const TunedCriteria t = sample();
  EXPECT_DOUBLE_EQ(t.select(0.0).tau, 199);
  EXPECT_DOUBLE_EQ(t.select(1.0).tau, 214);
  EXPECT_DOUBLE_EQ(t.select(-0.5).tau, 214);
}

TEST(Persist, MissingKeysKeepDefaults) {
  std::stringstream ss("beta_zero.tau = 150\n");
  const TunedCriteria back = tuning::load_criteria(ss);
  EXPECT_DOUBLE_EQ(back.beta_zero.tau, 150);
  // Untouched keys fall back to the defaults.
  EXPECT_DOUBLE_EQ(back.beta_zero.tau_m, 75);
  EXPECT_DOUBLE_EQ(back.general.tau, 199);
}

TEST(Persist, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# a comment\n"
      "\n"
      "general.tau = 321  # trailing comment\n");
  const TunedCriteria back = tuning::load_criteria(ss);
  EXPECT_DOUBLE_EQ(back.general.tau, 321);
}

TEST(Persist, MalformedLineThrows) {
  std::stringstream ss("general.tau 321\n");  // missing '='
  EXPECT_THROW(tuning::load_criteria(ss), Error);
}

TEST(Persist, MissingFileThrows) {
  EXPECT_THROW(tuning::load_criteria_file("/nonexistent/dgefmm.params"),
               Error);
}

// A tuned-criteria file is keyed on the element type it was tuned in:
// float runs must never silently configure themselves from double-tuned
// cutoffs (the crossover point moves with the element width).
TEST(Persist, ElementTypeRoundTrips) {
  TunedCriteria t = sample();
  t.elem = "f32";
  std::stringstream ss;
  tuning::save_criteria(t, ss);
  EXPECT_NE(ss.str().find("elem = f32"), std::string::npos);
  const TunedCriteria back = tuning::load_criteria(ss);
  EXPECT_EQ(back.elem, "f32");
  EXPECT_TRUE(back.matches_element("f32"));
  EXPECT_FALSE(back.matches_element("f64"));
}

TEST(Persist, LegacyFileWithoutElemIsDoubleTuned) {
  // Files written before sgefmm existed have no elem key; they were tuned
  // in double, so they must match f64 and -- the regression -- must NOT
  // match f32.
  std::stringstream ss("beta_zero.tau = 150\ngeneral.tau = 200\n");
  const TunedCriteria back = tuning::load_criteria(ss);
  EXPECT_EQ(back.elem, "f64");
  EXPECT_TRUE(back.matches_element("f64"));
  EXPECT_FALSE(back.matches_element("f32"));
}

TEST(Persist, DefaultStampIsDouble) {
  // save_criteria always writes the elem key so new files are explicit.
  const TunedCriteria t = sample();
  std::stringstream ss;
  tuning::save_criteria(t, ss);
  EXPECT_NE(ss.str().find("elem = f64"), std::string::npos);
}

TEST(Persist, BogusElemThrows) {
  std::stringstream ss("elem = f16\n");
  EXPECT_THROW(tuning::load_criteria(ss), Error);
}

// --- kernel stamp: hard miss on mismatch -----------------------------------

// The regression this pins: a criteria file whose stamped kernel disagrees
// with the active dispatch must be a hard miss -- matches_active_kernel()
// false, so neither the loader convenience path nor install can mis-route
// dispatch with crossovers measured against a different GEMM.
TEST(Persist, KernelMismatchIsHardMiss) {
  TunedCriteria t = sample();
  t.kernel = "some-retired-kernel";
  EXPECT_FALSE(t.matches_active_kernel());
  t.kernel = blas::active_kernel().name;
  EXPECT_TRUE(t.matches_active_kernel());
}

// A file with no kernel record at all (pre-dispatch legacy) cannot prove
// which GEMM its crossovers were measured against: hard miss too, not the
// old benefit-of-the-doubt pass-through.
TEST(Persist, MissingKernelRecordIsHardMiss) {
  TunedCriteria t = sample();
  ASSERT_TRUE(t.kernel.empty());
  EXPECT_FALSE(t.matches_active_kernel());
}

// Float-tuned criteria must be stamped against the float kernel table of
// the active family; the double kernel's name is a mismatch for them.
TEST(Persist, FloatStampChecksFloatKernelTable) {
  TunedCriteria t = sample();
  t.elem = "f32";
  t.kernel = blas::active_kernel_f().name;
  EXPECT_TRUE(t.matches_active_kernel());
  t.kernel = blas::active_kernel().name;  // the double table's name
  EXPECT_FALSE(t.matches_active_kernel());
}

// --- scheme-crossover keys (the autotune extension) ------------------------

TEST(Persist, SchemeCrossoverKeysRoundTrip) {
  TunedCriteria t = sample();
  t.tau_fused = 1944;
  t.tau_fused2 = 1100;
  t.tau_hybrid = 1460;
  t.tau_s2 = 2100;
  std::stringstream ss;
  tuning::save_criteria(t, ss);
  EXPECT_NE(ss.str().find("scheme.fused = 1944"), std::string::npos);
  EXPECT_NE(ss.str().find("scheme.fused2 = 1100"), std::string::npos);
  EXPECT_NE(ss.str().find("scheme.hybrid = 1460"), std::string::npos);
  EXPECT_NE(ss.str().find("scheme.s2 = 2100"), std::string::npos);
  const TunedCriteria back = tuning::load_criteria(ss);
  EXPECT_DOUBLE_EQ(back.tau_fused, 1944);
  EXPECT_DOUBLE_EQ(back.tau_fused2, 1100);
  EXPECT_DOUBLE_EQ(back.tau_hybrid, 1460);
  EXPECT_DOUBLE_EQ(back.tau_s2, 2100);
}

TEST(Persist, SchemeKeysAbsentKeepNeverSentinel) {
  // Legacy files carry no scheme keys: the taus load as 0, the "never /
  // unmeasured" sentinel, and the eq.-15 keys are unaffected.
  std::stringstream ss("beta_zero.tau = 150\n");
  const TunedCriteria back = tuning::load_criteria(ss);
  EXPECT_DOUBLE_EQ(back.tau_fused, 0);
  EXPECT_DOUBLE_EQ(back.tau_fused2, 0);
  EXPECT_DOUBLE_EQ(back.tau_hybrid, 0);
  EXPECT_DOUBLE_EQ(back.tau_s2, 0);
}

TEST(Persist, TaskDagEraFileLoadsAndIgnoresDagKeys) {
  // Files written while the task-DAG route existed carry its crossover
  // (`scheme.dag`) and the pool size it was measured with (`threads`).
  // They still load: every other key keeps its value, the two DAG keys
  // are ignored, and a save writes neither back.
  std::stringstream ss(
      "# DGEFMM tuned cutoff parameters (hybrid criterion, eq. 15)\n"
      "format = 1\n"
      "kernel = avx512-8x8\n"
      "elem = f64\n"
      "beta_zero.tau = 199\n"
      "beta_zero.tau_m = 75\n"
      "beta_zero.tau_k = 125\n"
      "beta_zero.tau_n = 95\n"
      "general.tau = 180\n"
      "general.tau_m = 70\n"
      "general.tau_k = 120\n"
      "general.tau_n = 101\n"
      "scheme.fused = 384\n"
      "scheme.fused2 = 1100\n"
      "scheme.hybrid = 1460\n"
      "scheme.s2 = 2100\n"
      "scheme.dag = 720\n"
      "threads = 4\n");
  const TunedCriteria back = tuning::load_criteria(ss);
  EXPECT_EQ(back.kernel, "avx512-8x8");
  EXPECT_EQ(back.elem, "f64");
  EXPECT_DOUBLE_EQ(back.beta_zero.tau, 199);
  EXPECT_DOUBLE_EQ(back.general.tau_n, 101);
  EXPECT_DOUBLE_EQ(back.tau_fused, 384);
  EXPECT_DOUBLE_EQ(back.tau_fused2, 1100);
  EXPECT_DOUBLE_EQ(back.tau_hybrid, 1460);
  EXPECT_DOUBLE_EQ(back.tau_s2, 2100);
  std::stringstream out;
  tuning::save_criteria(back, out);
  EXPECT_EQ(out.str().find("scheme.dag"), std::string::npos);
  EXPECT_EQ(out.str().find("threads"), std::string::npos);
}

TEST(Persist, ZeroTausAreNotWritten) {
  // 0 means unmeasured: save omits the key entirely so a later load keeps
  // the sentinel instead of parsing an explicit "never" as a measurement.
  const TunedCriteria t = sample();
  std::stringstream ss;
  tuning::save_criteria(t, ss);
  EXPECT_EQ(ss.str().find("scheme."), std::string::npos);
  EXPECT_EQ(ss.str().find("threads"), std::string::npos);
}

TEST(Persist, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dgefmm_params_test.txt";
  ASSERT_TRUE(tuning::save_criteria_file(sample(), path));
  const TunedCriteria back = tuning::load_criteria_file(path);
  EXPECT_DOUBLE_EQ(back.beta_zero.tau, 199);
  EXPECT_DOUBLE_EQ(back.general.tau_n, 101);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace strassen
