// Linter self-tests: runs the strassen_lint binary over the fixture corpus
// in tests/lint_corpus/ and checks that every `bad/` tree is rejected with
// findings of exactly its own rule while its `good/` twin passes clean.
// This is the test that each rule actually fires -- the production gate
// (scripts/lint.sh over src/) only ever sees a passing tree.
//
// The binary path and corpus directory arrive as compile definitions
// (LINT_BIN, LINT_CORPUS) from tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace {

struct RunResult {
  int rc = -1;
  std::string out;
};

// Runs the linter with `args` appended, capturing stdout+stderr.
RunResult run_lint(const std::string& args) {
  RunResult r;
  const std::string cmd = std::string(LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.out += buf;
  const int status = pclose(pipe);
  r.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

// Extracts the `[rule]` tag of every finding line (`file:line: [rule] ...`).
std::vector<std::string> finding_rules(const std::string& out) {
  std::vector<std::string> rules;
  std::istringstream ss(out);
  std::string line;
  while (std::getline(ss, line)) {
    const std::size_t open = line.find(": [");
    if (open == std::string::npos) continue;
    const std::size_t close = line.find(']', open);
    if (close == std::string::npos) continue;
    rules.push_back(line.substr(open + 3, close - open - 3));
  }
  return rules;
}

struct CorpusCase {
  const char* dir;   // case directory under tests/lint_corpus/
  const char* rule;  // the one rule its bad/ tree must trip
};

constexpr CorpusCase kCases[] = {
    {"r1_alloc", "alloc-outside-support"},
    {"r2_nofail", "alloc-in-nofail"},
    {"r3_driver", "fallible-after-c-write"},
    {"r4_nodiscard", "missing-nodiscard"},
    {"r5_relaxed", "relaxed-justification"},
    {"r6_cv", "cv-discipline"},
    {"r7_lock", "lock-discipline"},
    {"r8_blocking", "blocking-call"},
    {"suppression", "bad-suppression"},
};

TEST(LintCorpus, BadFixturesTripExactlyTheirOwnRule) {
  for (const CorpusCase& c : kCases) {
    const RunResult r =
        run_lint(std::string(LINT_CORPUS) + "/" + c.dir + "/bad");
    EXPECT_EQ(r.rc, 1) << c.dir << " bad tree must exit 1\n" << r.out;
    const std::vector<std::string> rules = finding_rules(r.out);
    EXPECT_FALSE(rules.empty()) << c.dir << " bad tree produced no findings";
    for (const std::string& rule : rules) {
      EXPECT_EQ(rule, c.rule) << c.dir << " tripped a foreign rule\n" << r.out;
    }
  }
}

TEST(LintCorpus, GoodTwinsPassClean) {
  for (const CorpusCase& c : kCases) {
    const RunResult r =
        run_lint(std::string(LINT_CORPUS) + "/" + c.dir + "/good");
    EXPECT_EQ(r.rc, 0) << c.dir << " good tree must exit 0\n" << r.out;
  }
}

TEST(LintCorpus, LazyPoolConstructionInNoFailRegionIsFlagged) {
  // The r2 bad tree's pool fixture reaches global_pool() inside the
  // region; its clean twin (same directory pass above) reaches the pool in
  // its pre-flight and fans out with run_batch_nofail.
  const RunResult r =
      run_lint(std::string(LINT_CORPUS) + "/r2_nofail/bad");
  EXPECT_NE(r.out.find("pool.cpp"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("global_pool("), std::string::npos) << r.out;
}

TEST(LintCorpus, SuppressionIsCountedNotSilent) {
  // The good suppression fixture holds a real (suppressed) violation; the
  // summary must say so rather than pretend the tree is trivially clean.
  const RunResult r =
      run_lint(std::string(LINT_CORPUS) + "/suppression/good");
  EXPECT_EQ(r.rc, 0) << r.out;
  EXPECT_NE(r.out.find("1 suppressed"), std::string::npos) << r.out;
}

TEST(LintCorpus, JsonReportMatchesFindings) {
  const std::string json = testing::TempDir() + "lint_corpus_findings.json";
  const RunResult r = run_lint("--json " + json + " " +
                               std::string(LINT_CORPUS) + "/r1_alloc/bad");
  EXPECT_EQ(r.rc, 1) << r.out;
  std::ifstream in(json);
  ASSERT_TRUE(in.good()) << "JSON report not written to " << json;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("\"rule\": \"alloc-outside-support\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"suppressed\": 0"), std::string::npos) << body;
  std::remove(json.c_str());
}

TEST(LintCli, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(run_lint("").rc, 2);
  EXPECT_EQ(run_lint("--json").rc, 2);
  EXPECT_EQ(run_lint("--bogus-flag src").rc, 2);
  EXPECT_EQ(run_lint(std::string(LINT_CORPUS) + "/no-such-dir").rc, 2);
}

TEST(LintCli, ListRulesNamesAllEight) {
  const RunResult r = run_lint("--list-rules");
  EXPECT_EQ(r.rc, 0);
  for (const CorpusCase& c : kCases) {
    if (std::string(c.rule) == "bad-suppression") continue;  // pseudo-rule
    EXPECT_NE(r.out.find(c.rule), std::string::npos)
        << "missing rule " << c.rule << "\n"
        << r.out;
  }
}

}  // namespace
