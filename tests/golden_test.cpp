//===- tests/golden_test.cpp - Synthesized-source golden files -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Pins the exact printed source of three representative synthesized tests
// (one per corpus flavor: C1's factory-wrapped queue, C5's deep-path
// composite, C9's minimal pair) against golden files in tests/golden/.
// Any change to derivation, synthesis, printing, or the parallel commit
// order shows up here as a readable diff.  Also pins the lowered IR of C7
// and C8 (the two synchronized-method corpus classes): the static lockset
// analysis interprets exactly this IR, so a lowering change that moves a
// MonitorEnter or renumbers a label shows up here before it shows up as a
// verdict change.  Finally pins whole detection outcomes (C1-C8 under
// random schedules, C9 under PCT and under systematic exploration): every
// detected race, confirmation verdict, heap hash, outcome flag and
// quarantine reason of every synthesized test, so a restructuring of the
// detection protocol that changes any of them shows up here.
//
// To regenerate after an intentional output change:
//
//   NARADA_REGEN_GOLDEN=1 ./build/tests/narada_tests \
//       --gtest_filter='GoldenTest.*'
//
// then review the diff under tests/golden/ and commit it.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/DetectWorker.h"
#include "detect/Detection.h"
#include "ir/IRPrinter.h"
#include "support/Wire.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace narada;

namespace {

#ifndef NARADA_GOLDEN_DIR
#error "NARADA_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

std::string goldenPath(const std::string &Name) {
  return std::string(NARADA_GOLDEN_DIR) + "/" + Name + ".golden";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Compares \p Actual against the golden file, or rewrites the file when
/// NARADA_REGEN_GOLDEN is set.
void checkGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("NARADA_REGEN_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::string Expected = readFile(Path);
  ASSERT_FALSE(Expected.empty())
      << "missing golden file " << Path
      << " (regenerate with NARADA_REGEN_GOLDEN=1)";
  EXPECT_EQ(Expected, Actual) << Name
                              << ": output drifted from golden"
                                 " (NARADA_REGEN_GOLDEN=1 to accept)";
}

/// First synthesized test of \p CorpusId, the class's representative pair.
SynthesizedTestInfo firstTest(const std::string &CorpusId) {
  const CorpusEntry &E = *findCorpusEntry(CorpusId);
  NaradaOptions Options;
  Options.FocusClass = E.ClassName;
  Result<NaradaResult> R = runNarada(E.Source, E.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  if (!R || R->Tests.empty())
    return {};
  return R->Tests[0];
}

/// Detection of every synthesized test of \p CorpusId under \p Mode with
/// the CLI's default options, one detectworker::encodeDetectResult record
/// per test (headed by its name) in synthesis order.
std::string detectionRecords(const std::string &CorpusId,
                             ExplorationMode Mode) {
  const CorpusEntry &E = *findCorpusEntry(CorpusId);
  NaradaOptions Options;
  Options.FocusClass = E.ClassName;
  Result<NaradaResult> R = runNarada(E.Source, E.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  if (!R)
    return {};
  std::vector<TestDetectJob> Jobs;
  for (const SynthesizedTestInfo &T : R->Tests)
    Jobs.push_back({T.Name, T.CandidateLabels});
  DetectOptions Detect;
  Detect.Mode = Mode;
  Result<std::vector<TestDetectionResult>> D =
      detectRacesInTests(*R->Program.Module, Jobs, Detect);
  EXPECT_TRUE(D.hasValue()) << (D ? "" : D.error().str());
  if (!D)
    return {};
  std::string Out;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    wire::RecordWriter W;
    W.add("test", Jobs[I].TestName);
    detectworker::encodeDetectResult(W, (*D)[I]);
    Out += W.str();
  }
  return Out;
}

} // namespace

/// Lowered-IR print of a whole corpus module.
std::string loweredIR(const std::string &CorpusId) {
  const CorpusEntry &E = *findCorpusEntry(CorpusId);
  Result<CompiledProgram> P = compileProgram(E.Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  if (!P)
    return {};
  return printModule(*P->Module);
}

TEST(GoldenTest, C1FactoryWrappedQueue) {
  SynthesizedTestInfo T = firstTest("C1");
  ASSERT_FALSE(T.SourceText.empty());
  checkGolden("c1_first.mj", T.SourceText);
}

TEST(GoldenTest, C5DeepPathComposite) {
  SynthesizedTestInfo T = firstTest("C5");
  ASSERT_FALSE(T.SourceText.empty());
  checkGolden("c5_first.mj", T.SourceText);
}

TEST(GoldenTest, C9MinimalPair) {
  SynthesizedTestInfo T = firstTest("C9");
  ASSERT_FALSE(T.SourceText.empty());
  checkGolden("c9_first.mj", T.SourceText);
}

TEST(GoldenTest, C7LoweredIR) {
  std::string IR = loweredIR("C7");
  ASSERT_FALSE(IR.empty());
  checkGolden("c7_ir", IR);
}

TEST(GoldenTest, C8LoweredIR) {
  std::string IR = loweredIR("C8");
  ASSERT_FALSE(IR.empty());
  checkGolden("c8_ir", IR);
}

TEST(GoldenTest, C1RandomDetection) {
  checkGolden("c1_detect_random",
              detectionRecords("C1", ExplorationMode::Random));
}

// C2-C8 under random schedules: together with C1 above, every corpus
// class's default detection outcome is pinned.
TEST(GoldenTest, C2RandomDetection) {
  checkGolden("c2_detect_random",
              detectionRecords("C2", ExplorationMode::Random));
}

TEST(GoldenTest, C3RandomDetection) {
  checkGolden("c3_detect_random",
              detectionRecords("C3", ExplorationMode::Random));
}

TEST(GoldenTest, C4RandomDetection) {
  checkGolden("c4_detect_random",
              detectionRecords("C4", ExplorationMode::Random));
}

TEST(GoldenTest, C5RandomDetection) {
  checkGolden("c5_detect_random",
              detectionRecords("C5", ExplorationMode::Random));
}

TEST(GoldenTest, C6RandomDetection) {
  checkGolden("c6_detect_random",
              detectionRecords("C6", ExplorationMode::Random));
}

TEST(GoldenTest, C7RandomDetection) {
  checkGolden("c7_detect_random",
              detectionRecords("C7", ExplorationMode::Random));
}

TEST(GoldenTest, C8RandomDetection) {
  checkGolden("c8_detect_random",
              detectionRecords("C8", ExplorationMode::Random));
}

TEST(GoldenTest, C9PCTDetection) {
  checkGolden("c9_detect_pct", detectionRecords("C9", ExplorationMode::PCT));
}

TEST(GoldenTest, C9SystematicDetection) {
  checkGolden("c9_detect_systematic",
              detectionRecords("C9", ExplorationMode::Systematic));
}
