//===- tests/step_alloc_test.cpp - Heap allocations on the step path -----------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Counts heap allocations (a counting global operator new, which is why this
// is its own executable) over the second, warm half of a run: by then every
// location the run touches has been seen, so the VM step loop, the
// scheduling policy and the observers have nothing left to allocate.  Two
// setups, the two hot paths of detection:
//
//  - phase 1: RandomPolicy with the HB and lockset detectors attached;
//  - confirmation: RaceConfirmPolicy with the AccessValueHasher attached.
//
// The subject is a C1 test that never terminates: a racy addLast leaves a
// cycle in the shared queue, and the next traversal spins over the same
// nodes until the step budget ends the run.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "detect/RaceConfirmer.h"
#include "runtime/Execution.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};
} // namespace

// GCC pairs inlined new-expressions with the free() below and warns; the
// replacement pair is matched by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace narada;

namespace {

/// Step budget of the measured runs: the warm half is 10,000 steps.
constexpr uint64_t Budget = 20'000;

/// Allocations allowed over the warm half.  Zero is the goal; the slack
/// covers one-off growth (a vector clock or a lockset widening late).
constexpr uint64_t WarmHalfBound = 16;

/// Delegates every pick and samples the allocation counter at the middle
/// pick and at every pick after it, so the sample ends before runTest's
/// end-of-run bookkeeping.
class HalfwayProbe : public SchedulingPolicy {
public:
  HalfwayProbe(SchedulingPolicy &Inner, uint64_t Halfway)
      : Inner(Inner), Halfway(Halfway) {}

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override {
    uint64_t Now = Allocations.load(std::memory_order_relaxed);
    if (Picks == Halfway)
      AtHalfway = Now;
    Last = Now;
    ++Picks;
    return Inner.pick(Runnable, M);
  }

  /// Allocations between the middle pick and the last pick.
  uint64_t warmHalf() const { return Last - AtHalfway; }
  uint64_t picks() const { return Picks; }

private:
  SchedulingPolicy &Inner;
  uint64_t Halfway;
  uint64_t Picks = 0;
  uint64_t AtHalfway = 0;
  uint64_t Last = 0;
};

/// The subject: a synthesized C1 test and a random seed under which it
/// spins until the budget, plus the label pair of a race it reports.
struct Subject {
  std::shared_ptr<IRModule> Module;
  std::string TestName;
  uint64_t Seed = 0;
  std::string LabelA, LabelB;
};

/// The first (test, seed) of C1 in synthesis order whose random run hits
/// the budget with an HB race reported.
Subject findSpinningTest() {
  const CorpusEntry *Entry = findCorpusEntry("C1");
  NaradaOptions Options;
  Options.FocusClass = Entry->ClassName;
  Result<NaradaResult> R = runNarada(Entry->Source, Entry->SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  Subject S;
  if (!R)
    return S;
  S.Module = R->Program.Module;
  for (const SynthesizedTestInfo &T : R->Tests) {
    for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
      RandomPolicy Policy(Seed);
      HBDetector HB;
      Result<TestRun> Run = runTest(*S.Module, T.Name, Policy, 1, &HB, Budget);
      if (!Run || !Run->Result.HitStepLimit || HB.races().empty())
        continue;
      S.TestName = T.Name;
      S.Seed = Seed;
      S.LabelA = HB.races().front().FirstLabel;
      S.LabelB = HB.races().front().SecondLabel;
      return S;
    }
  }
  ADD_FAILURE() << "no C1 test spins until the step budget";
  return S;
}

const Subject &subject() {
  static const Subject S = findSpinningTest();
  return S;
}

} // namespace

TEST(StepAllocTest, DetectionRunWarmHalfDoesNotAllocate) {
  const Subject &S = subject();
  ASSERT_FALSE(S.TestName.empty());
  RandomPolicy Random(S.Seed);
  HalfwayProbe Probe(Random, Budget / 2);
  HBDetector HB;
  LockSetDetector LockSet;
  ObserverMux Detectors;
  Detectors.add(&HB);
  Detectors.add(&LockSet);
  Result<TestRun> Run =
      runTest(*S.Module, S.TestName, Probe, 1, &Detectors, Budget);
  ASSERT_TRUE(Run.hasValue()) << Run.error().str();
  ASSERT_TRUE(Run->Result.HitStepLimit);
  ASSERT_EQ(Probe.picks(), Budget);
  EXPECT_LE(Probe.warmHalf(), WarmHalfBound)
      << S.TestName << " under random seed " << S.Seed;
}

TEST(StepAllocTest, ConfirmationRunWarmHalfDoesNotAllocate) {
  const Subject &S = subject();
  ASSERT_FALSE(S.TestName.empty());
  RaceConfirmPolicy Confirm(S.LabelA, S.LabelB, /*Seed=*/1001);
  HalfwayProbe Probe(Confirm, Budget / 2);
  AccessValueHasher Hasher(*S.Module, S.LabelA, S.LabelB);
  Result<TestRun> Run =
      runTest(*S.Module, S.TestName, Probe, 1, &Hasher, Budget);
  ASSERT_TRUE(Run.hasValue()) << Run.error().str();
  ASSERT_TRUE(Run->Result.HitStepLimit)
      << "the confirmation run must spin too, or its warm half is empty";
  ASSERT_EQ(Probe.picks(), Budget);
  EXPECT_LE(Probe.warmHalf(), WarmHalfBound)
      << S.TestName << " confirming " << S.LabelA << "~" << S.LabelB;
}
