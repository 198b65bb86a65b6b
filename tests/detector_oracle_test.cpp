//===- tests/detector_oracle_test.cpp - Differential detector oracles ----------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Checks the two passive detectors against independent reference oracles
// computed from the same recorded trace:
//
//  - HB oracle: the explicit happens-before graph of the execution
//    (program order, spawn edges, release of a monitor to its next
//    acquire) and its transitive closure.  Every HBDetector report
//    must be a pair of conflicting accesses the graph leaves unordered, and
//    every location on which the graph finds such a pair must get at least
//    one report.
//  - Lockset oracle: Eraser's Virgin -> Exclusive -> Shared ->
//    SharedModified state machine applied directly to the trace.
//    LockSetDetector must report exactly the oracle's variables.
//
// Inputs: every synthesized test of every corpus class under the 12 random
// phase-1 schedules at a small step budget, plus tests synthesized from
// seeded generated corpora (src/gen/).  The trace is recorded by running
// with no observer and then fed to the detectors, so both sides see the
// very same events.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "gen/GenEngine.h"
#include "runtime/Execution.h"
#include "support/StringUtils.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <tuple>

using namespace narada;

namespace {

/// Phase-1 schedules per test and their seeds, as in DetectOptions.
constexpr unsigned RandomRuns = 12;
constexpr uint64_t BaseSeed = 1;
/// A small budget keeps the quadratic-free oracles cheap on the divergent
/// C1 tests; a step-limited prefix is still a valid execution to check.
constexpr uint64_t OracleMaxSteps = 20'000;

/// A memory location: object plus field slot, or object plus element.
struct Location {
  ObjectId Obj = NoObject;
  bool IsElem = false;
  unsigned Index = 0;
  auto tie() const { return std::tie(Obj, IsElem, Index); }
  bool operator<(const Location &O) const { return tie() < O.tie(); }
};

/// How a RaceReport names a location: object, element flag, and the
/// element index or the field name.
using ReportedLocation = std::tuple<ObjectId, bool, unsigned, std::string>;

/// One heap access of the trace, with the static facts reports carry.
struct Access {
  size_t Event = 0; ///< Index into the trace.
  ThreadId Thread = 0;
  bool IsWrite = false;
  std::string Label;
  std::string Field; ///< "[]" for elements, else the field name.
};

std::string labelOf(const TraceEvent &E) {
  return formatString("%s:%u", E.Func->name().c_str(), E.Pc);
}

/// The field name an access event's instruction names, read from the IR.
std::string fieldOf(const TraceEvent &E) {
  if (E.isElemAccess())
    return "[]";
  return E.Func->instrs()[E.Pc].Member;
}

Location locationOf(const TraceEvent &E) {
  return {E.Obj, E.isElemAccess(), E.FieldIndex};
}

ReportedLocation reportedLocation(const Location &L, const Access &A) {
  return {L.Obj, L.IsElem, L.IsElem ? L.Index : 0, A.Field};
}

ReportedLocation reportedLocation(const RaceReport &R) {
  return {R.Obj, R.IsElem, R.IsElem ? R.ElemIndex : 0, R.Field};
}

/// The happens-before graph of one trace, closed transitively.  Edges go
/// forward in trace order, so one pass in trace order computes, for each
/// event e and thread t, the last position in t's program order of an
/// event with a path to e (0: none).  Then a -> b iff pos(a) <= Reach[b][t].
class HappensBefore {
public:
  explicit HappensBefore(const Trace &T) {
    const std::vector<TraceEvent> &Events = T.events();
    size_t NumThreads = 0;
    for (const TraceEvent &E : Events)
      NumThreads = std::max<size_t>(NumThreads, E.Thread + 1);

    // The explicit edges.
    std::vector<std::vector<size_t>> Preds(Events.size());
    std::vector<long> LastOfThread(NumThreads, -1);
    // Release -> acquire: an edge from the latest release of the monitor
    // suffices; earlier releases reach it through the releasing threads'
    // program order, since a monitor's holders alternate.
    std::map<ObjectId, size_t> LastRelease;
    Pos.resize(Events.size());
    std::vector<uint32_t> Count(NumThreads, 0);
    for (size_t I = 0; I < Events.size(); ++I) {
      const TraceEvent &E = Events[I];
      Pos[I] = ++Count[E.Thread];
      if (LastOfThread[E.Thread] >= 0) // Program order.
        Preds[I].push_back(static_cast<size_t>(LastOfThread[E.Thread]));
      if (E.Kind == EventKind::ThreadStart && E.ParentThread != NoThread &&
          LastOfThread[E.ParentThread] >= 0) // Spawn.
        Preds[I].push_back(static_cast<size_t>(LastOfThread[E.ParentThread]));
      if (E.Kind == EventKind::Lock)
        if (auto It = LastRelease.find(E.Obj); It != LastRelease.end())
          Preds[I].push_back(It->second);
      if (E.Kind == EventKind::Unlock)
        LastRelease[E.Obj] = I;
      LastOfThread[E.Thread] = static_cast<long>(I);
    }

    // Transitive closure.
    Reach.assign(Events.size(), std::vector<uint32_t>(NumThreads, 0));
    for (size_t I = 0; I < Events.size(); ++I) {
      for (size_t P : Preds[I])
        for (size_t U = 0; U < NumThreads; ++U)
          Reach[I][U] = std::max(Reach[I][U], Reach[P][U]);
      Reach[I][Events[I].Thread] = Pos[I];
    }
    Thread.reserve(Events.size());
    for (const TraceEvent &E : Events)
      Thread.push_back(E.Thread);
  }

  /// True when event \p A (earlier in the trace) happens before \p B.
  bool ordered(size_t A, size_t B) const {
    return Pos[A] <= Reach[B][Thread[A]];
  }

private:
  std::vector<uint32_t> Pos;
  std::vector<ThreadId> Thread;
  std::vector<std::vector<uint32_t>> Reach;
};

/// Groups the trace's accesses by location, in trace order.
std::map<Location, std::vector<Access>> accessesByLocation(const Trace &T) {
  std::map<Location, std::vector<Access>> Out;
  const std::vector<TraceEvent> &Events = T.events();
  for (size_t I = 0; I < Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    if (!E.isAccess())
      continue;
    Out[locationOf(E)].push_back(
        {I, E.Thread, E.isWrite(), labelOf(E), fieldOf(E)});
  }
  return Out;
}

/// The locations on which the graph leaves some conflicting pair
/// unordered.  For a later access b, only the latest earlier access (for a
/// write b) or latest earlier write (for a read b) of each other thread
/// needs checking: anything earlier in that thread's program order is
/// ordered before b whenever the latest one is.
std::set<ReportedLocation>
racyLocations(const HappensBefore &HB,
              const std::map<Location, std::vector<Access>> &ByLoc) {
  std::set<ReportedLocation> Out;
  for (const auto &[Loc, Accesses] : ByLoc) {
    std::map<ThreadId, size_t> LastAccess, LastWrite;
    bool Racy = false;
    for (const Access &B : Accesses) {
      const std::map<ThreadId, size_t> &Prior =
          B.IsWrite ? LastAccess : LastWrite;
      for (const auto &[U, A] : Prior)
        if (U != B.Thread && !HB.ordered(A, B.Event))
          Racy = true;
      LastAccess[B.Thread] = B.Event;
      if (B.IsWrite)
        LastWrite[B.Thread] = B.Event;
    }
    if (Racy)
      Out.insert(reportedLocation(Loc, Accesses.front()));
  }
  return Out;
}

/// True when the trace holds a pair of conflicting accesses matching
/// \p R that the graph leaves unordered.
bool reportIsRealRace(const HappensBefore &HB,
                      const std::map<Location, std::vector<Access>> &ByLoc,
                      const RaceReport &R) {
  if (!R.FirstIsWrite && !R.SecondIsWrite)
    return false;
  for (const auto &[Loc, Accesses] : ByLoc) {
    if (reportedLocation(Loc, Accesses.front()) != reportedLocation(R))
      continue;
    // The latest earlier access matching the first side suffices (see
    // racyLocations).
    std::optional<size_t> LatestFirst;
    for (const Access &A : Accesses) {
      if (A.Thread == R.SecondThread && A.Label == R.SecondLabel &&
          A.IsWrite == R.SecondIsWrite && LatestFirst &&
          !HB.ordered(*LatestFirst, A.Event))
        return true;
      if (A.Thread == R.FirstThread && A.Label == R.FirstLabel &&
          A.IsWrite == R.FirstIsWrite)
        LatestFirst = A.Event;
    }
  }
  return false;
}

/// Eraser applied directly: the variables it flags in \p T.
std::set<ReportedLocation> eraserVariables(const Trace &T) {
  enum class Phase { Exclusive, Shared, SharedModified };
  struct Var {
    Phase P = Phase::Exclusive;
    ThreadId Owner = NoThread;
    bool HasCandidates = false;
    std::set<ObjectId> Candidates;
  };
  std::map<ThreadId, std::set<ObjectId>> Held;
  std::map<Location, Var> Vars;
  std::set<ReportedLocation> Out;
  for (const TraceEvent &E : T.events()) {
    if (E.Kind == EventKind::Lock) {
      Held[E.Thread].insert(E.Obj);
      continue;
    }
    if (E.Kind == EventKind::Unlock) {
      Held[E.Thread].erase(E.Obj);
      continue;
    }
    if (!E.isAccess())
      continue;
    Location Loc = locationOf(E);
    auto [It, Fresh] = Vars.try_emplace(Loc);
    Var &V = It->second;
    if (Fresh) { // Virgin -> Exclusive.
      V.Owner = E.Thread;
      continue;
    }
    if (V.P == Phase::Exclusive && E.Thread != V.Owner)
      V.P = E.isWrite() ? Phase::SharedModified : Phase::Shared;
    else if (V.P == Phase::Shared && E.isWrite())
      V.P = Phase::SharedModified;
    if (V.P == Phase::Exclusive)
      continue;
    const std::set<ObjectId> &Locks = Held[E.Thread];
    if (!V.HasCandidates) {
      V.Candidates = Locks;
      V.HasCandidates = true;
    } else {
      std::set<ObjectId> Kept;
      for (ObjectId L : V.Candidates)
        if (Locks.count(L))
          Kept.insert(L);
      V.Candidates = std::move(Kept);
    }
    if (V.P == Phase::SharedModified && V.Candidates.empty())
      Out.insert({Loc.Obj, Loc.IsElem, Loc.IsElem ? Loc.Index : 0,
                  fieldOf(E)});
  }
  return Out;
}

/// Totals over one sweep, to keep the check from passing vacuously.
struct OracleTally {
  unsigned Runs = 0;
  unsigned RacyLocations = 0;
  unsigned LocksetVariables = 0;
};

/// Runs the 12 random phase-1 schedules of \p TestName and checks both
/// detectors against their oracles on each recorded trace.
void checkTest(const IRModule &M, const std::string &TestName,
               OracleTally &Tally) {
  for (unsigned RunIdx = 0; RunIdx < RandomRuns; ++RunIdx) {
    SCOPED_TRACE(formatString("%s, random run %u", TestName.c_str(), RunIdx));
    RandomPolicy Policy(BaseSeed + RunIdx);
    Result<TestRun> Run =
        runTest(M, TestName, Policy, /*RandSeed=*/1, nullptr, OracleMaxSteps);
    ASSERT_TRUE(Run.hasValue()) << Run.error().str();
    const Trace &T = Run->TheTrace;

    HBDetector HB;
    LockSetDetector LockSet;
    for (const TraceEvent &E : T.events()) {
      HB.onEvent(E);
      LockSet.onEvent(E);
    }

    HappensBefore Graph(T);
    std::map<Location, std::vector<Access>> ByLoc = accessesByLocation(T);

    std::set<ReportedLocation> Racy = racyLocations(Graph, ByLoc);
    std::set<ReportedLocation> HBLocations;
    std::set<std::string> Checked;
    for (const RaceReport &R : HB.races()) {
      HBLocations.insert(reportedLocation(R));
      std::string Id = formatString(
          "%s@%u[%u] t%u%c t%u%c", R.key().c_str(), R.Obj, R.ElemIndex,
          R.FirstThread, R.FirstIsWrite ? 'w' : 'r', R.SecondThread,
          R.SecondIsWrite ? 'w' : 'r');
      if (Checked.insert(Id).second) {
        EXPECT_TRUE(reportIsRealRace(Graph, ByLoc, R))
            << "HB report is not an unordered conflicting pair: " << R.str();
      }
    }
    for (const ReportedLocation &L : Racy)
      EXPECT_TRUE(HBLocations.count(L))
          << "racy location @" << std::get<0>(L) << "." << std::get<3>(L)
          << (std::get<1>(L) ? formatString("[%u]", std::get<2>(L)) : "")
          << " got no HB report";

    std::set<ReportedLocation> Eraser = eraserVariables(T);
    std::set<ReportedLocation> LocksetReported;
    for (const RaceReport &R : LockSet.races())
      LocksetReported.insert(reportedLocation(R));
    EXPECT_EQ(LocksetReported, Eraser) << "lockset reports differ from "
                                          "Eraser's flagged variables";

    ++Tally.Runs;
    Tally.RacyLocations += Racy.size();
    Tally.LocksetVariables += Eraser.size();
  }
}

/// Synthesizes tests for \p Source and checks every one of them.
OracleTally checkSynthesized(const std::string &Source,
                             const std::vector<std::string> &SeedNames,
                             const std::string &FocusClass) {
  OracleTally Tally;
  NaradaOptions Options;
  Options.FocusClass = FocusClass;
  Result<NaradaResult> R = runNarada(Source, SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  if (!R)
    return Tally;
  for (const SynthesizedTestInfo &T : R->Tests)
    checkTest(*R->Program.Module, T.Name, Tally);
  return Tally;
}

class CorpusOracle : public ::testing::TestWithParam<std::string> {};
class GenOracle : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(CorpusOracle, DetectorsAgreeWithOracles) {
  const CorpusEntry *Entry = findCorpusEntry(GetParam());
  ASSERT_NE(Entry, nullptr);
  OracleTally Tally =
      checkSynthesized(Entry->Source, Entry->SeedNames, Entry->ClassName);
  EXPECT_GT(Tally.Runs, 0u);
  EXPECT_GT(Tally.RacyLocations, 0u) << "no racy location: vacuous check";
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusOracle,
                         ::testing::Values("C1", "C2", "C3", "C4", "C5",
                                           "C6", "C7", "C8", "C9"));

// Tests synthesized from generated seed corpora of C9 and C2, one corpus
// per generator seed.
TEST_P(GenOracle, DetectorsAgreeWithOraclesOnGeneratedSeeds) {
  OracleTally Total;
  for (const char *Id : {"C9", "C2"}) {
    const CorpusEntry *Entry = findCorpusEntry(Id);
    ASSERT_NE(Entry, nullptr);
    gen::GenOptions Options;
    Options.FocusClass = Entry->ClassName;
    Options.Seed = GetParam();
    Result<gen::GenResult> Gen =
        gen::generateSeedCorpus(Entry->Source, Options);
    ASSERT_TRUE(Gen.hasValue()) << Gen.error().str();
    OracleTally Tally = checkSynthesized(Gen->CorpusSource, Gen->SeedNames,
                                         Entry->ClassName);
    Total.Runs += Tally.Runs;
    Total.RacyLocations += Tally.RacyLocations;
  }
  EXPECT_GT(Total.Runs, 0u);
  EXPECT_GT(Total.RacyLocations, 0u) << "no racy location: vacuous check";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenOracle, ::testing::Values(1, 7, 42));
