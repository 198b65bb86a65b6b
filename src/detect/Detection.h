//===- detect/Detection.h - Detection orchestration -------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a synthesized multithreaded test through the full detector stack,
/// mirroring the paper's §5 protocol (Table 5):
///
///  1. execute the test under a set of schedules with the happens-before
///     and lockset detectors attached; the union of their reports
///     (deduplicated by static label pair) is the set of *detected* races;
///  2. each detected race is handed to the RaceFuzzer-style confirmation
///     scheduler, which tries to *reproduce* it by pausing one thread at
///     the access;
///  3. every reproduced race is run in both access orders; differing final
///     heap states, faults or deadlocks classify it *harmful*, identical
///     states *benign* (e.g. racy writes of identical constant values —
///     the paper's C6 reset() pattern).
///
/// The code has three parts.  A *schedule source*, chosen once from the
/// options, yields the phase-1 schedules: random or PCT runs seeded by run
/// index, the systematic DFS (src/explore/) chained to random runs when its
/// schedule budget runs out, or the replay of one recorded trace.  Every
/// schedule goes through one *run step* (fresh detectors, the step budget,
/// outcome latching, race and first-witness noting).  One *exit path* then
/// fills Detected, writes the witnesses, and confirms and classifies;
/// every quarantine leaves through it with the results gathered so far.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_DETECTION_H
#define NARADA_DETECT_DETECTION_H

#include "detect/RaceReport.h"
#include "explore/ScheduleTrace.h"
#include "runtime/Execution.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace narada {

namespace detectworker {
struct DetectIsolateContext;
} // namespace detectworker

/// How phase 1 chooses the schedules it runs (see src/explore/), unless
/// DetectOptions::ReplayTrace is set.
enum class ExplorationMode {
  Random,     ///< RandomRuns executions under RandomPolicy (the default).
  PCT,        ///< RandomRuns executions under PCTPolicy.
  Systematic, ///< Bounded DFS via explore::exploreSchedules; degrades to
              ///< the random loop when the schedule budget is hit before
              ///< the bounded space is exhausted.
};

/// Parses "random" / "pct" / "systematic"; false on anything else
/// (\p Mode untouched).
bool parseExplorationMode(const std::string &Name, ExplorationMode &Mode);
const char *explorationModeName(ExplorationMode Mode);

/// Options for the detection protocol.
struct DetectOptions {
  unsigned RandomRuns = 12;    ///< Random-schedule detection executions.
  unsigned ConfirmAttempts = 4; ///< Scheduler seeds tried per confirmation.
  uint64_t BaseSeed = 1;
  /// Step budget of every run: random, systematic, replay, witness
  /// minimization and confirmation alike.  A random or confirmation run
  /// that exhausts it quarantines the test — never reported as a clean
  /// schedule.
  uint64_t MaxSteps = 400'000;
  bool UseHB = true;
  bool UseLockSet = true;
  /// Schedule source for phase 1 when ReplayTrace is unset.  Confirmation
  /// (phases 2 + 3) is identical in every mode.
  ExplorationMode Mode = ExplorationMode::Random;
  /// Schedule budget for Mode == Systematic.  Each schedule runs under
  /// MaxSteps above, like every other run.
  unsigned MaxSchedules = 256;
  /// When non-empty, every race found in phase 1 emits a minimized,
  /// replayable witness trace file under this directory — under random,
  /// PCT and systematic schedules; a replay writes none.
  std::string WitnessDir;
  /// When set, phase 1 is exactly one execution of this trace, whatever
  /// Mode says.  Shared because DetectOptions is copied per worker; the
  /// trace is read-only.
  std::shared_ptr<const explore::ScheduleTrace> ReplayTrace;
  /// Per-test wall-clock budget in seconds; exceeded => the test is
  /// quarantined with whatever results were already gathered.  0 disables
  /// the watchdog (the default: wall-clock cutoffs are inherently timing-
  /// dependent, so they are opt-in to keep default runs deterministic).
  double WallBudgetSeconds = 0.0;
};

/// One race after confirmation and classification.
struct ConfirmedRace {
  RaceReport Report;
  bool Reproduced = false;
  bool Harmful = false; ///< Meaningful when Reproduced.
  uint64_t HashFirstOrder = 0;
  uint64_t HashSecondOrder = 0;
};

/// The detection outcome for one test.
struct TestDetectionResult {
  std::vector<RaceReport> Detected; ///< Deduplicated by key().
  std::vector<ConfirmedRace> Races; ///< One entry per detected race.
  bool SawFault = false;
  bool SawDeadlock = false;
  /// Some run hit its step ceiling — the schedule was NOT clean end to
  /// end.
  bool SawStepLimit = false;
  /// The test was pulled from the run: a random or confirmation run
  /// exhausted its step budget, the wall budget ran out, or its detection
  /// crashed (exception contained by detectRacesInTests).  A test
  /// quarantined during phase 1 keeps its flags, SchedulesRun and the
  /// races its phase-1 runs detected (Detected), but nothing is confirmed
  /// (Races stays empty); one quarantined during confirmation keeps
  /// Detected and the Races classified so far.  Either way the test must
  /// not be counted as having run clean.
  bool Quarantined = false;
  std::string QuarantineReason; ///< Human-readable; empty when !Quarantined.
  /// Phase-1 schedule accounting: executions performed (random runs,
  /// systematic schedules, or the single replay) and, for Systematic,
  /// subtrees the DPOR/preemption-bound pruning discarded.
  unsigned SchedulesRun = 0;
  uint64_t SchedulesPruned = 0;
  /// Systematic mode covered its whole bounded space (no random fallback
  /// was needed).
  bool ExplorationExhausted = false;
  /// Witness trace files written for this test (sorted by race key).
  std::vector<std::string> WitnessFiles;

  unsigned reproducedCount() const;
  unsigned harmfulCount() const;
  unsigned benignCount() const;
};

/// A result for a test quarantined before detection produced anything:
/// records \p Reason, bumps detect.quarantined and \p CauseCounter, and
/// logs a warning.
TestDetectionResult quarantinedResult(const std::string &TestName,
                                      std::string Reason,
                                      const char *CauseCounter);

/// Runs the full protocol on \p TestName.  \p Hints adds candidate label
/// pairs from the synthesizer even if no random schedule detected them.
Result<TestDetectionResult>
detectRacesInTest(const IRModule &M, const std::string &TestName,
                  const DetectOptions &Options = {},
                  const std::vector<std::pair<std::string, std::string>>
                      &Hints = {});

/// One unit of the parallel detection stage: a test and its synthesizer
/// hint pairs.
struct TestDetectJob {
  std::string TestName;
  std::vector<std::pair<std::string, std::string>> Hints;
};

/// Runs detectRacesInTest for every job on \p JobCount worker threads
/// (1 = inline on the calling thread, 0 = one per hardware thread).  Each
/// test's schedule exploration is an independent deterministic function of
/// (module, test, options) — the VM is rebuilt per run over the shared
/// read-only module — so results are returned in input order and are
/// identical for every JobCount.  On failure the first error in input
/// order is returned.
///
/// Fault containment: an exception escaping one test's detection (e.g. an
/// injected fault — see support/FaultInjection.h; jobs run under
/// fault::ScopedUnit(index)) is captured per test and converted into a
/// quarantined TestDetectionResult carrying the exception message; every
/// other test's results are unaffected and the call still succeeds.
///
/// When \p Iso is non-null and enabled, each job instead runs in a worker
/// subprocess (detect/DetectWorker.h): soft faults quarantine identically,
/// and hard faults (SIGSEGV, OOM kill, hang) that would have taken this
/// process down are contained and quarantined with a crash classification.
Result<std::vector<TestDetectionResult>>
detectRacesInTests(const IRModule &M, const std::vector<TestDetectJob> &Jobs,
                   const DetectOptions &Options = {}, unsigned JobCount = 1,
                   const detectworker::DetectIsolateContext *Iso = nullptr);

} // namespace narada

#endif // NARADA_DETECT_DETECTION_H
