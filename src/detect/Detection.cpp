//===- detect/Detection.cpp - Detection orchestration --------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/Detection.h"

#include "detect/DetectWorker.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "detect/RaceConfirmer.h"
#include "obs/MetricsWire.h"
#include "support/ProcessPool.h"
#include "support/Wire.h"
#include "explore/Explorer.h"
#include "explore/WitnessMinimizer.h"
#include "obs/Log.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <map>
#include <optional>
#include <set>

using namespace narada;

bool narada::parseExplorationMode(const std::string &Name,
                                  ExplorationMode &Mode) {
  if (Name == "random")
    Mode = ExplorationMode::Random;
  else if (Name == "pct")
    Mode = ExplorationMode::PCT;
  else if (Name == "systematic")
    Mode = ExplorationMode::Systematic;
  else
    return false;
  return true;
}

const char *narada::explorationModeName(ExplorationMode Mode) {
  switch (Mode) {
  case ExplorationMode::Random:
    return "random";
  case ExplorationMode::PCT:
    return "pct";
  case ExplorationMode::Systematic:
    return "systematic";
  }
  narada_unreachable("unknown exploration mode");
}

unsigned TestDetectionResult::reproducedCount() const {
  unsigned N = 0;
  for (const ConfirmedRace &R : Races)
    if (R.Reproduced)
      ++N;
  return N;
}

unsigned TestDetectionResult::harmfulCount() const {
  unsigned N = 0;
  for (const ConfirmedRace &R : Races)
    if (R.Reproduced && R.Harmful)
      ++N;
  return N;
}

unsigned TestDetectionResult::benignCount() const {
  unsigned N = 0;
  for (const ConfirmedRace &R : Races)
    if (R.Reproduced && !R.Harmful)
      ++N;
  return N;
}

namespace {

/// The passive phase-1 detectors: happens-before and lockset, each attached
/// to the observer only when its option is on.  Built fresh per execution.
class DetectorSet {
public:
  explicit DetectorSet(const DetectOptions &Options) {
    if (Options.UseHB)
      Mux.add(&HB);
    if (Options.UseLockSet)
      Mux.add(&LockSet);
  }
  DetectorSet(const DetectorSet &) = delete; // Mux points into this object.
  DetectorSet &operator=(const DetectorSet &) = delete;

  ExecutionObserver *observer() { return &Mux; }

  /// Calls \p F on every race either detector reported, HB first.
  template <typename Fn> void forEachRace(Fn &&F) const {
    for (const RaceReport &R : HB.races())
      F(R);
    for (const RaceReport &R : LockSet.races())
      F(R);
  }

private:
  HBDetector HB;
  LockSetDetector LockSet;
  ObserverMux Mux;
};

/// Latches that some run of the test hit its step ceiling, and counts it.
void noteStepLimit(TestDetectionResult &Out) {
  Out.SawStepLimit = true;
  obs::MetricsRegistry::global().counter("detect.step_limit_runs").inc();
}

/// Latches one phase-1 run's outcome flags into \p Out.
void latchOutcome(TestDetectionResult &Out, const RunResult &Run) {
  Out.SawFault = Out.SawFault || Run.Faulted;
  Out.SawDeadlock = Out.SawDeadlock || Run.Deadlocked;
  if (Run.HitStepLimit)
    noteStepLimit(Out);
}

/// Marks \p Out quarantined with \p Reason (first reason wins) and counts
/// it.  Results already in \p Out stay attached.
void quarantine(TestDetectionResult &Out, const std::string &TestName,
                std::string Reason) {
  if (Out.Quarantined)
    return;
  Out.Quarantined = true;
  Out.QuarantineReason = std::move(Reason);
  obs::MetricsRegistry::global().counter("detect.quarantined").inc();
  NARADA_LOG_WARN("quarantined test %s: %s", TestName.c_str(),
                  Out.QuarantineReason.c_str());
}

/// What one confirmation run (one access order of one pair) observed.
struct ConfirmRun {
  bool Confirmed = false;
  RaceReport Report;
  uint64_t HeapHash = 0;
  uint64_t ObservedHash = 0; ///< Values seen at the racy accesses.
  bool Misbehaved = false;   ///< Faulted or deadlocked.
  bool HitStepLimit = false; ///< Ran into its step budget.
};

using LabelPairs = std::vector<std::pair<std::string, std::string>>;

/// The §5 protocol for one test, in three parts: a schedule source chosen
/// once from the options (random or PCT, systematic chained to random, or
/// the replay of one trace) feeds every phase-1 schedule through one run
/// step; then one exit path fills Detected, emits witnesses, and confirms
/// and classifies every candidate pair.  A quarantine anywhere leaves
/// through the same exit path with the results gathered so far.
class TestDetection {
public:
  TestDetection(const IRModule &M, const std::string &TestName,
                const DetectOptions &Options)
      : M(M), TestName(TestName), Options(Options),
        RecordWitnesses(!Options.WitnessDir.empty() && !Options.ReplayTrace) {
  }

  /// The exit path: Detected -> witness -> confirm -> classify.
  Result<TestDetectionResult> run(const LabelPairs &Hints) {
    if (Status S = runSchedules(); !S.ok())
      return S.error();
    for (const auto &[Key, Report] : ByKey)
      Out.Detected.push_back(Report);
    Metrics.counter("detect.races_detected").inc(Out.Detected.size());
    NARADA_LOG_DEBUG("detect %s: %zu distinct races after %u phase-1 "
                     "schedules",
                     TestName.c_str(), Out.Detected.size(), Out.SchedulesRun);
    if (Out.Quarantined)
      return std::move(Out);
    if (Status S = emitWitnesses(); !S.ok())
      return S.error();
    if (Status S = confirmAndClassify(Hints); !S.ok())
      return S.error();
    return std::move(Out);
  }

private:
  /// Part 1: the schedule source.
  Status runSchedules() {
    if (Options.ReplayTrace)
      return runReplay();
    if (Options.Mode == ExplorationMode::Systematic)
      return runSystematic();
    return runRandom();
  }

  /// Random and PCT runs, each seeded by its run index (also the
  /// systematic fallback, which runs random).  A run that exhausts its
  /// step budget quarantines the test at once — a runaway schedule must
  /// never pass for a clean one.
  Status runRandom() {
    for (unsigned RunIdx = 0; RunIdx < Options.RandomRuns; ++RunIdx) {
      if (wallExpired()) {
        quarantineWall();
        return Status::success();
      }
      obs::Span ScheduleSpan("schedule");
      Metrics.counter("detect.schedules_explored").inc();
      ++Out.SchedulesRun;
      fault::probe("detect.random_run");
      bool HitStepLimit = true;
      if (fault::timeoutProbe("detect.random.steps")) {
        noteStepLimit(Out); // Simulated watchdog expiry: nothing runs.
      } else {
        RandomPolicy Random(Options.BaseSeed + RunIdx);
        PCTPolicy PCT(Options.BaseSeed + RunIdx);
        Result<RunResult> Run = Options.Mode == ExplorationMode::PCT
                                    ? step(PCT, /*RandSeed=*/1)
                                    : step(Random, /*RandSeed=*/1);
        if (!Run)
          return Run.error();
        HitStepLimit = Run->HitStepLimit;
      }
      if (HitStepLimit) {
        quarantineStepLimit(formatString("random-schedule run %u", RunIdx));
        return Status::success();
      }
    }
    return Status::success();
  }

  /// The bounded DFS, chained to the random runs when the schedule budget
  /// ran out before the pruned space was covered.  A step-limited schedule
  /// is latched (its prefix branches were still expanded) but does not
  /// quarantine.
  Status runSystematic() {
    struct Visitor final : explore::ScheduleVisitor {
      TestDetection &D;
      explicit Visitor(TestDetection &D) : D(D) {}
      Result<bool> runSchedule(SchedulingPolicy &Policy,
                               uint64_t RandSeed) override {
        if (Result<RunResult> Run = D.step(Policy, RandSeed); !Run)
          return Run.error();
        return !D.wallExpired();
      }
    } V(*this);

    explore::ExploreOptions ExOpts;
    ExOpts.MaxSchedules = Options.MaxSchedules;
    Result<explore::ExploreOutcome> Outcome =
        explore::exploreSchedules(ExOpts, V);
    if (!Outcome)
      return Outcome.error();
    Out.SchedulesRun += Outcome->SchedulesRun;
    Out.SchedulesPruned += Outcome->Pruned;
    Out.ExplorationExhausted = Outcome->Exhausted;
    if (wallExpired()) {
      quarantineWall();
      return Status::success();
    }
    if (Outcome->Exhausted)
      return Status::success();
    Metrics.counter("explore.fallbacks").inc();
    NARADA_LOG_DEBUG("systematic exploration of %s hit its budget after "
                     "%u schedules; falling back to %u random runs",
                     TestName.c_str(), Outcome->SchedulesRun,
                     Options.RandomRuns);
    return runRandom();
  }

  /// Exactly one run of DetectOptions::ReplayTrace.  Like a systematic
  /// schedule, a step-limited replay is latched but does not quarantine.
  Status runReplay() {
    const explore::ScheduleTrace &Trace = *Options.ReplayTrace;
    if (Trace.TestName != TestName)
      return Error(formatString(
          "schedule trace was recorded for test '%s', not '%s'",
          Trace.TestName.c_str(), TestName.c_str()));
    obs::Span ScheduleSpan("schedule");
    Metrics.counter("detect.schedules_explored").inc();
    Metrics.counter("explore.replays").inc();
    ++Out.SchedulesRun;
    explore::ReplayPolicy Policy(Trace);
    if (Result<RunResult> Run = step(Policy, Trace.RandSeed); !Run)
      return Run.error();
    if (Policy.diverged())
      NARADA_LOG_WARN("replay of %s diverged from its recorded schedule "
                      "(trace from a different module or build?)",
                      TestName.c_str());
    return Status::success();
  }

  /// Part 2: the phase-1 run step of every schedule source.  One run under
  /// \p Policy with fresh detectors; its outcome is latched into Out and,
  /// if it finished, every race it reported is noted with this schedule as
  /// the race's first witness.
  Result<RunResult> step(SchedulingPolicy &Policy, uint64_t RandSeed) {
    // Recording delegates every pick, so wrapping is transparent to Policy.
    explore::RecordingPolicy Recorder(Policy);
    Result<RunResult> Run = detectOnce(
        RecordWitnesses ? Recorder : Policy, RandSeed,
        [&](const RaceReport &R) {
          if (!ByKey.emplace(R.key(), R).second || !RecordWitnesses)
            return;
          explore::ScheduleTrace T = Recorder.trace(TestName, RandSeed);
          T.RaceKeys = {R.key()};
          WitnessTraces.emplace(R.key(), std::move(T));
        });
    if (Run)
      latchOutcome(Out, *Run);
    return Run;
  }

  /// The detector/run half of a step, shared with the witness oracle: one
  /// run under \p Policy with fresh detectors attached, then, if the run
  /// finished within its step budget, \p OnRace for every race they
  /// reported.
  template <typename Fn>
  Result<RunResult> detectOnce(SchedulingPolicy &Policy, uint64_t RandSeed,
                               Fn &&OnRace) const {
    DetectorSet Detectors(Options);
    Result<TestRun> Run = execute(Policy, RandSeed, Detectors.observer());
    if (!Run)
      return Run.error();
    if (!Run->Result.HitStepLimit)
      Detectors.forEachRace(OnRace);
    return std::move(Run->Result);
  }

  /// Every run of the test, in every phase, starts here: under the step
  /// budget.
  Result<TestRun> execute(SchedulingPolicy &Policy, uint64_t RandSeed,
                          ExecutionObserver *Observer) const {
    return runTest(M, TestName, Policy, RandSeed, Observer, Options.MaxSteps);
  }

  /// Part 3, after Detected: minimizes each race's first-witness schedule
  /// to a minimal preemption set, then writes it as a replayable trace
  /// file.  WitnessTraces is a sorted map and file names are derived from
  /// (test, index), so output is deterministic and --jobs-independent.
  Status emitWitnesses() {
    if (WitnessTraces.empty())
      return Status::success();
    obs::Span WitnessSpan("witness");
    unsigned Index = 0;
    for (auto &[Key, Trace] : WitnessTraces) {
      // The oracle replays a relaxed segment candidate and hands back the
      // exact re-recorded schedule iff this race key still manifests.
      explore::MinimizeOracle Oracle =
          [&, &Key = Key, &Trace = Trace](
              const std::vector<explore::SegmentReplayPolicy::Segment>
                  &Candidate) -> std::optional<explore::ScheduleTrace> {
        explore::SegmentReplayPolicy Inner(Candidate);
        explore::RecordingPolicy Recorder(Inner);
        bool Seen = false;
        Result<RunResult> Run =
            detectOnce(Recorder, Trace.RandSeed, [&](const RaceReport &R) {
              Seen = Seen || R.key() == Key;
            });
        if (!Run || !Seen)
          return std::nullopt;
        return Recorder.trace(TestName, Trace.RandSeed);
      };
      explore::MinimizeOutcome Min = explore::minimizeWitness(Trace, Oracle);
      Metrics.counter("explore.minimized_steps").inc(Min.PreemptionsRemoved);
      std::string Path = formatString("%s/%s.w%u.trace",
                                      Options.WitnessDir.c_str(),
                                      TestName.c_str(), Index);
      ++Index;
      if (Status S = Min.Minimized.writeFile(Path); !S.ok())
        return S;
      Metrics.counter("explore.witnesses").inc();
      Out.WitnessFiles.push_back(std::move(Path));
      NARADA_LOG_DEBUG("witness for %s written to %s (%u -> %u "
                       "preemptions, %u candidates)",
                       Key.c_str(), Out.WitnessFiles.back().c_str(),
                       Trace.preemptions(), Min.Minimized.preemptions(),
                       Min.CandidatesTried);
    }
    return Status::success();
  }

  /// Phases 2 + 3: confirms and classifies each detected race (and each
  /// synthesizer hint that no phase-1 schedule happened to expose).  A
  /// quarantine stops here, keeping Detected and the Races classified so
  /// far.
  Status confirmAndClassify(const LabelPairs &Hints) {
    std::set<std::string> ConfirmTargets;
    LabelPairs Pairs;
    for (const RaceReport &R : Out.Detected) {
      if (ConfirmTargets.insert(R.key()).second)
        Pairs.emplace_back(R.FirstLabel, R.SecondLabel);
    }
    for (const auto &[A, B] : Hints) {
      std::string HintKey = A < B ? A + "~" + B : B + "~" + A;
      if (ConfirmTargets.insert("hint:" + HintKey).second) {
        Pairs.emplace_back(A, B);
        Metrics.counter("detect.hint_targets").inc();
      }
    }

    std::set<std::string> Classified;
    for (const auto &[LabelA, LabelB] : Pairs) {
      if (wallExpired()) {
        quarantineWall();
        return Status::success();
      }
      obs::Span ConfirmSpan("confirm");
      ConfirmedRace Entry;
      for (unsigned Attempt = 0; Attempt < Options.ConfirmAttempts;
           ++Attempt) {
        Metrics.counter("detect.confirm_attempts").inc();
        uint64_t Seed = Options.BaseSeed + 1000 + Attempt;
        Result<ConfirmRun> First =
            confirmOnce(LabelA, LabelB, Seed, /*SecondFirst=*/false);
        if (!First)
          return First.error();
        if (First->HitStepLimit)
          return Status::success(); // Quarantined by confirmOnce.
        if (!First->Confirmed)
          continue;
        Result<ConfirmRun> Second =
            confirmOnce(LabelA, LabelB, Seed, /*SecondFirst=*/true);
        if (!Second)
          return Second.error();
        if (Second->HitStepLimit)
          return Status::success();

        Entry.Reproduced = true;
        Entry.Report = First->Report;
        Entry.HashFirstOrder = First->HeapHash;
        Entry.HashSecondOrder =
            Second->Confirmed ? Second->HeapHash : First->HeapHash;
        bool StateDiverges =
            Second->Confirmed && First->HeapHash != Second->HeapHash;
        bool ObservationDiverges =
            Second->Confirmed && First->ObservedHash != Second->ObservedHash;
        Entry.Harmful = StateDiverges || ObservationDiverges ||
                        First->Misbehaved || Second->Misbehaved;
        break;
      }
      if (!Entry.Reproduced) {
        // Keep an unreproduced placeholder so counts line up with Detected.
        Entry.Report.FirstLabel = LabelA;
        Entry.Report.SecondLabel = LabelB;
        Entry.Report.Detector = "confirm";
      }
      if (Classified.insert(Entry.Report.key()).second)
        Out.Races.push_back(std::move(Entry));
    }
    Metrics.counter("detect.races_reproduced").inc(Out.reproducedCount());
    Metrics.counter("detect.races_harmful").inc(Out.harmfulCount());
    Metrics.counter("detect.races_benign").inc(Out.benignCount());
    return Status::success();
  }

  /// One confirmation run of \p LabelA~\p LabelB in one access order.  A
  /// step-limited run quarantines the test — the confirmation can not be
  /// trusted to have run clean.
  Result<ConfirmRun> confirmOnce(const std::string &LabelA,
                                 const std::string &LabelB, uint64_t Seed,
                                 bool SecondFirst) {
    obs::Span ScheduleSpan("schedule");
    Metrics.counter("detect.schedules_explored").inc();
    Metrics.counter("detect.confirm_runs").inc();
    fault::probe("detect.confirm");
    ConfirmRun Order;
    if (fault::timeoutProbe("detect.confirm.steps")) {
      Order.HitStepLimit = true; // Simulated watchdog expiry: nothing runs.
    } else {
      RaceConfirmPolicy Policy(LabelA, LabelB, Seed, SecondFirst);
      AccessValueHasher Hasher(M, LabelA, LabelB);
      Result<TestRun> Run = execute(Policy, /*RandSeed=*/1, &Hasher);
      if (!Run)
        return Run.error();
      Order.Confirmed = Policy.confirmed();
      if (Order.Confirmed)
        Order.Report = Policy.confirmedRace();
      Order.HeapHash = Run->HeapHash;
      Order.ObservedHash = Hasher.hash();
      Order.Misbehaved = Run->Result.Faulted || Run->Result.Deadlocked;
      Order.HitStepLimit = Run->Result.HitStepLimit;
    }
    if (Order.HitStepLimit) {
      noteStepLimit(Out);
      quarantineStepLimit(formatString("confirmation of %s~%s%s",
                                       LabelA.c_str(), LabelB.c_str(),
                                       SecondFirst ? " (reversed order)" : ""));
    }
    return Order;
  }

  /// The watchdogs.  The wall clock is checked at run boundaries (a
  /// budget of 0 is unlimited); a runaway single run is bounded by the
  /// step budget, and random and confirmation runs share its quarantine.
  bool wallExpired() const {
    return Options.WallBudgetSeconds > 0.0 &&
           Wall.seconds() > Options.WallBudgetSeconds;
  }
  void quarantineWall() {
    quarantine(Out, TestName,
               formatString("wall-clock budget of %.3fs exceeded after %.3fs",
                            Options.WallBudgetSeconds, Wall.seconds()));
  }
  void quarantineStepLimit(const std::string &Run) {
    quarantine(Out, TestName,
               formatString("%s exceeded its step budget of %llu steps",
                            Run.c_str(),
                            static_cast<unsigned long long>(Options.MaxSteps)));
  }

  const IRModule &M;
  const std::string &TestName;
  const DetectOptions &Options;
  /// A replayed schedule already is a witness: replay records none.
  const bool RecordWitnesses;
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Timer Wall;
  TestDetectionResult Out;
  std::map<std::string, RaceReport> ByKey;
  /// First-witness schedule per race key (when RecordWitnesses).
  std::map<std::string, explore::ScheduleTrace> WitnessTraces;
};

} // namespace

TestDetectionResult narada::quarantinedResult(const std::string &TestName,
                                              std::string Reason,
                                              const char *CauseCounter) {
  TestDetectionResult Q;
  quarantine(Q, TestName, std::move(Reason));
  obs::MetricsRegistry::global().counter(CauseCounter).inc();
  return Q;
}

Result<TestDetectionResult> narada::detectRacesInTest(
    const IRModule &M, const std::string &TestName,
    const DetectOptions &Options,
    const std::vector<std::pair<std::string, std::string>> &Hints) {
  obs::Span TestSpan("test");
  obs::MetricsRegistry::global().counter("detect.tests_run").inc();
  fault::probe("detect.test");
  return TestDetection(M, TestName, Options).run(Hints);
}

namespace {

/// The --isolate detection stage: one worker subprocess unit per test.
/// Soft faults come back as ordinary quarantined results built inside the
/// worker (counters travel in the metrics delta); hard faults — the worker
/// dying under a unit — are classified by the pool supervisor and degrade
/// to a crash quarantine here, with every other test unaffected.
Result<std::vector<TestDetectionResult>>
detectIsolated(const std::vector<TestDetectJob> &Jobs,
               const DetectOptions &Options, unsigned JobCount,
               const detectworker::DetectIsolateContext &Iso) {
  pool::ProcessPool Pool(Iso.Isolate.poolOptions(
      resolveJobs(JobCount), detectworker::encodeSetup(Iso, Options)));

  std::vector<std::string> Units;
  Units.reserve(Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I)
    Units.push_back(detectworker::encodeUnit(I, Jobs[I]));
  std::vector<pool::UnitOutcome> Outcomes = Pool.run(Units);

  // Commit in input order — identical to the in-process merge walk.
  std::vector<TestDetectionResult> Out;
  Out.reserve(Jobs.size());
  std::optional<Error> FirstError;
  for (size_t I = 0; I < Outcomes.size(); ++I) {
    const pool::UnitOutcome &O = Outcomes[I];
    obs::observePoolUnitMicros(O.Micros);
    if (!O.Ok) {
      Out.push_back(quarantinedResult(Jobs[I].TestName, pool::describeCrash(O),
                                      "detect.worker_crashes"));
      continue;
    }
    wire::RecordReader Reply(O.Payload);
    obs::mergeMetricsDelta(Reply);
    if (std::optional<std::string> Err = Reply.get("err")) {
      if (!FirstError)
        FirstError.emplace(*Err);
      Out.emplace_back();
      continue;
    }
    if (std::optional<std::string> Fault = Reply.get("fault")) {
      Out.push_back(quarantinedResult(Jobs[I].TestName,
                                      "internal fault: " + *Fault,
                                      "detect.internal_faults"));
      continue;
    }
    Out.push_back(detectworker::decodeDetectResult(Reply));
  }
  obs::publishPoolStats(Pool.stats());
  if (FirstError)
    return *FirstError;
  return Out;
}

} // namespace

Result<std::vector<TestDetectionResult>> narada::detectRacesInTests(
    const IRModule &M, const std::vector<TestDetectJob> &Jobs,
    const DetectOptions &Options, unsigned JobCount,
    const detectworker::DetectIsolateContext *Iso) {
  if (Iso && Iso->Isolate.Enabled)
    return detectIsolated(Jobs, Options, JobCount, *Iso);
  const unsigned Workers = resolveJobs(JobCount);
  std::vector<std::optional<Result<TestDetectionResult>>> Slots(Jobs.size());

  // Captures a crash inside one test's detection and degrades it to a
  // quarantined result: one misbehaving synthesized test must cost its own
  // results, never the whole batch (let alone the process).
  auto Quarantined = [&](size_t I, std::exception_ptr E) {
    return quarantinedResult(Jobs[I].TestName,
                             "internal fault: " + describeException(E),
                             "detect.internal_faults");
  };

  auto RunOne = [&](size_t I) {
    fault::ScopedUnit Unit(I);
    obs::TraceScope Scope("test", I);
    try {
      Slots[I].emplace(
          detectRacesInTest(M, Jobs[I].TestName, Options, Jobs[I].Hints));
    } catch (...) {
      Slots[I].emplace(Quarantined(I, std::current_exception()));
    }
  };

  if (Workers <= 1 || Jobs.size() <= 1) {
    for (size_t I = 0; I < Jobs.size(); ++I)
      RunOne(I);
  } else {
    // Independent schedule explorations for different tests run
    // concurrently; each slot is written by exactly one task.
    obs::SpanParent Parent{obs::Span::currentPath()};
    std::vector<std::string> WorkerNames;
    for (unsigned W = 0; W < Workers; ++W)
      WorkerNames.push_back(formatString("worker%u", W));
    ThreadPool Pool(Workers);
    std::vector<ThreadPool::TaskFailure> Failures =
        Pool.parallelFor(Jobs.size(), [&](size_t I, unsigned W) {
          obs::Span WorkerSpan(WorkerNames[W], Parent);
          RunOne(I);
        });
    // RunOne contains exceptions itself; the pool barrier is the backstop
    // for anything escaping the slot bookkeeping.
    for (ThreadPool::TaskFailure &F : Failures)
      Slots[F.Item].emplace(Quarantined(F.Item, std::move(F.Error)));
  }

  // Merge in input order; surface the first error deterministically.
  std::vector<TestDetectionResult> Out;
  Out.reserve(Jobs.size());
  for (std::optional<Result<TestDetectionResult>> &Slot : Slots) {
    if (!Slot->hasValue())
      return Slot->error();
    Out.push_back(Slot->take());
  }
  return Out;
}
