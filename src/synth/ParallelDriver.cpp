//===- synth/ParallelDriver.cpp - Parallel pair-level executor -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/ParallelDriver.h"

#include "lang/ASTPrinter.h"
#include "obs/Log.h"
#include "obs/MetricsWire.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/Wire.h"
#include "synth/SynthWorker.h"

#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>

using namespace narada;

namespace {

/// Maps a synthesizer failure message onto a skip category.  The
/// synthesizer's message families are part of its contract (tests assert
/// on them), so prefix matching here is the lightest classification that
/// keeps Error a plain message type.
SkipReason classifySkip(const std::string &Message) {
  if (startsWith(Message, "no provider for") ||
      startsWith(Message, "no seed provides"))
    return SkipReason::NoSeedProvider;
  if (startsWith(Message, "no seed call site") ||
      startsWith(Message, "no seed constructor site"))
    return SkipReason::NoSeedCallSite;
  if (startsWith(Message, "constrained parameter") ||
      Message.find("is not normalized") != std::string::npos)
    return SkipReason::DerivationMismatch;
  return SkipReason::Other;
}

void countSkip(SkipReason Reason) {
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  R.counter("synth.pairs_skipped").inc();
  R.counter(std::string("synth.pairs_skipped.") + skipReasonId(Reason))
      .inc();
}

} // namespace

uint64_t narada::pairDerivationSeed(uint64_t Base, size_t PairIndex) {
  // One SplitMix64 step decorrelates the per-pair streams even for
  // consecutive indices; the xor constant keeps index 0 off the base seed.
  RNG Mix(Base ^ (0x9e3779b97f4a7c15ULL * (PairIndex + 1)));
  return Mix.next();
}

// The shape key deduplicating pairs onto one test (the paper synthesizes
// 15 tests for C1's 65 pairs): method pair + effective sharing paths +
// shared class.
std::string narada::synthShapeKey(const RacyPair &Pair,
                                  const SharingPlan &Plan) {
  return formatString(
      "%s.%s|%s.%s|%s|%s|%s", Pair.First.ClassName.c_str(),
      Pair.First.Method.c_str(), Pair.Second.ClassName.c_str(),
      Pair.Second.Method.c_str(), Plan.First.EffectivePath.str().c_str(),
      Plan.Second.EffectivePath.str().c_str(),
      Plan.SharedClassName.c_str());
}

SharingPlan narada::deriveSynthPlan(ContextDeriver &Deriver,
                                    const RacyPair &Pair, size_t PairIndex,
                                    const NaradaOptions &Options) {
  std::optional<uint64_t> PairSeed;
  if (Options.DerivationSeed)
    PairSeed = pairDerivationSeed(*Options.DerivationSeed, PairIndex);
  SharingPlan Plan = Deriver.deriveSharing(Pair, PairSeed);
  if (!Options.EnableContextDerivation) {
    // Ablation: strip all constraints; both sides get fresh instances.
    auto Fresh = [&](SharingPlan::Side &Side, const RacySide &RS) {
      Side.Plan = std::make_unique<ProvidePlan>();
      Side.Plan->K = ProvidePlan::Kind::FromSeed;
      Side.Plan->ClassName = Deriver.rootClassOf(RS);
      Side.EffectivePath = AccessPath(RS.BasePath.Root, {});
    };
    Fresh(Plan.First, Pair.First);
    Fresh(Plan.Second, Pair.Second);
    Plan.Complete = false;
  }
  return Plan;
}

std::vector<CommitDecision>
narada::planCommit(const std::vector<std::string> &Shapes,
                   const std::function<bool(size_t)> &SynthesisSucceeds,
                   unsigned MaxTests) {
  std::vector<CommitDecision> Out(Shapes.size());
  std::unordered_map<std::string, size_t> TestByShape;
  size_t TestCount = 0;
  for (size_t I = 0; I < Shapes.size(); ++I) {
    auto Existing = TestByShape.find(Shapes[I]);
    if (Existing != TestByShape.end()) {
      Out[I] = {CommitDecision::Kind::Join, Existing->second};
      continue;
    }
    if (MaxTests && TestCount >= MaxTests) {
      Out[I] = {CommitDecision::Kind::BudgetSkip, 0};
      continue;
    }
    if (SynthesisSucceeds(I)) {
      Out[I] = {CommitDecision::Kind::NewTest, TestCount};
      TestByShape[Shapes[I]] = TestCount++;
    } else {
      // Not recorded: a later pair of this shape re-attempts, like the
      // serial loop (failures are deterministic, so it fails the same
      // way and yields its own skip entry).
      Out[I] = {CommitDecision::Kind::FailSkip, 0};
    }
  }
  return Out;
}

void narada::PairSlot::fault(size_t PairIndex, SkipReason Reason,
                     std::string Message) {
  Faulted = true;
  FaultReason = Reason;
  FaultMessage = std::move(Message);
  Shape = formatString("<internal-fault>#%zu", PairIndex);
}

void narada::synthesizeIntoSlot(TestSynthesizer &Synth, const RacyPair &Pair,
                                const SharingPlan &Plan, PairSlot &Slot) {
  Result<std::unique_ptr<TestDecl>> Attempt =
      Synth.synthesize(Pair, Plan, SynthPlaceholderName);
  Slot.Attempted = true;
  Slot.AttemptOk = Attempt.hasValue();
  if (Attempt) {
    Slot.Source = printTest(**Attempt);
    Slot.Complete = Plan.Complete;
    Slot.SharedClass = Plan.SharedClassName;
  } else {
    Slot.ErrMessage = Attempt.error().message();
    Slot.ErrStr = Attempt.error().str();
  }
}

namespace {

enum class UnitOp { Derive, Synth };

/// Where the stage's derive and synth units run, filling their slots.  A
/// unit that crashes marks its slot faulted instead of unwinding the
/// stage, so every runner degrades the same way.
class UnitRunner {
public:
  UnitRunner() = default;
  UnitRunner(const UnitRunner &) = delete;
  UnitRunner &operator=(const UnitRunner &) = delete;
  virtual ~UnitRunner() = default;
  /// Runs \p Op for every pair index in \p Units.
  virtual void run(UnitOp Op, const std::vector<size_t> &Units) = 0;
  /// Runs the synth unit of pair \p I, which the commit walk needs now.
  virtual void runOne(size_t I) { run(UnitOp::Synth, {I}); }
};

/// Per-worker pipeline instances: stage objects are cheap wrappers over
/// the shared read-only databases, so giving each worker its own keeps
/// them trivially race-free.
struct WorkerState {
  WorkerState(const AnalysisResult &Analysis, const ProgramInfo &Info,
              const SeedRegistry &Registry, DerivationMemo *Memo)
      : Deriver(Analysis, Info), Synth(Registry, Info) {
    Deriver.setMemo(Memo);
  }
  ContextDeriver Deriver;
  TestSynthesizer Synth;
};

/// Runs units in this process: inline at --jobs 1 (serial span layout, no
/// pool thread), stolen from the ThreadPool's deques otherwise.  A pair's
/// plan stays here between its derive and synth units.
class InProcessUnits final : public UnitRunner {
public:
  InProcessUnits(const AnalysisResult &Analysis, const ProgramInfo &Info,
                 const SeedRegistry &Registry,
                 const std::vector<RacyPair> &Pairs,
                 const NaradaOptions &Options, unsigned Jobs,
                 std::vector<PairSlot> &Slots)
      : Pairs(Pairs), Options(Options), Slots(Slots), Plans(Pairs.size()),
        Parent{obs::Span::currentPath()} {
    // The serving layer may supply a memo pre-warmed by earlier runs; memo
    // contents only short-circuit deterministic derivations, so a warm
    // memo is a pure speedup with byte-identical output.
    DerivationMemo *Memo = Options.Caches && Options.Caches->SharedMemo
                               ? Options.Caches->SharedMemo
                               : &LocalMemo;
    // Worker spans root under the submitting thread's innermost span
    // (normally "pipeline.synth"); precomputed names keep the hot loop
    // free of formatting.
    for (unsigned W = 0; W < Jobs; ++W) {
      Workers.push_back(
          std::make_unique<WorkerState>(Analysis, Info, Registry, Memo));
      WorkerNames.push_back(formatString("worker%u", W));
    }
    if (Jobs > 1)
      Pool.emplace(Jobs);
  }

  void run(UnitOp Op, const std::vector<size_t> &Units) override {
    if (!Pool) {
      for (size_t I : Units)
        runContained(Op, I);
      return;
    }
    for (ThreadPool::TaskFailure &F :
         Pool->parallelFor(Units.size(), [&](size_t K, unsigned W) {
           obs::Span WorkerSpan(WorkerNames[W], Parent);
           runUnit(Op, Units[K], W);
         }))
      Slots[Units[F.Item]].fault(Units[F.Item], SkipReason::InternalFault,
                                 describeException(F.Error));
  }

  /// On the calling thread, between the pool's batches.
  void runOne(size_t I) override { runContained(UnitOp::Synth, I); }

private:
  void runContained(UnitOp Op, size_t I) {
    try {
      runUnit(Op, I, 0);
    } catch (...) {
      Slots[I].fault(I, SkipReason::InternalFault,
                     describeException(std::current_exception()));
    }
  }

  void runUnit(UnitOp Op, size_t I, unsigned W) {
    fault::ScopedUnit Unit(I);
    obs::TraceScope Scope("pair", I);
    if (Op == UnitOp::Derive) {
      fault::probe("synth.pair_task");
      {
        obs::Span DeriveSpan("derive");
        Plans[I] = deriveSynthPlan(Workers[W]->Deriver, Pairs[I], I, Options);
      }
      Slots[I].Shape = synthShapeKey(Pairs[I], Plans[I]);
      return;
    }
    obs::Span SynthesizeSpan("synthesize");
    synthesizeIntoSlot(Workers[W]->Synth, Pairs[I], Plans[I], Slots[I]);
  }

  const std::vector<RacyPair> &Pairs;
  const NaradaOptions &Options;
  std::vector<PairSlot> &Slots;
  std::vector<SharingPlan> Plans;
  DerivationMemo LocalMemo;
  std::vector<std::unique_ptr<WorkerState>> Workers;
  std::vector<std::string> WorkerNames;
  obs::SpanParent Parent;
  std::optional<ThreadPool> Pool;
};

/// Runs units as requests to crash-contained worker subprocesses
/// (--isolate).  A hard crash becomes a worker_crash fault carrying the
/// pool's classification; a fault= reply (a soft failure the worker
/// contained) becomes an internal_fault, as in-process.
class IsolatedUnits final : public UnitRunner {
public:
  IsolatedUnits(const SynthIsolateContext &Iso,
                const std::vector<RacyPair> &Pairs,
                const NaradaOptions &Options, unsigned Jobs,
                std::vector<PairSlot> &Slots)
      : Pairs(Pairs), Slots(Slots),
        Pool(Iso.Isolate.poolOptions(
            Jobs, synthworker::encodeSetup(Iso, Options,
                                           obs::Span::currentPath()))) {}
  ~IsolatedUnits() override { obs::publishPoolStats(Pool.stats()); }

  void run(UnitOp Op, const std::vector<size_t> &Units) override {
    std::vector<std::string> Requests;
    Requests.reserve(Units.size());
    for (size_t I : Units)
      Requests.push_back(synthworker::encodeUnit(
          Op == UnitOp::Derive ? "derive" : "synth", I, Pairs[I].key()));
    std::vector<pool::UnitOutcome> Outcomes = Pool.run(Requests);
    for (size_t K = 0; K < Units.size(); ++K)
      apply(Op, Units[K], Outcomes[K]);
  }

private:
  /// Applies one unit outcome to its slot.  Metric deltas merge even when
  /// the unit failed softly: the worker did the work.
  void apply(UnitOp Op, size_t I, const pool::UnitOutcome &O) {
    PairSlot &Slot = Slots[I];
    obs::observePoolUnitMicros(O.Micros);
    if (!O.Ok) {
      Slot.fault(I, SkipReason::WorkerCrash, pool::describeCrash(O));
      return;
    }
    wire::RecordReader Reply(O.Payload);
    obs::mergeMetricsDelta(Reply);
    if (std::optional<std::string> Fault = Reply.get("fault")) {
      Slot.fault(I, SkipReason::InternalFault, *Fault);
      return;
    }
    if (Op == UnitOp::Derive) {
      Slot.Shape = Reply.getOr("shape", "");
      if (Slot.Shape.empty())
        Slot.fault(I, SkipReason::WorkerCrash,
                   "hard fault: protocol-error: derive reply carried no "
                   "shape");
      return;
    }
    Slot.Attempted = true;
    Slot.AttemptOk = Reply.getBool("ok");
    Slot.Source = Reply.getOr("source", "");
    Slot.Complete = Reply.getBool("complete");
    Slot.SharedClass = Reply.getOr("shared_class", "");
    Slot.ErrMessage = Reply.getOr("err_message", "");
    Slot.ErrStr = Reply.getOr("err_str", "");
  }

  const std::vector<RacyPair> &Pairs;
  std::vector<PairSlot> &Slots;
  pool::ProcessPool Pool;
};

} // namespace

SynthStageOutput
narada::runSynthesisStage(const AnalysisResult &Analysis,
                          const ProgramInfo &Info,
                          const SeedRegistry &Registry,
                          const std::vector<RacyPair> &Pairs,
                          const NaradaOptions &Options,
                          const SynthIsolateContext *Iso) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  const size_t N = Pairs.size();
  const unsigned Jobs = resolveJobs(Options.Jobs);
  Metrics.gauge("synth.jobs").set(static_cast<int64_t>(Jobs));

  std::vector<PairSlot> Slots(N);
  std::unique_ptr<UnitRunner> Units;
  if (Iso && Iso->Isolate.Enabled)
    Units = std::make_unique<IsolatedUnits>(*Iso, Pairs, Options, Jobs, Slots);
  else
    Units = std::make_unique<InProcessUnits>(Analysis, Info, Registry, Pairs,
                                             Options, Jobs, Slots);

  // Phase A: every pair's sharing plan and shape key.
  std::vector<size_t> AllPairs(N);
  std::iota(AllPairs.begin(), AllPairs.end(), 0);
  Units->run(UnitOp::Derive, AllPairs);

  // Phase B: synthesize each shape's first pair.  Later pairs of a shape
  // only need their own attempt when the first one failed (rare) — the
  // commit walk triggers those on demand.  Faulted pairs carry sentinel
  // shapes, so each stays a lead of its own and never absorbs healthy
  // pairs.
  std::vector<size_t> Leads;
  {
    std::unordered_map<std::string, size_t> FirstOfShape;
    for (size_t I = 0; I < N; ++I)
      if (!Slots[I].Faulted &&
          FirstOfShape.try_emplace(Slots[I].Shape, I).second)
        Leads.push_back(I);
  }
  Units->run(UnitOp::Synth, Leads);

  // Commit: replay the serial bookkeeping in canonical pair order.
  std::vector<std::string> Shapes;
  Shapes.reserve(N);
  for (const PairSlot &Slot : Slots)
    Shapes.push_back(Slot.Shape);
  auto SynthesisSucceeds = [&](size_t I) {
    if (!Slots[I].Faulted && !Slots[I].Attempted)
      Units->runOne(I);
    return !Slots[I].Faulted && Slots[I].AttemptOk;
  };
  std::vector<CommitDecision> Decisions =
      planCommit(Shapes, SynthesisSucceeds, Options.MaxTests);

  SynthStageOutput Out;
  for (size_t I = 0; I < N; ++I) {
    const RacyPair &Pair = Pairs[I];
    const PairSlot &Slot = Slots[I];
    if (Slot.Faulted) {
      // Contained crash: the pair degrades to a structured skip no matter
      // what the commit plan would have decided (its sentinel shape can
      // only yield FailSkip or BudgetSkip anyway).
      NARADA_LOG_WARN("pair %s %s, contained: %s", Pair.key().c_str(),
                      Slot.FaultReason == SkipReason::WorkerCrash
                          ? "hard-faulted its worker"
                          : "crashed during synthesis",
                      Slot.FaultMessage.c_str());
      Out.Skipped.push_back({Pair.key(), Slot.FaultReason, Slot.FaultMessage});
      countSkip(Slot.FaultReason);
      continue;
    }
    switch (Decisions[I].K) {
    case CommitDecision::Kind::Join: {
      SynthesizedTestInfo &Test = Out.Tests[Decisions[I].TestIndex];
      Test.CoveredPairKeys.push_back(Pair.key());
      Test.CandidateLabels.emplace_back(Pair.First.AccessLabel,
                                        Pair.Second.AccessLabel);
      Metrics.counter("synth.pairs_deduped").inc();
      break;
    }
    case CommitDecision::Kind::BudgetSkip:
      Out.Skipped.push_back({Pair.key(), SkipReason::TestBudget, ""});
      countSkip(SkipReason::TestBudget);
      break;
    case CommitDecision::Kind::FailSkip: {
      SkipReason Reason = classifySkip(Slot.ErrMessage);
      NARADA_LOG_DEBUG("skip %s (%s): %s", Pair.key().c_str(),
                       skipReasonId(Reason), Slot.ErrStr.c_str());
      Out.Skipped.push_back({Pair.key(), Reason, Slot.ErrStr});
      countSkip(Reason);
      break;
    }
    case CommitDecision::Kind::NewTest: {
      SynthesizedTestInfo TestInfo;
      TestInfo.Name = formatString("%s_%03zu", Options.TestNamePrefix.c_str(),
                                   Out.Tests.size());
      // The unit printed the test under the placeholder; splice in the
      // final dense name the commit order just assigned.
      TestInfo.SourceText = Slot.Source;
      size_t At = TestInfo.SourceText.find(SynthPlaceholderName);
      if (At != std::string::npos)
        TestInfo.SourceText.replace(At, std::strlen(SynthPlaceholderName),
                                    TestInfo.Name);
      TestInfo.Representative = Pair;
      TestInfo.CoveredPairKeys.push_back(Pair.key());
      TestInfo.ContextComplete = Slot.Complete;
      TestInfo.SharedClassName = Slot.SharedClass;
      TestInfo.Field = Pair.Field;
      TestInfo.CandidateLabels.emplace_back(Pair.First.AccessLabel,
                                            Pair.Second.AccessLabel);
      Out.SynthesizedSource += TestInfo.SourceText + "\n";
      Out.Tests.push_back(std::move(TestInfo));
      Metrics.counter("synth.tests_synthesized").inc();
      if (!Slot.Complete)
        Metrics.counter("synth.tests_partial_context").inc();
      break;
    }
    }
  }
  return Out;
}
