//===- synth/ParallelDriver.h - Parallel pair-level executor ----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans the post-PairGenerator stages — context derivation (the Q queries
/// of Fig. 10) and test synthesis (Algorithm 1) — out across racy pair
/// candidates on a work-stealing thread pool, then commits the results in
/// canonical pair order so the output is byte-identical to a serial run:
///
///   phase A (parallel): derive every pair's SharingPlan + shape key.
///       Randomized setter selection stays reproducible because each pair
///       gets a private RNG split from DerivationSeed by pair *index*, not
///       a shared sequential stream.
///   phase B (parallel): synthesize and print one test per first-of-shape
///       pair, under a placeholder name (final names depend on commit
///       order).
///   commit (serial):   walk pairs in canonical order, dedup by shape,
///       apply the test budget, splice in final dense names, and classify
///       failures — exactly the serial loop's semantics, driven by
///       planCommit() below.
///
/// The phases' units run inline at --jobs 1, on a ThreadPool otherwise,
/// or, under --isolate, as ProcessPool units in worker subprocesses; that
/// is all isolation changes.  In-process workers hold their own
/// ContextDeriver/TestSynthesizer instances and share one DerivationMemo;
/// per-worker obs::Spans ("pipeline.synth.worker<K>.derive") keep the
/// phase tree honest across threads.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_PARALLELDRIVER_H
#define NARADA_SYNTH_PARALLELDRIVER_H

#include "synth/Narada.h"
#include "synth/TestSynthesizer.h"

#include <functional>
#include <string>
#include <vector>

namespace narada {

/// What the commit walk decided for one canonical pair index.
struct CommitDecision {
  enum class Kind {
    NewTest,    ///< First successful synthesis of its shape: a new test.
    Join,       ///< Its shape already has a test: covered by that test.
    BudgetSkip, ///< MaxTests was reached before its shape got a test.
    FailSkip,   ///< Synthesis failed (its shape has no test yet).
  };
  Kind K = Kind::FailSkip;
  size_t TestIndex = 0; ///< Index into the emitted tests (NewTest/Join).
};

/// The deterministic commit step: walks \p Shapes in canonical order and
/// replays the serial loop's bookkeeping — dedup onto the first success of
/// each shape, budget-skip new shapes once \p MaxTests (0 = unlimited)
/// tests exist, and re-attempt shapes whose earlier pairs all failed.
/// \p SynthesisSucceeds is consulted lazily, exactly for the pairs the
/// serial loop would have attempted.  Pure apart from that callback, and
/// independent of how phases A/B were scheduled — this is what makes the
/// parallel run's output order-identical to the serial run's (exercised
/// directly by tests/property_test.cpp on randomized shape sets).
std::vector<CommitDecision>
planCommit(const std::vector<std::string> &Shapes,
           const std::function<bool(size_t)> &SynthesisSucceeds,
           unsigned MaxTests);

/// Splits the user-visible derivation seed into an independent stream
/// seed for pair \p PairIndex (SplitMix over base xor index).
uint64_t pairDerivationSeed(uint64_t Base, size_t PairIndex);

/// The shape key deduplicating pairs onto one test — shared between the
/// in-process driver and the isolated worker so both commit identically.
std::string synthShapeKey(const RacyPair &Pair, const SharingPlan &Plan);

/// Synthesized tests are renamed at commit time (names are dense in
/// canonical order, which workers cannot know); this stand-in never
/// reaches output.
inline constexpr const char *SynthPlaceholderName = "narada_uncommitted";

/// Derives pair \p PairIndex's sharing plan exactly as the synthesis
/// stage does: per-pair seed split, derivation, and the
/// EnableContextDerivation=false ablation.  Span-free so in-process and
/// isolated callers each wrap it in their own "derive" span.
SharingPlan deriveSynthPlan(ContextDeriver &Deriver, const RacyPair &Pair,
                            size_t PairIndex, const NaradaOptions &Options);

/// One pair's outcome in the synthesis stage, filled by the pair's derive
/// and synth units wherever they ran (in-process or in an --isolate
/// worker) and read by the one commit walk.
struct PairSlot {
  std::string Shape; ///< synthShapeKey, or a per-pair sentinel if Faulted.
  /// Set when one of the pair's units crashed: the pair is committed as
  /// a FaultReason skip and never re-attempted (the fault is assumed
  /// deterministic, like every other per-pair outcome).
  bool Faulted = false;
  SkipReason FaultReason = SkipReason::InternalFault;
  std::string FaultMessage;
  bool Attempted = false; ///< A synth unit ran to completion.
  bool AttemptOk = false; ///< ...and produced a test.
  std::string Source;     ///< The test, printed as SynthPlaceholderName.
  bool Complete = false;  ///< The plan's context was fully derived.
  std::string SharedClass;
  std::string ErrMessage; ///< Synthesizer error message (classification).
  std::string ErrStr;     ///< Full error text (skip record).

  /// Marks the pair faulted.  The shape becomes a per-pair sentinel no
  /// real shape can collide with, so a faulted lead never absorbs healthy
  /// pairs of its (possibly unknown) shape.
  void fault(size_t PairIndex, SkipReason Reason, std::string Message);
};

/// The synth unit's body: synthesizes \p Pair under \p Plan as
/// SynthPlaceholderName and records the outcome in \p Slot.  Span-free,
/// like deriveSynthPlan.
void synthesizeIntoSlot(TestSynthesizer &Synth, const RacyPair &Pair,
                        const SharingPlan &Plan, PairSlot &Slot);

/// Everything the synthesis stage produces; spliced into NaradaResult.
struct SynthStageOutput {
  std::vector<SynthesizedTestInfo> Tests;
  std::vector<SkippedPair> Skipped;
  /// All synthesized test sources, newline-joined, for the final
  /// recompile pass.
  std::string SynthesizedSource;
};

/// What an isolated (--isolate) synthesis stage needs to run its units in
/// worker subprocesses: each worker rebuilds the front half from the same
/// inputs (runFrontHalf is deterministic), so only the original source
/// and seed names travel, not the derived structures.
struct SynthIsolateContext {
  pool::IsolateOptions Isolate;
  std::string LibrarySource;
  std::vector<std::string> SeedNames;
};

/// Runs stages 2b+3 over \p Pairs with Options.Jobs workers (1 = inline on
/// the calling thread, 0 = one per hardware thread).  The output is
/// byte-identical for every job count given the same inputs and
/// DerivationSeed.  With \p Iso non-null the derive and synth units run
/// in crash-contained worker subprocesses instead of threads; everything
/// else is the same stage (clean runs are byte-identical to in-process,
/// and a hard-faulted unit becomes a worker_crash skip).
SynthStageOutput runSynthesisStage(const AnalysisResult &Analysis,
                                   const ProgramInfo &Info,
                                   const SeedRegistry &Registry,
                                   const std::vector<RacyPair> &Pairs,
                                   const NaradaOptions &Options,
                                   const SynthIsolateContext *Iso = nullptr);

} // namespace narada

#endif // NARADA_SYNTH_PARALLELDRIVER_H
