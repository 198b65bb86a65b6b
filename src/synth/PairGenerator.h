//===- synth/PairGenerator.h - Narada stage 2a ------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds candidate racy pairs from the stage-1 access records (§3.3):
///
///  - an unprotected access can race with a concurrent execution of itself
///    from a second thread, and with any other (un)protected access to the
///    same field;
///  - both base objects must be drivable to one shared instance, i.e. both
///    sides carry a client-rooted base path;
///  - the pair is kept only if the sharing that makes the bases coincide
///    does NOT also force a common monitor: two lock objects coincide
///    exactly when both are reached through the shared object by the same
///    suffix.  This check is how "the receivers must be distinct or the lock
///    on them serializes the accesses" falls out (paper §3.3's discussion of
///    a/a' and Eraser's empty-intersection criterion).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_PAIRGENERATOR_H
#define NARADA_SYNTH_PAIRGENERATOR_H

#include "synth/RacyPair.h"

#include <map>
#include <vector>

namespace narada {

namespace staticrace {
struct ModuleSummary;
}

/// Options for pair generation.
struct PairGenOptions {
  /// Restrict to accesses whose invoked method belongs to this class
  /// (empty = all classes).  Matches the paper's per-class evaluation.
  /// Accesses inside constructors are always dropped (paper §4).
  std::string FocusClass;

  /// Static module summary; when set every generated pair carries a
  /// staticrace::PairVerdict.  Null leaves generation byte-identical to
  /// the classic (dynamic-only) behaviour.  No generated pair is ever
  /// MustGuarded, because its anchor was dynamically unprotected (see
  /// docs/STATIC.md, Soundness), so the summary never changes the set.
  const staticrace::ModuleSummary *Static = nullptr;
  /// With Static: stable-sort the generated pairs MayRace < Unknown <
  /// MustGuarded (original order within a rank), so the synthesis budget
  /// is spent on the most promising candidates first.  Runs before the
  /// parallel synthesis stage, hence byte-identical across --jobs.
  bool StaticRank = false;
};

/// Whether the sharing required by (\p A, \p B) forces two held monitors to
/// be one object.  Exposed for testing.
bool locksCollideUnderSharing(const AccessRecord &A, const AccessRecord &B);

/// Generates all candidate racy pairs from \p Analysis.
std::vector<RacyPair> generatePairs(const AnalysisResult &Analysis,
                                    const PairGenOptions &Options = {});

/// Maps RaceReport::key()-formatted race keys ("Class.field{A~B}") to the
/// static verdict name of the classified pairs that predicted them, so
/// detection output can carry the static verdict without detect/ depending
/// on the static analysis.  When several pairs share a label pair the most
/// race-like verdict wins (MayRace over Unknown over MustGuarded).
std::map<std::string, std::string>
staticVerdictsByRaceKey(const std::vector<RacyPair> &Pairs);

} // namespace narada

#endif // NARADA_SYNTH_PAIRGENERATOR_H
