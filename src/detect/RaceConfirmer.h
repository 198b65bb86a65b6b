//===- detect/RaceConfirmer.h - RaceFuzzer-style confirmation ---*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An active scheduling policy in the spirit of RaceFuzzer (Sen, PLDI'08),
/// the detector the paper feeds Narada's tests to.  Given a candidate racy
/// pair of static program points, the policy pauses the first thread that
/// is *about to* perform one of the accesses and keeps the rest of the
/// program running; when a second thread arrives at the complementary
/// access on the same memory location, the race is *reproduced* and the two
/// accesses are executed back to back, in a chosen order.  Running the pair
/// in both orders and comparing the resulting program states classifies the
/// race as harmful or benign.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_RACECONFIRMER_H
#define NARADA_DETECT_RACECONFIRMER_H

#include "detect/RaceReport.h"
#include "runtime/Scheduler.h"
#include "support/RNG.h"

#include <optional>
#include <string>

namespace narada {

/// A static label parsed once, then matched against program points as
/// (function, pc) with no formatting.  A label matches (F, pc) exactly when
/// formatLabel(F, pc) equals it: only a label that round-trips through the
/// formatter can match anything.
class LabelSite {
public:
  explicit LabelSite(const std::string &Label);

  /// Resolves the function name against \p M; until then nothing matches.
  void resolve(const IRModule &M);

  bool matches(const IRFunction *F, uint32_t AtPc) const {
    return Func && F == Func && AtPc == Pc;
  }

private:
  bool RoundTrips = false;
  std::string FuncName;
  uint32_t Pc = 0;
  const IRFunction *Func = nullptr;
};

/// The active scheduler.  One instance drives one execution.
class RaceConfirmPolicy : public SchedulingPolicy {
public:
  /// \p LabelA / \p LabelB are the static labels ("Class.method:pc") of the
  /// two accesses.  \p SecondFirst chooses which access runs first once the
  /// race is reproduced (false: the paused side runs first).
  RaceConfirmPolicy(const std::string &LabelA, const std::string &LabelB,
                    uint64_t Seed, bool SecondFirst = false)
      : SameLabel(LabelA == LabelB), SiteA(LabelA), SiteB(LabelB), Rand(Seed),
        SecondFirst(SecondFirst) {}
  /// Flushes the confirm.* counters.
  ~RaceConfirmPolicy() override;

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

  /// True once both threads were simultaneously at the candidate accesses
  /// on the same location.
  bool confirmed() const { return Confirmed.has_value(); }

  /// The reproduced race (valid when confirmed()).
  const RaceReport &confirmedRace() const { return *Confirmed; }

private:
  /// Thread \p T's pending access if it is at either candidate site; the
  /// flag says which (true: A).
  std::optional<std::pair<PendingAccess, bool>> matchAt(ThreadId T, VM &M);

  const bool SameLabel;
  LabelSite SiteA;
  LabelSite SiteB;
  bool Resolved = false; ///< Sites resolved against the VM's module.
  RNG Rand;
  bool SecondFirst;

  ThreadId Paused = NoThread;
  PendingAccess PausedAccess;
  bool PausedIsA = false;
  unsigned PausedFor = 0;
  static constexpr unsigned PauseBudget = 4000;

  // Counted here and flushed once on destruction, keeping the registry's
  // lock out of pick().
  uint64_t ThreadsPaused = 0;
  uint64_t PauseTimeouts = 0;
  uint64_t RacesPaired = 0;

  std::optional<RaceReport> Confirmed;
  ThreadId FireNext = NoThread; ///< Second racer, scheduled right after.
};

/// Hashes the values flowing through the two candidate accesses.  A racy
/// *read* does not change the heap, but the value it observes depends on
/// the access order — h2's getCurrentValue() race is harmful precisely
/// because concurrent readers see torn sequence states.  This observer
/// captures that order-sensitivity.
class AccessValueHasher : public ExecutionObserver {
public:
  /// \p LabelA / \p LabelB name the accesses in \p M, as for
  /// RaceConfirmPolicy.
  AccessValueHasher(const IRModule &M, const std::string &LabelA,
                    const std::string &LabelB)
      : SiteA(LabelA), SiteB(LabelB) {
    SiteA.resolve(M);
    SiteB.resolve(M);
  }

  void onEvent(const TraceEvent &Event) override;

  uint64_t hash() const { return Hash; }

private:
  void mix(uint64_t V) {
    for (int Shift = 0; Shift < 64; Shift += 8) {
      Hash ^= (V >> Shift) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  }

  LabelSite SiteA;
  LabelSite SiteB;
  uint64_t Hash = 0xcbf29ce484222325ULL;
};

} // namespace narada

#endif // NARADA_DETECT_RACECONFIRMER_H
