//===- explore/Explorer.h - Systematic schedule search ----------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded systematic search over SchedulingPolicy decision points, in the
/// stateless-model-checking style: every schedule re-executes the test from
/// scratch under a forced prefix of pick() decisions, then continues
/// non-preemptively; backtracking flips the deepest decision with an
/// unexplored alternative.  Two prunings keep the space tractable:
///
///  - sleep-set discipline: an alternative explored at a decision point is
///    never re-added, so each (prefix, choice) is executed exactly once;
///  - DPOR-style conflict filtering keyed on the VM's *pending* shared-
///    memory accesses (VM::peekAccess): preemptive switches are only
///    scheduled at steps where the running thread is about to perform a
///    shared access (preempting elsewhere commutes with local ops), and a
///    switch to a thread that is itself paused at an access is pruned
///    unless the two accesses conflict (same location, at least one
///    write).  Switches at yield points (the running thread blocked or
///    finished) are always branched, since they reorder whole thread
///    bodies for free.
///
/// The search is bounded by a schedule budget and a fixed preemption bound
/// per schedule (the visitor can stop it earlier, e.g. at a wall budget),
/// and reports whether the bounded space was exhausted, so callers can
/// degrade gracefully to randomized policies when it was not (see
/// detect/Detection.cpp).  Approximation notes: monitor operations are not
/// branch points (peekAccess only describes heap accesses), so lock-order
/// interleavings beyond those forced by yields are not enumerated; within
/// the preemption bound the search is exhaustive over the pruned space.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_EXPLORE_EXPLORER_H
#define NARADA_EXPLORE_EXPLORER_H

#include "runtime/Scheduler.h"
#include "support/Error.h"

namespace narada {
namespace explore {

/// The budget bounding one systematic search.  Every schedule preempts
/// at most twice (the PCT/CHESS bound d = 2; yield switches are free, and
/// races of depth d need d-1 preemptions) and runs with VM seed 1.
struct ExploreOptions {
  /// Maximum schedules to execute before giving up on exhausting the
  /// space.  Degenerate values are still honored (1 = baseline run only).
  unsigned MaxSchedules = 256;
};

/// What one search did and why it stopped.
struct ExploreOutcome {
  unsigned SchedulesRun = 0;
  /// Alternatives discarded by the conflict filter or the preemption
  /// bound — each is a subtree the bounded search never entered.
  uint64_t Pruned = 0;
  bool Exhausted = false;         ///< The pruned, bounded space was covered.
  bool HitScheduleBudget = false; ///< Stopped at MaxSchedules.
  bool Stopped = false;           ///< The visitor asked to stop.
};

/// Executes the schedules one search chooses.  The visitor runs each one,
/// so it owns the test, its observers (detectors) and its step budget, and
/// it decides when to stop early.
class ScheduleVisitor {
public:
  virtual ~ScheduleVisitor();

  /// Runs the test once under \p Policy with VM seed \p RandSeed.  The
  /// policy forces the search's prefix, then continues non-preemptively
  /// while recording the branch points the search expands next.  Returns
  /// false to stop the search (ExploreOutcome::Stopped); an error aborts
  /// it.
  virtual Result<bool> runSchedule(SchedulingPolicy &Policy,
                                   uint64_t RandSeed) = 0;
};

/// Runs the bounded DFS, one Visitor.runSchedule per schedule.
/// Deterministic: the same visitor runs (same module, test and budget)
/// yield the same schedules in the same order, which is what keeps
/// per-test exploration identical across --jobs values.  Errors surface
/// only from the visitor (e.g. an unknown test); schedule-level
/// misbehavior (faults, deadlocks, step limits) is the visitor's to
/// record.
Result<ExploreOutcome> exploreSchedules(const ExploreOptions &Options,
                                        ScheduleVisitor &Visitor);

} // namespace explore
} // namespace narada

#endif // NARADA_EXPLORE_EXPLORER_H
