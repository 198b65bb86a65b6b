//===- detect/LockSetDetector.h - Eraser lockset detection ------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Eraser-style lockset detector (Savage et al., TOCS'97) running as an
/// execution observer.  The paper points out that Narada *generates* tests
/// using the same discipline Eraser *checks*: a race needs two accesses
/// whose lock sets do not intersect.  Each shared variable goes through the
/// Virgin -> Exclusive -> Shared -> SharedModified state machine; its
/// candidate lockset is refined at every access, and an empty candidate set
/// in the SharedModified state is reported as a (potential) race.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_LOCKSETDETECTOR_H
#define NARADA_DETECT_LOCKSETDETECTOR_H

#include "detect/RaceReport.h"
#include "trace/TraceEvent.h"

#include <map>
#include <vector>

namespace narada {

/// Eraser-style lockset detector.
class LockSetDetector : public ExecutionObserver {
public:
  ~LockSetDetector();

  void onEvent(const TraceEvent &Event) override;

  const std::vector<RaceReport> &races() const { return Races; }

private:
  enum class VarPhase {
    Virgin,         ///< Never accessed.
    Exclusive,      ///< Accessed by one thread only.
    Shared,         ///< Read-shared among threads.
    SharedModified, ///< Written by multiple threads / read-write shared.
  };

  struct VarKey {
    ObjectId Obj;
    bool IsElem;
    unsigned Index;

    bool operator<(const VarKey &Other) const {
      if (Obj != Other.Obj)
        return Obj < Other.Obj;
      if (IsElem != Other.IsElem)
        return IsElem < Other.IsElem;
      return Index < Other.Index;
    }
  };

  /// Sorted, duplicate-free object ids: a lockset kept as a flat vector,
  /// refined in place so the per-access path never allocates once warm.
  using LockSet = std::vector<ObjectId>;

  struct VarState {
    VarPhase Phase = VarPhase::Virgin;
    ThreadId Owner = NoThread;
    LockSet Candidates;
    bool CandidatesInitialized = false;
    /// The previous access, for the report: its site is formatted only
    /// when the report is made.
    const IRFunction *LastFunc = nullptr;
    uint32_t LastPc = 0;
    ThreadId LastThread = NoThread;
    bool LastIsWrite = false;
    bool Reported = false;
  };

  void handleAccess(const TraceEvent &Event);
  LockSet &heldBy(ThreadId T);

  /// Locks held per thread, indexed by thread id.
  std::vector<LockSet> Held;
  std::map<VarKey, VarState> Vars;
  std::vector<RaceReport> Races;
  /// Lockset refinements performed, flushed to the metrics registry once on
  /// destruction to keep the per-access path free of atomics.
  uint64_t IntersectionCount = 0;
};

} // namespace narada

#endif // NARADA_DETECT_LOCKSETDETECTOR_H
