//===- detect/HBDetector.h - Happens-before race detection ------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FastTrack-style happens-before race detector running as an execution
/// observer.  Writes are tracked as epochs (the common same-thread case) and
/// reads adaptively as an epoch or a full read map, following FastTrack's
/// design.  Synchronization edges: monitor release->acquire and thread
/// spawn.  Precise: every report is a real race of the observed execution.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_HBDETECTOR_H
#define NARADA_DETECT_HBDETECTOR_H

#include "detect/RaceReport.h"
#include "detect/VectorClock.h"
#include "trace/TraceEvent.h"

#include <map>
#include <vector>

namespace narada {

/// Happens-before (FastTrack-style) detector.
class HBDetector : public ExecutionObserver {
public:
  ~HBDetector();

  void onEvent(const TraceEvent &Event) override;

  const std::vector<RaceReport> &races() const { return Races; }

private:
  /// Identifies a memory location: object + field slot or element index.
  struct VarKey {
    ObjectId Obj;
    bool IsElem;
    unsigned Index; ///< Field slot or element index.

    bool operator<(const VarKey &Other) const {
      if (Obj != Other.Obj)
        return Obj < Other.Obj;
      if (IsElem != Other.IsElem)
        return IsElem < Other.IsElem;
      return Index < Other.Index;
    }
  };

  /// A prior access's static program point, formatted only in report().
  struct Site {
    const IRFunction *Func = nullptr;
    uint32_t Pc = 0;
  };

  /// One thread's entry of an inflated read map.
  struct SharedRead {
    ThreadId Thread;
    uint64_t Clock;
    Site At;
  };

  /// Per-variable detector state (FastTrack's W/R state).
  struct VarState {
    Epoch Write;
    Site WriteSite;
    ThreadId WriteThread = NoThread;

    // Read state: epoch while one thread reads, inflated to a read map,
    // kept sorted by thread, when a second thread reads concurrently.
    Epoch Read;
    Site ReadSite;
    bool ReadShared = false;
    std::vector<SharedRead> ReadMap;
  };

  VectorClock &clockOf(ThreadId T);
  void handleRead(const TraceEvent &Event);
  void handleWrite(const TraceEvent &Event);
  /// Sets \p T's read-map entry, keeping the map sorted by thread.
  static void recordSharedRead(VarState &S, ThreadId T, uint64_t Clock,
                               Site At);
  void report(const TraceEvent &Event, Site Prior, ThreadId PriorThread,
              bool PriorIsWrite);

  /// Indexed by thread id; a thread's clock exists once it is non-empty.
  std::vector<VectorClock> ThreadClocks;
  std::map<ObjectId, VectorClock> LockClocks;
  std::map<VarKey, VarState> Vars;
  std::vector<RaceReport> Races;
  /// Joins performed, flushed to the metrics registry once on destruction
  /// to keep the per-event path free of atomics.
  uint64_t JoinCount = 0;
  /// Epoch-vs-clock leq evaluations — the detector's dominant comparison
  /// cost, and the number FastTrack's epoch optimization keeps small.
  uint64_t CompareCount = 0;
  /// Vector clocks materialized (thread clocks plus lock clocks).
  uint64_t AllocCount = 0;
};

} // namespace narada

#endif // NARADA_DETECT_HBDETECTOR_H
