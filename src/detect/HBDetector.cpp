//===- detect/HBDetector.cpp - Happens-before race detection -------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/HBDetector.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace narada;

HBDetector::~HBDetector() {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Metrics.counter("detect.vc_joins").inc(JoinCount);
  Metrics.counter("detect.vc_compares").inc(CompareCount);
  Metrics.counter("detect.vc_allocs").inc(AllocCount);
  Metrics.counter("detect.hb_reports").inc(Races.size());
}

VectorClock &HBDetector::clockOf(ThreadId T) {
  if (T >= ThreadClocks.size())
    ThreadClocks.resize(T + 1);
  VectorClock &C = ThreadClocks[T];
  if (C.empty()) {
    ++AllocCount;
    C.set(T, 1);
  }
  return C;
}

void HBDetector::report(const TraceEvent &Event, Site Prior,
                        ThreadId PriorThread, bool PriorIsWrite) {
  RaceReport R;
  R.Detector = "hb";
  R.ClassName = Event.className();
  R.Field = Event.isElemAccess() ? "[]" : Event.field();
  R.Obj = Event.Obj;
  R.IsElem = Event.isElemAccess();
  R.ElemIndex = Event.isElemAccess() ? Event.FieldIndex : 0;
  R.FirstLabel = formatLabel(Prior.Func, Prior.Pc);
  R.SecondLabel = Event.staticLabel();
  R.FirstThread = PriorThread;
  R.SecondThread = Event.Thread;
  R.FirstIsWrite = PriorIsWrite;
  R.SecondIsWrite = Event.isWrite();
  Races.push_back(std::move(R));
}

void HBDetector::recordSharedRead(VarState &S, ThreadId T, uint64_t Clock,
                                  Site At) {
  auto It = std::lower_bound(
      S.ReadMap.begin(), S.ReadMap.end(), T,
      [](const SharedRead &R, ThreadId U) { return R.Thread < U; });
  if (It != S.ReadMap.end() && It->Thread == T) {
    It->Clock = Clock;
    It->At = At;
    return;
  }
  S.ReadMap.insert(It, SharedRead{T, Clock, At});
}

void HBDetector::handleRead(const TraceEvent &Event) {
  VarState &S = Vars[{Event.Obj, Event.isElemAccess(), Event.FieldIndex}];
  VectorClock &C = clockOf(Event.Thread);
  const Site Here{Event.Func, Event.Pc};

  // write-read race: the last write must happen-before this read.
  if (S.Write.isSet()) {
    ++CompareCount;
    if (!S.Write.leq(C))
      report(Event, S.WriteSite, S.WriteThread, /*PriorIsWrite=*/true);
  }

  uint64_t Now = C.get(Event.Thread);
  if (!S.ReadShared) {
    // Same-epoch fast path, or exclusive-read ownership transfer.
    if (S.Read.isSet() && S.Read.Thread != Event.Thread) {
      ++CompareCount;
      if (!S.Read.leq(C)) {
        // Two concurrent readers: inflate to the read map.
        S.ReadShared = true;
        recordSharedRead(S, S.Read.Thread, S.Read.Clock, S.ReadSite);
        recordSharedRead(S, Event.Thread, Now, Here);
        return;
      }
    }
    S.Read = Epoch{Event.Thread, Now};
    S.ReadSite = Here;
    return;
  }
  recordSharedRead(S, Event.Thread, Now, Here);
}

void HBDetector::handleWrite(const TraceEvent &Event) {
  VarState &S = Vars[{Event.Obj, Event.isElemAccess(), Event.FieldIndex}];
  VectorClock &C = clockOf(Event.Thread);

  // write-write race.
  if (S.Write.isSet()) {
    ++CompareCount;
    if (!S.Write.leq(C))
      report(Event, S.WriteSite, S.WriteThread, /*PriorIsWrite=*/true);
  }

  // read-write races.
  if (!S.ReadShared) {
    if (S.Read.isSet()) {
      ++CompareCount;
      if (!S.Read.leq(C))
        report(Event, S.ReadSite, S.Read.Thread, /*PriorIsWrite=*/false);
    }
  } else {
    for (const SharedRead &R : S.ReadMap) {
      Epoch E{R.Thread, R.Clock};
      ++CompareCount;
      if (!E.leq(C))
        report(Event, R.At, R.Thread, /*PriorIsWrite=*/false);
    }
    S.ReadShared = false;
    S.ReadMap.clear(); // Keeps its capacity for the next inflation.
  }
  S.Read = Epoch{};
  S.ReadSite = Site{};

  S.Write = Epoch{Event.Thread, C.get(Event.Thread)};
  S.WriteSite = Site{Event.Func, Event.Pc};
  S.WriteThread = Event.Thread;
}

void HBDetector::onEvent(const TraceEvent &Event) {
  switch (Event.Kind) {
  case EventKind::ThreadStart: {
    clockOf(Event.Thread);
    if (Event.ParentThread != NoThread) {
      clockOf(Event.ParentThread);
      // Both exist now, so neither reference is invalidated by a resize.
      VectorClock &Child = ThreadClocks[Event.Thread];
      VectorClock &Parent = ThreadClocks[Event.ParentThread];
      Child.joinWith(Parent);
      ++JoinCount;
      Child.set(Event.Thread, Child.get(Event.Thread) + 1);
      Parent.tick(Event.ParentThread);
    }
    return;
  }
  case EventKind::Lock: {
    // acquire: C_t := C_t ⊔ L_m.
    auto It = LockClocks.find(Event.Obj);
    if (It != LockClocks.end()) {
      clockOf(Event.Thread).joinWith(It->second);
      ++JoinCount;
    }
    return;
  }
  case EventKind::Unlock: {
    // release: L_m := C_t; C_t.tick().
    VectorClock &C = clockOf(Event.Thread);
    auto [It, Inserted] = LockClocks.try_emplace(Event.Obj);
    if (Inserted)
      ++AllocCount;
    It->second = C;
    C.tick(Event.Thread);
    return;
  }
  case EventKind::ReadField:
  case EventKind::ReadElem:
    handleRead(Event);
    return;
  case EventKind::WriteField:
  case EventKind::WriteElem:
    handleWrite(Event);
    return;
  default:
    return;
  }
}
