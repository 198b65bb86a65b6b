//===- trace/TraceEvent.h - Execution trace events --------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic execution events the VM emits.  A sequential seed-test trace
/// is the input to the Narada access analysis (Fig. 7/9); a multithreaded
/// synthesized-test trace is the input to the race detectors.  Every event
/// carries a globally unique label (its dynamic execution index, cf. the
/// paper's §3.1) and the static program point (function, pc) it came from.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_TRACE_TRACEEVENT_H
#define NARADA_TRACE_TRACEEVENT_H

#include "ir/IR.h"
#include "runtime/Heap.h"
#include "runtime/Value.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace narada {

/// The kinds of events a VM execution produces.
enum class EventKind {
  Alloc,         ///< A new object was allocated.
  ReadField,     ///< Obj.Field was read.
  WriteField,    ///< Obj.Field was written.
  ReadElem,      ///< Array element Obj[Index] was read.
  WriteElem,     ///< Array element Obj[Index] was written.
  Lock,          ///< Monitor of Obj acquired (outermost entry only).
  Unlock,        ///< Monitor of Obj released (outermost exit only).
  ClientCall,    ///< A client (test/spawn) frame invoked a library method.
  ClientCallEnd, ///< That invocation returned to the client.
  ThreadStart,   ///< A thread began execution.
  ThreadEnd,     ///< A thread ran to completion.
  Fault,         ///< The thread died (null deref, div by zero, OOB, ...).
};

/// Returns a short mnemonic for \p Kind.
const char *eventKindName(EventKind Kind);

/// "Class.method:pc", the static label of program point (\p Func, \p Pc);
/// "<unknown>" without a function.
std::string formatLabel(const IRFunction *Func, uint32_t Pc);

/// One dynamic event.  Plain data: copying or emitting one never touches
/// the heap.  Names are references into the IRModule (the function, its
/// instructions and its ProgramInfo), so the module must outlive every
/// event and recorded Trace that points into it.  Args and Message point
/// into VM state and are valid only while the event is being delivered;
/// a recorded Trace keeps its own copies.  Labels are formatted only where
/// a report or a printout needs them (formatLabel).
struct TraceEvent {
  EventKind Kind = EventKind::Alloc;
  uint64_t Label = 0;       ///< Dynamic execution index, globally unique.
  ThreadId Thread = 0;

  // Static program point.
  const IRFunction *Func = nullptr;
  uint32_t Pc = 0;

  // Accessed / locked / allocated object.
  ObjectId Obj = NoObject;
  const std::string *ClassName = nullptr; ///< Dynamic class of Obj.
  const std::string *Field = nullptr;     ///< Field name of field accesses.
  unsigned FieldIndex = 0;  ///< Field slot, or element index for Read/WriteElem.
  Value Val;                ///< Value read / written / returned.

  // ClientCall payload.
  const std::string *Method = nullptr; ///< Invoked method name.
  ObjectId Receiver = NoObject;
  std::span<const Value> Args;

  /// For ThreadStart: the spawning thread (NoThread for root threads).
  /// Gives happens-before detectors the parent->child edge.
  ThreadId ParentThread = NoThread;

  std::string_view Message; ///< Fault description.

  const std::string &className() const { return nameOr(ClassName); }
  const std::string &field() const { return nameOr(Field); }
  const std::string &method() const { return nameOr(Method); }

  /// True for the four heap-access kinds.
  bool isAccess() const {
    return Kind == EventKind::ReadField || Kind == EventKind::WriteField ||
           Kind == EventKind::ReadElem || Kind == EventKind::WriteElem;
  }
  /// True for the write-access kinds.
  bool isWrite() const {
    return Kind == EventKind::WriteField || Kind == EventKind::WriteElem;
  }
  /// True for array-element accesses.
  bool isElemAccess() const {
    return Kind == EventKind::ReadElem || Kind == EventKind::WriteElem;
  }

  /// "Class.method:pc" — the static label used to name racy accesses.
  std::string staticLabel() const { return formatLabel(Func, Pc); }

private:
  static const std::string &nameOr(const std::string *Name);
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "events are plain data");

/// Receives events as the VM executes.  Implemented by the trace recorder,
/// the race detectors and the RaceFuzzer-style active scheduler.
class ExecutionObserver {
public:
  virtual ~ExecutionObserver();
  virtual void onEvent(const TraceEvent &Event) = 0;
};

/// Fans one event stream out to several observers.
class ObserverMux : public ExecutionObserver {
public:
  void add(ExecutionObserver *Observer) { Observers.push_back(Observer); }
  void onEvent(const TraceEvent &Event) override {
    for (ExecutionObserver *O : Observers)
      O->onEvent(Event);
  }

private:
  std::vector<ExecutionObserver *> Observers;
};

} // namespace narada

#endif // NARADA_TRACE_TRACEEVENT_H
