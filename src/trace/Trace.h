//===- trace/Trace.h - Recorded traces --------------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recorded event sequence plus convenience queries, and the observer that
/// records it.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_TRACE_TRACE_H
#define NARADA_TRACE_TRACE_H

#include "trace/TraceEvent.h"

#include <deque>
#include <string>
#include <vector>

namespace narada {

/// A complete recorded execution trace.  It owns copies of the payloads an
/// event only borrows from the VM (client-call arguments, fault messages);
/// names still point into the module, which must outlive the trace.
class Trace {
public:
  // A copy's events would point at the original's payloads; moving keeps
  // them valid.
  Trace() = default;
  Trace(const Trace &) = delete;
  Trace &operator=(const Trace &) = delete;
  Trace(Trace &&) = default;
  Trace &operator=(Trace &&) = default;

  void append(const TraceEvent &Event);

  const std::vector<TraceEvent> &events() const { return Events; }
  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  const TraceEvent &operator[](size_t I) const { return Events[I]; }

  /// All events of kind \p Kind.
  std::vector<const TraceEvent *> eventsOfKind(EventKind Kind) const;

  /// All heap-access events (field and element reads/writes).
  std::vector<const TraceEvent *> accesses() const;

  /// True if any thread faulted during the execution.
  bool hasFault() const;

  /// The fault messages, in order.
  std::vector<std::string> faultMessages() const;

  void clear();

private:
  std::vector<TraceEvent> Events;
  // Deques: appending never moves what earlier events point at.
  std::deque<std::vector<Value>> ArgStore;
  std::deque<std::string> MessageStore;
};

/// An observer that appends every event to a Trace.
class TraceRecorder : public ExecutionObserver {
public:
  explicit TraceRecorder(Trace &Out) : Out(Out) {}
  void onEvent(const TraceEvent &Event) override { Out.append(Event); }

private:
  Trace &Out;
};

/// Renders one event as a single human-readable line.
std::string printEvent(const TraceEvent &Event);

/// Renders the whole trace, one line per event.
std::string printTrace(const Trace &T);

} // namespace narada

#endif // NARADA_TRACE_TRACE_H
