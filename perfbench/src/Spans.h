//===- perfbench/src/Spans.h - In-memory spans for the traced run -*- C++ -*-===//
///
/// \file
/// The traced pass records one span per layer call the benchmark makes:
/// name, start, end and parent, kept in memory and written out when the
/// run ends.  A span's self time is its duration minus the part its direct
/// children cover.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_PERFBENCH_SPANS_H
#define NARADA_PERFBENCH_SPANS_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
public:
  struct Span {
    std::string Name;
    double Start = 0.0; ///< Seconds since the log was created.
    double End = 0.0;
    int Parent = -1; ///< Index of the enclosing span, -1 at the top.
  };

  /// A disabled log records nothing and costs one branch per call.
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int begin(std::string Name);
  void end(int Index);

  /// Span name -> summed self seconds.
  std::map<std::string, double> selfSeconds() const;

  /// Summed duration of the top-level spans.
  double topLevelSeconds() const;

  const std::vector<Span> &spans() const { return Spans; }

  /// The spans as a JSON array of {name, start, end, parent}.
  std::string json() const;

private:
  double now() const;

  bool Enabled;
  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
};

} // namespace perfbench

#endif // NARADA_PERFBENCH_SPANS_H
