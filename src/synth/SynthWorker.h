//===- synth/SynthWorker.h - Isolated synthesis worker service --*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two halves of the --isolate synthesis stage's wire contract
/// (support/ProcessPool.h):
///
///  - the supervisor side encodes the `setup` payload (library source,
///    seed names, and every option that shapes pair generation or
///    derivation) and per-unit requests;
///  - the worker side (Service, hosted by `narada-cli worker`) rebuilds
///    the front half of the pipeline from that setup with the same
///    runFrontHalf that runNarada calls — it is deterministic, so the
///    worker's pair table matches the supervisor's index for index,
///    verified per unit via pair_key — and then serves `derive` and
///    `synth` unit requests.  A synth unit derives its pair's plan itself,
///    so its reply never depends on which worker ran the derive unit.
///
/// Unit replies carry either the fields of the pair's PairSlot (shape=
/// for derive; ok=, source=, complete=, shared_class=, err_message= and
/// err_str= for synth) or a fault= record for contained soft failures.  The supervisor applies them to its slots and runs the
/// stage's one commit walk, exactly as for in-process units.  Hard faults
/// (SIGSEGV, abort, hang, OOM kill) never produce a reply at all — that is
/// the point of running out of process.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_SYNTHWORKER_H
#define NARADA_SYNTH_SYNTHWORKER_H

#include "support/Wire.h"
#include "synth/ParallelDriver.h"

#include <memory>
#include <string>

namespace narada {
namespace synthworker {

/// Appends the NaradaOptions fields that shape pair generation and
/// derivation — the option half of the setup record, shared with the
/// daemon's submit codec (serve/Protocol.h) so there is exactly one
/// serialization of these knobs.
void encodeSynthOptions(wire::RecordWriter &W, const NaradaOptions &Options);

/// Inverse of encodeSynthOptions; absent keys keep the defaults.
void decodeSynthOptions(const wire::RecordReader &In, NaradaOptions &Options);

/// Encodes the `setup` frame payload for an isolated synthesis stage.
/// \p SpanParent is the supervisor's current span path ("pipeline.synth"),
/// under which the worker roots its per-unit derive/synthesize spans so
/// merged phase trees match the in-process layout.
std::string encodeSetup(const SynthIsolateContext &Iso,
                        const NaradaOptions &Options,
                        const std::string &SpanParent);

/// Encodes one unit request; \p Op is "derive" or "synth".  The pair key
/// rides along so a worker whose rebuilt pair table diverged (it cannot,
/// unless the binary or inputs differ) fails loudly instead of deriving
/// the wrong pair.
std::string encodeUnit(const char *Op, size_t Unit,
                       const std::string &PairKey);

/// Worker-side service: pipeline state rebuilt from a setup record,
/// serving unit requests for the rest of the process's life.
class Service {
public:
  ~Service();

  /// Rebuilds the pipeline front half (runFrontHalf) from \p Setup.
  static Result<std::unique_ptr<Service>> create(
      const wire::RecordReader &Setup);

  /// Handles one unit request, appending reply records to \p Reply.
  /// Soft failures (synthesizer errors, injected throws) land in the
  /// reply as fault=/err_* records; std::bad_alloc propagates so the
  /// worker loop can answer with a graceful oom crash frame; hard faults
  /// never return.
  void runUnit(const wire::RecordReader &Request, wire::RecordWriter &Reply);

  size_t pairCount() const;

private:
  Service();
  struct State;
  std::unique_ptr<State> S;
};

} // namespace synthworker
} // namespace narada

#endif // NARADA_SYNTH_SYNTHWORKER_H
