//===- synth/SynthWorker.cpp - Isolated synthesis worker service ---------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/SynthWorker.h"

#include "obs/Log.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Bundle.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <new>
#include <optional>

using namespace narada;
using namespace narada::synthworker;

void synthworker::encodeSynthOptions(wire::RecordWriter &W,
                                     const NaradaOptions &Options) {
  W.add("focus_class", Options.FocusClass);
  W.addBool("enable_context_derivation", Options.EnableContextDerivation);
  W.addBool("static_rank", Options.StaticRank);
  W.addBool("derivation_seed_set", Options.DerivationSeed.has_value());
  if (Options.DerivationSeed)
    W.add("derivation_seed", *Options.DerivationSeed);
}

void synthworker::decodeSynthOptions(const wire::RecordReader &In,
                                     NaradaOptions &Options) {
  Options.FocusClass = In.getOr("focus_class", "");
  Options.EnableContextDerivation =
      In.getBool("enable_context_derivation", true);
  Options.StaticRank = In.getBool("static_rank", false);
  if (In.getBool("derivation_seed_set", false))
    Options.DerivationSeed = In.getU64("derivation_seed");
}

std::string synthworker::encodeSetup(const SynthIsolateContext &Iso,
                                     const NaradaOptions &Options,
                                     const std::string &SpanParent) {
  wire::RecordWriter W;
  W.add("mode", "synth");
  wire::addBundle(W, Iso.LibrarySource, Iso.SeedNames);
  encodeSynthOptions(W, Options);
  W.add("span_parent", SpanParent);
  return W.str();
}

std::string synthworker::encodeUnit(const char *Op, size_t Unit,
                                    const std::string &PairKey) {
  wire::RecordWriter W;
  W.add("op", Op);
  W.add("unit", static_cast<uint64_t>(Unit));
  W.add("pair_key", PairKey);
  return W.str();
}

/// Everything Service rebuilds from the setup record.  Heap-allocated and
/// never moved: Deriver/Synth hold references into Front.
struct Service::State {
  NaradaOptions Options;
  std::string SpanParentPath;
  NaradaFrontHalf Front;
  std::optional<ContextDeriver> Deriver; ///< Memo-less (no threads here).
  std::optional<TestSynthesizer> Synth;
};

Service::Service() : S(std::make_unique<State>()) {}
Service::~Service() = default;

size_t Service::pairCount() const { return S->Front.Pairs.size(); }

Result<std::unique_ptr<Service>>
Service::create(const wire::RecordReader &Setup) {
  auto Out = std::unique_ptr<Service>(new Service());
  State &S = *Out->S;

  decodeSynthOptions(Setup, S.Options);
  S.SpanParentPath = Setup.getOr("span_parent", "pipeline.synth");

  Result<wire::ModuleBundle> Bundle = wire::readBundle(Setup, "synth setup");
  if (!Bundle)
    return Bundle.error();

  // The supervisor's own front half, rebuilt.  Its metrics and spans are
  // discarded (the worker loop resets the registry before every unit) and
  // its info logs muted, since the supervisor already logged the same run.
  NaradaStageTimes Unused;
  const obs::LogLevel Level = obs::logLevel();
  obs::setLogLevel(std::min(Level, obs::LogLevel::Warn));
  Result<NaradaFrontHalf> Front =
      runFrontHalf(Bundle->Source, Bundle->Seeds, S.Options, Unused);
  obs::setLogLevel(Level);
  if (!Front)
    return Front.error();
  S.Front = Front.take();
  S.Deriver.emplace(S.Front.Analysis, *S.Front.Program.Info);
  S.Synth.emplace(S.Front.Registry, *S.Front.Program.Info);
  return Out;
}

void Service::runUnit(const wire::RecordReader &Request,
                      wire::RecordWriter &Reply) {
  std::string Op = Request.getOr("op", "");
  uint64_t I = Request.getU64("unit");
  std::string Key = Request.getOr("pair_key", "");
  Reply.add("op", Op);
  Reply.add("unit", I);

  const std::vector<RacyPair> &Pairs = S->Front.Pairs;
  if (I >= Pairs.size() || Pairs[I].key() != Key) {
    Reply.add("fault",
              formatString("unit %llu (%s) does not match this worker's "
                           "pair table (%zu pairs)",
                           static_cast<unsigned long long>(I), Key.c_str(),
                           Pairs.size()));
    return;
  }

  const RacyPair &Pair = Pairs[I];
  try {
    fault::ScopedUnit Unit(I);
    obs::TraceScope Scope("pair", I);
    obs::SpanParent Parent{S->SpanParentPath};

    if (Op == "derive") {
      fault::probe("synth.pair_task");
      SharingPlan Plan;
      {
        obs::Span DeriveSpan("derive", Parent);
        Plan = deriveSynthPlan(*S->Deriver, Pair, I, S->Options);
      }
      Reply.add("shape", synthShapeKey(Pair, Plan));
      return;
    }

    if (Op == "synth") {
      // Every synth unit derives its own plan (deterministic per pair
      // index), so the reply does not depend on which worker served the
      // pair's derive unit.
      SharingPlan Plan = deriveSynthPlan(*S->Deriver, Pair, I, S->Options);
      PairSlot Slot;
      {
        obs::Span SynthesizeSpan("synthesize", Parent);
        synthesizeIntoSlot(*S->Synth, Pair, Plan, Slot);
      }
      Reply.addBool("ok", Slot.AttemptOk);
      Reply.add("source", Slot.Source);
      Reply.addBool("complete", Slot.Complete);
      Reply.add("shared_class", Slot.SharedClass);
      Reply.add("err_message", Slot.ErrMessage);
      Reply.add("err_str", Slot.ErrStr);
      return;
    }

    Reply.add("fault", "unknown synth op '" + Op + "'");
  } catch (const std::bad_alloc &) {
    throw; // The worker loop answers with a graceful oom crash frame.
  } catch (...) {
    Reply.add("fault", describeException(std::current_exception()));
  }
}
