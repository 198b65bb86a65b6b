//===- synth/SynthWorker.cpp - Isolated synthesis worker service ---------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/SynthWorker.h"

#include "analysis/AccessAnalysis.h"
#include "lang/ASTPrinter.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "staticrace/LocksetAnalysis.h"
#include "support/Bundle.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "synth/SeedNormalizer.h"
#include "synth/TestSynthesizer.h"

#include <new>
#include <optional>
#include <unordered_map>

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
/// never moved: Deriver/Synth hold references into the earlier members.
struct Service::State {
  NaradaOptions Options;
  std::string SpanParentPath;
  CompiledProgram Program; ///< Normalized library + seeds.
  AnalysisResult Analysis;
  std::shared_ptr<const staticrace::ModuleSummary> Static;
  std::vector<RacyPair> Pairs;
  std::optional<SeedRegistry> Registry;
  std::optional<ContextDeriver> Deriver; ///< Memo-less (no threads here).
  std::optional<TestSynthesizer> Synth;
  /// Plans computed by derive units, consumed by synth units.  A fresh
  /// worker (post-respawn) re-derives on miss — derivation is
  /// deterministic per pair index, so the plan is the same either way.
  std::unordered_map<size_t, SharingPlan> PlanCache;
};

Service::Service() : S(std::make_unique<State>()) {}
Service::~Service() = default;

size_t Service::pairCount() const { return S->Pairs.size(); }

Result<std::unique_ptr<Service>>
Service::create(const wire::RecordReader &Setup) {
  auto Out = std::unique_ptr<Service>(new Service());
  State &S = *Out->S;

  decodeSynthOptions(Setup, S.Options);
  S.SpanParentPath = Setup.getOr("span_parent", "pipeline.synth");

  Result<wire::ModuleBundle> Bundle = wire::readBundle(Setup, "synth setup");
  if (!Bundle)
    return Bundle.error();
  const std::string &Source = Bundle->Source;
  std::vector<std::string> &SeedNames = Bundle->Seeds;

  // The front half of runNarada, replayed without spans or logs: every
  // stage below is deterministic in (source, seeds, options), so the
  // resulting pair table matches the supervisor's.  Setup-time metrics
  // are discarded by the worker loop (the supervisor ran these stages
  // itself), so none of this double-counts.
  Result<CompiledProgram> Original = compileProgram(Source);
  if (!Original)
    return Original.error();
  std::string NormalizedSource;
  for (const auto &Class : Original->Ast->Classes)
    NormalizedSource += printClass(*Class) + "\n";
  for (const std::string &SeedName : SeedNames) {
    const TestDecl *Seed = Original->Ast->findTest(SeedName);
    if (!Seed)
      return Error(formatString("no seed test named '%s'", SeedName.c_str()));
    Result<std::unique_ptr<TestDecl>> Norm =
        normalizeSeed(*Seed, *Original->Info);
    if (!Norm)
      return Norm.error();
    NormalizedSource += printTest(**Norm) + "\n";
  }
  Result<CompiledProgram> Recompiled = compileProgram(NormalizedSource);
  if (!Recompiled)
    return Error("normalized seeds failed to recompile: " +
                 Recompiled.error().str());
  S.Program = Recompiled.take();

  for (const std::string &SeedName : SeedNames) {
    Result<TestRun> Run = runTestSequential(*S.Program.Module, SeedName);
    if (!Run)
      return Run.error();
    if (Run->Result.Faulted)
      return Error(formatString("seed test '%s' faulted", SeedName.c_str()));
    S.Analysis.merge(analyzeTrace(Run->TheTrace, *S.Program.Info));
  }

  if (S.Options.StaticRank)
    S.Static = std::make_shared<const staticrace::ModuleSummary>(
        staticrace::summarizeModule(*S.Program.Module));

  PairGenOptions PairOptions;
  PairOptions.FocusClass = S.Options.FocusClass;
  PairOptions.Static = S.Static.get();
  PairOptions.StaticRank = S.Options.StaticRank;
  S.Pairs = generatePairs(S.Analysis, PairOptions);

  std::vector<const TestDecl *> Seeds;
  for (const std::string &SeedName : SeedNames)
    Seeds.push_back(S.Program.Ast->findTest(SeedName));
  Result<SeedRegistry> Registry = SeedRegistry::build(Seeds, *S.Program.Info);
  if (!Registry)
    return Registry.error();
  S.Registry.emplace(Registry.take());

  S.Deriver.emplace(S.Analysis, *S.Program.Info);
  S.Synth.emplace(*S.Registry, *S.Program.Info);
  return Out;
}

void Service::runUnit(const wire::RecordReader &Request,
                      wire::RecordWriter &Reply) {
  std::string Op = Request.getOr("op", "");
  uint64_t I = Request.getU64("unit");
  std::string Key = Request.getOr("pair_key", "");
  Reply.add("op", Op);
  Reply.add("unit", I);

  if (I >= S->Pairs.size() || S->Pairs[I].key() != Key) {
    Reply.add("fault",
              formatString("unit %llu (%s) does not match this worker's "
                           "pair table (%zu pairs)",
                           static_cast<unsigned long long>(I), Key.c_str(),
                           S->Pairs.size()));
    return;
  }

  const RacyPair &Pair = S->Pairs[I];
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
      Reply.addBool("complete", Plan.Complete);
      S->PlanCache.insert_or_assign(I, std::move(Plan));
      return;
    }

    if (Op == "synth") {
      auto It = S->PlanCache.find(I);
      if (It == S->PlanCache.end())
        It = S->PlanCache
                 .emplace(I, deriveSynthPlan(*S->Deriver, Pair, I, S->Options))
                 .first;
      const SharingPlan &Plan = It->second;
      Result<std::unique_ptr<TestDecl>> Attempt = [&] {
        obs::Span SynthesizeSpan("synthesize", Parent);
        return S->Synth->synthesize(Pair, Plan, SynthPlaceholderName);
      }();
      if (Attempt) {
        Reply.addBool("ok", true);
        Reply.add("source", printTest(**Attempt));
        Reply.addBool("complete", Plan.Complete);
        Reply.add("shared_class", Plan.SharedClassName);
      } else {
        Reply.addBool("ok", false);
        Reply.add("err_message", Attempt.error().message());
        Reply.add("err_str", Attempt.error().str());
      }
      return;
    }

    Reply.add("fault", "unknown synth op '" + Op + "'");
  } catch (const std::bad_alloc &) {
    throw; // The worker loop answers with a graceful oom crash frame.
  } catch (...) {
    Reply.add("fault", describeException(std::current_exception()));
  }
}
