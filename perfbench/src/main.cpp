//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
///
/// \file
/// narada-perfbench --workload W --seed N --seconds S --trace 0|1
///                  [--root DIR] [--out DIR]
/// narada-perfbench --write-reference FILE [--seed N] [--root DIR]
///
/// Runs one workload single-threaded and in process, calling the layers'
/// public functions: runNarada, detectRacesInTests, generateSeedCorpus,
/// compileProgram, runTest, VM + runToCompletion and summarizeModule.
///
/// --trace 0 repeats untraced passes over the inputs until --seconds have
/// gone by, setting the inputs up several times before the first pass and
/// after every pass (setup_s is the median).  wall_s and cpu_s sum each unit's fastest time over the passes, so
/// a slow spell of the host that hits some units of one pass drops out.
/// --trace 1 runs one untraced and one traced pass (spans around every
/// layer call), then the step-cost, layer and generation probes, and
/// reports the per-layer metrics.  Every pass's outputs are checked: at
/// the default seed against the canonical race sets in BENCH_pipeline.json
/// (and the generation probe against perfbench/reference/gen-synth.json),
/// at other seeds by the weaker seed-independent checks listed in
/// perfbench/README.md.  --write-reference records gen-synth.json.
///
/// Human-readable lines come first; the last line of stdout is the JSON
/// result.  perfbench/README.md defines every workload and metric.
///
//===----------------------------------------------------------------------===//

#include "RaceCheck.h"
#include "Spans.h"
#include "Stats.h"

#include "analysis/AccessAnalysis.h"
#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "gen/GenEngine.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "runtime/Execution.h"
#include "runtime/Scheduler.h"
#include "runtime/VM.h"
#include "staticrace/LocksetAnalysis.h"
#include "support/RaceKey.h"
#include "support/Timer.h"
#include "synth/Narada.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <string>
#include <vector>

using namespace narada;
using namespace perfbench;

namespace {

/// The seed the canonical race sets and the reference files were recorded
/// at; it is DetectOptions::BaseSeed's and GenOptions::Seed's default.
constexpr uint64_t DefaultSeed = 1;
/// Set-ups per round.  A run sets up in one round before its first pass
/// and, untraced, in one more after every pass; setup_s is the median of
/// all of them.
constexpr unsigned SetupReps = 5;
/// Ledger rows a traced run prints.
constexpr size_t LedgerTop = 10;
/// Tests the step-cost probe samples per workload, the steps each of its
/// configurations runs per repetition (the sample is cycled until then),
/// and its repetitions.
constexpr size_t ProbeTests = 8;
constexpr uint64_t ProbeMinSteps = 500'000;
constexpr unsigned ProbeReps = 5;
/// Repetitions of the frontend/analysis/staticrace layer probes.
constexpr unsigned LayerReps = 3;

/// A detect pass synthesizes tests and runs random-schedule detection on
/// them; a gen-synth pass generates seed corpora and synthesizes tests
/// from them without detection.  Both workloads are detect passes; a
/// traced run adds a gen-synth pass over the workload's classes as its
/// generation probe.
enum class Kind { Detect, GenSynth };

const char *const GenReference = "perfbench/reference/gen-synth.json";

struct Workload {
  const char *Name;
  std::vector<std::string> Classes;
};

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> All = {
      {"c1-divergent", {"C1"}},
      {"terminating", {"C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"}},
  };
  return All;
}

/// The classes gen-synth.json covers: every workload's classes.
const std::vector<std::string> AllClasses = {"C1", "C2", "C3", "C4", "C5",
                                             "C6", "C7", "C8", "C9"};

struct Args {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Root = ".";
  std::string OutDir = ".bench_build/perfbench-out";
  std::string WriteReference;
};

struct ClassInput {
  std::string Id;
  std::string ClassName;
  std::string Source;
  std::vector<std::string> SeedNames;
};

struct Inputs {
  std::vector<ClassInput> Classes;
  DetectOptions Detect;
  gen::GenOptions Gen;
  OutputMap Expected;    ///< The workload's reference race sets.
  OutputMap GenExpected; ///< The generation probe's reference outputs.
};

/// What a run checks its passes against.
enum class References { None, RaceSets, RaceSetsAndGen };

/// Everything before the timed pass: the corpus inputs, the options derived
/// from the seed, and the reference outputs the run checks.
Result<Inputs> setUp(const std::vector<std::string> &Classes, const Args &A,
                     References Load) {
  Inputs In;
  for (const std::string &Id : Classes) {
    const CorpusEntry *E = findCorpusEntry(Id);
    if (!E)
      return Error("no corpus class " + Id);
    In.Classes.push_back({E->Id, E->ClassName, E->Source, E->SeedNames});
  }
  In.Detect.BaseSeed = A.Seed;
  In.Gen.Seed = A.Seed;
  if (Load == References::None)
    return In;
  Result<OutputMap> Ref =
      loadTrajectoryReference(A.Root + "/BENCH_pipeline.json", Classes);
  if (!Ref)
    return Ref.error();
  In.Expected = Ref.take();
  if (Load != References::RaceSetsAndGen)
    return In;
  Result<OutputMap> GenRef = loadReferenceFile(A.Root + "/" + GenReference);
  if (!GenRef)
    return GenRef.error();
  In.GenExpected = GenRef.take();
  return In;
}

/// One detected test's cost, for the per-unit ledger.
struct LedgerRow {
  std::string Class;
  std::string Test;
  double Ms = 0.0;
  unsigned Schedules = 0;
  bool StepLimited = false;
  bool Quarantined = false;
};

/// What the probes need from a pass: the class's pipeline input and the
/// final synthesized program.
struct ClassArtifacts {
  std::string Source;
  std::vector<std::string> SeedNames;
  std::shared_ptr<CompiledProgram> Final;
  std::vector<std::string> Tests;
};

struct PassResult {
  double Wall = 0.0;
  double Cpu = 0.0;
  /// Wall and CPU seconds of each unit call in pass order (runNarada per
  /// class, detection per test, generation per class), then of the rest
  /// of the pass.
  std::vector<double> UnitWall, UnitCpu;
  OutputMap Outputs;
  std::vector<LedgerRow> Ledger;
  std::vector<ClassArtifacts> Artifacts;
  uint64_t Units = 0;     ///< Tests (detect) or classes (gen-synth).
  uint64_t Undecided = 0; ///< Units without a classified outcome.
  std::vector<std::string> Errors;
  uint64_t Detected = 0, Reproduced = 0;
  uint64_t SchedulesRun = 0;
  uint64_t Pairs = 0, Tests = 0;
  obs::MetricsSnapshot Metrics;
};

uint64_t counter(const obs::MetricsSnapshot &S, const char *Name) {
  auto It = S.Counters.find(Name);
  return It == S.Counters.end() ? 0 : It->second;
}

/// User+system CPU seconds of the process.
double cpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return T.tv_sec + T.tv_nsec / 1e9;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

/// Times one unit call of a pass: its wall and CPU seconds go to the
/// pass's unit costs, and a traced pass records a span around it.
class UnitTimer {
public:
  UnitTimer(const char *Name, SpanLog &Spans, PassResult &P)
      : Spans(Spans), P(P), Cpu0(cpuSeconds()), Span(Spans.begin(Name)) {}

  /// Ends the unit; returns its wall seconds.
  double stop() {
    Spans.end(Span);
    const double Wall = Clock.seconds();
    P.UnitWall.push_back(Wall);
    P.UnitCpu.push_back(cpuSeconds() - Cpu0);
    return Wall;
  }

private:
  SpanLog &Spans;
  PassResult &P;
  double Cpu0;
  Timer Clock;
  int Span;
};

/// Synthesizes tests for one class; null on failure (recorded in \p P).
std::optional<NaradaResult> synthesize(const std::string &Source,
                                       const std::vector<std::string> &Seeds,
                                       const ClassInput &C, SpanLog &Spans,
                                       PassResult &P) {
  NaradaOptions Options;
  Options.FocusClass = C.ClassName;
  Options.Jobs = 1;
  UnitTimer Unit("narada", Spans, P);
  Result<NaradaResult> R = runNarada(Source, Seeds, Options);
  Unit.stop();
  if (!R) {
    P.Errors.push_back(C.Id + ": runNarada: " + R.error().str());
    return std::nullopt;
  }
  P.Pairs += R->Pairs.size();
  P.Tests += R->Tests.size();
  return R.take();
}

void detectClass(const Inputs &In, const ClassInput &C, SpanLog &Spans,
                 bool Keep, PassResult &P) {
  std::optional<NaradaResult> R =
      synthesize(C.Source, C.SeedNames, C, Spans, P);
  if (!R) {
    ++P.Units;
    ++P.Undecided;
    return;
  }
  ClassOutput &Out = P.Outputs[C.Id];
  Out.Tests = R->Tests.size();
  for (const SynthesizedTestInfo &T : R->Tests) {
    ++P.Units;
    UnitTimer Unit("detect", Spans, P);
    Result<std::vector<TestDetectionResult>> D = detectRacesInTests(
        *R->Program.Module, {{T.Name, T.CandidateLabels}}, In.Detect, 1);
    const double Ms = Unit.stop() * 1000;
    if (!D) {
      ++P.Undecided;
      P.Errors.push_back(C.Id + ": " + T.Name + ": " + D.error().str());
      continue;
    }
    const TestDetectionResult &TR = D->front();
    P.Ledger.push_back({C.Id, T.Name, Ms, TR.SchedulesRun, TR.SawStepLimit,
                        TR.Quarantined});
    P.Undecided += TR.Quarantined;
    P.Detected += TR.Detected.size();
    P.Reproduced += TR.reproducedCount();
    P.SchedulesRun += TR.SchedulesRun;
    // The same merge `narada-cli detect` applies across a class's tests:
    // a test that detected nothing and reproduced no hinted race adds no
    // race records.
    if (TR.Detected.empty() && TR.reproducedCount() == 0)
      continue;
    for (const ConfirmedRace &Race : TR.Races) {
      RaceOutcome &O = Out.Races[Race.Report.key()];
      O.Reproduced = O.Reproduced || Race.Reproduced;
      O.Harmful = O.Harmful || Race.Harmful;
    }
  }
  if (!Keep)
    return;
  ClassArtifacts A;
  A.Source = C.Source;
  A.SeedNames = C.SeedNames;
  for (const SynthesizedTestInfo &T : R->Tests)
    A.Tests.push_back(T.Name);
  A.Final = std::make_shared<CompiledProgram>(std::move(R->Program));
  P.Artifacts.push_back(std::move(A));
}

void genSynthClass(const Inputs &In, const ClassInput &C, SpanLog &Spans,
                   PassResult &P) {
  ++P.Units;
  gen::GenOptions Options = In.Gen;
  Options.FocusClass = C.ClassName;
  UnitTimer Unit("gen", Spans, P);
  Result<gen::GenResult> G = gen::generateSeedCorpus(C.Source, Options);
  Unit.stop();
  if (!G) {
    ++P.Undecided;
    P.Errors.push_back(C.Id + ": generateSeedCorpus: " + G.error().str());
    return;
  }
  std::optional<NaradaResult> R =
      synthesize(G->CorpusSource, G->SeedNames, C, Spans, P);
  if (!R) {
    ++P.Undecided;
    return;
  }
  ClassOutput &Out = P.Outputs[C.Id];
  Out.Seeds.insert(G->SeedNames.begin(), G->SeedNames.end());
  for (const RacyPair &Pair : R->Pairs)
    Out.Pairs.insert(Pair.key());
  Out.Tests = R->Tests.size();
  bool Quarantined = !G->Quarantined.empty();
  for (const SkippedPair &S : R->Skipped)
    Quarantined = Quarantined || S.Reason == SkipReason::InternalFault ||
                  S.Reason == SkipReason::WorkerCrash;
  P.Undecided += Quarantined;
}

/// One pass over the workload's inputs.  \p Keep retains the programs the
/// probes run (detect passes only).
PassResult runPass(Kind K, const Inputs &In, SpanLog &Spans, bool Keep) {
  obs::MetricsRegistry::global().reset();
  PassResult P;
  Timer Clock;
  const double Cpu0 = cpuSeconds();
  for (const ClassInput &C : In.Classes) {
    if (K == Kind::Detect)
      detectClass(In, C, Spans, Keep, P);
    else
      genSynthClass(In, C, Spans, P);
  }
  P.Cpu = cpuSeconds() - Cpu0;
  P.Wall = Clock.seconds();
  double UnitsWall = 0, UnitsCpu = 0;
  for (size_t I = 0; I < P.UnitWall.size(); ++I) {
    UnitsWall += P.UnitWall[I];
    UnitsCpu += P.UnitCpu[I];
  }
  P.UnitWall.push_back(P.Wall - UnitsWall);
  P.UnitCpu.push_back(P.Cpu - UnitsCpu);
  P.Metrics = obs::MetricsRegistry::global().snapshot();
  return P;
}

/// Checks that hold at every seed: detection and synthesis succeeded, the
/// synthesized test counts match the reference (synthesis does not read
/// the seed), race records are well formed, and generated corpora are
/// named and non-empty.
std::vector<std::string> weakCheck(Kind K, const Inputs &In,
                                   const PassResult &P) {
  std::vector<std::string> Out = P.Errors;
  static const std::regex SeedName("gen_r[0-9]+_c[0-9]+");
  for (const ClassInput &C : In.Classes) {
    auto Obs = P.Outputs.find(C.Id);
    if (Obs == P.Outputs.end()) {
      Out.push_back(C.Id + ": no output");
      continue;
    }
    const ClassOutput &O = Obs->second;
    if (K == Kind::Detect) {
      auto Exp = In.Expected.find(C.Id);
      if (Exp != In.Expected.end() && Exp->second.Tests &&
          Exp->second.Tests != O.Tests)
        Out.push_back(C.Id + ": synthesized tests " + std::to_string(O.Tests) +
                      ", expected " + std::to_string(Exp->second.Tests));
      for (const auto &[Key, R] : O.Races) {
        if (!parseRaceKey(Key))
          Out.push_back(C.Id + ": malformed race key " + Key);
        if (R.Harmful && !R.Reproduced)
          Out.push_back(C.Id + ": race " + Key + " harmful but not reproduced");
      }
    } else {
      if (O.Seeds.empty() || O.Pairs.empty() || !O.Tests)
        Out.push_back(C.Id + ": empty generated corpus or synthesis");
      for (const std::string &S : O.Seeds)
        if (!std::regex_match(S, SeedName))
          Out.push_back(C.Id + ": unexpected seed name " + S);
    }
  }
  return Out;
}

/// Exact comparison with the reference (default seed only).
std::vector<std::string> strongCheck(const Inputs &In,
                                     const OutputMap &Expected,
                                     const PassResult &P) {
  std::vector<std::string> Out = P.Errors;
  for (const ClassInput &C : In.Classes) {
    auto Exp = Expected.find(C.Id);
    auto Obs = P.Outputs.find(C.Id);
    if (Exp == Expected.end()) {
      Out.push_back(C.Id + ": no reference");
      continue;
    }
    std::vector<std::string> Diff = diffClass(
        C.Id, Exp->second, Obs == P.Outputs.end() ? ClassOutput{} : Obs->second);
    Out.insert(Out.end(), Diff.begin(), Diff.end());
  }
  return Out;
}

std::string checkDescription(Kind K, uint64_t Seed) {
  if (Seed != DefaultSeed)
    return K == Kind::Detect
               ? "weak (non-default seed): detection succeeded on every test, "
                 "synthesized test counts equal the reference, race keys "
                 "parse, harmful implies reproduced"
               : "weak (non-default seed): generation and synthesis "
                 "succeeded, every class kept gen_r*_c* seeds and "
                 "synthesized pairs and tests";
  if (K == Kind::GenSynth)
    return std::string("strong: kept seed names, pair keys and test counts "
                       "equal ") +
           GenReference;
  return "strong: race sets (key, reproduced, harmful) and test counts "
         "equal BENCH_pipeline.json pipeline:<class>";
}

//===-- Probes ------------------------------------------------------------===//

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

struct StepProbe {
  double VmNs = 0, RecorderNs = 0, HbNs = 0, LockSetNs = 0;
  double EventsPerStep = 0;
  uint64_t Steps = 0; ///< Steps of one configuration over the sample.
  size_t Tests = 0;
};

/// ns/step of the VM alone, with the trace recorder (runTest), and with
/// the recorder plus the HB or the lockset detector, over a fixed sample of
/// the pass's tests under the workload seed's random schedule.  The four
/// configurations interleave within each repetition so a slow spell of the
/// host hits them alike; each figure is the median over repetitions.
StepProbe probeStepCost(const std::vector<ClassArtifacts> &Artifacts,
                        const Inputs &In) {
  std::vector<std::pair<const IRModule *, std::string>> All;
  for (const ClassArtifacts &A : Artifacts)
    for (const std::string &T : A.Tests)
      All.push_back({A.Final->Module.get(), T});
  StepProbe Out;
  if (All.empty())
    return Out;
  const size_t Stride = std::max<size_t>(1, All.size() / ProbeTests);
  std::vector<std::pair<const IRModule *, std::string>> Sample;
  for (size_t I = 0; I < All.size() && Sample.size() < ProbeTests; I += Stride)
    Sample.push_back(All[I]);
  Out.Tests = Sample.size();

  const uint64_t Seed = In.Detect.BaseSeed;
  const uint64_t MaxSteps = In.Detect.MaxSteps;
  std::vector<double> Ns[4];
  uint64_t Events = 0, EventSteps = 0;
  for (unsigned Rep = 0; Rep < ProbeReps; ++Rep) {
    for (unsigned Config = 0; Config < 4; ++Config) {
      uint64_t Steps = 0;
      Timer Clock;
      for (size_t I = 0;
           I < Sample.size() || (Steps > 0 && Steps < ProbeMinSteps); ++I) {
        const auto &[M, Test] = Sample[I % Sample.size()];
        RandomPolicy Policy(Seed);
        if (Config == 0) {
          VM Machine(*M, Seed);
          Machine.spawnThread(M->findTest(Test), {});
          Steps += runToCompletion(Machine, Policy, MaxSteps).Steps;
          continue;
        }
        HBDetector HB;
        LockSetDetector LockSet;
        ExecutionObserver *Extra = nullptr;
        if (Config == 2)
          Extra = &HB;
        else if (Config == 3)
          Extra = &LockSet;
        Result<TestRun> Run = runTest(*M, Test, Policy, Seed, Extra, MaxSteps);
        if (!Run)
          continue;
        Steps += Run->Result.Steps;
        if (Config == 1 && Rep == 0) {
          Events += Run->TheTrace.size();
          EventSteps += Run->Result.Steps;
        }
      }
      const double Secs = Clock.seconds();
      Ns[Config].push_back(Steps ? Secs * 1e9 / Steps : 0.0);
      Out.Steps = Steps;
    }
  }
  Out.VmNs = median(Ns[0]);
  Out.RecorderNs = median(Ns[1]);
  Out.HbNs = median(Ns[2]);
  Out.LockSetNs = median(Ns[3]);
  Out.EventsPerStep = ratio(double(Events), double(EventSteps));
  return Out;
}

struct LayerProbe {
  double CompileMs = 0, SeedMs = 0, SummarizeMs = 0;
};

/// Times compileProgram, the seed analysis (runTestSequential +
/// analyzeTrace) and summarizeModule directly on every class's pipeline
/// input; medians over LayerReps repetitions of the per-workload sums.
LayerProbe probeLayers(const std::vector<ClassArtifacts> &Artifacts) {
  std::vector<double> Compile, Seed, Summarize;
  for (unsigned Rep = 0; Rep < LayerReps; ++Rep) {
    double C = 0, S = 0, Z = 0;
    for (const ClassArtifacts &A : Artifacts) {
      Timer Clock;
      Result<CompiledProgram> P = compileProgram(A.Source);
      C += Clock.millis();
      if (!P)
        continue;
      Clock.restart();
      for (const std::string &Name : A.SeedNames)
        if (Result<TestRun> Run = runTestSequential(*P->Module, Name))
          analyzeTrace(Run->TheTrace, *P->Info);
      S += Clock.millis();
      Clock.restart();
      staticrace::summarizeModule(*P->Module);
      Z += Clock.millis();
    }
    Compile.push_back(C);
    Seed.push_back(S);
    Summarize.push_back(Z);
  }
  return {median(Compile), median(Seed), median(Summarize)};
}

//===-- Reporting ---------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  size_t Samples;
};

void printMetrics(const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("metric %-34s %14.6f %-12s n=%zu\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
}

std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("correct").value(Correct);
  W.key("attempted").value(Attempted);
  W.key("failed").value(Failed);
  W.key("metrics").beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name).beginObject();
    W.key("value").value(M.Value);
    W.key("unit").value(M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.str();
}

/// Summed seconds of the obs phases directly below \p Path.
double childPhaseSeconds(const obs::MetricsSnapshot &S,
                         const std::string &Path) {
  double Total = 0;
  for (const auto &[Child, Stat] : S.Phases)
    if (Child.size() > Path.size() + 1 && Child.rfind(Path + ".", 0) == 0 &&
        Child.find('.', Path.size() + 1) == std::string::npos)
      Total += Stat.Seconds;
  return Total;
}

/// Self seconds of each layer in a traced detect pass.  The benchmark's
/// spans give the time of each runNarada and detectRacesInTests call; the
/// program's own obs phases split it: the pipeline stages of runNarada
/// ("pipeline.<stage>"; the staticrace stage does not run at the CLI
/// defaults) and the random schedules and confirmation of detection
/// ("test.schedule", "test.confirm").  "narada" and "detect" keep what
/// their calls spent outside those phases, and "bench" is the pass outside
/// every span.
std::vector<std::pair<std::string, double>>
layerSelfSeconds(const PassResult &P, const SpanLog &Spans) {
  const obs::MetricsSnapshot &S = P.Metrics;
  std::map<std::string, double> Calls = Spans.selfSeconds();
  return {
      {"narada", Calls["narada"] - childPhaseSeconds(S, "pipeline")},
      {"frontend", S.phaseSeconds("pipeline.frontend")},
      {"analysis", S.phaseSeconds("pipeline.analyze")},
      {"pairgen", S.phaseSeconds("pipeline.pairgen")},
      {"synth", S.phaseSeconds("pipeline.synth")},
      {"recompile", S.phaseSeconds("pipeline.recompile")},
      {"detect", Calls["detect"] - childPhaseSeconds(S, "test")},
      {"schedule", S.phaseSeconds("test.schedule")},
      {"confirm", S.phaseSeconds("test.confirm")},
      {"bench", P.Wall - Spans.topLevelSeconds()},
  };
}

/// Prints the costliest ledger rows and writes the whole ledger as TSV.
void reportLedger(const std::vector<LedgerRow> &Ledger,
                  const std::string &Path) {
  const size_t Top = LedgerTop;
  double Total = 0;
  for (const LedgerRow &R : Ledger)
    Total += R.Ms;
  std::vector<const LedgerRow *> Sorted;
  for (const LedgerRow &R : Ledger)
    Sorted.push_back(&R);
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const LedgerRow *A, const LedgerRow *B) {
                     return A->Ms > B->Ms;
                   });
  std::printf("ledger: top %zu of %zu tests by detection time "
              "(share of detect.time_s %.3f s)\n",
              std::min(Top, Sorted.size()), Sorted.size(), Total / 1000);
  double Cumulative = 0;
  for (size_t I = 0; I < Sorted.size() && I < Top; ++I) {
    const LedgerRow &R = *Sorted[I];
    Cumulative += R.Ms;
    std::printf("ledger %-3s %-28s %10.1f ms %5u schedules %-12s %-11s "
                "%5.1f%% cum %5.1f%%\n",
                R.Class.c_str(), R.Test.c_str(), R.Ms, R.Schedules,
                R.StepLimited ? "step-limited" : "-",
                R.Quarantined ? "quarantined" : "-",
                100 * ratio(R.Ms, Total), 100 * ratio(Cumulative, Total));
  }
  std::ofstream Out(Path);
  Out << "class\ttest\tms\tschedules\tstep_limited\tquarantined\n";
  for (const LedgerRow &R : Ledger)
    Out << R.Class << '\t' << R.Test << '\t' << R.Ms << '\t' << R.Schedules
        << '\t' << R.StepLimited << '\t' << R.Quarantined << '\n';
}

std::vector<Metric> perLayerMetrics(const PassResult &P, double UntracedWall,
                                    double PeakRss, const SpanLog &Spans,
                                    const StepProbe &SP, const LayerProbe &LP,
                                    const PassResult &Gen,
                                    const SpanLog &GenSpans) {
  const obs::MetricsSnapshot &S = P.Metrics;
  const obs::MetricsSnapshot &G = Gen.Metrics;
  std::vector<double> TestMs;
  double DetectMs = 0, StepLimitedMs = 0;
  for (const LedgerRow &R : P.Ledger) {
    TestMs.push_back(R.Ms);
    DetectMs += R.Ms;
    if (R.StepLimited)
      StepLimitedMs += R.Ms;
  }
  const Tail T = tailPercentile(TestMs);
  const size_t NTests = TestMs.size();
  const size_t Classes = P.Artifacts.size();
  const uint64_t Schedules = P.SchedulesRun;
  const double QHits = counter(S, "synth.qmemo_hits");
  const double QMisses = counter(S, "synth.qmemo_misses");
  std::vector<Metric> Out = {
      {"runtime.steps", double(counter(S, "runtime.steps")), "count", 1},
      {"runtime.runs", double(counter(S, "runtime.runs")), "count", 1},
      {"runtime.step_limit_hits", double(counter(S, "runtime.step_limit_hits")),
       "count", 1},
      {"runtime.ns_per_step", SP.VmNs, "ns", ProbeReps},
      {"runtime.probe_steps", double(SP.Steps), "count", SP.Tests},
      {"runtime.peak_rss_mb", PeakRss, "MB", 1},
      {"trace.recorder_ns_per_step", SP.RecorderNs - SP.VmNs, "ns", ProbeReps},
      {"trace.events_per_step", SP.EventsPerStep, "events/step", SP.Tests},
      {"detect.time_s", DetectMs / 1000, "s", NTests},
      {"detect.tests", double(NTests), "count", NTests},
      {"detect.test_p50_ms", percentile(TestMs, 50), "ms", NTests},
      {"detect.test_tail_ms", T.Value, "ms", NTests},
      {"detect.test_tail_pct", T.Percentile, "percentile", T.Beyond},
      {"detect.step_limited_time_share", ratio(StepLimitedMs, DetectMs),
       "ratio", NTests},
      {"detect.retries", double(counter(S, "detect.retries")), "count", 1},
      {"detect.quarantined", double(counter(S, "detect.quarantined")), "count",
       1},
      {"detect.hb_reports", double(counter(S, "detect.hb_reports")), "count",
       1},
      {"detect.hb_ns_per_step", SP.HbNs - SP.RecorderNs, "ns", ProbeReps},
      {"detect.lockset_ns_per_step", SP.LockSetNs - SP.RecorderNs, "ns",
       ProbeReps},
      {"detect.reproduced_ratio", ratio(P.Reproduced, P.Detected), "ratio",
       P.Detected},
      {"explore.schedules_run", double(Schedules), "count", NTests},
      {"explore.ms_per_schedule",
       ratio(S.phaseSeconds("test.schedule") * 1000, Schedules), "ms",
       Schedules},
      {"frontend.compile_ms", LP.CompileMs, "ms", LayerReps},
      {"analysis.seed_ms", LP.SeedMs, "ms", LayerReps},
      {"staticrace.summarize_ms", LP.SummarizeMs, "ms", LayerReps},
      {"synth.pipeline_ms", Spans.selfSeconds()["narada"] * 1000, "ms",
       Classes},
      {"synth.pairs", double(P.Pairs), "count", Classes},
      {"synth.tests", double(P.Tests), "count", Classes},
      {"synth.qmemo_hit_ratio", ratio(QHits, QHits + QMisses), "ratio",
       size_t(QHits + QMisses)},
      {"gen.generate_s", GenSpans.selfSeconds()["gen"], "s", Gen.Units},
      {"gen.candidates", double(counter(G, "gen.candidates")), "count", 1},
      {"gen.kept_ratio",
       ratio(counter(G, "gen.seeds_kept"), counter(G, "gen.candidates")),
       "ratio", size_t(counter(G, "gen.candidates"))},
  };
  for (const auto &[Layer, Secs] : layerSelfSeconds(P, Spans))
    Out.push_back({"self." + Layer + "_s", Secs, "s", 1});
  Out.push_back({"bench.traced_wall_s", P.Wall, "s", 1});
  Out.push_back({"bench.tracing_overhead_s", P.Wall - UntracedWall, "s", 1});
  return Out;
}

void printSelfTimes(const PassResult &P, const SpanLog &Spans) {
  std::vector<std::pair<std::string, double>> Rows = layerSelfSeconds(P, Spans);
  std::sort(Rows.begin(), Rows.end(),
            [](const auto &A, const auto &B) { return A.second > B.second; });
  std::printf("self time by layer (traced pass, wall %.3f s, %zu spans):\n",
              P.Wall, Spans.spans().size());
  for (const auto &[Name, Secs] : Rows)
    std::printf("self %-12s %10.4f s %6.2f%%\n", Name.c_str(), Secs,
                100 * ratio(Secs, P.Wall));
}

//===-- Entry point -------------------------------------------------------===//

int usage(const char *Why) {
  std::fprintf(stderr,
               "narada-perfbench: %s\n"
               "usage: narada-perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--out DIR]\n"
               "       narada-perfbench --write-reference FILE [--seed N] "
               "[--root DIR]\nworkloads:",
               Why);
  for (const Workload &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    try {
      if (Flag == "--workload")
        A.Workload = Value;
      else if (Flag == "--seed")
        A.Seed = std::stoull(Value);
      else if (Flag == "--seconds")
        A.Seconds = std::stod(Value);
      else if (Flag == "--trace")
        A.Trace = Value == "1";
      else if (Flag == "--root")
        A.Root = Value;
      else if (Flag == "--out")
        A.OutDir = Value;
      else if (Flag == "--write-reference")
        A.WriteReference = Value;
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return !A.Workload.empty() || !A.WriteReference.empty();
}

std::string fileStem(const Args &A) {
  return A.OutDir + "/" + A.Workload + "-seed" + std::to_string(A.Seed);
}

/// Records the generation probe's reference: a gen-synth pass over every
/// workload's classes.
int writeReference(const Args &A) {
  Result<Inputs> In = setUp(AllClasses, A, References::None);
  if (!In)
    return usage(In.error().str().c_str());
  SpanLog Off(false);
  PassResult P = runPass(Kind::GenSynth, *In, Off, false);
  if (!P.Errors.empty()) {
    for (const std::string &E : P.Errors)
      std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }
  std::ofstream Out(A.WriteReference);
  Out << renderReference("gen-synth", A.Seed, P.Outputs);
  std::printf("wrote %s (%zu classes)\n", A.WriteReference.c_str(),
              P.Outputs.size());
  return Out ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return usage("bad arguments");
  if (!A.WriteReference.empty())
    return writeReference(A);
  const Workload *W = nullptr;
  for (const Workload &Candidate : workloads())
    if (A.Workload == Candidate.Name)
      W = &Candidate;
  if (!W)
    return usage(("unknown workload '" + A.Workload + "'").c_str());

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              W->Name, static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);
  // An untraced run checks race sets only; a traced one also checks its
  // generation probe.
  const References Load =
      A.Trace ? References::RaceSetsAndGen : References::RaceSets;
  // Set-ups spread over the run, so that setup_s does not hang on how fast
  // the host was in the first few milliseconds.  The passes use the first
  // round's inputs.
  std::vector<double> SetupSecs;
  std::optional<Inputs> In;
  auto SetUpRound = [&]() {
    for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
      Timer Clock;
      Result<Inputs> Fresh = setUp(W->Classes, A, Load);
      SetupSecs.push_back(Clock.seconds());
      if (!Fresh) {
        std::fprintf(stderr, "error: %s\n", Fresh.error().str().c_str());
        return false;
      }
      if (!In)
        In.emplace(Fresh.take());
    }
    return true;
  };
  if (!SetUpRound())
    return 1;
  const bool Strong = A.Seed == DefaultSeed;
  std::printf("check: %s\n", checkDescription(Kind::Detect, A.Seed).c_str());

  std::vector<std::string> Failures;
  uint64_t Attempted = 0, Failed = 0;
  auto Account = [&](const PassResult &P, const std::string &Label, Kind K,
                     const OutputMap &Expected) {
    std::printf("%s: wall %.4f s cpu %.4f s units %llu undecided %llu "
                "steps %llu\n",
                Label.c_str(), P.Wall, P.Cpu,
                static_cast<unsigned long long>(P.Units),
                static_cast<unsigned long long>(P.Undecided),
                static_cast<unsigned long long>(
                    counter(P.Metrics, "runtime.steps")));
    Attempted += P.Units;
    Failed += P.Errors.size();
    std::vector<std::string> Diff =
        Strong ? strongCheck(*In, Expected, P) : weakCheck(K, *In, P);
    if (Failures.empty())
      Failures = Diff;
  };

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    std::vector<double> Walls, FastestWall, FastestCpu;
    double DecidedShare = 0;
    Timer Window;
    do {
      SpanLog Off(false);
      PassResult P = runPass(Kind::Detect, *In, Off, false);
      Account(P, "pass " + std::to_string(Walls.size() + 1), Kind::Detect,
              In->Expected);
      if (Walls.empty())
        DecidedShare = ratio(double(P.Units - P.Undecided), P.Units);
      if (!foldMinima(FastestWall, P.UnitWall) ||
          !foldMinima(FastestCpu, P.UnitCpu))
        Failures.push_back("pass " + std::to_string(Walls.size() + 1) +
                           ": unit count differs from the first pass");
      Walls.push_back(P.Wall);
      if (!SetUpRound())
        return 1;
    } while (Window.seconds() + median(Walls) <= A.Seconds);
    const double Wall = sum(FastestWall), Cpu = sum(FastestCpu);
    std::printf("fastest units: %zu units over %zu passes: wall %.4f s "
                "(median pass %.4f s) cpu %.4f s\n",
                FastestWall.size(), Walls.size(), Wall, median(Walls), Cpu);
    Metrics = {
        {"wall_s", Wall, "s", Walls.size()},
        {"cpu_s", Cpu, "s", Walls.size()},
        {"setup_s", median(SetupSecs), "s", SetupSecs.size()},
        {"decided_share", DecidedShare, "ratio", 1},
    };
  } else {
    SpanLog Off(false);
    PassResult Untraced = runPass(Kind::Detect, *In, Off, false);
    Account(Untraced, "untraced pass", Kind::Detect, In->Expected);
    const double PeakRss = peakRssMb();
    SpanLog Spans(true);
    PassResult Traced = runPass(Kind::Detect, *In, Spans, true);
    Account(Traced, "traced pass", Kind::Detect, In->Expected);
    StepProbe SP = probeStepCost(Traced.Artifacts, *In);
    LayerProbe LP = probeLayers(Traced.Artifacts);
    std::printf("check (generation probe): %s\n",
                checkDescription(Kind::GenSynth, A.Seed).c_str());
    SpanLog GenSpans(true);
    PassResult GenProbe = runPass(Kind::GenSynth, *In, GenSpans, false);
    Account(GenProbe, "generation probe", Kind::GenSynth, In->GenExpected);
    std::filesystem::create_directories(A.OutDir);
    reportLedger(Traced.Ledger, fileStem(A) + "-ledger.tsv");
    printSelfTimes(Traced, Spans);
    std::printf("step probe: %zu tests, %llu steps per configuration: vm "
                "%.2f ns/step, +recorder %.2f, +recorder+hb %.2f, "
                "+recorder+lockset %.2f\n",
                SP.Tests, static_cast<unsigned long long>(SP.Steps), SP.VmNs,
                SP.RecorderNs, SP.HbNs, SP.LockSetNs);
    std::printf("tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s\n",
                Traced.Wall, Untraced.Wall, Traced.Wall - Untraced.Wall);
    std::ofstream(fileStem(A) + "-spans.json") << Spans.json() << "\n";
    Metrics = perLayerMetrics(Traced, Untraced.Wall, PeakRss, Spans, SP, LP,
                              GenProbe, GenSpans);
  }

  std::printf("setup: %zu set-ups, min %.6f s median %.6f s max %.6f s\n",
              SetupSecs.size(),
              *std::min_element(SetupSecs.begin(), SetupSecs.end()),
              median(SetupSecs),
              *std::max_element(SetupSecs.begin(), SetupSecs.end()));
  for (const std::string &F : Failures)
    std::printf("CHECK FAILED %s\n", F.c_str());
  printMetrics(Metrics);
  const bool Correct = Failures.empty();
  std::printf("%s\n", resultJson(Correct, Attempted, Failed, Metrics).c_str());
  return Correct ? 0 : 1;
}
