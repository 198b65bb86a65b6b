//===- serve/Protocol.cpp - Daemon request/response codec ----------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "detect/DetectWorker.h"
#include "support/Bundle.h"

using namespace narada;
using namespace narada::serve;

void serve::encodeSubmit(wire::RecordWriter &W, const CliArgs &Args,
                         const std::string &Source) {
  W.add("verb", std::string_view("submit"));
  W.add("command", Args.Command);
  W.add("input", Args.Input); // Cosmetic: report metadata, not a path read.
  // Source + seed/test names ride the shared bundle record (key "seed" is
  // the bundle's name list, hence "rng_seed" for the numeric seed below).
  wire::addBundle(W, Source, Args.Names);
  if (!Args.FocusClass.empty())
    W.add("class", Args.FocusClass);
  W.add("rng_seed", Args.Seed);
  W.add("tests", static_cast<uint64_t>(Args.Tests));
  W.addBool("want_report", !Args.ReportPath.empty());
  W.addBool("stats", Args.Stats);
  W.add("jobs", static_cast<uint64_t>(Args.Jobs));
  W.add("policy", Args.PolicyName);
  W.addBool("static_rank", Args.StaticRank);
  W.addBool("static_only", Args.StaticOnly);
  W.addBool("gen_seeds", Args.GenSeeds);
  W.add("gen_rounds", static_cast<uint64_t>(Args.GenRounds));
  W.add("gen_budget", static_cast<uint64_t>(Args.GenBudget));
  W.addBool("isolate", Args.Isolate.Enabled);
  W.addDouble("worker_deadline", Args.Isolate.UnitDeadlineSeconds);
  W.add("worker_cpu_limit", Args.Isolate.WorkerCpuLimitSeconds);
  W.add("worker_mem_limit", Args.Isolate.WorkerMemLimitMb);
  detectworker::encodeDetectOptions(W, Args.Detect);
}

Result<SubmitRequest> serve::decodeSubmit(const wire::RecordReader &In) {
  SubmitRequest Req;
  Result<wire::ModuleBundle> Bundle = wire::readBundle(In, "submit");
  if (!Bundle)
    return Bundle.error();
  Req.Source = std::move(Bundle->Source);
  Req.Args.Names = std::move(Bundle->Seeds);

  CliArgs &Args = Req.Args;
  Args.Command = In.getOr("command", "");
  if (Args.Command.empty())
    return Error("submit record has no command");
  Args.Input = In.getOr("input", "");
  Args.FocusClass = In.getOr("class", "");
  Args.Seed = In.getU64("rng_seed", 1);
  Args.Tests = static_cast<unsigned>(In.getU64("tests", 400));
  Req.WantReport = In.getBool("want_report", false);
  Args.Stats = In.getBool("stats", false);
  Args.Jobs = static_cast<unsigned>(In.getU64("jobs", 1));
  Args.PolicyName = In.getOr("policy", "random");
  Args.StaticRank = In.getBool("static_rank", false);
  Args.StaticOnly = In.getBool("static_only", false);
  Args.GenSeeds = In.getBool("gen_seeds", false);
  Args.GenRounds = static_cast<unsigned>(In.getU64("gen_rounds", 2));
  Args.GenBudget = static_cast<unsigned>(In.getU64("gen_budget", 16));
  Args.Isolate.Enabled = In.getBool("isolate", false);
  Args.Isolate.UnitDeadlineSeconds =
      In.getDouble("worker_deadline", Args.Isolate.UnitDeadlineSeconds);
  Args.Isolate.WorkerCpuLimitSeconds = In.getU64("worker_cpu_limit", 0);
  Args.Isolate.WorkerMemLimitMb = In.getU64("worker_mem_limit", 0);
  Result<DetectOptions> Detect = detectworker::decodeDetectOptions(In);
  if (!Detect)
    return Detect.error();
  Args.Detect = Detect.take();
  return Req;
}

void serve::encodeResponse(wire::RecordWriter &W, const SubmitResponse &R) {
  W.add("verb", std::string_view("result"));
  W.addBool("ok", R.Ok);
  W.add("exit", static_cast<int64_t>(R.Exit));
  W.add("stdout", R.Stdout);
  W.add("stderr", R.Stderr);
  if (!R.Report.empty())
    W.add("report", R.Report);
  if (!R.ErrorMessage.empty())
    W.add("error", R.ErrorMessage);
}

SubmitResponse serve::decodeResponse(const wire::RecordReader &In) {
  SubmitResponse R;
  R.Ok = In.getBool("ok", false);
  R.Exit = static_cast<int>(In.getI64("exit", 1));
  R.Stdout = In.getOr("stdout", "");
  R.Stderr = In.getOr("stderr", "");
  R.Report = In.getOr("report", "");
  R.ErrorMessage = In.getOr("error", "");
  return R;
}
