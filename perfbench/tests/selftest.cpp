//===- perfbench/tests/selftest.cpp - Benchmark statistics self-check -----===//
///
/// \file
/// Checks the benchmark's own arithmetic and output checks: the tail
/// percentile rule (highest ladder step with at least ten samples beyond
/// it), the per-unit minima that wall_s and cpu_s sum, span self time, and
/// that a race-set check fails, naming the class, when one canonical race
/// is removed.
/// Run it with `python3 perfbench/run.py --selftest` from the repository
/// root; it reads the checked-in BENCH_pipeline.json.
///
//===----------------------------------------------------------------------===//

#include "RaceCheck.h"
#include "Spans.h"
#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What.c_str());
  Failures += !Ok;
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(double(I));
  return V;
}

void testMedianAndPercentile() {
  check(median({3, 1, 2}) == 2, "median of an odd count is the middle value");
  check(median({4, 1, 3, 2}) == 2.5, "median of an even count averages");
  check(median({}) == 0, "median of nothing is 0");
  check(percentile(iota(100), 50) == 50, "nearest-rank p50 of 1..100");
  check(percentile(iota(100), 95) == 95, "nearest-rank p95 of 1..100");
  check(percentile(iota(10), 99) == 10, "p99 of ten samples is the max");
}

void testTailSelection() {
  // 89 samples (C1's test count): p90 leaves 8 beyond, p75 leaves 22.
  Tail T = tailPercentile(iota(89));
  check(T.Percentile == 75 && T.Value == 67 && T.Beyond == 22 &&
            T.Count == 89,
        "89 samples: tail is p75 with 22 beyond");
  // 472 samples (C2-C9): p99 leaves 4, p95 leaves 23.
  T = tailPercentile(iota(472));
  check(T.Percentile == 95 && T.Beyond == 23 && T.Count == 472,
        "472 samples: tail is p95 with 23 beyond");
  // 1000 samples: p99 leaves exactly 10.
  T = tailPercentile(iota(1000));
  check(T.Percentile == 99 && T.Beyond == 10 && T.Value == 990,
        "1000 samples: p99 with exactly 10 beyond");
  // Fewer than 20 samples: not even p50 has ten beyond.
  T = tailPercentile(iota(19));
  check(!T.valid() && T.Count == 19, "19 samples: no tail percentile");
  T = tailPercentile(iota(20));
  check(T.Percentile == 50 && T.Beyond == 10, "20 samples: p50 with 10 beyond");
  for (size_t N : {20, 37, 89, 200, 472, 5000}) {
    Tail U = tailPercentile(iota(N));
    check(U.valid() && U.Beyond >= 10 && U.Count == N,
          "tail of " + std::to_string(N) + " samples keeps >= 10 beyond");
  }
}

void testFastestUnits() {
  std::vector<double> Fastest;
  check(foldMinima(Fastest, {3, 1, 4}) && Fastest == std::vector<double>{3, 1, 4},
        "the first pass seeds the per-unit minima");
  check(foldMinima(Fastest, {2, 5, 4}) && Fastest == std::vector<double>{2, 1, 4},
        "a later pass keeps each unit's fastest time");
  check(sum(Fastest) == 7, "the fastest pass sums the per-unit minima");
  check(!foldMinima(Fastest, {1, 1}) && Fastest.size() == 3,
        "a pass with another unit count is refused");
  // A slow spell that hits different units in different passes drops out.
  Fastest.clear();
  foldMinima(Fastest, {1.6, 1.0, 1.0, 1.0});
  foldMinima(Fastest, {1.0, 1.0, 1.5, 1.7});
  check(sum(Fastest) == 4.0, "a burst in every pass, on other units, drops out");
}

void testSpanSelfTime() {
  SpanLog Log(true);
  int Outer = Log.begin("narada");
  int Inner = Log.begin("detect");
  Log.end(Inner);
  Log.end(Outer);
  int Next = Log.begin("detect");
  Log.end(Next);
  std::map<std::string, double> Self = Log.selfSeconds();
  check(Log.spans().size() == 3 && Log.spans()[Inner].Parent == Outer &&
            Log.spans()[Next].Parent == -1,
        "a span opened inside another is its child");
  check(std::abs(Self["narada"] + Self["detect"] - Log.topLevelSeconds()) <
            1e-12,
        "self times sum to the top-level span time");
  SpanLog Off(false);
  check(Off.begin("x") == -1 && Off.spans().empty(),
        "a disabled span log records nothing");
}

void testRaceSetCheck() {
  const std::vector<std::string> Classes = {"C1", "C9"};
  narada::Result<OutputMap> Ref =
      loadTrajectoryReference("BENCH_pipeline.json", Classes);
  check(bool(Ref), "BENCH_pipeline.json race sets load");
  if (!Ref)
    return;
  const ClassOutput &C9 = (*Ref)["C9"];
  check(C9.Races.size() == 11 && C9.Tests == 8,
        "C9 canonical set has 11 races over 8 tests");
  check(diffClass("C9", C9, C9).empty(), "identical race sets pass");

  ClassOutput Missing = C9;
  const std::string Removed = Missing.Races.begin()->first;
  Missing.Races.erase(Missing.Races.begin());
  std::vector<std::string> Diff = diffClass("C9", C9, Missing);
  check(Diff.size() == 1 && Diff[0].rfind("C9: race missing: " + Removed, 0) == 0,
        "removing one canonical race fails the check and names the class");

  ClassOutput Flipped = C9;
  Flipped.Races.begin()->second.Reproduced =
      !Flipped.Races.begin()->second.Reproduced;
  check(diffClass("C9", C9, Flipped).size() == 1,
        "a flipped reproduced bit fails the check");

  ClassOutput Extra = C9;
  Extra.Races["C9.extra{a:1~b:2}"] = {};
  check(diffClass("C9", C9, Extra).size() == 1,
        "an unexpected race fails the check");

  ClassOutput Gen;
  Gen.Seeds = {"gen_r0_c1", "gen_r1_c3"};
  Gen.Pairs = {"p1", "p2"};
  Gen.Tests = 2;
  narada::Result<OutputMap> Round =
      [&]() -> narada::Result<OutputMap> {
    const std::string Path = "perfbench-selftest-reference.json";
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return narada::Error("cannot write " + Path);
    std::string Text = renderReference("gen-synth", 1, {{"C9", Gen}});
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    narada::Result<OutputMap> Back = loadReferenceFile(Path);
    std::remove(Path.c_str());
    return Back;
  }();
  check(Round && diffClass("C9", (*Round)["C9"], Gen).empty(),
        "a reference file round-trips");
  ClassOutput Lost = Gen;
  Lost.Seeds.erase("gen_r0_c1");
  check(diffClass("C9", Gen, Lost).size() == 1,
        "a lost kept seed fails the check");
}

} // namespace

int main() {
  testMedianAndPercentile();
  testTailSelection();
  testFastestUnits();
  testSpanSelfTime();
  testRaceSetCheck();
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "passed", Failures);
  return Failures ? 1 : 0;
}
