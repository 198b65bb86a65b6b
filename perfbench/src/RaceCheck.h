//===- perfbench/src/RaceCheck.h - Output checks against references -*- C++ -*-===//
///
/// \file
/// What the benchmark checks a workload's outputs against.  Detect
/// workloads produce one race set per corpus class (race key plus the
/// reproduced and harmful bits, merged over the class's tests exactly as
/// `narada-cli detect` merges them); gen-synth produces the kept generated
/// seed names and the racy pair keys synthesis derived from them.
///
/// References come from two places: the canonical per-class race sets
/// pinned in the repository's BENCH_pipeline.json, and reference files
/// recorded by this benchmark (perfbench/reference/*.json), both in the
/// same `races` array shape.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_PERFBENCH_RACECHECK_H
#define NARADA_PERFBENCH_RACECHECK_H

#include "obs/Json.h"
#include "support/Error.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct RaceOutcome {
  bool Reproduced = false;
  bool Harmful = false;
  bool operator==(const RaceOutcome &O) const {
    return Reproduced == O.Reproduced && Harmful == O.Harmful;
  }
};

/// Race key -> outcome.
using RaceSet = std::map<std::string, RaceOutcome>;

/// One corpus class's checked outputs.  Members a workload does not
/// produce stay empty and are not compared.
struct ClassOutput {
  RaceSet Races;
  std::set<std::string> Seeds; ///< Kept generated seed names (gen-synth).
  std::set<std::string> Pairs; ///< Racy pair keys from synthesis.
  uint64_t Tests = 0;          ///< Synthesized tests.
};

/// Corpus class id ("C1") -> outputs.
using OutputMap = std::map<std::string, ClassOutput>;

/// Reads the canonical race sets of \p Classes from a bench trajectory
/// (BENCH_pipeline.json: benches."pipeline:<id>".races and the
/// synth.tests_synthesized counter).
narada::Result<OutputMap>
loadTrajectoryReference(const std::string &Path,
                        const std::vector<std::string> &Classes);

/// Reads a reference file written by writeReference.
narada::Result<OutputMap> loadReferenceFile(const std::string &Path);

/// Serializes \p Outputs as a reference file for \p Workload at \p Seed.
std::string renderReference(const std::string &Workload, uint64_t Seed,
                            const OutputMap &Outputs);

/// Compares \p Observed with \p Expected for class \p Class.  Every line of
/// the result names the class and one difference; empty means equal.  Only
/// the members \p Expected carries (non-empty sets, nonzero Tests) count.
std::vector<std::string> diffClass(const std::string &Class,
                                   const ClassOutput &Expected,
                                   const ClassOutput &Observed);

} // namespace perfbench

#endif // NARADA_PERFBENCH_RACECHECK_H
