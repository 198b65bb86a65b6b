//===- perfbench/src/Stats.h - Sample statistics for the benchmark -*- C++ -*-===//
///
/// \file
/// Order statistics the benchmark reports: per-unit minima over repeated
/// passes, medians, and the tail percentile rule from the metric guide —
/// the highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_PERFBENCH_STATS_H
#define NARADA_PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of \p Samples (mean of the middle two for an even count); 0 for
/// an empty vector.
double median(std::vector<double> Samples);

/// Sum of \p Samples.
double sum(const std::vector<double> &Samples);

/// Folds one pass's per-unit samples into \p Fastest, the per-unit minima
/// of the passes so far (empty before the first).  Returns false, leaving
/// \p Fastest unchanged, when \p Pass has a different number of units.
bool foldMinima(std::vector<double> &Fastest, const std::vector<double> &Pass);

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Samples; 0 when empty.
double percentile(std::vector<double> Samples, double P);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double Percentile = 0.0; ///< 0 when no ladder step has enough samples.
  double Value = 0.0;
  size_t Beyond = 0; ///< Samples strictly above the percentile's rank.
  size_t Count = 0;  ///< Samples in total.
  bool valid() const { return Percentile > 0.0; }
};

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} whose nearest rank
/// leaves at least \p MinBeyond samples above it.
Tail tailPercentile(std::vector<double> Samples, size_t MinBeyond = 10);

} // namespace perfbench

#endif // NARADA_PERFBENCH_STATS_H
