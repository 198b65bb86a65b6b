//===- perfbench/src/Stats.cpp - Sample statistics ------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

double perfbench::sum(const std::vector<double> &Samples) {
  double Total = 0.0;
  for (double S : Samples)
    Total += S;
  return Total;
}

bool perfbench::foldMinima(std::vector<double> &Fastest,
                           const std::vector<double> &Pass) {
  if (Fastest.empty()) {
    Fastest = Pass;
    return true;
  }
  if (Fastest.size() != Pass.size())
    return false;
  for (size_t I = 0; I < Pass.size(); ++I)
    Fastest[I] = std::min(Fastest[I], Pass[I]);
  return true;
}

namespace {
/// 1-based nearest rank of percentile \p P over \p N samples.
size_t nearestRank(double P, size_t N) {
  auto Rank = static_cast<size_t>(std::ceil(P / 100.0 * N - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}
} // namespace

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  return Samples[nearestRank(P, Samples.size()) - 1];
}

Tail perfbench::tailPercentile(std::vector<double> Samples, size_t MinBeyond) {
  static const double Ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Tail Out;
  Out.Count = Samples.size();
  if (Samples.empty())
    return Out;
  std::sort(Samples.begin(), Samples.end());
  for (double P : Ladder) {
    size_t Rank = nearestRank(P, Samples.size());
    size_t Beyond = Samples.size() - Rank;
    if (Beyond >= MinBeyond) {
      Out.Percentile = P;
      Out.Value = Samples[Rank - 1];
      Out.Beyond = Beyond;
      return Out;
    }
  }
  return Out;
}
