#include "stats.h"

#include <algorithm>

namespace verdictbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

TailPercentile tailPercentile(std::vector<double> samples, size_t minBeyond) {
  TailPercentile out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (int p = 99; p >= 50; --p) {
    const size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
    if (rank == 0 || n - rank < minBeyond) continue;
    out.ok = true;
    out.percentile = p;
    out.rank = rank;
    out.beyond = n - rank;
    out.value = samples[rank - 1];
    break;
  }
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace verdictbench
