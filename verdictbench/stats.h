// Order statistics and ratios the benchmark reports.
#pragma once

#include <cstddef>
#include <vector>

namespace verdictbench {

// Median; the mean of the two middle samples for an even count. 0 when empty.
double median(std::vector<double> samples);

// The tail the sample supports: the highest whole percentile p in [50, 99]
// whose nearest-rank value (rank ceil(p * n / 100)) leaves at least
// `minBeyond` samples ranked above it. `ok` is false when even p50 leaves
// fewer, i.e. with fewer than 2 * minBeyond samples.
struct TailPercentile {
  bool ok = false;
  int percentile = 0;
  size_t rank = 0;    // 1-based rank of the reported sample.
  size_t beyond = 0;  // Samples ranked above it.
  double value = 0;
};
TailPercentile tailPercentile(std::vector<double> samples, size_t minBeyond = 10);

// num / den, or 0 when the base is 0 (a layer that did no work).
double ratio(double num, double den);

}  // namespace verdictbench
