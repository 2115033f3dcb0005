#ifndef PARTIX_PERFBENCH_SUMMARY_H_
#define PARTIX_PERFBENCH_SUMMARY_H_

// Summary statistics of the benchmark. Latencies are summarised per query
// first (median, tail percentile) and only then combined across queries,
// by geometric mean: a percentile pooled over queries whose costs differ
// ~100x lands on whichever query class straddles it, and moves with the
// query mix rather than with the system.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// Fewest samples that must lie strictly above a reported percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Smallest sample count for which Percentile(samples, p) is defined.
size_t MinSamplesFor(double p);

/// Nearest-rank p-quantile (0 < p < 1) of `samples`. Refused with
/// kInvalidArgument unless at least kMinSamplesBeyond samples lie beyond
/// it — a p90 needs 100 samples.
partix::Result<double> Percentile(std::vector<double> samples, double p);

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty vector.
double Median(std::vector<double> samples);

/// Geometric mean of strictly positive values. Refused for an empty
/// vector or any value <= 0.
partix::Result<double> GeoMean(const std::vector<double>& values);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& values);

/// (error statuses + wrong answers) / queries attempted. Refused when
/// nothing was attempted or the failures exceed the attempts.
partix::Result<double> FailedRatio(uint64_t errors, uint64_t wrong,
                                   uint64_t attempted);

/// `num / den`, or 0 when `den` is 0 (ratio-of-sums metrics over a run in
/// which the denominator's event never happened).
double Ratio(double num, double den);

}  // namespace perfbench

#endif  // PARTIX_PERFBENCH_SUMMARY_H_
