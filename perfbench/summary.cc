#include "summary.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

using partix::Result;
using partix::Status;

namespace {

// Nearest rank (1-based) of the p-quantile among n samples.
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

size_t MinSamplesFor(double p) {
  size_t n = kMinSamplesBeyond + 1;
  while (n - NearestRank(p, n) < kMinSamplesBeyond) ++n;
  return n;
}

Result<double> Percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 1.0)) {
    return Status::InvalidArgument("percentile must lie in (0, 1)");
  }
  const size_t n = samples.size();
  if (n == 0 || n - NearestRank(p, n) < kMinSamplesBeyond) {
    return Status::InvalidArgument(
        "p" + std::to_string(static_cast<int>(std::lround(p * 100))) +
        " from " + std::to_string(n) + " samples: needs " +
        std::to_string(MinSamplesFor(p)) + " so that " +
        std::to_string(kMinSamplesBeyond) + " lie beyond it");
  }
  const size_t k = NearestRank(p, n) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Result<double> GeoMean(const std::vector<double>& values) {
  if (values.empty()) return Status::InvalidArgument("geomean of nothing");
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) {
      return Status::InvalidArgument("geomean over a non-positive value " +
                                     std::to_string(v));
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Result<double> FailedRatio(uint64_t errors, uint64_t wrong,
                           uint64_t attempted) {
  if (attempted == 0) return Status::InvalidArgument("no query attempted");
  if (errors + wrong > attempted) {
    return Status::InvalidArgument("more failures than attempts");
  }
  return static_cast<double>(errors + wrong) /
         static_cast<double>(attempted);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench
