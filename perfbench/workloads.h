#ifndef PARTIX_PERFBENCH_WORKLOADS_H_
#define PARTIX_PERFBENCH_WORKLOADS_H_

// The three Fig. 7 workloads and the run that measures one of them: set
// up from the seed (timed), warm up, drive a closed loop with tracing off
// for the end-to-end metrics, or — with `trace` — an untraced and a
// traced pass plus an engine replay for the per-layer metrics. Every
// answer is checked against a centralized oracle.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window. A window also runs on until every
  /// query has the 100 samples its p90 needs.
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies the data sizes (self-tests run tiny deployments).
  double scale = 1.0;
  /// Self-test hook: corrupts the first measured answer before it is
  /// checked, to prove the oracle catches a wrong answer.
  bool corrupt_one_answer = false;
  /// Directory for the run record and span files ("" = do not write).
  std::string out_dir = "bench-out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics, or the per-layer metrics of a traced run.
  std::vector<Metric> metrics;
};

std::vector<std::string> WorkloadNames();

/// Runs one workload, printing its report (run record, per-query table,
/// metrics) to stdout. An error means the run could not be measured.
partix::Result<RunOutcome> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PARTIX_PERFBENCH_WORKLOADS_H_
