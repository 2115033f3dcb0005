// End-to-end and per-layer benchmark of the three Fig. 7 workloads.
//
//   partix_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   partix_perfbench --selftest
//   partix_perfbench --list        (prints the workload names)
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). The exit code is 0 only when every answer was
// correct. See README.md beside this file.

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "summary.h"
#include "workloads.h"

namespace perfbench {
namespace {

void PrintResultLine(const RunOutcome& outcome) {
  std::string json = std::string("{\"correct\": ") +
                     (outcome.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// One benchmark command: runs the workload and returns the process exit
/// code — 0 only when the run was measured and every answer was correct.
/// The result line is printed only for a measured run.
int RunCommand(const RunOptions& options) {
  partix::Result<RunOutcome> outcome = RunWorkload(options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 outcome.status().ToString().c_str());
    return 2;
  }
  PrintResultLine(*outcome);
  return outcome->correct && outcome->failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: partix_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       partix_perfbench --selftest | --list\n");
  return 2;
}

// ---- self-tests of the summary math and the oracle ----

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + b); }

void TestSummaryMath() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(MinSamplesFor(0.9) == 100, "a p90 needs 100 samples");
  auto p90 = Percentile(hundred, 0.9);
  Expect(p90.ok() && *p90 == 90.0, "p90 of 1..100 is 90 (10 beyond it)");
  std::vector<double> ninety_nine(hundred.begin(), hundred.end() - 1);
  Expect(!Percentile(ninety_nine, 0.9).ok(),
         "p90 from 99 samples is refused");
  Expect(!Percentile({}, 0.5).ok(), "p50 from no samples is refused");
  Expect(Median({3, 1, 2}) == 2.0 && Median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
  auto g = GeoMean({1.0, 100.0});
  Expect(g.ok() && Near(*g, 10.0), "geomean(1, 100) = 10");
  auto g2 = GeoMean({2.0, 8.0, 4.0});
  Expect(g2.ok() && Near(*g2, 4.0), "geomean(2, 8, 4) = 4");
  Expect(!GeoMean({}).ok() && !GeoMean({1.0, 0.0}).ok(),
         "geomean refuses empty input and zeros");
  auto f = FailedRatio(2, 1, 100);
  Expect(f.ok() && Near(*f, 0.03), "failed_ratio = (2 errors + 1 wrong) / 100");
  auto f0 = FailedRatio(0, 0, 7);
  Expect(f0.ok() && *f0 == 0.0, "failed_ratio of a clean run is 0");
  Expect(!FailedRatio(0, 0, 0).ok() && !FailedRatio(3, 0, 2).ok(),
         "failed_ratio refuses no attempts and excess failures");
}

/// Runs one benchmark command in a forked child — a fresh process, as
/// from the command line — and returns its exit code.
int RunForked(const RunOptions& options) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int code = RunCommand(options);
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// A tiny-scale pass of each workload: clean, it must exit 0 with nothing
// failed; with one answer corrupted, the oracle must catch it and the
// command must exit non-zero.
void TestOracleCatchesCorruption() {
  for (const std::string& name : WorkloadNames()) {
    RunOptions options;
    options.workload = name;
    options.seed = 7;
    options.seconds = 0.05;
    options.scale = 0.02;
    options.out_dir = "";
    const int clean = RunForked(options);
    Expect(clean == 0, name + ": tiny clean pass exits 0");
    options.corrupt_one_answer = true;
    const int corrupt = RunForked(options);
    Expect(corrupt != 0, name + ": a corrupted answer makes the command "
                                "exit non-zero (exit " +
                                std::to_string(corrupt) + ")");
    options.corrupt_one_answer = false;
    options.trace = true;
    const int traced = RunForked(options);
    Expect(traced == 0, name + ": tiny traced pass exits 0");
  }
}

int SelfTest() {
  TestSummaryMath();
  TestOracleCatchesCorruption();
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

enum class Mode { kRun, kSelfTest, kList };

bool ParseArgs(int argc, char** argv, RunOptions* options, Mode* mode) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest" || arg == "--list") {
      *mode = arg == "--list" ? Mode::kList : Mode::kSelfTest;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    int64_t n = 0;
    double x = 0.0;
    if (arg == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!partix::ParseInt64(value, &n) || n < 0) return false;
      options->seed = static_cast<uint64_t>(n);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!partix::ParseDouble(value, &x) || !(x > 0.0)) return false;
      options->seconds = x;
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
      have_trace = true;
    } else {
      return false;
    }
  }
  return *mode != Mode::kRun ||
         (have_workload && have_seed && have_seconds && have_trace);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  perfbench::Mode mode = perfbench::Mode::kRun;
  if (!perfbench::ParseArgs(argc, argv, &options, &mode)) {
    return perfbench::Usage();
  }
  switch (mode) {
    case perfbench::Mode::kSelfTest:
      return perfbench::SelfTest();
    case perfbench::Mode::kList:
      for (const std::string& name : perfbench::WorkloadNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    case perfbench::Mode::kRun:
      break;
  }
  return perfbench::RunCommand(options);
}
