// Time-to-first-byte under the streaming batched result pipeline.
//
// Every sub-query streams its result blocks through the same channel;
// the barrier (ExecutionOptions::streaming = false) holds the whole
// answer back until the slowest node has finished and composition has
// run, while streaming (docs/streaming-runtime.md) commits the first
// result block into the answer as soon as it crosses the channel. This
// bench runs the multi-fragment union workload at parallelism 4 in both
// modes and reports, per mode:
//
//   - TTFB p50/p99 (DistributedResult::ttfb_ms) and mean wall time
//   - peak governed result bytes on the coordinator (MemoryGovernor
//     peak, reset per execution)
//
// Three gates, all modes:
//
//   - identity: streaming and barrier answers are byte-identical for
//     every query.
//   - TTFB: streaming TTFB p50 is strictly below the barrier mean total
//     wall time on the union workload — first bytes flow before the
//     barrier's answer would exist at all.
//   - accounting: each mode's peak governed bytes stay below 80% of the
//     double-charge baseline (2x the answer: the pre-fix compose path
//     charged the partials and the composed output without releasing
//     the partials in between).
//
// Emits BENCH_streaming.json to bench-out/. PARTIX_SMOKE=1 shrinks the
// database for CI; PARTIX_SCALE / PARTIX_RUNS scale the full mode.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_out.h"
#include "gen/virtual_store.h"
#include "memory/governor.h"
#include "partix/query_service.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace {

using partix::middleware::DistributedResult;
using partix::middleware::ExecutionOptions;

constexpr size_t kFragments = 4;
constexpr size_t kParallelism = 4;
constexpr size_t kBlockItems = 16;

/// One (query, mode) series: per-run TTFB samples, averaged wall time,
/// the worst per-execution governed peak, and the answer.
struct Series {
  std::vector<double> ttfb_ms;
  double wall_ms = 0.0;
  size_t peak_bytes = 0;
  uint64_t stream_blocks = 0;
  std::string serialized;
};

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

partix::Result<Series> MeasureSeries(
    partix::workload::Deployment* deployment,
    partix::memory::MemoryGovernor* governor,
    const partix::workload::QuerySpec& query, bool streaming, size_t runs) {
  Series series;
  ExecutionOptions options;
  options.parallelism = kParallelism;
  options.streaming = streaming;
  options.stream_block_items = kBlockItems;
  for (size_t run = 0; run <= runs; ++run) {
    governor->ResetPeakCharged();
    PARTIX_ASSIGN_OR_RETURN(
        DistributedResult result,
        deployment->service().Execute(query.text, options));
    if (run == 0) {
      series.serialized = std::move(result.serialized);
      continue;  // warm-up: primes node caches, not counted
    }
    series.ttfb_ms.push_back(result.ttfb_ms);
    series.wall_ms += result.wall_ms;
    series.peak_bytes =
        std::max(series.peak_bytes, governor->peak_charged_bytes());
    series.stream_blocks += result.stream_blocks;
  }
  series.wall_ms /= static_cast<double>(runs);
  return series;
}

}  // namespace

int main() {
  using namespace partix;

  const bool smoke = std::getenv("PARTIX_SMOKE") != nullptr;
  const double scale = smoke ? 1.0 : workload::ScaleFromEnv();
  const uint64_t target_bytes = smoke
                                    ? (uint64_t{512} << 10)
                                    : static_cast<uint64_t>(
                                          (uint64_t{8} << 20) * scale);
  const size_t runs = smoke ? 3 : workload::RunsFromEnv(5);

  gen::ItemsGenOptions gen_options;
  gen_options.seed = 20060103;
  gen_options.large_docs = false;
  auto items = gen::GenerateItemsBySize(gen_options, target_bytes, nullptr);
  if (!items.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 items.status().ToString().c_str());
    return 1;
  }
  auto schema = workload::SectionHorizontalSchema(
      items->name(), gen_options.sections, kFragments);
  if (!schema.ok()) {
    std::fprintf(stderr, "schema failed: %s\n",
                 schema.status().ToString().c_str());
    return 1;
  }

  xdb::DatabaseOptions node_options;
  node_options.cache_capacity_bytes = uint64_t{256} << 20;
  auto deployment = workload::Deployment::Fragmented(
      *items, *schema, node_options, middleware::NetworkModel());
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  memory::MemoryGovernor governor(uint64_t{256} << 20);
  deployment->get()->service().set_memory_governor(&governor);

  // Union workload: every query fans out to all four fragments and
  // composes by union, so the barrier cannot answer before the slowest
  // node finishes — exactly the case streaming attacks.
  const std::string c = "collection(\"" + items->name() + "\")";
  const std::vector<workload::QuerySpec> queries = {
      {"QU1", "full-scan projection over every fragment",
       "for $i in " + c + "/Item return $i/Name"},
      {"QU2", "full-item fetch over every fragment",
       "for $i in " + c + "/Item return $i"},
  };

  std::printf(
      "Streaming TTFB - union workload, %zu fragments, parallelism %zu, "
      "%zu items/block\ndatabase: %zu documents; host cores: %u; runs: "
      "%zu%s\n\n",
      kFragments, kParallelism, kBlockItems, items->size(),
      std::thread::hardware_concurrency(), runs, smoke ? " (smoke)" : "");

  bool identical = true;
  bool ttfb_gate_ok = true;
  bool peak_gate_ok = true;
  std::string json = "{\n  \"queries\": [\n";
  for (size_t q = 0; q < queries.size(); ++q) {
    auto streamed = MeasureSeries(deployment->get(), &governor, queries[q],
                                  /*streaming=*/true, runs);
    auto barrier = MeasureSeries(deployment->get(), &governor, queries[q],
                                 /*streaming=*/false, runs);
    if (!streamed.ok() || !barrier.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", queries[q].id.c_str(),
                   (!streamed.ok() ? streamed.status() : barrier.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if (streamed->serialized != barrier->serialized) {
      identical = false;
      std::fprintf(stderr, "MISMATCH: %s streaming answer differs\n",
                   queries[q].id.c_str());
    }

    const double ttfb_p50 = Percentile(streamed->ttfb_ms, 0.50);
    const double ttfb_p99 = Percentile(streamed->ttfb_ms, 0.99);
    const double barrier_p50 = Percentile(barrier->ttfb_ms, 0.50);
    const double barrier_p99 = Percentile(barrier->ttfb_ms, 0.99);
    const size_t answer_bytes = streamed->serialized.size();
    // The double-charge baseline: partials charged in full, then the
    // composed answer charged on top, nothing released in between.
    const size_t double_charge = 2 * answer_bytes;
    if (ttfb_p50 >= barrier->wall_ms) ttfb_gate_ok = false;
    if (double_charge > 0 &&
        (streamed->peak_bytes * 10 >= double_charge * 8 ||
         barrier->peak_bytes * 10 >= double_charge * 8)) {
      peak_gate_ok = false;
    }

    std::printf("%s: %s\n", queries[q].id.c_str(),
                queries[q].description.c_str());
    std::printf(
        "  streaming ttfb p50 %8.3f ms  p99 %8.3f ms  wall %8.3f ms  "
        "peak %zu B  (%llu blocks)\n",
        ttfb_p50, ttfb_p99, streamed->wall_ms, streamed->peak_bytes,
        static_cast<unsigned long long>(streamed->stream_blocks));
    std::printf(
        "  barrier   ttfb p50 %8.3f ms  p99 %8.3f ms  wall %8.3f ms  "
        "peak %zu B\n",
        barrier_p50, barrier_p99, barrier->wall_ms, barrier->peak_bytes);
    std::printf("  answer %zu B; double-charge baseline %zu B\n",
                answer_bytes, double_charge);

    json += "    {\"id\": \"" + queries[q].id + "\"";
    json += ", \"answer_bytes\": " + std::to_string(answer_bytes);
    json += ", \"streaming\": {\"ttfb_p50_ms\": " + std::to_string(ttfb_p50) +
            ", \"ttfb_p99_ms\": " + std::to_string(ttfb_p99) +
            ", \"wall_ms\": " + std::to_string(streamed->wall_ms) +
            ", \"peak_bytes\": " + std::to_string(streamed->peak_bytes) +
            ", \"blocks\": " + std::to_string(streamed->stream_blocks) + "}";
    json += ", \"barrier\": {\"ttfb_p50_ms\": " + std::to_string(barrier_p50) +
            ", \"ttfb_p99_ms\": " + std::to_string(barrier_p99) +
            ", \"wall_ms\": " + std::to_string(barrier->wall_ms) +
            ", \"peak_bytes\": " + std::to_string(barrier->peak_bytes) +
            "}";
    json += ", \"double_charge_baseline_bytes\": " +
            std::to_string(double_charge) + "}";
    json += q + 1 < queries.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"parallelism\": " + std::to_string(kParallelism) +
          ",\n  \"block_items\": " + std::to_string(kBlockItems) +
          ",\n  \"identical\": " + (identical ? "true" : "false") +
          ",\n  \"ttfb_gate\": " + (ttfb_gate_ok ? "true" : "false") +
          ",\n  \"peak_gate\": " + (peak_gate_ok ? "true" : "false") +
          ",\n  \"smoke\": " + (smoke ? "true" : "false") + "\n}\n";
  if (!bench::WriteBenchFile("BENCH_streaming.json", json)) return 1;

  std::printf("\nresults byte-identical streaming vs barrier: %s\n",
              identical ? "yes" : "NO");
  std::printf("streaming TTFB p50 < barrier wall on every query: %s\n",
              ttfb_gate_ok ? "yes" : "NO");
  std::printf("peak governed bytes < 80%% of double-charge baseline: %s\n",
              peak_gate_ok ? "yes" : "NO");

  if (!identical) return 1;
  if (!ttfb_gate_ok) {
    std::fprintf(stderr, "TTFB gate FAILED\n");
    return 1;
  }
  if (!peak_gate_ok) {
    std::fprintf(stderr, "peak-bytes gate FAILED\n");
    return 1;
  }
  return 0;
}
