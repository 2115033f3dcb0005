// Multi-query throughput under the admission-controlled scheduler.
//
// The scheduler PR claims concurrent clients sharing one QueryService
// scale: with per-query work dominated by the emulated RPC round trips,
// 16 closed-loop clients against 16 execution slots should clear at
// least 4x the QPS of the same 16 clients serialized behind
// max_concurrent_queries = 1 — with every composed result byte-identical
// to the sequential baseline, and the admission counters conserving
// (submitted == admitted + rejected + drained, admitted == completed).
//
// Series (closed loop, each client cycles the Fig. 7(a) workload):
//   clients=1/mc=1, clients=4/mc=4, clients=16/mc=16  — scaling curve
//   clients=16/mc=1                                   — serialized floor
// plus an overload phase (2 slots, 2 queue seats, 5 ms queue timeout,
// 12 clients) that exercises the kResourceExhausted backpressure verdict
// and checks the conservation invariants afterwards.
//
// Output goes to stdout as a table and to BENCH_concurrent_qps.json:
//
//   { "bench": "concurrent_qps", "emulated_rpc_ms": 2.0, "nodes": N,
//     "replication_factor": 2, "rounds": R,
//     "series": [ { "clients": 16, "max_concurrent": 16, "queries": 384,
//                   "qps": 1234.5, "p50_ms": 3.1, "p99_ms": 9.8,
//                   "identical": true } ],
//     "speedup_16_clients_vs_serialized": 6.3,
//     "overload": { "submitted": 36, "admitted": 20, "rejected": 16,
//                   "drained": 0, "completed": 20, "conserved": true },
//     "identical": true }
//
// PARTIX_SCALE grows the database, PARTIX_RUNS overrides the per-client
// rounds, PARTIX_SMOKE=1 shrinks everything for CI (2 clients max, no
// speedup gate).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_out.h"
#include "collection_size.h"
#include "common/clock.h"
#include "gen/virtual_store.h"
#include "partix/scheduler.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace {

using partix::middleware::ClientContext;
using partix::middleware::ExecutionOptions;
using partix::middleware::Scheduler;
using partix::middleware::SchedulerOptions;
using partix::middleware::SchedulerStats;
using partix::StatusCode;

constexpr size_t kFragments = 4;
constexpr size_t kReplicationFactor = 2;
// Long enough that the serialized floor is wire-dominated even on a
// single-core host — the concurrency win being measured is overlapping
// these waits, not parallelizing engine CPU.
constexpr double kEmulatedRpcMs = 5.0;

struct SeriesResult {
  size_t clients = 0;
  size_t max_concurrent = 0;
  size_t queries = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool identical = true;
};

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(samples->size() - 1) + 0.5);
  return (*samples)[std::min(index, samples->size() - 1)];
}

/// Closed loop: `clients` threads each run `rounds` cycles of the
/// workload through one scheduler limited to `max_concurrent` slots.
SeriesResult RunSeries(partix::workload::Deployment* deployment,
                       const std::vector<partix::workload::QuerySpec>& queries,
                       const std::vector<std::string>& baseline,
                       size_t clients, size_t max_concurrent, size_t rounds) {
  SchedulerOptions options;
  options.max_concurrent_queries = max_concurrent;
  options.queue_capacity = clients * queries.size() * rounds + 1;
  // Workers spend most of their time blocked in the 2 ms emulated RPC,
  // so the pool is sized to the offered fan-out (clients x per-query
  // parallelism), not to the core count: overlapping the sleeps is the
  // whole point of the scheduler's shared pool.
  options.pool_threads = clients * 2 + 2;
  Scheduler scheduler(&deployment->service(), options);

  SeriesResult series;
  series.clients = clients;
  series.max_concurrent = max_concurrent;

  std::mutex mu;
  std::vector<double> latencies;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};

  partix::Stopwatch wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientContext client;
      client.client_id = "client-" + std::to_string(c);
      ExecutionOptions exec;
      exec.parallelism = 2;  // modest intra-query fan-out per slot
      std::vector<double> local;
      local.reserve(rounds * queries.size());
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          partix::Stopwatch query_watch;
          auto result =
              scheduler.Execute(queries[q].text, exec, client);
          if (!result.ok()) {
            ++failures;
            std::fprintf(stderr, "%s failed: %s\n", queries[q].id.c_str(),
                         result.status().ToString().c_str());
            continue;
          }
          local.push_back(query_watch.ElapsedMillis());
          if (result->serialized != baseline[q]) ++mismatches;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_sec = wall.ElapsedMillis() / 1e3;
  scheduler.Drain();

  series.queries = latencies.size();
  series.qps = wall_sec > 0.0
                   ? static_cast<double>(series.queries) / wall_sec
                   : 0.0;
  series.p50_ms = Percentile(&latencies, 0.50);
  series.p99_ms = Percentile(&latencies, 0.99);
  series.identical = mismatches.load() == 0 && failures.load() == 0;

  const SchedulerStats stats = scheduler.stats();
  if (stats.submitted != stats.admitted + stats.rejected + stats.drained ||
      stats.admitted != stats.completed || stats.rejected != 0) {
    std::fprintf(stderr,
                 "CONSERVATION VIOLATION: submitted=%llu admitted=%llu "
                 "rejected=%llu drained=%llu completed=%llu\n",
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.admitted),
                 static_cast<unsigned long long>(stats.rejected),
                 static_cast<unsigned long long>(stats.drained),
                 static_cast<unsigned long long>(stats.completed));
    series.identical = false;
  }
  return series;
}

/// Backpressure phase: more clients than slots + queue seats, with a
/// short queue timeout, so a burst MUST draw kResourceExhausted
/// verdicts. Returns the final stats for the conservation report.
SchedulerStats RunOverloadPhase(partix::workload::Deployment* deployment,
                                const std::vector<std::string>& queries,
                                size_t clients, size_t per_client,
                                bool* conserved, size_t* rejected_runs) {
  SchedulerOptions options;
  options.max_concurrent_queries = 2;
  options.queue_capacity = 2;
  options.queue_timeout_ms = 5.0;
  Scheduler scheduler(&deployment->service(), options);

  std::atomic<size_t> bounced{0};
  std::atomic<size_t> unexpected{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ExecutionOptions exec;
      exec.parallelism = 2;
      for (size_t i = 0; i < per_client; ++i) {
        auto result =
            scheduler.Execute(queries[(c + i) % queries.size()], exec);
        if (result.ok()) continue;
        if (result.status().code() == StatusCode::kResourceExhausted) {
          ++bounced;
        } else {
          ++unexpected;
          std::fprintf(stderr, "unexpected verdict: %s\n",
                       result.status().ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  scheduler.Drain();

  const SchedulerStats stats = scheduler.stats();
  *rejected_runs = bounced.load();
  *conserved =
      unexpected.load() == 0 &&
      stats.submitted == stats.admitted + stats.rejected + stats.drained &&
      stats.admitted == stats.completed &&
      stats.rejected == static_cast<uint64_t>(bounced.load());
  return stats;
}

}  // namespace

int main() {
  using namespace partix;

  const bool smoke = [] {
    const char* env = std::getenv("PARTIX_SMOKE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  const double scale = workload::ScaleFromEnv();
  const uint64_t target_bytes = static_cast<uint64_t>(
      (uint64_t{1} << (smoke ? 17 : 20)) * scale);
  const size_t rounds = workload::RunsFromEnv(smoke ? 2 : 8);

  gen::ItemsGenOptions gen_options;
  gen_options.seed = 20060101;
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
  middleware::NetworkModel network;
  network.emulated_rpc_sec = kEmulatedRpcMs / 1e3;
  auto deployment = workload::Deployment::Fragmented(
      *items, *schema, xdb::DatabaseOptions(), network, kReplicationFactor);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }

  const std::vector<workload::QuerySpec> queries =
      workload::HorizontalQueries(items->name());

  std::printf(
      "Concurrent-QPS bench - %zu fragments rf=%zu, emulated rpc %.1f ms\n"
      "database: %zu documents, %s; rounds/client: %zu%s\n",
      kFragments, kReplicationFactor, kEmulatedRpcMs, items->size(),
      bench::DescribeSize(*items).c_str(), rounds,
      smoke ? " (smoke)" : "");

  // Sequential baseline: the bytes every concurrent execution must match.
  std::vector<std::string> baseline;
  std::vector<std::string> query_texts;
  for (const auto& query : queries) {
    auto result = deployment->get()->service().Execute(query.text);
    if (!result.ok()) {
      std::fprintf(stderr, "baseline %s failed: %s\n", query.id.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    baseline.push_back(result->serialized);
    query_texts.push_back(query.text);
  }

  struct Config {
    size_t clients;
    size_t max_concurrent;
  };
  // Scaling curve, then the serialized floor the headline compares
  // against. Smoke mode keeps the same shape at CI-friendly size.
  const std::vector<Config> configs =
      smoke ? std::vector<Config>{{1, 1}, {2, 2}, {2, 1}}
            : std::vector<Config>{{1, 1}, {4, 4}, {16, 16}, {16, 1}};

  std::vector<SeriesResult> series;
  bool identical = true;
  std::printf("\n%8s  %4s  %8s  %10s  %9s  %9s\n", "clients", "mc",
              "queries", "qps", "p50", "p99");
  for (const Config& config : configs) {
    SeriesResult s =
        RunSeries(deployment->get(), queries, baseline, config.clients,
                  config.max_concurrent, rounds);
    identical = identical && s.identical;
    std::printf("%8zu  %4zu  %8zu  %10.1f  %7.2f ms  %7.2f ms\n", s.clients,
                s.max_concurrent, s.queries, s.qps, s.p50_ms, s.p99_ms);
    series.push_back(s);
  }

  // Scaling headline: many clients with slots vs the same clients
  // serialized behind one slot.
  const SeriesResult& scaled = series[series.size() - 2];
  const SeriesResult& serialized = series.back();
  const double speedup =
      serialized.qps > 0.0 ? scaled.qps / serialized.qps : 0.0;
  std::printf(
      "\nQPS %zu clients/mc=%zu vs mc=1: %.2fx (%.1f vs %.1f)\n",
      scaled.clients, scaled.max_concurrent, speedup, scaled.qps,
      serialized.qps);

  bool overload_conserved = false;
  size_t overload_rejected = 0;
  const SchedulerStats overload = RunOverloadPhase(
      deployment->get(), query_texts, smoke ? 4 : 12, smoke ? 2 : 3,
      &overload_conserved, &overload_rejected);
  std::printf(
      "overload phase: submitted=%llu admitted=%llu rejected=%llu "
      "drained=%llu completed=%llu conserved=%s\n",
      static_cast<unsigned long long>(overload.submitted),
      static_cast<unsigned long long>(overload.admitted),
      static_cast<unsigned long long>(overload.rejected),
      static_cast<unsigned long long>(overload.drained),
      static_cast<unsigned long long>(overload.completed),
      overload_conserved ? "yes" : "NO");
  std::printf("results byte-identical across all series: %s\n",
              identical ? "yes" : "NO");

  std::string json;
  char buffer[256];
  json += "{\n  \"bench\": \"concurrent_qps\",\n";
  std::snprintf(buffer, sizeof(buffer),
                "  \"emulated_rpc_ms\": %.1f,\n  \"nodes\": %zu,\n"
                "  \"replication_factor\": %zu,\n  \"rounds\": %zu,\n"
                "  \"smoke\": %s,\n  \"series\": [\n",
                kEmulatedRpcMs, deployment->get()->node_count(),
                kReplicationFactor, rounds, smoke ? "true" : "false");
  json += buffer;
  for (size_t s = 0; s < series.size(); ++s) {
    const SeriesResult& cell = series[s];
    std::snprintf(buffer, sizeof(buffer),
                  "    { \"clients\": %zu, \"max_concurrent\": %zu, "
                  "\"queries\": %zu, \"qps\": %.1f, \"p50_ms\": %.3f, "
                  "\"p99_ms\": %.3f, \"identical\": %s }%s\n",
                  cell.clients, cell.max_concurrent, cell.queries, cell.qps,
                  cell.p50_ms, cell.p99_ms,
                  cell.identical ? "true" : "false",
                  s + 1 < series.size() ? "," : "");
    json += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "  ],\n  \"speedup_%zu_clients_vs_serialized\": %.3f,\n",
                scaled.clients, speedup);
  json += buffer;
  std::snprintf(
      buffer, sizeof(buffer),
      "  \"overload\": { \"submitted\": %llu, \"admitted\": %llu, "
      "\"rejected\": %llu, \"drained\": %llu, \"completed\": %llu, "
      "\"conserved\": %s },\n",
      static_cast<unsigned long long>(overload.submitted),
      static_cast<unsigned long long>(overload.admitted),
      static_cast<unsigned long long>(overload.rejected),
      static_cast<unsigned long long>(overload.drained),
      static_cast<unsigned long long>(overload.completed),
      overload_conserved ? "true" : "false");
  json += buffer;
  std::snprintf(buffer, sizeof(buffer), "  \"identical\": %s\n}\n",
                identical ? "true" : "false");
  json += buffer;

  std::printf("\n");
  if (!bench::WriteBenchFile("BENCH_concurrent_qps.json", json)) return 1;

  if (!identical || !overload_conserved) return 1;
  if (!smoke && speedup < 4.0) {
    std::fprintf(stderr,
                 "FAIL: expected >= 4x QPS with %zu slots vs serialized, "
                 "got %.2fx\n",
                 scaled.max_concurrent, speedup);
    return 1;
  }
  return 0;
}
