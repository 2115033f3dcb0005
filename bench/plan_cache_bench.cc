// Hot-loop query latency with the per-node prepared-plan cache on vs off.
//
// The compile-once PR claims repeated queries stop paying parse + static
// analysis at every node: the decomposer parses once, sub-queries ship as
// structural rewrites, and each node's plan cache serves re-executions.
// This bench quantifies the claim. It deploys the Fig. 7(a) horizontal
// workload twice — plan_cache_capacity 128 ("on") and 0 ("off", every
// execution recompiles) — drives every workload query in a hot loop, and
// reports per-query average wall-clock, node-side compile cost, and
// plan-cache traffic for both configurations, plus a byte-identity check
// of every composed result across the two.
//
// Output goes to stdout as a table and to BENCH_plan_cache.json:
//
//   { "bench": "plan_cache", "nodes": N, "fragments": N, "runs": R,
//     "series": [ { "plan_cache": "on",
//                   "queries": [ { "id": "Q1", "wall_ms": 1.2,
//                                  "compile_ms": 0.1, "hits": 8,
//                                  "misses": 2, "ok": true } ],
//                   "total_wall_ms": ..., "total_compile_ms": ... } ],
//     "hot_loop_speedup": 1.35, "identical": true }
//
// Set PARTIX_SCALE to grow the database, PARTIX_RUNS for repetitions.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_out.h"
#include "collection_size.h"
#include "gen/virtual_store.h"
#include "partix/query_service.h"
#include "telemetry/metrics.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace {

using partix::middleware::ExecutionOptions;

constexpr size_t kFragments = 4;

struct QueryCell {
  std::string id;
  double wall_ms = 0.0;     // averaged over hot-loop runs
  double compile_ms = 0.0;  // summed over hot-loop runs
  uint64_t hits = 0;        // plan-cache hits, summed
  uint64_t misses = 0;      // plan-cache misses, summed
  bool ok = true;
  std::string serialized;
};

struct Series {
  std::string label;
  std::vector<QueryCell> queries;
};

partix::Result<QueryCell> MeasureQuery(
    partix::workload::Deployment* deployment,
    const partix::workload::QuerySpec& query, size_t runs) {
  ExecutionOptions options;
  options.parallelism = 1;  // sequential: isolates per-node compile cost

  QueryCell cell;
  cell.id = query.id;
  for (size_t run = 0; run <= runs; ++run) {
    auto result = deployment->service().Execute(query.text, options);
    if (!result.ok()) {
      cell.ok = false;
      std::fprintf(stderr, "%s failed: %s\n", query.id.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    if (run == 0) {
      // Warm-up primes store caches AND the plan caches: the hot loop
      // below is the steady state the cache is for.
      cell.serialized = result->serialized;
      continue;
    }
    cell.wall_ms += result->wall_ms;
    cell.compile_ms += result->compile_ms;
    cell.hits += result->plan_cache_hits;
    cell.misses += result->plan_cache_misses;
  }
  cell.wall_ms /= static_cast<double>(runs);
  return cell;
}

void AppendJsonSeries(const Series& series, std::string* out) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "    { \"plan_cache\": \"%s\",\n      \"queries\": [\n",
                series.label.c_str());
  *out += buffer;
  double total_wall = 0.0;
  double total_compile = 0.0;
  for (size_t q = 0; q < series.queries.size(); ++q) {
    const QueryCell& cell = series.queries[q];
    total_wall += cell.wall_ms;
    total_compile += cell.compile_ms;
    std::snprintf(
        buffer, sizeof(buffer),
        "        { \"id\": \"%s\", \"wall_ms\": %.3f, "
        "\"compile_ms\": %.3f, \"hits\": %llu, \"misses\": %llu, "
        "\"ok\": %s }%s\n",
        cell.id.c_str(), cell.wall_ms, cell.compile_ms,
        static_cast<unsigned long long>(cell.hits),
        static_cast<unsigned long long>(cell.misses),
        cell.ok ? "true" : "false",
        q + 1 < series.queries.size() ? "," : "");
    *out += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "      ],\n      \"total_wall_ms\": %.3f, "
                "\"total_compile_ms\": %.3f }",
                total_wall, total_compile);
  *out += buffer;
}

double TotalWall(const Series& series) {
  double total = 0.0;
  for (const QueryCell& cell : series.queries) total += cell.wall_ms;
  return total;
}

}  // namespace

int main() {
  using namespace partix;

  const double scale = workload::ScaleFromEnv();
  const uint64_t target_bytes =
      static_cast<uint64_t>((uint64_t{1} << 20) * scale);
  const size_t runs = workload::RunsFromEnv(10);

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

  std::printf("Plan-cache bench - %zu fragments, hot loop of %zu run(s)\n"
              "database: %zu documents, %s\n",
              kFragments, runs, items->size(),
              bench::DescribeSize(*items).c_str());

  const std::vector<workload::QuerySpec> queries =
      workload::HorizontalQueries(items->name());

  telemetry::MetricsRegistry::Global().set_enabled(true);
  telemetry::MetricsRegistry::Global().Reset();

  const struct {
    const char* label;
    size_t capacity;
  } configs[] = {{"on", 128}, {"off", 0}};

  std::vector<Series> series;
  bool identical = true;
  for (const auto& config : configs) {
    xdb::DatabaseOptions node_options;
    node_options.plan_cache_capacity = config.capacity;
    auto deployment = workload::Deployment::Fragmented(
        *items, *schema, node_options, middleware::NetworkModel());
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   deployment.status().ToString().c_str());
      return 1;
    }
    Series current;
    current.label = config.label;
    for (const auto& query : queries) {
      auto cell = MeasureQuery(deployment->get(), query, runs);
      if (!cell.ok()) {
        std::fprintf(stderr, "measurement failed: %s\n",
                     cell.status().ToString().c_str());
        return 1;
      }
      if (!series.empty()) {
        const QueryCell& baseline =
            series.front().queries[current.queries.size()];
        if (cell->ok && cell->serialized != baseline.serialized) {
          identical = false;
          std::fprintf(stderr, "MISMATCH: %s differs with plan cache %s\n",
                       query.id.c_str(), config.label);
        }
      }
      current.queries.push_back(std::move(*cell));
    }
    series.push_back(std::move(current));
  }

  std::printf("\n%-5s", "query");
  for (const Series& s : series)
    std::printf("  %8s=%-3s  %9s  %5s/%-5s", "wall@cache", s.label.c_str(),
                "compile", "hit", "miss");
  std::printf("\n");
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("%-5s", queries[q].id.c_str());
    for (const Series& s : series) {
      const QueryCell& cell = s.queries[q];
      std::printf("  %10.3f ms  %7.3f ms  %5llu/%-5llu", cell.wall_ms,
                  cell.compile_ms,
                  static_cast<unsigned long long>(cell.hits),
                  static_cast<unsigned long long>(cell.misses));
    }
    std::printf("\n");
  }
  const double speedup =
      TotalWall(series[0]) > 0.0 ? TotalWall(series[1]) / TotalWall(series[0])
                                 : 0.0;
  std::printf("hot-loop speedup (cache off / cache on): %.3fx\n", speedup);
  std::printf("results byte-identical across configurations: %s\n",
              identical ? "yes" : "NO");

  std::string json;
  json += "{\n  \"bench\": \"plan_cache\",\n";
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "  \"nodes\": %zu,\n  \"fragments\": %zu,\n"
                "  \"runs\": %zu,\n  \"series\": [\n",
                kFragments, kFragments, runs);
  json += buffer;
  for (size_t s = 0; s < series.size(); ++s) {
    AppendJsonSeries(series[s], &json);
    json += s + 1 < series.size() ? ",\n" : "\n";
  }
  std::snprintf(buffer, sizeof(buffer),
                "  ],\n  \"hot_loop_speedup\": %.3f,\n"
                "  \"identical\": %s\n}\n",
                speedup, identical ? "true" : "false");
  json += buffer;

  std::printf("\n");
  if (!bench::WriteBenchFile("BENCH_plan_cache.json", json)) return 1;

  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  if (!bench::WriteBenchFile("BENCH_plan_cache_metrics.json",
                             snapshot.ToJson()) ||
      !bench::WriteBenchFile("BENCH_plan_cache_metrics.prom",
                             snapshot.ToPrometheus())) {
    return 1;
  }
  const char* const headline[] = {
      "partix_plan_cache_hits_total", "partix_plan_cache_misses_total",
      "partix_plan_cache_evictions_total", "partix_driver_prepares_total",
      "partix_driver_executes_total", "partix_queries_total",
  };
  std::printf("\nkey counters:\n");
  for (const char* name : headline) {
    auto it = snapshot.counters.find(name);
    std::printf("  %-40s %llu\n", name,
                it == snapshot.counters.end()
                    ? 0ull
                    : static_cast<unsigned long long>(it->second));
  }
  return identical ? 0 : 1;
}
