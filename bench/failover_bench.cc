// Query latency under injected transient faults, plus a seeded
// self-healing chaos pass.
//
// The fault-tolerance PR claims failover is cheap: with replicated
// fragments, retries + replica re-routing absorb transient node errors
// without changing the answer. This bench quantifies the claim. It
// deploys the Fig. 7(a) horizontal workload at replication factor 2,
// injects seeded transient-error rates of 0% / 5% / 20% into every node
// (ClusterSim::SetFaultProfile), and reports per-query wall-clock,
// retries, and failovers at each rate — plus a byte-identity check of
// every composed result against the fault-free baseline.
//
// Output goes to stdout as a table and to BENCH_failover.json (schema
// below) so the perf trajectory is machine-readable:
//
//   { "bench": "failover", "replication_factor": 2, "nodes": N,
//     "fragments": N, "runs": R,
//     "series": [ { "error_rate": 0.05,
//                   "queries": [ { "id": "Q1", "wall_ms": 1.2,
//                                  "retries": 3, "failovers": 1,
//                                  "ok": true } ],
//                   "total_wall_ms": ..., "total_retries": ...,
//                   "total_failovers": ... } ],
//     "identical_across_rates": true }
//
// The chaos pass (BENCH_self_healing.json) walks the self-healing
// lifecycle on a versioned-catalog deployment: healthy baseline ->
// response corruption (detected, failed over, never served) -> node
// death (health declares it, repair re-replicates and cuts the catalog
// over) -> storage bit rot (scrubber detects, quarantines, rebuilds).
// Every phase's composed results are gated on byte-identity with the
// healthy run, and any failed query fails the bench.
//
// Set PARTIX_SCALE to grow the database, PARTIX_RUNS for repetitions,
// PARTIX_SMOKE=1 for a tiny CI run.

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_out.h"
#include "collection_size.h"
#include "gen/virtual_store.h"
#include "partix/health.h"
#include "partix/query_service.h"
#include "partix/repair.h"
#include "telemetry/metrics.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace {

using partix::middleware::DistributedResult;
using partix::middleware::ExecutionOptions;
using partix::middleware::FaultProfile;

constexpr size_t kFragments = 4;
constexpr size_t kReplicationFactor = 2;
const double kErrorRates[] = {0.0, 0.05, 0.20};

struct QueryCell {
  std::string id;
  double wall_ms = 0.0;  // averaged over runs
  size_t retries = 0;    // summed over runs
  size_t failovers = 0;  // summed over runs
  bool ok = true;
  std::string serialized;  // first successful run (identity check)
};

struct Series {
  double error_rate = 0.0;
  std::vector<QueryCell> queries;
};

/// Installs `error_rate` on every node with a per-node seed derived from
/// the series index, so reruns of the bench draw identical fault
/// sequences.
void InjectFaults(partix::middleware::ClusterSim* cluster,
                  double error_rate, size_t series_index) {
  for (size_t node = 0; node < cluster->node_count(); ++node) {
    FaultProfile profile;
    profile.transient_error_rate = error_rate;
    profile.seed = 9000 + series_index * 131 + node * 17;
    cluster->SetFaultProfile(node, profile);
  }
  cluster->executor().ResetBreakers();
}

partix::Result<QueryCell> MeasureQuery(
    partix::workload::Deployment* deployment,
    const partix::workload::QuerySpec& query, size_t runs) {
  ExecutionOptions options;
  options.parallelism = 1;  // sequential: isolates retry/failover cost
  options.retry.max_attempts = 6;
  options.retry.base_backoff_ms = 0.05;
  options.retry.max_backoff_ms = 1.0;
  options.retry.seed = 20060101;

  QueryCell cell;
  cell.id = query.id;
  for (size_t run = 0; run <= runs; ++run) {
    auto result = deployment->service().Execute(query.text, options);
    if (run == 0) {
      // Warm-up primes node caches; its faults still advance the
      // per-node RNGs, which is fine — series are compared by result
      // bytes, not by fault placement.
      if (result.ok()) cell.serialized = result->serialized;
      continue;
    }
    if (!result.ok()) {
      cell.ok = false;
      std::fprintf(stderr, "%s failed despite retries: %s\n",
                   query.id.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    if (cell.serialized.empty()) cell.serialized = result->serialized;
    cell.wall_ms += result->wall_ms;
    cell.retries += result->retries;
    cell.failovers += result->failovers;
  }
  cell.wall_ms /= static_cast<double>(runs);
  return cell;
}

void AppendJsonSeries(const Series& series, std::string* out) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "    { \"error_rate\": %.2f,\n      \"queries\": [\n",
                series.error_rate);
  *out += buffer;
  double total_wall = 0.0;
  size_t total_retries = 0;
  size_t total_failovers = 0;
  for (size_t q = 0; q < series.queries.size(); ++q) {
    const QueryCell& cell = series.queries[q];
    total_wall += cell.wall_ms;
    total_retries += cell.retries;
    total_failovers += cell.failovers;
    std::snprintf(buffer, sizeof(buffer),
                  "        { \"id\": \"%s\", \"wall_ms\": %.3f, "
                  "\"retries\": %zu, \"failovers\": %zu, \"ok\": %s }%s\n",
                  cell.id.c_str(), cell.wall_ms, cell.retries,
                  cell.failovers, cell.ok ? "true" : "false",
                  q + 1 < series.queries.size() ? "," : "");
    *out += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "      ],\n      \"total_wall_ms\": %.3f, "
                "\"total_retries\": %zu, \"total_failovers\": %zu }",
                total_wall, total_retries, total_failovers);
  *out += buffer;
}

// ---------------------------------------------------------------------
// Self-healing chaos pass
// ---------------------------------------------------------------------

struct ChaosPhase {
  std::string name;
  size_t queries = 0;
  size_t failed = 0;
  size_t retries = 0;
  size_t failovers = 0;
  size_t corrupt_responses = 0;
  double wall_ms = 0.0;
  bool identical = true;
  // Repair/scrub extras; 0 for phases that run neither.
  size_t repaired = 0;
  uint64_t catalog_version = 0;
  size_t scrub_divergent = 0;
  size_t scrub_repaired = 0;
};

/// Runs the workload once through `service`, folding outcomes into
/// `phase` and checking byte-identity against `baseline` (one entry per
/// query; filled on the first phase when empty).
void RunChaosWorkload(partix::middleware::QueryService* service,
                      const std::vector<partix::workload::QuerySpec>& queries,
                      std::vector<std::string>* baseline,
                      ChaosPhase* phase) {
  ExecutionOptions options;
  options.retry.max_attempts = 6;
  options.retry.base_backoff_ms = 0.05;
  options.retry.max_backoff_ms = 1.0;
  options.retry.seed = 20060101;
  for (size_t q = 0; q < queries.size(); ++q) {
    ++phase->queries;
    auto result = service->Execute(queries[q].text, options);
    if (!result.ok()) {
      ++phase->failed;
      std::fprintf(stderr, "[%s] %s FAILED: %s\n", phase->name.c_str(),
                   queries[q].id.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    phase->wall_ms += result->wall_ms;
    phase->retries += result->retries;
    phase->failovers += result->failovers;
    phase->corrupt_responses += result->corrupt_responses;
    if (baseline->size() <= q) {
      baseline->push_back(result->serialized);
    } else if (result->serialized != (*baseline)[q]) {
      phase->identical = false;
      std::fprintf(stderr, "[%s] MISMATCH: %s diverged from baseline\n",
                   phase->name.c_str(), queries[q].id.c_str());
    }
  }
}

/// The detect -> route-around -> repair lifecycle on its own
/// versioned-catalog deployment. Returns true when every phase kept every
/// query succeeding byte-identically.
bool RunSelfHealingChaos(const partix::xml::Collection& items,
                         const partix::frag::FragmentationSchema& schema,
                         std::vector<ChaosPhase>* phases) {
  using namespace partix;
  using namespace partix::middleware;

  DistributionCatalog catalog;
  ClusterSim cluster(kFragments, xdb::DatabaseOptions(), NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  Status published =
      publisher.PublishFragmented(items, schema, {}, kReplicationFactor);
  if (!published.ok()) {
    std::fprintf(stderr, "chaos deploy failed: %s\n",
                 published.ToString().c_str());
    return false;
  }
  VersionedCatalog versioned(catalog);
  QueryService service(&cluster, &versioned);
  HealthMonitor health(&cluster);
  cluster.executor().set_health_monitor(&health);
  RepairPlanner planner(&cluster, &publisher, &health, &versioned);
  Scrubber scrubber(&cluster, &publisher, &health, &versioned);

  const std::vector<workload::QuerySpec> queries =
      workload::HorizontalQueries(items.name());
  std::vector<std::string> baseline;

  // Phase 1: healthy baseline.
  {
    ChaosPhase phase;
    phase.name = "healthy";
    RunChaosWorkload(&service, queries, &baseline, &phase);
    phases->push_back(phase);
  }

  // Phase 2: every node corrupts a quarter of its responses in flight.
  // Digest verification must discard each one and fail over; no corrupt
  // bytes reach a composed result.
  {
    for (size_t node = 0; node < cluster.node_count(); ++node) {
      FaultProfile profile;
      profile.response_corruption_rate = 0.25;
      profile.seed = 777 + node;
      cluster.SetFaultProfile(node, profile);
    }
    ChaosPhase phase;
    phase.name = "response_corruption";
    RunChaosWorkload(&service, queries, &baseline, &phase);
    phases->push_back(phase);
    for (size_t node = 0; node < cluster.node_count(); ++node) {
      cluster.SetFaultProfile(node, FaultProfile{});
    }
    cluster.executor().ResetBreakers();
  }

  // Phase 3: node 1 dies mid-workload. Queries keep succeeding via
  // replicas; probes declare the death; one repair round restores the
  // replication factor and cuts the catalog over.
  {
    cluster.SetNodeDown(1, true);
    ChaosPhase phase;
    phase.name = "node_death_repair";
    RunChaosWorkload(&service, queries, &baseline, &phase);
    const size_t rounds = static_cast<size_t>(
        health.policy().death_threshold / health.policy().failure_weight);
    for (size_t i = 0; i < rounds; ++i) health.ProbeAll();
    RepairReport repair = planner.RepairOnce();
    phase.repaired = repair.repaired;
    phase.catalog_version = repair.catalog_version;
    if (repair.failed != 0 || repair.catalog_version == 0) {
      std::fprintf(stderr, "[%s] repair incomplete: %zu failed, v%llu\n",
                   phase.name.c_str(), repair.failed,
                   static_cast<unsigned long long>(repair.catalog_version));
      phase.identical = false;
    }
    // Post-repair traffic routes on the repaired topology.
    RunChaosWorkload(&service, queries, &baseline, &phase);
    phases->push_back(phase);
  }

  // Phase 4: silent bit rot on a live replica. The scrubber detects the
  // divergent copy against the catalog digest, quarantines, rebuilds,
  // verifies, and traffic stays byte-identical throughout.
  {
    ChaosPhase phase;
    phase.name = "storage_scrub";
    auto snapshot = versioned.Snapshot();
    auto entry = snapshot->Get(items.name());
    if (entry.ok() && !(*entry)->placements.empty()) {
      const FragmentPlacement& target = (*entry)->placements.front();
      Status rotted = cluster.database(target.node)
                          .CorruptStoredDocumentText(target.fragment, 0);
      if (!rotted.ok()) {
        std::fprintf(stderr, "[%s] injection failed: %s\n",
                     phase.name.c_str(), rotted.ToString().c_str());
        phase.identical = false;
      }
    }
    ScrubReport scrub = scrubber.ScrubOnce();
    phase.scrub_divergent = scrub.divergent;
    phase.scrub_repaired = scrub.repaired;
    if (scrub.divergent != scrub.repaired || scrub.failed != 0) {
      std::fprintf(stderr, "[%s] scrub left damage: %zu divergent, "
                   "%zu repaired, %zu failed\n",
                   phase.name.c_str(), scrub.divergent, scrub.repaired,
                   scrub.failed);
      phase.identical = false;
    }
    RunChaosWorkload(&service, queries, &baseline, &phase);
    phases->push_back(phase);
  }

  bool ok = true;
  for (const ChaosPhase& phase : *phases) {
    ok = ok && phase.identical && phase.failed == 0;
  }
  return ok;
}

void AppendChaosJson(const std::vector<ChaosPhase>& phases, bool ok,
                     size_t nodes, std::string* json) {
  char buffer[320];
  *json += "{\n  \"bench\": \"self_healing\",\n";
  std::snprintf(buffer, sizeof(buffer),
                "  \"nodes\": %zu,\n  \"replication_factor\": %zu,\n"
                "  \"phases\": [\n",
                nodes, kReplicationFactor);
  *json += buffer;
  for (size_t p = 0; p < phases.size(); ++p) {
    const ChaosPhase& phase = phases[p];
    std::snprintf(
        buffer, sizeof(buffer),
        "    { \"phase\": \"%s\", \"queries\": %zu, \"failed\": %zu,\n"
        "      \"retries\": %zu, \"failovers\": %zu, "
        "\"corrupt_responses\": %zu,\n"
        "      \"wall_ms\": %.3f, \"repaired\": %zu, "
        "\"catalog_version\": %llu,\n"
        "      \"scrub_divergent\": %zu, \"scrub_repaired\": %zu, "
        "\"identical\": %s }%s\n",
        phase.name.c_str(), phase.queries, phase.failed, phase.retries,
        phase.failovers, phase.corrupt_responses, phase.wall_ms,
        phase.repaired,
        static_cast<unsigned long long>(phase.catalog_version),
        phase.scrub_divergent, phase.scrub_repaired,
        phase.identical ? "true" : "false",
        p + 1 < phases.size() ? "," : "");
    *json += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "  ],\n  \"healed_and_identical\": %s\n}\n",
                ok ? "true" : "false");
  *json += buffer;
}

}  // namespace

int main() {
  using namespace partix;

  const char* smoke_env = std::getenv("PARTIX_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';
  const double scale = workload::ScaleFromEnv();
  const uint64_t target_bytes =
      smoke ? (uint64_t{64} << 10)
            : static_cast<uint64_t>((uint64_t{1} << 20) * scale);
  const size_t runs = smoke ? 1 : workload::RunsFromEnv(3);

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
  auto deployment = workload::Deployment::Fragmented(
      *items, *schema, xdb::DatabaseOptions(), middleware::NetworkModel(),
      kReplicationFactor);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "Failover bench - %zu fragments rf=%zu on %zu nodes\n"
      "database: %zu documents, %s; runs: %zu\n",
      kFragments, kReplicationFactor, deployment->get()->node_count(),
      items->size(), partix::bench::DescribeSize(*items).c_str(), runs);

  const std::vector<workload::QuerySpec> queries =
      workload::HorizontalQueries(items->name());

  // Record the whole bench in the global metrics registry; the snapshot
  // written at the end carries the aggregate retry/failover/breaker and
  // parse-cache story alongside the per-query table.
  telemetry::MetricsRegistry::Global().set_enabled(true);
  telemetry::MetricsRegistry::Global().Reset();

  std::vector<Series> series;
  bool identical = true;
  for (size_t s = 0; s < std::size(kErrorRates); ++s) {
    Series current;
    current.error_rate = kErrorRates[s];
    InjectFaults(&deployment->get()->cluster(), kErrorRates[s], s);
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
          std::fprintf(stderr,
                       "MISMATCH: %s composed differently at rate %.2f\n",
                       query.id.c_str(), kErrorRates[s]);
        }
      }
      current.queries.push_back(std::move(*cell));
    }
    series.push_back(std::move(current));
  }
  // Leave the cluster healthy.
  InjectFaults(&deployment->get()->cluster(), 0.0, 0);

  std::printf("\n%-5s", "query");
  for (double rate : kErrorRates)
    std::printf("  %8s%.0f%%  %5s  %5s", "wall@", rate * 100, "retry",
                "failo");
  std::printf("\n");
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("%-5s", queries[q].id.c_str());
    for (const Series& s : series) {
      const QueryCell& cell = s.queries[q];
      std::printf("  %8.2f ms  %5zu  %5zu", cell.wall_ms, cell.retries,
                  cell.failovers);
    }
    std::printf("\n");
  }
  std::printf("results byte-identical across fault rates: %s\n",
              identical ? "yes" : "NO");

  std::string json;
  json += "{\n  \"bench\": \"failover\",\n";
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "  \"replication_factor\": %zu,\n  \"nodes\": %zu,\n"
                "  \"fragments\": %zu,\n  \"runs\": %zu,\n  \"series\": [\n",
                kReplicationFactor, deployment->get()->node_count(),
                kFragments, runs);
  json += buffer;
  for (size_t s = 0; s < series.size(); ++s) {
    AppendJsonSeries(series[s], &json);
    json += s + 1 < series.size() ? ",\n" : "\n";
  }
  std::snprintf(buffer, sizeof(buffer),
                "  ],\n  \"identical_across_rates\": %s\n}\n",
                identical ? "true" : "false");
  json += buffer;

  std::printf("\n");
  if (!bench::WriteBenchFile("BENCH_failover.json", json)) return 1;

  // --- self-healing chaos pass (before the metrics snapshot, so the
  // repair/scrub/corruption counters it drives are captured too) ---
  std::printf("self-healing chaos pass (rf=%zu):\n", kReplicationFactor);
  std::vector<ChaosPhase> phases;
  const bool healed = RunSelfHealingChaos(*items, *schema, &phases);
  std::printf("%-22s %7s %6s %6s %7s %8s %5s\n", "phase", "queries",
              "failed", "retry", "failov", "corrupt", "ident");
  for (const ChaosPhase& phase : phases) {
    std::printf("%-22s %7zu %6zu %6zu %7zu %8zu %5s\n", phase.name.c_str(),
                phase.queries, phase.failed, phase.retries, phase.failovers,
                phase.corrupt_responses, phase.identical ? "yes" : "NO");
  }
  std::printf("healed and byte-identical: %s\n", healed ? "yes" : "NO");
  std::string chaos_json;
  AppendChaosJson(phases, healed, kFragments, &chaos_json);
  if (!bench::WriteBenchFile("BENCH_self_healing.json", chaos_json)) {
    return 1;
  }

  // Metrics snapshot (JSON + Prometheus text exposition) of everything
  // the bench just did: attempts/retries/failovers, breaker transitions,
  // backoff sleeps, engine time, parse-cache traffic, repairs and scrubs.
  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  if (!bench::WriteBenchFile("BENCH_failover_metrics.json",
                             snapshot.ToJson()) ||
      !bench::WriteBenchFile("BENCH_failover_metrics.prom",
                             snapshot.ToPrometheus())) {
    return 1;
  }
  const char* const headline[] = {
      "partix_subquery_attempts_total", "partix_subquery_retries_total",
      "partix_subquery_failovers_total", "partix_breaker_opens_total",
      "partix_breaker_half_open_probes_total",
      "partix_corrupt_responses_total", "partix_repairs_total",
      "partix_scrub_divergent_total",
  };
  std::printf("\nkey counters:\n");
  for (const char* name : headline) {
    auto it = snapshot.counters.find(name);
    std::printf("  %-40s %llu\n", name,
                it == snapshot.counters.end()
                    ? 0ull
                    : static_cast<unsigned long long>(it->second));
  }
  return identical && healed ? 0 : 1;
}
