// Intra-node morsel parallelism on localized queries.
//
// Cross-node parallelism (bench/parallel_speedup) cannot help a query the
// decomposer localizes to a single fragment: the plan has one sub-query,
// so there is nothing to overlap between nodes. Intra-node morsels attack
// exactly that case — the one node splits its collection-scale iteration
// into chunks on the shared worker pool (docs/intra-node-parallelism.md)
// and stitches the results back in document order.
//
// This bench runs Q2/Q7-style section-localized queries (each prunes to
// one fragment of the Fig. 7(a) horizontal design) at morsel parallelism
// 1 / 2 / 4 / 8 and reports wall-clock per level. Two gates:
//
//   - identity (always): the serialized answer at every morsel level is
//     byte-identical to the sequential one, and every level >= 2 ran
//     morsels (an iteration below two morsels' worth of items stays
//     sequential, which would make the identity check vacuous) — either
//     failure fails the bench regardless of mode or host.
//   - speedup (full mode on >= 4-core hosts only): morsels=4 must run the
//     localized set at least 2x faster than morsels=1.
//
// Emits BENCH_intra_node.json to bench-out/. PARTIX_SMOKE=1 shrinks the
// database (to 1 MiB, which keeps every localized fragment above the fork
// minimum) and skips the speedup gate (identity still gates);
// PARTIX_SCALE / PARTIX_RUNS scale the full mode.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_out.h"
#include "gen/virtual_store.h"
#include "partix/query_service.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace {

using partix::middleware::DistributedResult;
using partix::middleware::ExecutionOptions;

constexpr size_t kFragments = 4;
const size_t kMorsels[] = {1, 2, 4, 8};

struct Cell {
  double wall_ms = 0.0;
  std::string serialized;
  size_t subqueries = 0;
  uint64_t morsels = 0;  // summed over the sub-queries of one execution
};

partix::Result<Cell> MeasureCell(partix::workload::Deployment* deployment,
                                 const partix::workload::QuerySpec& query,
                                 size_t morsels, size_t runs) {
  Cell cell;
  ExecutionOptions options;
  options.parallelism = 1;  // localized plans have one sub-query anyway
  options.intra_node_parallelism = morsels;
  for (size_t run = 0; run <= runs; ++run) {
    PARTIX_ASSIGN_OR_RETURN(
        DistributedResult result,
        deployment->service().Execute(query.text, options));
    if (run == 0) {
      cell.serialized = std::move(result.serialized);
      cell.subqueries = result.subqueries.size();
      for (const auto& sub : result.subqueries) cell.morsels += sub.morsels;
      continue;  // warm-up: primes node parse caches, not counted
    }
    cell.wall_ms += result.wall_ms;
  }
  cell.wall_ms /= static_cast<double>(runs);
  return cell;
}

}  // namespace

int main() {
  using namespace partix;

  const bool smoke = std::getenv("PARTIX_SMOKE") != nullptr;
  const double scale = smoke ? 1.0 : workload::ScaleFromEnv();
  const uint64_t target_bytes = smoke
                                    ? (uint64_t{1} << 20)
                                    : static_cast<uint64_t>(
                                          (uint64_t{8} << 20) * scale);
  const size_t runs = smoke ? 2 : workload::RunsFromEnv(3);

  gen::ItemsGenOptions gen_options;
  gen_options.seed = 20060102;
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
  // Keep every parsed document cached: the bench measures evaluation, and
  // warm caches are the paper's measurement protocol anyway.
  node_options.cache_capacity_bytes = uint64_t{256} << 20;
  auto deployment = workload::Deployment::Fragmented(
      *items, *schema, node_options, middleware::NetworkModel());
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }

  // Section-localized queries: each prunes to exactly one fragment, so
  // the executor dispatches one sub-query and every measured gain comes
  // from morsels inside that node. Q2/Q7 are the workload's localized
  // pair; the contains() variant adds a CPU-heavy per-item predicate.
  const std::string c = "collection(\"" + items->name() + "\")";
  const std::vector<workload::QuerySpec> queries = {
      {"Q2", "selection matching the fragmentation predicate",
       "for $i in " + c + "/Item where $i/Section = \"CD\" "
       "return $i/Name"},
      {"Q7", "count aggregation with a section predicate",
       "count(" + c + "/Item[Section = \"DVD\"])"},
      {"Q2t", "localized text search (CPU-heavy per item)",
       "for $i in " + c + "/Item "
       "where $i/Section = \"BOOK\" and contains($i/Description, \"good\") "
       "return $i/Code"},
  };

  std::printf(
      "Intra-node morsel speedup - localized queries, %zu fragments\n"
      "database: %zu documents; host cores: %u; runs: %zu%s\n\n",
      kFragments, items->size(), std::thread::hardware_concurrency(), runs,
      smoke ? " (smoke)" : "");

  bool identical = true;
  bool forked = true;
  std::vector<std::vector<Cell>> cells;  // [query][morsel-index]
  for (const auto& query : queries) {
    std::vector<Cell> row;
    for (size_t m : kMorsels) {
      auto cell = MeasureCell(deployment->get(), query, m, runs);
      if (!cell.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", query.id.c_str(),
                     cell.status().ToString().c_str());
        return 1;
      }
      if (!row.empty() && cell->serialized != row.front().serialized) {
        identical = false;
        std::fprintf(stderr, "MISMATCH: %s differs at morsels=%zu\n",
                     query.id.c_str(), m);
      }
      if (m >= 2 && cell->morsels == 0) {
        forked = false;
        std::fprintf(stderr, "NO MORSELS: %s ran sequentially at morsels=%zu\n",
                     query.id.c_str(), m);
      }
      row.push_back(std::move(*cell));
    }
    cells.push_back(std::move(row));
  }

  std::printf("%-5s %5s  %12s  %12s  %12s  %12s  %8s  %7s\n", "query",
              "subq", "m=1", "m=2", "m=4", "m=8", "m4 spd", "morsels");
  double total_m1 = 0.0;
  double total_m4 = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<Cell>& row = cells[q];
    std::printf(
        "%-5s %5zu  %9.2f ms  %9.2f ms  %9.2f ms  %9.2f ms  %7.2fx  %7llu\n",
        queries[q].id.c_str(), row.front().subqueries, row[0].wall_ms,
        row[1].wall_ms, row[2].wall_ms, row[3].wall_ms,
        row[2].wall_ms > 0.0 ? row[0].wall_ms / row[2].wall_ms : 0.0,
        static_cast<unsigned long long>(row[2].morsels));
    total_m1 += row[0].wall_ms;
    total_m4 += row[2].wall_ms;
  }
  const double speedup_m4 = total_m4 > 0.0 ? total_m1 / total_m4 : 0.0;
  std::printf(
      "\nlocalized total: m=1 %.2f ms -> m=4 %.2f ms => speedup %.2fx\n",
      total_m1, total_m4, speedup_m4);
  std::printf("results byte-identical across morsel levels: %s\n",
              identical ? "yes" : "NO");
  std::printf("every level >= 2 ran morsels: %s\n", forked ? "yes" : "NO");

  std::string json = "{\n  \"queries\": [\n";
  for (size_t q = 0; q < queries.size(); ++q) {
    json += "    {\"id\": \"" + queries[q].id + "\", \"subqueries\": " +
            std::to_string(cells[q].front().subqueries) + ", \"wall_ms\": [";
    for (size_t m = 0; m < 4; ++m) {
      json += (m ? ", " : "") + std::to_string(cells[q][m].wall_ms);
    }
    json += "], \"morsels_run\": [";
    for (size_t m = 0; m < 4; ++m) {
      json += (m ? ", " : "") + std::to_string(cells[q][m].morsels);
    }
    json += "]}";
    json += q + 1 < queries.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"morsels\": [1, 2, 4, 8],\n  \"speedup_m4\": " +
          std::to_string(speedup_m4) +
          ",\n  \"identical\": " + (identical ? "true" : "false") +
          ",\n  \"forked\": " + (forked ? "true" : "false") +
          ",\n  \"smoke\": " + (smoke ? "true" : "false") + "\n}\n";
  if (!bench::WriteBenchFile("BENCH_intra_node.json", json)) return 1;

  if (!identical || !forked) return 1;
  const bool gate_speedup =
      !smoke && std::thread::hardware_concurrency() >= 4;
  if (gate_speedup && speedup_m4 < 2.0) {
    std::fprintf(stderr,
                 "speedup gate FAILED: %.2fx at morsels=4 (need >= 2x)\n",
                 speedup_m4);
    return 1;
  }
  if (!gate_speedup) {
    std::printf("speedup gate skipped (%s)\n",
                smoke ? "smoke mode" : "fewer than 4 cores");
  }
  return 0;
}
