// Reproduces paper Fig. 7(d): query response times on database StoreHyb
// (the Cstore SD document), hybrid-fragmented into 4 per-section Item
// fragments plus the pruned store fragment, in both materializations:
//
//   FragMode1: each selected Item stored as an independent document
//   FragMode2: a single pruned document per fragment
//
// and both with (-T) and without (-NT) the transmission-time model, versus
// the centralized database — the series of the paper's figure.
//
// Shapes to reproduce: FragMode1 loses badly on parse-heavy access
// (hundreds of small documents); FragMode2 beats centralized in most
// cases; queries returning whole items (Q6, Q7) are transmission-bound;
// Q9/Q10 (pruned fragment) and Q11 (aggregation) always win.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "collection_size.h"
#include "gen/virtual_store.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

using namespace partix;  // bench binary: brevity over style here

int main() {
  const double scale = workload::ScaleFromEnv();
  gen::StoreGenOptions options;
  options.seed = 20060104;
  options.large_items = true;
  auto store = gen::GenerateStoreBySize(
      options, static_cast<uint64_t>((uint64_t{8} << 20) * scale), nullptr);
  if (!store.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "Fig 7(d) - StoreHyb, hybrid fragmentation, FragMode1 vs FragMode2, "
      "with (T) and without (NT) transmission\ndatabase: 1 store document, "
      "%s\n",
      bench::DescribeSize(*store).c_str());

  const std::vector<workload::QuerySpec> queries =
      workload::HybridQueries(store->name());
  const size_t runs = workload::RunsFromEnv(3);

  xdb::DatabaseOptions node_options;
  // The paper's memory regime: the centralized database exceeds the parse
  // cache; fragments fit (see EXPERIMENTS.md).
  node_options.cache_capacity_bytes =
      std::max<uint64_t>(uint64_t{1} << 20, static_cast<uint64_t>((uint64_t{8} << 20) * scale) / 3);
  middleware::NetworkModel network;

  std::vector<std::string> series_names;
  std::vector<std::vector<workload::Measurement>> series;

  auto run_series = [&](const std::string& name,
                        workload::Deployment* deployment,
                        bool transmission) -> bool {
    workload::MeasureOptions m;
    m.runs = runs;
    m.include_transmission = transmission;
    // Cold runs: every query pays document materialization, exposing the
    // per-document overhead that makes FragMode1 "very inefficient" in the
    // paper ("the query processor has to parse hundreds of small
    // documents").
    m.cold = true;
    std::vector<workload::Measurement> row;
    for (const workload::QuerySpec& q : queries) {
      auto result = workload::Measure(deployment, q, m);
      if (!result.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", name.c_str(),
                     q.id.c_str(), result.status().ToString().c_str());
        return false;
      }
      row.push_back(*result);
    }
    series_names.push_back(name);
    series.push_back(std::move(row));
    return true;
  };

  auto central =
      workload::Deployment::Centralized(*store, node_options, network);
  if (!central.ok() ||
      !run_series("centralized", central->get(), true)) {
    return 1;
  }

  for (frag::HybridMode mode : {frag::HybridMode::kOneDocPerSubtree,
                                frag::HybridMode::kSinglePrunedDoc}) {
    auto schema = workload::StoreHybridSchema(store->name(),
                                              options.sections, 4, mode);
    if (!schema.ok()) {
      std::fprintf(stderr, "schema failed: %s\n",
                   schema.status().ToString().c_str());
      return 1;
    }
    auto deployment = workload::Deployment::Fragmented(
        *store, *schema, node_options, network);
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   deployment.status().ToString().c_str());
      return 1;
    }
    const char* base =
        mode == frag::HybridMode::kOneDocPerSubtree ? "FragMode1"
                                                    : "FragMode2";
    if (!run_series(std::string(base) + "-T", deployment->get(), true) ||
        !run_series(std::string(base) + "-NT", deployment->get(), false)) {
      return 1;
    }
  }

  workload::PrintTable("Fig 7(d) - hybrid fragmentation over the SD store",
                       series_names, series, queries);
  std::printf("\nqueries:\n");
  for (const workload::QuerySpec& q : queries) {
    std::printf("  %-4s %s\n", q.id.c_str(), q.description.c_str());
  }
  return 0;
}
