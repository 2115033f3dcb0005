// Reproduces the paper's headline claim (§1/§6): "a performance
// improvement of up to a 72 scale up factor against centralized
// databases", observed for horizontal fragmentation of the small-document
// database on the text-search / aggregation queries (the paper's Q8 went
// from 1200 s centralized to 300 s on 2 fragments — a superlinear
// speedup).
//
// This bench prints the per-query speedup factors (centralized /
// fragmented response time) for the ItemsSHor workload at 2/4/8 fragments
// and reports the maximum observed.

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
  gen::ItemsGenOptions options;
  options.seed = 20060105;
  options.large_docs = false;
  auto items = gen::GenerateItemsBySize(
      options, static_cast<uint64_t>((uint64_t{8} << 20) * scale), nullptr);
  if (!items.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 items.status().ToString().c_str());
    return 1;
  }
  std::printf("Speed-up table - ItemsSHor, horizontal fragmentation\n"
              "database: %zu documents, %s\n",
              items->size(), bench::DescribeSize(*items).c_str());

  const std::vector<workload::QuerySpec> queries =
      workload::HorizontalQueries(items->name());
  workload::MeasureOptions measure;
  measure.runs = workload::RunsFromEnv(3);

  xdb::DatabaseOptions node_options;
  // The paper's memory regime: the centralized database exceeds the parse
  // cache; fragments fit (see EXPERIMENTS.md).
  node_options.cache_capacity_bytes =
      std::max<uint64_t>(uint64_t{1} << 20, static_cast<uint64_t>((uint64_t{8} << 20) * scale) / 6);
  middleware::NetworkModel network;

  auto central =
      workload::Deployment::Centralized(*items, node_options, network);
  if (!central.ok()) {
    std::fprintf(stderr, "deploy failed\n");
    return 1;
  }
  std::vector<double> central_ms;
  for (const workload::QuerySpec& q : queries) {
    auto m = workload::Measure(central->get(), q, measure);
    if (!m.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", q.id.c_str(),
                   m.status().ToString().c_str());
      return 1;
    }
    central_ms.push_back(m->response_ms);
  }

  std::printf("\n%-5s %12s", "query", "centralized");
  for (size_t f : {2, 4, 8}) std::printf("  %8zu-frag", f);
  std::printf("\n");

  double best_speedup = 0.0;
  std::string best_query;
  std::vector<std::vector<double>> speedups(queries.size());
  size_t column = 0;
  for (size_t fragments : {size_t{2}, size_t{4}, size_t{8}}) {
    auto schema = workload::SectionHorizontalSchema(
        items->name(), options.sections, fragments);
    if (!schema.ok()) {
      std::fprintf(stderr, "schema failed\n");
      return 1;
    }
    auto deployment = workload::Deployment::Fragmented(
        *items, *schema, node_options, network);
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy failed\n");
      return 1;
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      auto m = workload::Measure(deployment->get(), queries[q], measure);
      if (!m.ok()) {
        std::fprintf(stderr, "measure failed\n");
        return 1;
      }
      double speedup =
          m->response_ms > 0 ? central_ms[q] / m->response_ms : 0.0;
      speedups[q].push_back(speedup);
      if (speedup > best_speedup) {
        best_speedup = speedup;
        best_query = queries[q].id + " @ " + std::to_string(fragments) +
                     " fragments";
      }
    }
    ++column;
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("%-5s %9.2f ms", queries[q].id.c_str(), central_ms[q]);
    for (double s : speedups[q]) std::printf("  %11.1fx", s);
    std::printf("\n");
  }
  std::printf("\nmax speed-up: %.1fx (%s)\n", best_speedup,
              best_query.c_str());
  std::printf("paper reports up to 72x on its 250MB ItemsSHor database; "
              "scale with PARTIX_SCALE to approach it.\n");
  return 0;
}
