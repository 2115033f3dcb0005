#ifndef PARTIX_BENCH_HORIZONTAL_COMMON_H_
#define PARTIX_BENCH_HORIZONTAL_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "collection_size.h"
#include "gen/virtual_store.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace partix::bench {

/// Shared driver for the Fig. 7(a)/7(b) horizontal experiments: generates
/// the Citems database at `target_bytes`, deploys it centralized and with
/// 2/4/8 fragments, runs the 8-query horizontal workload on each
/// deployment, and prints the response-time table.
inline int RunHorizontalExperiment(const std::string& title,
                                   gen::ItemsGenOptions gen_options,
                                   uint64_t target_bytes) {
  const double scale = workload::ScaleFromEnv();
  target_bytes = static_cast<uint64_t>(target_bytes * scale);

  auto items =
      gen::GenerateItemsBySize(gen_options, target_bytes, nullptr);
  if (!items.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 items.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\ndatabase: %zu documents, %s\n", title.c_str(),
              items->size(), DescribeSize(*items, /*charged=*/true).c_str());

  const std::vector<workload::QuerySpec> queries =
      workload::HorizontalQueries(items->name());
  workload::MeasureOptions measure;
  measure.runs = workload::RunsFromEnv(3);

  xdb::DatabaseOptions node_options;
  // The paper's regime: the centralized database does not fit the node's
  // working memory, while individual fragments do — the source of its
  // superlinear speedups. Scale the parse cache with what the cache
  // charges for the parsed database, not with its serialized size.
  node_options.cache_capacity_bytes = std::max<uint64_t>(
      uint64_t{1} << 20, items->ApproxBytes() / 6);
  middleware::NetworkModel network;

  std::vector<std::string> series_names = {"centralized"};
  std::vector<std::vector<workload::Measurement>> series;

  auto central =
      workload::Deployment::Centralized(*items, node_options, network);
  if (!central.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 central.status().ToString().c_str());
    return 1;
  }
  std::vector<workload::Measurement> central_row;
  for (const workload::QuerySpec& q : queries) {
    auto m = workload::Measure(central->get(), q, measure);
    if (!m.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", q.id.c_str(),
                   m.status().ToString().c_str());
      return 1;
    }
    central_row.push_back(*m);
  }
  series.push_back(std::move(central_row));

  for (size_t fragments : {size_t{2}, size_t{4}, size_t{8}}) {
    auto schema = workload::SectionHorizontalSchema(
        items->name(), gen_options.sections, fragments);
    if (!schema.ok()) {
      std::fprintf(stderr, "schema failed: %s\n",
                   schema.status().ToString().c_str());
      return 1;
    }
    auto deployment = workload::Deployment::Fragmented(
        *items, *schema, node_options, network);
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   deployment.status().ToString().c_str());
      return 1;
    }
    std::vector<workload::Measurement> row;
    for (const workload::QuerySpec& q : queries) {
      auto m = workload::Measure(deployment->get(), q, measure);
      if (!m.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", q.id.c_str(),
                     m.status().ToString().c_str());
        return 1;
      }
      row.push_back(*m);
    }
    series_names.push_back(std::to_string(fragments) + " fragments");
    series.push_back(std::move(row));
  }

  workload::PrintTable(title, series_names, series, queries);
  std::printf("\nqueries:\n");
  for (const workload::QuerySpec& q : queries) {
    std::printf("  %-4s %s\n", q.id.c_str(), q.description.c_str());
  }
  return 0;
}

}  // namespace partix::bench

#endif  // PARTIX_BENCH_HORIZONTAL_COMMON_H_
