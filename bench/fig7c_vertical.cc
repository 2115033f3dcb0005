// Reproduces paper Fig. 7(c): query response times on database XBenchVer
// (article documents), vertically fragmented into
//   F1 := π(/article/prolog), F2 := π(/article/body),
//   F3 := π(/article/epilog),
// versus the centralized database.
//
// Shapes to reproduce: queries confined to a single fragment (Q1, Q2, Q3,
// Q5, Q6, Q10) benefit — they scan one projection instead of whole
// articles — while multi-fragment queries (Q4, Q7, Q8, Q9) pay the
// middleware join and can lose to centralized execution.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "collection_size.h"
#include "gen/xbench.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

using namespace partix;  // bench binary: brevity over style here

int main() {
  const double scale = workload::ScaleFromEnv();
  gen::XBenchGenOptions options;
  options.seed = 20060103;
  options.target_doc_bytes =
      static_cast<uint64_t>(192.0 * 1024 * scale);  // paper: 5-15MB docs
  auto articles = gen::GenerateArticlesBySize(
      options, static_cast<uint64_t>((uint64_t{8} << 20) * scale), nullptr);
  if (!articles.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 articles.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "Fig 7(c) - XBenchVer, vertical fragmentation "
      "(prolog/body/epilog)\ndatabase: %zu articles, %s\n",
      articles->size(), bench::DescribeSize(*articles).c_str());

  const std::vector<workload::QuerySpec> queries =
      workload::VerticalQueries(articles->name());
  workload::MeasureOptions measure;
  measure.runs = workload::RunsFromEnv(3);

  xdb::DatabaseOptions node_options;
  // The paper's memory regime: the centralized database exceeds the parse
  // cache; fragments fit (see EXPERIMENTS.md).
  node_options.cache_capacity_bytes =
      std::max<uint64_t>(uint64_t{1} << 20, static_cast<uint64_t>((uint64_t{8} << 20) * scale) / 3);
  middleware::NetworkModel network;

  auto central =
      workload::Deployment::Centralized(*articles, node_options, network);
  auto schema = workload::ArticleVerticalSchema(articles->name());
  if (!central.ok() || !schema.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  auto fragmented = workload::Deployment::Fragmented(
      *articles, *schema, node_options, network);
  if (!fragmented.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 fragmented.status().ToString().c_str());
    return 1;
  }

  std::vector<std::vector<workload::Measurement>> series(2);
  for (const workload::QuerySpec& q : queries) {
    auto mc = workload::Measure(central->get(), q, measure);
    auto mf = workload::Measure(fragmented->get(), q, measure);
    if (!mc.ok() || !mf.ok()) {
      std::fprintf(stderr, "%s failed: %s %s\n", q.id.c_str(),
                   mc.status().ToString().c_str(),
                   mf.status().ToString().c_str());
      return 1;
    }
    series[0].push_back(*mc);
    series[1].push_back(*mf);
  }
  workload::PrintTable(
      "Fig 7(c) - vertical fragmentation (prolog/body/epilog)",
      {"centralized", "3 vertical frags"}, series, queries);
  // The modeled response splits into slowest node + compose +
  // transmission: which part dominates says why a join query loses.
  std::printf("\nper-query routing and response split (fragmented "
              "deployment):\n");
  for (size_t q = 0; q < queries.size(); ++q) {
    const workload::Measurement& m = series[1][q];
    std::printf(
        "  %-4s sub-queries=%zu  node %8.2f ms  compose %8.2f ms  "
        "transmission %8.2f ms%s\n",
        queries[q].id.c_str(), m.subqueries, m.slowest_node_ms,
        m.composition_ms, m.transmission_ms,
        m.composition_ms > m.slowest_node_ms ? "  (join-dominated)" : "");
  }
  std::printf("\nqueries:\n");
  for (const workload::QuerySpec& q : queries) {
    std::printf("  %-4s %s\n", q.id.c_str(), q.description.c_str());
  }
  return 0;
}
