// Ablation bench for the design choices DESIGN.md calls out:
//
//   1. data localization on/off — execute the localized horizontal
//      workload once with normal decomposition and once with a plan that
//      ships every sub-query to every fragment;
//   2. value index on/off — the "modern engine" extension vs. the
//      paper-faithful configuration (eXist had no value indexes);
//   3. contains() acceleration on/off — eXist's fn:contains was a plain
//      substring scan; the text index can short-circuit it.
//
// (The parse-cache ablation lives in micro_engine; the transmission-model
// ablation is the ±T series of fig7d.)

#include <algorithm>
#include <cstdio>

#include "common/strings.h"
#include "gen/virtual_store.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

using namespace partix;  // bench binary: brevity over style here

namespace {

/// Measures one query text on a deployment with the standard protocol.
double MeasureMs(workload::Deployment* deployment, const std::string& id,
                 const std::string& text, size_t runs) {
  workload::QuerySpec spec{id, "", text};
  workload::MeasureOptions options;
  options.runs = runs;
  auto m = workload::Measure(deployment, spec, options);
  if (!m.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", id.c_str(),
                 m.status().ToString().c_str());
    return -1.0;
  }
  return m->response_ms;
}

}  // namespace

int main() {
  const double scale = workload::ScaleFromEnv();
  const uint64_t target = static_cast<uint64_t>((uint64_t{8} << 20) * scale);
  const size_t runs = workload::RunsFromEnv(3);

  gen::ItemsGenOptions gen_options;
  gen_options.seed = 20060107;
  auto items = gen::GenerateItemsBySize(gen_options, target, nullptr);
  if (!items.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  std::printf("Ablations - ItemsSHor (%zu documents, %s)\n", items->size(),
              HumanBytes(items->ApproxBytes()).c_str());

  middleware::NetworkModel network;
  xdb::DatabaseOptions faithful;
  faithful.cache_capacity_bytes = std::max<uint64_t>(1 << 20, target / 6);

  auto schema = workload::SectionHorizontalSchema(
      items->name(), gen_options.sections, 8);
  if (!schema.ok()) {
    std::fprintf(stderr, "schema failed\n");
    return 1;
  }

  // ---- 1. Data localization ----
  {
    auto deployment = workload::Deployment::Fragmented(*items, *schema,
                                                       faithful, network);
    if (!deployment.ok()) return 1;
    const std::string query =
        "for $i in collection(\"items\")/Item "
        "where $i/Section = \"DVD\" return $i/Code";
    double with_localization =
        MeasureMs(deployment->get(), "localized", query, runs);

    // Without localization: hand-build a plan shipping the sub-query to
    // every fragment (the paper's prototype mode with naive placement).
    middleware::DistributedPlan plan;
    plan.collection = items->name();
    plan.original_query = query;
    plan.composition = middleware::Composition::kUnion;
    for (size_t f = 0; f < schema->fragments.size(); ++f) {
      std::string text = query;
      const std::string needle = "\"" + items->name() + "\"";
      size_t pos = text.find(needle);
      text.replace(pos, needle.size(),
                   "\"" + schema->fragments[f].name() + "\"");
      plan.subqueries.push_back(
          middleware::SubQuery{.fragment = schema->fragments[f].name(),
                               .node = f,
                               .query = std::move(text)});
    }
    double sum = 0.0;
    size_t counted = 0;
    for (size_t run = 0; run < runs; ++run) {
      auto result = deployment->get()->service().ExecutePlan(plan);
      if (!result.ok()) return 1;
      if (run == 0 && runs > 1) continue;
      sum += result->response_ms;
      ++counted;
    }
    double without_localization = sum / std::max<size_t>(1, counted);
    std::printf(
        "\n[1] data localization (selective query, 8 fragments)\n"
        "    with localization    %9.2f ms (1 sub-query)\n"
        "    without localization %9.2f ms (8 sub-queries)  -> %.1fx\n",
        with_localization, without_localization,
        without_localization / with_localization);
  }

  // ---- 2. Value index ----
  {
    xdb::DatabaseOptions modern = faithful;
    modern.enable_value_index = true;
    const std::string query =
        "count(collection(\"items\")/Item[Section = \"DVD\"])";
    auto plain =
        workload::Deployment::Centralized(*items, faithful, network);
    auto indexed =
        workload::Deployment::Centralized(*items, modern, network);
    if (!plain.ok() || !indexed.ok()) return 1;
    double scan = MeasureMs(plain->get(), "scan", query, runs);
    double probe = MeasureMs(indexed->get(), "probe", query, runs);
    std::printf(
        "\n[2] value index (equality count, centralized)\n"
        "    paper-faithful (no value index) %9.2f ms\n"
        "    value index enabled             %9.2f ms  -> %.1fx\n",
        scan, probe, scan / probe);
  }

  // ---- 3. contains() acceleration ----
  {
    xdb::DatabaseOptions modern = faithful;
    modern.text_index_accelerates_contains = true;
    const std::string query =
        "count(for $i in collection(\"items\")/Item "
        "where contains($i/Description, \"good\") return $i)";
    auto plain =
        workload::Deployment::Centralized(*items, faithful, network);
    auto indexed =
        workload::Deployment::Centralized(*items, modern, network);
    if (!plain.ok() || !indexed.ok()) return 1;
    double scan = MeasureMs(plain->get(), "scan", query, runs);
    double probe = MeasureMs(indexed->get(), "probe", query, runs);
    std::printf(
        "\n[3] contains() acceleration (text search, centralized)\n"
        "    substring scan (eXist-faithful) %9.2f ms\n"
        "    text-index assisted             %9.2f ms  -> %.1fx\n",
        scan, probe, scan / probe);
  }
  return 0;
}
