// Structural labeling index bench (see docs/structural-index.md).
//
// Two comparisons, both against the paper's Fig. 7(c) vertical setting —
// the Q8/Q9 negative result where reconstruction dominates:
//
//   1. Query evaluation: the vertical workload over a fragmented
//      deployment with DatabaseOptions::enable_structural_index on vs
//      off. "On" answers descendant/child steps with sorted label-range
//      scans; "off" is the navigational baseline. Results must be
//      byte-identical.
//
//   2. Reconstruction: JoinFragments (label merge over origin preorder
//      ids) vs JoinFragmentsValueJoin (the id-keyed map the paper's
//      vertical composition degenerates into), rebuilding every source
//      article from its vertical fragments. Outputs must be
//      byte-identical.
//
// Output: stdout tables plus BENCH_structural_join.json in bench-out/.
// Env knobs: PARTIX_SCALE (database size multiplier), PARTIX_RUNS
// (hot-loop repetitions), PARTIX_SMOKE=1 (tiny quick run).
// Exits non-zero on any byte mismatch.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_out.h"
#include "collection_size.h"
#include "common/strings.h"
#include "engine/database.h"
#include "fragmentation/algebra.h"
#include "fragmentation/fragmenter.h"
#include "gen/xbench.h"
#include "telemetry/metrics.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xml/serializer.h"

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                   start)
      .count();
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

struct QueryCell {
  std::string id;
  double on_ms = 0.0;    // structural index enabled
  double off_ms = 0.0;   // navigational baseline
  uint64_t range_scans = 0;
  uint64_t range_hits = 0;
  bool identical = true;
};

}  // namespace

int main() {
  using namespace partix;

  const bool smoke = [] {
    const char* env = std::getenv("PARTIX_SMOKE");
    return env != nullptr && env[0] == '1';
  }();
  const double scale = workload::ScaleFromEnv();
  const size_t runs = workload::RunsFromEnv(smoke ? 2 : 5);

  gen::XBenchGenOptions gen_options;
  gen_options.seed = 20060106;
  gen_options.doc_count = smoke ? 4 : 12;
  gen_options.target_doc_bytes = static_cast<uint64_t>(
      (smoke ? 20 * 1024 : 160 * 1024) * (scale > 0 ? scale : 1.0));
  auto articles = gen::GenerateArticles(gen_options, nullptr);
  if (!articles.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 articles.status().ToString().c_str());
    return 1;
  }
  auto schema = workload::ArticleVerticalSchema(articles->name());
  if (!schema.ok()) {
    std::fprintf(stderr, "schema failed: %s\n",
                 schema.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "Structural-join bench - vertical design, %zu fragments\n"
      "database: %zu articles, %s, %zu run(s)\n\n",
      schema->fragments.size(), articles->size(),
      bench::DescribeSize(*articles).c_str(), runs);

  telemetry::MetricsRegistry::Global().set_enabled(true);
  telemetry::MetricsRegistry::Global().Reset();

  // ---- Part 1: index-backed vs navigational query evaluation ----------

  xdb::DatabaseOptions with_index;
  with_index.enable_structural_index = true;
  xdb::DatabaseOptions without_index;
  without_index.enable_structural_index = false;

  auto indexed = workload::Deployment::Fragmented(
      *articles, *schema, with_index, middleware::NetworkModel());
  auto navigational = workload::Deployment::Fragmented(
      *articles, *schema, without_index, middleware::NetworkModel());
  if (!indexed.ok() || !navigational.ok()) {
    std::fprintf(stderr, "deploy failed\n");
    return 1;
  }

  bool all_identical = true;
  std::vector<QueryCell> cells;
  for (const workload::QuerySpec& q :
       workload::VerticalQueries(articles->name())) {
    QueryCell cell;
    cell.id = q.id;
    std::string on_bytes;
    std::string off_bytes;
    for (size_t run = 0; run <= runs; ++run) {
      auto start = SteadyClock::now();
      auto on = (*indexed)->service().Execute(q.text);
      const double on_ms = MsSince(start);
      start = SteadyClock::now();
      auto off = (*navigational)->service().Execute(q.text);
      const double off_ms = MsSince(start);
      if (!on.ok() || !off.ok()) {
        std::fprintf(stderr, "%s failed: %s / %s\n", q.id.c_str(),
                     on.status().ToString().c_str(),
                     off.status().ToString().c_str());
        return 1;
      }
      if (run == 0) {  // warm-up primes store caches on both sides
        on_bytes = on->serialized;
        off_bytes = off->serialized;
        continue;
      }
      cell.on_ms += on_ms;
      cell.off_ms += off_ms;
    }
    cell.on_ms /= static_cast<double>(runs);
    cell.off_ms /= static_cast<double>(runs);
    cell.identical = on_bytes == off_bytes;
    if (!cell.identical) {
      all_identical = false;
      std::fprintf(stderr, "MISMATCH: %s differs with index on vs off\n",
                   q.id.c_str());
    }
    cells.push_back(cell);
  }

  std::printf("%-5s  %12s  %12s  %8s  %s\n", "query", "index on",
              "index off", "speedup", "identical");
  double on_total = 0.0;
  double off_total = 0.0;
  for (const QueryCell& cell : cells) {
    on_total += cell.on_ms;
    off_total += cell.off_ms;
    std::printf("%-5s  %9.3f ms  %9.3f ms  %7.2fx  %s\n", cell.id.c_str(),
                cell.on_ms, cell.off_ms,
                cell.on_ms > 0 ? cell.off_ms / cell.on_ms : 0.0,
                cell.identical ? "yes" : "NO");
  }
  const double query_speedup = on_total > 0 ? off_total / on_total : 0.0;
  std::printf("total  %9.3f ms  %9.3f ms  %7.2fx\n\n", on_total, off_total,
              query_speedup);

  // ---- Part 1b: engine-level axis steps, index on vs off --------------
  //
  // The middleware rows above fold decomposition, the network model and
  // composition into every measurement; this part isolates the axis join
  // itself: one engine holding every article, descendant-heavy queries,
  // hot loop. "On" answers the descendant step from the document's sorted
  // name-occurrence list; "off" walks the whole subtree.

  struct EngineCell {
    std::string text;
    double on_ms = 0.0;
    double off_ms = 0.0;
    bool identical = true;
  };
  std::vector<EngineCell> engine_cells;
  {
    const std::string c = articles->name();
    const std::vector<std::string> engine_queries = {
        "count(collection(\"" + c + "\")//paragraph)",
        "collection(\"" + c + "\")//author/name",
        "count(collection(\"" + c + "\")//section/heading)",
        "count(collection(\"" + c + "\")/article/body/section)",
    };
    xdb::Database on_db(with_index);
    xdb::Database off_db(without_index);
    if (!on_db.StoreCollection(*articles).ok() ||
        !off_db.StoreCollection(*articles).ok()) {
      std::fprintf(stderr, "engine store failed\n");
      return 1;
    }
    for (const std::string& text : engine_queries) {
      EngineCell cell;
      cell.text = text;
      std::string on_bytes;
      std::string off_bytes;
      for (size_t run = 0; run <= runs; ++run) {
        auto start = SteadyClock::now();
        auto on = on_db.Execute(text);
        const double on_ms = MsSince(start);
        start = SteadyClock::now();
        auto off = off_db.Execute(text);
        const double off_ms = MsSince(start);
        if (!on.ok() || !off.ok()) {
          std::fprintf(stderr, "engine query failed: %s\n", text.c_str());
          return 1;
        }
        if (run == 0) {
          on_bytes = on->serialized;
          off_bytes = off->serialized;
          continue;
        }
        cell.on_ms += on_ms;
        cell.off_ms += off_ms;
      }
      cell.on_ms /= static_cast<double>(runs);
      cell.off_ms /= static_cast<double>(runs);
      cell.identical = on_bytes == off_bytes;
      if (!cell.identical) {
        all_identical = false;
        std::fprintf(stderr, "MISMATCH: engine query %s\n", text.c_str());
      }
      engine_cells.push_back(cell);
    }
  }
  std::printf("engine-level axis steps (one node, whole collection):\n");
  double engine_on_total = 0.0;
  double engine_off_total = 0.0;
  for (const EngineCell& cell : engine_cells) {
    engine_on_total += cell.on_ms;
    engine_off_total += cell.off_ms;
    std::printf("  %-52s  %8.3f ms  %8.3f ms  %6.2fx  %s\n",
                cell.text.c_str(), cell.on_ms, cell.off_ms,
                cell.on_ms > 0 ? cell.off_ms / cell.on_ms : 0.0,
                cell.identical ? "yes" : "NO");
  }
  const double engine_speedup =
      engine_on_total > 0 ? engine_off_total / engine_on_total : 0.0;
  std::printf("  total %60.3f ms  %8.3f ms  %6.2fx\n\n", engine_on_total,
              engine_off_total, engine_speedup);

  // ---- Part 2: label-merge vs value-join reconstruction ---------------

  auto fragments = frag::ApplyFragmentation(*articles, *schema);
  if (!fragments.ok()) {
    std::fprintf(stderr, "fragmentation failed: %s\n",
                 fragments.status().ToString().c_str());
    return 1;
  }
  // Group the fragment documents by source article, as ReconstructVertical
  // does, so the two join implementations see identical inputs.
  std::map<std::string, std::vector<xml::DocumentPtr>> groups;
  for (const xml::Collection& fragment : *fragments) {
    for (const xml::DocumentPtr& doc : fragment.docs()) {
      groups[doc->origin_doc()].push_back(doc);
    }
  }
  auto pool = articles->docs()[0]->pool();

  double merge_ms = 0.0;
  double join_ms = 0.0;
  bool joins_identical = true;
  for (size_t run = 0; run < runs; ++run) {
    std::vector<std::string> merge_bytes;
    auto start = SteadyClock::now();
    for (const auto& [source, docs] : groups) {
      auto rebuilt = frag::JoinFragments(docs, pool);
      if (!rebuilt.ok()) {
        std::fprintf(stderr, "label merge failed: %s\n",
                     rebuilt.status().ToString().c_str());
        return 1;
      }
      merge_bytes.push_back(xml::Serialize(**rebuilt));
    }
    merge_ms += MsSince(start);

    std::vector<std::string> join_bytes;
    start = SteadyClock::now();
    for (const auto& [source, docs] : groups) {
      auto rebuilt = frag::JoinFragmentsValueJoin(docs, pool);
      if (!rebuilt.ok()) {
        std::fprintf(stderr, "value join failed: %s\n",
                     rebuilt.status().ToString().c_str());
        return 1;
      }
      join_bytes.push_back(xml::Serialize(**rebuilt));
    }
    join_ms += MsSince(start);

    if (merge_bytes != join_bytes) {
      joins_identical = false;
      all_identical = false;
      std::fprintf(stderr,
                   "MISMATCH: label merge and value join diverge\n");
    }
  }
  merge_ms /= static_cast<double>(runs);
  join_ms /= static_cast<double>(runs);
  const double join_speedup = merge_ms > 0 ? join_ms / merge_ms : 0.0;

  std::printf("reconstruction of %zu article(s) from %zu fragment(s):\n",
              groups.size(), schema->fragments.size());
  std::printf("  label merge  %9.3f ms\n  value join   %9.3f ms\n"
              "  speedup      %8.2fx   identical: %s\n\n",
              merge_ms, join_ms, join_speedup,
              joins_identical ? "yes" : "NO");

  // ---- JSON artifact --------------------------------------------------

  std::string json;
  json += "{\n  \"bench\": \"structural_join\",\n";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "  \"articles\": %zu,\n  \"fragments\": %zu,\n"
                "  \"runs\": %zu,\n  \"queries\": [\n",
                articles->size(), schema->fragments.size(), runs);
  json += buffer;
  for (size_t i = 0; i < cells.size(); ++i) {
    const QueryCell& cell = cells[i];
    std::snprintf(buffer, sizeof(buffer),
                  "    { \"id\": \"%s\", \"index_on_ms\": %.3f, "
                  "\"index_off_ms\": %.3f, \"identical\": %s }%s\n",
                  cell.id.c_str(), cell.on_ms, cell.off_ms,
                  cell.identical ? "true" : "false",
                  i + 1 < cells.size() ? "," : "");
    json += buffer;
  }
  json += "  ],\n  \"engine_queries\": [\n";
  for (size_t i = 0; i < engine_cells.size(); ++i) {
    const EngineCell& cell = engine_cells[i];
    std::snprintf(buffer, sizeof(buffer),
                  "    { \"query\": \"%s\", \"index_on_ms\": %.3f, "
                  "\"index_off_ms\": %.3f, \"identical\": %s }%s\n",
                  EscapeJson(cell.text).c_str(), cell.on_ms, cell.off_ms,
                  cell.identical ? "true" : "false",
                  i + 1 < engine_cells.size() ? "," : "");
    json += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "  ],\n  \"query_speedup\": %.3f,\n"
                "  \"engine_step_speedup\": %.3f,\n"
                "  \"label_merge_ms\": %.3f,\n  \"value_join_ms\": %.3f,\n"
                "  \"reconstruction_speedup\": %.3f,\n"
                "  \"identical\": %s\n}\n",
                query_speedup, engine_speedup, merge_ms, join_ms,
                join_speedup, all_identical ? "true" : "false");
  json += buffer;
  if (!bench::WriteBenchFile("BENCH_structural_join.json", json)) return 1;

  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  std::printf("\nkey counters:\n");
  for (const char* name : {"partix_structural_index_probes_total",
                           "partix_structural_index_hits_total"}) {
    auto it = snapshot.counters.find(name);
    std::printf("  %-42s %llu\n", name,
                it == snapshot.counters.end()
                    ? 0ull
                    : static_cast<unsigned long long>(it->second));
  }
  return all_identical ? 0 : 1;
}
