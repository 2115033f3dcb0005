// Memory-density bench for the memory-governance subsystem: quantifies
// what the arena pool and governor buy and proves they change no answers.
//
// Three phases:
//
//   A. Alloc churn — re-parses every document of an Items collection with
//      the document arena in direct mode (one system allocation per
//      Arena::Allocate, the malloc baseline) and in pooled mode (bump
//      allocation over recycled ArenaPool chunks), counting every global
//      operator new via an override in this TU. Gate: pooled mode does
//      >= 30% fewer allocations per parsed document, round-trip
//      byte-identical. Also reports density: the heap each parsed Item
//      document holds (mallinfo2, pooled mode, every document kept alive)
//      next to the ApproxBytes the parse cache and governor charge for it.
//
//   B. Pressure — deploys the Fig. 7(a) horizontal workload under three
//      per-node budgets (unbounded / generous / tiny) and drives the
//      query set in a hot loop. Reports p50/p99 wall-clock, governor
//      pressure events, peak RSS (VmHWM), and queries-per-GB. Gates:
//      zero failures even under the tiny budget (overload degrades into
//      eviction + re-parse, never OOM), results byte-identical to the
//      unbounded run.
//
//   C. Design identity — horizontal, vertical, and hybrid designs each
//      run their query set with pool+governor on vs off; every composed
//      result must be byte-identical.
//
// Output: table to stdout, BENCH_memory_density.json (+ metrics dumps).
// Exit 0 only if every gate passes. PARTIX_SMOKE=1 shrinks databases and
// loop counts for CI; PARTIX_SCALE/PARTIX_RUNS scale as usual.

// The replacement operators below pair malloc with free; GCC cannot see
// that and flags every inlined delete in this TU as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_out.h"
#include "collection_size.h"
#include "common/strings.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "memory/arena.h"
#include "partix/query_service.h"
#include "telemetry/metrics.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xml/parser.h"
#include "xml/serializer.h"

// ---------------------------------------------------------------------------
// Global allocation counters. Overriding operator new in this TU replaces
// it binary-wide, so every heap allocation the bench (and the library
// under test) makes is counted. Counters are relaxed atomics: the bench
// only reads deltas from quiescent points.
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : 1) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using partix::HumanBytes;
using partix::middleware::ExecutionOptions;

constexpr size_t kFragments = 4;

// Peak resident set (VmHWM) in bytes, from /proc/self/status. 0 when the
// file is unavailable (non-Linux); callers must tolerate that.
size_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t index = static_cast<size_t>(pct * static_cast<double>(samples.size()));
  if (index >= samples.size()) index = samples.size() - 1;
  return samples[index];
}

uint64_t SnapshotCounter(const partix::telemetry::MetricsSnapshot& snapshot,
                         const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// --------------------------- Phase A: alloc churn ---------------------------

struct ChurnResult {
  size_t documents = 0;
  double direct_allocs_per_doc = 0.0;
  double pooled_allocs_per_doc = 0.0;
  double reduction_pct = 0.0;
  bool identical = true;
  bool pass = false;
};

ChurnResult MeasureAllocChurn(const partix::xml::Collection& items) {
  namespace xml = partix::xml;
  ChurnResult out;
  out.documents = items.size();

  std::vector<std::string> serialized;
  serialized.reserve(items.size());
  for (const auto& doc : items.docs()) serialized.push_back(Serialize(*doc));

  // One pass per arena mode. The pooled pass runs second and after a
  // warm-up, so it measures the steady state the pool is for: chunks
  // recycled parse-to-parse instead of fresh system allocations.
  double allocs_per_doc[2] = {0.0, 0.0};
  for (int pooled = 0; pooled < 2; ++pooled) {
    partix::memory::SetDocumentArenaPooling(pooled != 0);
    auto pool = std::make_shared<xml::NamePool>();
    if (pooled) {
      for (const std::string& body : serialized) {
        auto warm = xml::ParseXml(pool, "warm", body);
        if (!warm.ok()) out.identical = false;
      }
    }
    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (size_t d = 0; d < serialized.size(); ++d) {
      auto doc = xml::ParseXml(pool, "doc", serialized[d]);
      if (!doc.ok() || Serialize(**doc) != serialized[d]) {
        out.identical = false;
        continue;
      }
    }
    const uint64_t after = g_allocs.load(std::memory_order_relaxed);
    allocs_per_doc[pooled] = serialized.empty()
                                 ? 0.0
                                 : static_cast<double>(after - before) /
                                       static_cast<double>(serialized.size());
  }
  partix::memory::SetDocumentArenaPooling(true);

  out.direct_allocs_per_doc = allocs_per_doc[0];
  out.pooled_allocs_per_doc = allocs_per_doc[1];
  out.reduction_pct =
      allocs_per_doc[0] > 0.0
          ? 100.0 * (1.0 - allocs_per_doc[1] / allocs_per_doc[0])
          : 0.0;
  out.pass = out.identical && out.reduction_pct >= 30.0;
  return out;
}

// Heap bytes in use by the C allocator, brk and mmap chunks of every
// malloc arena alike.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

struct DensityResult {
  size_t documents = 0;
  double heap_bytes_per_doc = 0.0;    // heap growth while holding them
  double charge_bytes_per_doc = 0.0;  // Document::ApproxBytes
};

DensityResult MeasureDensity(const partix::xml::Collection& items) {
  namespace xml = partix::xml;
  DensityResult out;
  std::vector<std::string> serialized;
  serialized.reserve(items.size());
  for (const auto& doc : items.docs()) serialized.push_back(Serialize(*doc));
  if (serialized.empty()) return out;

  auto pool = std::make_shared<xml::NamePool>();
  // Intern the names first: the pool is shared, not any document's.
  (void)xml::ParseXml(pool, "warm", serialized.front());
  std::vector<xml::DocumentPtr> held;
  held.reserve(serialized.size());
  partix::memory::ArenaPool::Global().Trim();  // every chunk is fresh
  const size_t before = HeapInUse();
  for (const std::string& body : serialized) {
    auto doc = xml::ParseXml(pool, "doc", body);
    if (doc.ok()) held.push_back(*doc);
  }
  const size_t after = HeapInUse();
  size_t charge = 0;
  for (const xml::DocumentPtr& doc : held) charge += doc->ApproxBytes();
  out.documents = held.size();
  if (out.documents == 0) return out;
  const double n = static_cast<double>(out.documents);
  out.heap_bytes_per_doc =
      after > before ? static_cast<double>(after - before) / n : 0.0;
  out.charge_bytes_per_doc = static_cast<double>(charge) / n;
  return out;
}

// ---------------------------- Phase B: pressure -----------------------------

struct PressureResult {
  std::string label;
  size_t budget_bytes = 0;
  size_t queries = 0;
  size_t failures = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t pressure_events = 0;
  size_t peak_rss_bytes = 0;
  double queries_per_gb = 0.0;
  bool identical = true;
};

bool RunPressureSeries(const partix::xml::Collection& items,
                       const partix::frag::FragmentationSchema& schema,
                       const std::vector<partix::workload::QuerySpec>& queries,
                       size_t iterations,
                       std::vector<PressureResult>* results) {
  namespace workload = partix::workload;
  namespace telemetry = partix::telemetry;

  const struct {
    const char* label;
    size_t budget;
  } configs[] = {
      {"unbounded", 0},
      {"generous", size_t{64} << 20},
      {"tiny", size_t{256} << 10},
  };

  // Baseline answers (per query id) come from the unbounded run.
  std::vector<std::string> baseline;

  for (const auto& config : configs) {
    partix::xdb::DatabaseOptions node_options;
    node_options.memory_budget_bytes = config.budget;
    auto deployment = workload::Deployment::Fragmented(
        items, schema, node_options, partix::middleware::NetworkModel());
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy(%s) failed: %s\n", config.label,
                   deployment.status().ToString().c_str());
      return false;
    }

    telemetry::MetricsRegistry::Global().Reset();
    PressureResult row;
    row.label = config.label;
    row.budget_bytes = config.budget;

    ExecutionOptions options;
    std::vector<double> samples;
    samples.reserve(iterations * queries.size());
    for (size_t iter = 0; iter < iterations; ++iter) {
      for (size_t q = 0; q < queries.size(); ++q) {
        auto result =
            (*deployment)->service().Execute(queries[q].text, options);
        ++row.queries;
        if (!result.ok()) {
          ++row.failures;
          std::fprintf(stderr, "%s under %s budget failed: %s\n",
                       queries[q].id.c_str(), config.label,
                       result.status().ToString().c_str());
          continue;
        }
        samples.push_back(result->wall_ms);
        if (iter == 0) {
          if (baseline.size() <= q) {
            baseline.push_back(result->serialized);
          } else if (result->serialized != baseline[q]) {
            row.identical = false;
            std::fprintf(stderr, "MISMATCH: %s differs under %s budget\n",
                         queries[q].id.c_str(), config.label);
          }
        }
      }
    }
    row.p50_ms = Percentile(samples, 0.50);
    row.p99_ms = Percentile(samples, 0.99);
    row.pressure_events =
        SnapshotCounter(telemetry::MetricsRegistry::Global().Snapshot(),
                        "partix_governor_pressure_events_total");
    row.peak_rss_bytes = PeakRssBytes();
    const double gb =
        static_cast<double>(row.peak_rss_bytes) / (1024.0 * 1024.0 * 1024.0);
    row.queries_per_gb =
        gb > 0.0 ? static_cast<double>(row.queries - row.failures) / gb : 0.0;
    results->push_back(std::move(row));
  }
  return true;
}

// ------------------------ Phase C: design identity --------------------------

struct IdentityResult {
  std::string design;
  size_t queries = 0;
  bool identical = true;
};

bool RunIdentitySeries(const partix::xml::Collection& data,
                       const partix::frag::FragmentationSchema& schema,
                       const std::vector<partix::workload::QuerySpec>& queries,
                       const std::string& design,
                       std::vector<IdentityResult>* results) {
  namespace workload = partix::workload;
  IdentityResult row;
  row.design = design;

  // "on": pooled arenas + a real per-node budget. "off": direct arenas,
  // no governor. Answers must not depend on either.
  std::vector<std::string> on_results;
  for (int governed = 1; governed >= 0; --governed) {
    partix::memory::SetDocumentArenaPooling(governed != 0);
    partix::xdb::DatabaseOptions node_options;
    node_options.memory_budget_bytes = governed ? (size_t{8} << 20) : 0;
    auto deployment = workload::Deployment::Fragmented(
        data, schema, node_options, partix::middleware::NetworkModel());
    if (!deployment.ok()) {
      std::fprintf(stderr, "deploy(%s) failed: %s\n", design.c_str(),
                   deployment.status().ToString().c_str());
      partix::memory::SetDocumentArenaPooling(true);
      return false;
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result =
          (*deployment)->service().Execute(queries[q].text, ExecutionOptions());
      if (!result.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", design.c_str(),
                     queries[q].id.c_str(),
                     result.status().ToString().c_str());
        row.identical = false;
        continue;
      }
      if (governed) {
        on_results.push_back(result->serialized);
      } else if (q < on_results.size() &&
                 result->serialized != on_results[q]) {
        row.identical = false;
        std::fprintf(stderr,
                     "MISMATCH: %s %s differs with governance off\n",
                     design.c_str(), queries[q].id.c_str());
      }
      ++row.queries;
    }
  }
  partix::memory::SetDocumentArenaPooling(true);
  results->push_back(std::move(row));
  return true;
}

}  // namespace

int main() {
  using namespace partix;

  const bool smoke = std::getenv("PARTIX_SMOKE") != nullptr;
  const double scale = workload::ScaleFromEnv();
  const uint64_t items_bytes = static_cast<uint64_t>(
      static_cast<double>(uint64_t{smoke ? 1u : 4u} << 19) * scale);
  const size_t iterations = workload::RunsFromEnv(smoke ? 2 : 10);

  telemetry::MetricsRegistry::Global().set_enabled(true);

  gen::ItemsGenOptions gen_options;
  gen_options.seed = 20060109;
  auto items = gen::GenerateItemsBySize(gen_options, items_bytes, nullptr);
  if (!items.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 items.status().ToString().c_str());
    return 1;
  }
  auto horizontal = workload::SectionHorizontalSchema(
      items->name(), gen_options.sections, kFragments);
  if (!horizontal.ok()) {
    std::fprintf(stderr, "schema failed: %s\n",
                 horizontal.status().ToString().c_str());
    return 1;
  }

  gen::XBenchGenOptions article_options;
  article_options.seed = 20060110;
  article_options.target_doc_bytes = smoke ? 64 * 1024 : 256 * 1024;
  auto articles =
      gen::GenerateArticlesBySize(article_options, items_bytes, nullptr);
  if (!articles.ok()) {
    std::fprintf(stderr, "article generation failed: %s\n",
                 articles.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "Memory-density bench%s - %zu documents, %s, "
      "%zu fragments, %zu iterations\n",
      smoke ? " (smoke)" : "", items->size(),
      bench::DescribeSize(*items).c_str(), kFragments, iterations);

  // Phase A. Churn is measured on the article collection: its documents
  // are node-heavy (paper regime: MBs per article), so the parse arena —
  // not fixed per-parse bookkeeping — dominates the allocation count.
  const ChurnResult churn = MeasureAllocChurn(*articles);
  std::printf(
      "\nalloc churn per parsed document:\n"
      "  direct (malloc baseline): %10.1f allocations\n"
      "  pooled (arena pool):      %10.1f allocations\n"
      "  reduction: %.1f%% (gate >= 30%%)  round-trip identical: %s\n",
      churn.direct_allocs_per_doc, churn.pooled_allocs_per_doc,
      churn.reduction_pct, churn.identical ? "yes" : "NO");
  const DensityResult density = MeasureDensity(*items);
  std::printf(
      "density over %zu parsed Item documents (pooled, all held):\n"
      "  heap held:   %10.0f bytes per document\n"
      "  charged:     %10.0f bytes per document (ApproxBytes)\n",
      density.documents, density.heap_bytes_per_doc,
      density.charge_bytes_per_doc);

  // Phase B ------------------------------------------------------------
  const std::vector<workload::QuerySpec> queries =
      workload::HorizontalQueries(items->name());
  std::vector<PressureResult> pressure;
  if (!RunPressureSeries(*items, *horizontal, queries, iterations,
                         &pressure)) {
    return 1;
  }
  std::printf("\n%-10s %12s %8s %8s %9s %9s %9s %12s\n", "budget", "bytes",
              "queries", "failures", "p50 ms", "p99 ms", "pressure",
              "queries/GB");
  for (const PressureResult& row : pressure) {
    std::printf("%-10s %12zu %8zu %8zu %9.3f %9.3f %9llu %12.0f\n",
                row.label.c_str(), row.budget_bytes, row.queries,
                row.failures, row.p50_ms, row.p99_ms,
                static_cast<unsigned long long>(row.pressure_events),
                row.queries_per_gb);
  }

  // Phase C ------------------------------------------------------------
  std::vector<IdentityResult> identity;
  if (!RunIdentitySeries(*items, *horizontal, queries, "horizontal",
                         &identity)) {
    return 1;
  }
  {
    auto schema = workload::ArticleVerticalSchema(articles->name());
    if (!schema.ok() ||
        !RunIdentitySeries(*articles, *schema,
                           workload::VerticalQueries(articles->name()),
                           "vertical", &identity)) {
      return 1;
    }
  }
  {
    gen::StoreGenOptions store_options;
    store_options.seed = 20060111;
    store_options.large_items = true;
    auto store = gen::GenerateStoreBySize(store_options, items_bytes, nullptr);
    auto schema =
        store.ok() ? workload::StoreHybridSchema(
                         store->name(), store_options.sections, kFragments,
                         frag::HybridMode::kSinglePrunedDoc)
                   : Result<frag::FragmentationSchema>(store.status());
    if (!store.ok() || !schema.ok() ||
        !RunIdentitySeries(*store, *schema,
                           workload::HybridQueries(store->name()), "hybrid",
                           &identity)) {
      return 1;
    }
  }
  std::printf("\ndesign identity (governance on vs off):\n");
  for (const IdentityResult& row : identity) {
    std::printf("  %-10s %3zu query runs, byte-identical: %s\n",
                row.design.c_str(), row.queries,
                row.identical ? "yes" : "NO");
  }

  // Pool state ---------------------------------------------------------
  const memory::ArenaPoolStats pool_stats = memory::ArenaPool::Global().stats();
  std::printf(
      "\narena pool: %.1f%% internal fragmentation, %s retained\n"
      "  chunks created/reused/recycled/freed: %llu/%llu/%llu/%llu\n",
      pool_stats.fragmentation_pct(),
      HumanBytes(pool_stats.retained_bytes).c_str(),
      static_cast<unsigned long long>(pool_stats.chunks_created),
      static_cast<unsigned long long>(pool_stats.chunks_reused),
      static_cast<unsigned long long>(pool_stats.chunks_recycled),
      static_cast<unsigned long long>(pool_stats.chunks_freed));

  // Gates --------------------------------------------------------------
  bool pass = churn.pass;
  for (const PressureResult& row : pressure) {
    if (row.failures != 0 || !row.identical) pass = false;
  }
  for (const IdentityResult& row : identity) {
    if (!row.identical) pass = false;
  }
  std::printf("\nGATES: churn %s, pressure %s, identity %s -> %s\n",
              churn.pass ? "ok" : "FAIL",
              std::all_of(pressure.begin(), pressure.end(),
                          [](const PressureResult& r) {
                            return r.failures == 0 && r.identical;
                          })
                  ? "ok"
                  : "FAIL",
              std::all_of(identity.begin(), identity.end(),
                          [](const IdentityResult& r) { return r.identical; })
                  ? "ok"
                  : "FAIL",
              pass ? "PASS" : "FAIL");

  // JSON ---------------------------------------------------------------
  std::string json;
  char buffer[512];
  json += "{\n  \"bench\": \"memory_density\",\n";
  std::snprintf(buffer, sizeof(buffer),
                "  \"smoke\": %s,\n  \"documents\": %zu,\n"
                "  \"iterations\": %zu,\n",
                smoke ? "true" : "false", items->size(), iterations);
  json += buffer;
  std::snprintf(
      buffer, sizeof(buffer),
      "  \"alloc_churn\": { \"direct_allocs_per_doc\": %.1f, "
      "\"pooled_allocs_per_doc\": %.1f, \"reduction_pct\": %.1f, "
      "\"identical\": %s, \"pass\": %s },\n",
      churn.direct_allocs_per_doc, churn.pooled_allocs_per_doc,
      churn.reduction_pct, churn.identical ? "true" : "false",
      churn.pass ? "true" : "false");
  json += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  \"density\": { \"documents\": %zu, "
                "\"heap_bytes_per_doc\": %.0f, "
                "\"charge_bytes_per_doc\": %.0f },\n",
                density.documents, density.heap_bytes_per_doc,
                density.charge_bytes_per_doc);
  json += buffer;
  json += "  \"pressure\": [\n";
  for (size_t i = 0; i < pressure.size(); ++i) {
    const PressureResult& row = pressure[i];
    std::snprintf(
        buffer, sizeof(buffer),
        "    { \"budget\": \"%s\", \"budget_bytes\": %zu, "
        "\"queries\": %zu, \"failures\": %zu, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"pressure_events\": %llu, "
        "\"peak_rss_bytes\": %zu, \"queries_per_gb\": %.0f, "
        "\"identical\": %s }%s\n",
        row.label.c_str(), row.budget_bytes, row.queries, row.failures,
        row.p50_ms, row.p99_ms,
        static_cast<unsigned long long>(row.pressure_events),
        row.peak_rss_bytes, row.queries_per_gb,
        row.identical ? "true" : "false",
        i + 1 < pressure.size() ? "," : "");
    json += buffer;
  }
  json += "  ],\n  \"design_identity\": [\n";
  for (size_t i = 0; i < identity.size(); ++i) {
    const IdentityResult& row = identity[i];
    std::snprintf(buffer, sizeof(buffer),
                  "    { \"design\": \"%s\", \"queries\": %zu, "
                  "\"identical\": %s }%s\n",
                  row.design.c_str(), row.queries,
                  row.identical ? "true" : "false",
                  i + 1 < identity.size() ? "," : "");
    json += buffer;
  }
  json += "  ],\n";
  std::snprintf(
      buffer, sizeof(buffer),
      "  \"pool\": { \"fragmentation_pct\": %.1f, \"retained_bytes\": %zu, "
      "\"chunks_created\": %llu, \"chunks_reused\": %llu, "
      "\"chunks_recycled\": %llu, \"chunks_freed\": %llu },\n"
      "  \"total_allocations\": %llu,\n  \"pass\": %s\n}\n",
      pool_stats.fragmentation_pct(), pool_stats.retained_bytes,
      static_cast<unsigned long long>(pool_stats.chunks_created),
      static_cast<unsigned long long>(pool_stats.chunks_reused),
      static_cast<unsigned long long>(pool_stats.chunks_recycled),
      static_cast<unsigned long long>(pool_stats.chunks_freed),
      static_cast<unsigned long long>(g_allocs.load(std::memory_order_relaxed)),
      pass ? "true" : "false");
  json += buffer;

  std::printf("\n");
  if (!bench::WriteBenchFile("BENCH_memory_density.json", json)) return 1;
  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  if (!bench::WriteBenchFile("BENCH_memory_density_metrics.json",
                             snapshot.ToJson()) ||
      !bench::WriteBenchFile("BENCH_memory_density_metrics.prom",
                             snapshot.ToPrometheus())) {
    return 1;
  }
  return pass ? 0 : 1;
}
