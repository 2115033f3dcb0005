// Compile-once pipeline tests (see docs/query-compilation.md):
//
//   - CompiledQuery: one parse, collection discovery, FromAst reuse
//   - engine plan cache: hit/miss/eviction accounting, DDL invalidation,
//     capacity-0 ablation, parse failures never cached
//   - prepared-vs-ad-hoc differential: byte-identical answers over every
//     workload query under every fragmentation design, the ad-hoc plan
//     compiled at ExecutePlan entry
//   - executor: one Prepare per (sub-query, node), reused across
//     fault-injected retries
//   - parse-once contract: a middleware execution parses on the
//     coordinator thread exactly once
//   - first-block capacity hint: one plan drained while its answer grows
//     and shrinks, and from four threads at once, equals ExecutePrepared
//   - concurrency: parallel Prepare/ExecutePreparedStream through a
//     LocalXdbDriver (exercised under TSan by scripts/check.sh)

#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "partix/stream.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xquery/compiled_query.h"
#include "xquery/parser.h"

namespace partix {
namespace {

constexpr const char* kCountQuery = "count(collection(\"items\")/Item)";
constexpr const char* kScanQuery =
    "for $i in collection(\"items\")/Item "
    "where $i/Section = \"CD\" return $i/Code";

// --- CompiledQuery -------------------------------------------------------

TEST(CompiledQueryTest, CompileCollectsReferencedCollections) {
  auto compiled = xquery::CompiledQuery::Compile(kScanQuery);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ((*compiled)->text(), kScanQuery);
  ASSERT_EQ((*compiled)->collections().size(), 1u);
  EXPECT_EQ((*compiled)->collections()[0], "items");
  EXPECT_FALSE((*compiled)->has_dynamic_collections());
}

TEST(CompiledQueryTest, CompileRejectsMalformedQuery) {
  EXPECT_FALSE(xquery::CompiledQuery::Compile("for $x in").ok());
}

TEST(CompiledQueryTest, CompileParsesExactlyOnce) {
  const uint64_t before = xquery::ThreadParseCount();
  ASSERT_TRUE(xquery::CompiledQuery::Compile(kCountQuery).ok());
  EXPECT_EQ(xquery::ThreadParseCount() - before, 1u);
}

TEST(CompiledQueryTest, FromAstPaysNoParse) {
  auto compiled = xquery::CompiledQuery::Compile(kCountQuery);
  ASSERT_TRUE(compiled.ok());
  auto ast = xquery::CloneExpr((*compiled)->ast());
  const uint64_t before = xquery::ThreadParseCount();
  auto reused = xquery::CompiledQuery::FromAst(kCountQuery, std::move(ast));
  EXPECT_EQ(xquery::ThreadParseCount(), before);
  ASSERT_NE(reused, nullptr);
  EXPECT_EQ(reused->compile_ms(), 0.0);
  ASSERT_EQ(reused->collections().size(), 1u);
  EXPECT_EQ(reused->collections()[0], "items");
}

// --- engine plan cache ---------------------------------------------------

class PlanCacheDbTest : public ::testing::Test {
 protected:
  static xdb::DatabaseOptions Options(size_t capacity) {
    xdb::DatabaseOptions options;
    options.plan_cache_capacity = capacity;
    return options;
  }

  explicit PlanCacheDbTest(size_t capacity = 128) : db_(Options(capacity)) {
    EXPECT_TRUE(db_.CreateCollection("items").ok());
    EXPECT_TRUE(
        db_.StoreSerialized(
               "items", "d0",
               "<Item><Code>1</Code><Section>CD</Section></Item>")
            .ok());
    EXPECT_TRUE(
        db_.StoreSerialized(
               "items", "d1",
               "<Item><Code>2</Code><Section>DVD</Section></Item>")
            .ok());
  }

  xdb::Database db_;
};

TEST_F(PlanCacheDbTest, PrepareMissesThenHits) {
  auto first = db_.Prepare(kCountQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit);
  ASSERT_NE(first->plan, nullptr);

  auto second = db_.Prepare(kCountQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->compile_ms, 0.0);
  // Same shared plan object, not a recompilation.
  EXPECT_EQ(second->plan.get(), first->plan.get());

  EXPECT_EQ(db_.plan_cache_stats().hits, 1u);
  EXPECT_EQ(db_.plan_cache_stats().misses, 1u);
  EXPECT_EQ(db_.plan_cache_size(), 1u);
}

TEST_F(PlanCacheDbTest, ExecuteReportsCacheAccounting) {
  auto cold = db_.Execute(kCountQuery);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->metrics.plan_cache_misses, 1u);
  EXPECT_EQ(cold->metrics.plan_cache_hits, 0u);

  auto warm = db_.Execute(kCountQuery);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->metrics.plan_cache_hits, 1u);
  EXPECT_EQ(warm->metrics.plan_cache_misses, 0u);
  // The hit skipped parse + analysis entirely.
  EXPECT_EQ(warm->metrics.compile_ms, 0.0);
  EXPECT_EQ(warm->serialized, cold->serialized);
}

TEST_F(PlanCacheDbTest, PreparedReexecutionSkipsParsing) {
  auto prepared = db_.Prepare(kScanQuery);
  ASSERT_TRUE(prepared.ok());
  const uint64_t before = xquery::ThreadParseCount();
  for (int i = 0; i < 3; ++i) {
    auto result = db_.ExecutePrepared(*prepared->plan);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->serialized, "<Code>1</Code>");
  }
  EXPECT_EQ(xquery::ThreadParseCount(), before);
}

TEST_F(PlanCacheDbTest, DdlInvalidatesCache) {
  // The fixture's own CreateCollection calls already counted some.
  const uint64_t base = db_.plan_cache_stats().invalidations;
  ASSERT_TRUE(db_.Prepare(kCountQuery).ok());
  ASSERT_EQ(db_.plan_cache_size(), 1u);

  ASSERT_TRUE(db_.CreateCollection("other").ok());
  EXPECT_EQ(db_.plan_cache_size(), 0u);
  EXPECT_EQ(db_.plan_cache_stats().invalidations, base + 1);

  auto after = db_.Prepare(kCountQuery);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);

  ASSERT_TRUE(db_.DropCollection("other").ok());
  EXPECT_EQ(db_.plan_cache_size(), 0u);
  EXPECT_EQ(db_.plan_cache_stats().invalidations, base + 2);
}

TEST_F(PlanCacheDbTest, FailedDdlKeepsCache) {
  ASSERT_TRUE(db_.Prepare(kCountQuery).ok());
  EXPECT_EQ(db_.CreateCollection("items").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.DropCollection("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.plan_cache_size(), 1u);
}

TEST_F(PlanCacheDbTest, ParseErrorsAreNeverCached) {
  EXPECT_FALSE(db_.Prepare("for $x in").ok());
  EXPECT_FALSE(db_.Prepare("for $x in").ok());
  EXPECT_EQ(db_.plan_cache_size(), 0u);
}

class TinyPlanCacheDbTest : public PlanCacheDbTest {
 protected:
  TinyPlanCacheDbTest() : PlanCacheDbTest(2) {}
};

TEST_F(TinyPlanCacheDbTest, CapacityEvictsLeastRecentlyUsed) {
  const std::string q1 = "count(collection(\"items\")/Item)";
  const std::string q2 = "collection(\"items\")/Item/Code";
  const std::string q3 = "collection(\"items\")/Item/Section";
  ASSERT_TRUE(db_.Prepare(q1).ok());
  ASSERT_TRUE(db_.Prepare(q2).ok());
  ASSERT_TRUE(db_.Prepare(q1).ok());  // touch q1: q2 becomes LRU
  ASSERT_TRUE(db_.Prepare(q3).ok());  // evicts q2
  EXPECT_EQ(db_.plan_cache_size(), 2u);
  EXPECT_EQ(db_.plan_cache_stats().evictions, 1u);
  EXPECT_TRUE(db_.Prepare(q1)->cache_hit);
  EXPECT_FALSE(db_.Prepare(q2)->cache_hit);
}

class DisabledPlanCacheDbTest : public PlanCacheDbTest {
 protected:
  DisabledPlanCacheDbTest() : PlanCacheDbTest(0) {}
};

TEST_F(DisabledPlanCacheDbTest, CapacityZeroDisablesCaching) {
  ASSERT_TRUE(db_.Prepare(kCountQuery).ok());
  auto again = db_.Prepare(kCountQuery);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit);
  EXPECT_EQ(db_.plan_cache_size(), 0u);
  EXPECT_EQ(db_.plan_cache_stats().hits, 0u);
  // Disabled cache still executes correctly.
  auto result = db_.Execute(kCountQuery);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->serialized, "2");
}

// --- the first-block capacity hint --------------------------------------

/// Concatenates every block of a fresh cursor over `plan`.
Result<std::string> DrainCursor(const xdb::Database& db,
                                const xdb::PreparedQuery& plan,
                                size_t block_items) {
  xdb::ExecParams exec;
  exec.stream_block_items = block_items;
  PARTIX_ASSIGN_OR_RETURN(xdb::ResultCursorPtr cursor,
                          db.ExecutePreparedStream(plan, exec));
  std::string out;
  for (;;) {
    xdb::ResultBlock block;
    PARTIX_ASSIGN_OR_RETURN(const bool more, cursor->Next(&block));
    if (!more) return out;
    out += block.serialized;
  }
}

/// An Item whose Description repeats a phrase with characters to escape
/// `words` times.
std::string LargeItem(int code, size_t words) {
  std::string description;
  for (size_t i = 0; i < words; ++i) description += "R&amp;B &lt;live&gt; ";
  return "<Item><Code>" + std::to_string(code) +
         "</Code><Section>CD</Section><Description>" + description +
         "</Description></Item>";
}

TEST_F(PlanCacheDbTest, CursorHintKeepsAnswersAsTheyGrowAndShrink) {
  // Whole items while the collection holds at most six documents, then
  // one Code: the answer grows as documents are stored and shrinks past
  // the sixth. Every cursor's first block reserves what the plan's
  // previous first block held, which was sized for another answer.
  auto prepared = db_.Prepare(
      "if (count(collection(\"items\")/Item) > 6) "
      "then collection(\"items\")/Item[Code = 1]/Code "
      "else collection(\"items\")/Item");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  std::vector<size_t> sizes;
  auto drain = [&](const std::string& stage) {
    auto reference = db_.ExecutePrepared(*prepared->plan);
    ASSERT_TRUE(reference.ok()) << stage << ": " << reference.status();
    sizes.push_back(reference->serialized.size());
    for (int run = 0; run < 2; ++run) {
      for (size_t block_items : {size_t{1}, size_t{256}}) {
        auto drained = DrainCursor(db_, *prepared->plan, block_items);
        ASSERT_TRUE(drained.ok()) << stage << ": " << drained.status();
        EXPECT_EQ(*drained, reference->serialized)
            << stage << ", block_items " << block_items;
      }
    }
  };
  drain("two small items");
  for (int code = 3; code <= 6; ++code) {
    ASSERT_TRUE(db_.StoreSerialized("items", "d" + std::to_string(code),
                                    LargeItem(code, 200 * code))
                    .ok());
  }
  drain("four large items more");
  ASSERT_TRUE(db_.StoreSerialized("items", "d7", LargeItem(7, 10)).ok());
  drain("seven items");
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_GT(sizes[1], sizes[0]);
  EXPECT_LT(sizes[2], sizes[0]);
}

TEST(PreparedPlanConcurrencyTest, ConcurrentCursorsShareOnePlan) {
  // Cursors over one shared PreparedQuery, on four threads at once, read
  // and write its first-block hint; block sizes differ by thread, so the
  // hint each cursor reads was left by a cursor that cut other blocks.
  xdb::Database db;
  ASSERT_TRUE(db.CreateCollection("items").ok());
  for (int code = 1; code <= 8; ++code) {
    ASSERT_TRUE(db.StoreSerialized("items", "d" + std::to_string(code),
                                   LargeItem(code, 20 * code))
                    .ok());
  }
  auto prepared = db.Prepare("collection(\"items\")/Item");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto reference = db.ExecutePrepared(*prepared->plan);
  ASSERT_TRUE(reference.ok()) << reference.status();

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t block_items = size_t{1} << (2 * t);  // 1, 4, 16, 64
      for (int i = 0; i < kIters; ++i) {
        auto drained = DrainCursor(db, *prepared->plan, block_items);
        if (drained.ok() && *drained == reference->serialized) {
          ++ok_counts[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok_counts[t], kIters);
}

// --- concurrency through the driver (TSan coverage) ----------------------

/// Concatenates every block `stream` yields.
Result<std::string> Drain(middleware::SubQueryStream& stream) {
  std::string out;
  for (;;) {
    xdb::ResultBlock block;
    PARTIX_ASSIGN_OR_RETURN(const bool more, stream.Next(&block));
    if (!more) return out;
    out += block.serialized;
  }
}

TEST(PlanCacheConcurrencyTest, ConcurrentPrepareAndExecutePrepared) {
  middleware::ClusterSim cluster(1, xdb::DatabaseOptions(),
                                 middleware::NetworkModel());
  ASSERT_TRUE(cluster.database(0).CreateCollection("items").ok());
  ASSERT_TRUE(cluster.database(0)
                  .StoreSerialized(
                      "items", "d0",
                      "<Item><Code>1</Code><Section>CD</Section></Item>")
                  .ok());
  auto compiled = xquery::CompiledQuery::Compile(kCountQuery);
  ASSERT_TRUE(compiled.ok());

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      middleware::Driver& driver = cluster.node(0);
      for (int i = 0; i < kIters; ++i) {
        auto handle = driver.Prepare(*compiled);
        if (!handle.ok()) continue;
        auto stream = driver.ExecutePreparedStream(**handle);
        if (!stream.ok()) continue;
        auto result = Drain(**stream);
        if (result.ok() && *result == "1") ++ok_counts[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok_counts[t], kIters);
}

// --- executor: prepare once per (sub-query, node) ------------------------

TEST(ExecutorPrepareReuseTest, RetriesReusePreparedHandle) {
  middleware::ClusterSim cluster(1, xdb::DatabaseOptions(),
                                 middleware::NetworkModel());
  ASSERT_TRUE(cluster.database(0).CreateCollection("items").ok());
  ASSERT_TRUE(cluster.database(0)
                  .StoreSerialized(
                      "items", "d0",
                      "<Item><Code>1</Code><Section>CD</Section></Item>")
                  .ok());
  auto compiled = xquery::CompiledQuery::Compile(kCountQuery);
  ASSERT_TRUE(compiled.ok());

  middleware::SubQuery sub;
  sub.fragment = "items";
  sub.node = 0;
  sub.query = (*compiled)->text();
  sub.compiled = *compiled;

  // First two engine requests rejected as transient; third succeeds.
  middleware::FaultProfile profile;
  profile.fail_first_requests = 2;
  cluster.SetFaultProfile(0, profile);

  middleware::DispatchOptions options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff_ms = 0.0;
  middleware::BlockChannel channel(1, 0, nullptr, -1);
  std::vector<middleware::SubQueryOutcome> outcomes;
  cluster.executor().Dispatch({sub}, options, &channel, &outcomes);

  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status;
  EXPECT_EQ(outcomes[0].attempts, 3u);
  // One Prepare served all three attempts: fault recovery never
  // recompiled, and preparation consumed no fault-injection budget.
  EXPECT_EQ(outcomes[0].prepares, 1u);
  EXPECT_EQ(outcomes[0].plan_cache_misses, 1u);
  EXPECT_EQ(outcomes[0].plan_cache_hits, 0u);
  // The answer went through the channel: one block, then a clean end.
  xdb::ResultBlock block;
  ASSERT_TRUE(channel.Pull(0, &block).value());
  EXPECT_EQ(block.serialized, "1");
  EXPECT_FALSE(channel.Pull(0, &block).value());
}

// --- middleware differential: prepared vs ad-hoc -------------------------

enum class Design { kHorizontal, kVertical, kHybrid1, kHybrid2 };

class PreparedVsAdhocP : public ::testing::TestWithParam<Design> {};

TEST_P(PreparedVsAdhocP, ByteIdenticalAnswers) {
  xml::Collection data;
  frag::FragmentationSchema schema;
  std::vector<workload::QuerySpec> queries;
  std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};

  switch (GetParam()) {
    case Design::kHorizontal: {
      gen::ItemsGenOptions options;
      options.doc_count = 40;
      options.seed = 71;
      options.sections = sections;
      auto items = gen::GenerateItems(options, nullptr);
      ASSERT_TRUE(items.ok());
      data = std::move(*items);
      auto s = workload::SectionHorizontalSchema("items", sections, 3);
      ASSERT_TRUE(s.ok());
      schema = std::move(*s);
      queries = workload::HorizontalQueries("items");
      break;
    }
    case Design::kVertical: {
      gen::XBenchGenOptions options;
      options.doc_count = 8;
      options.target_doc_bytes = 3000;
      options.seed = 72;
      auto articles = gen::GenerateArticles(options, nullptr);
      ASSERT_TRUE(articles.ok());
      data = std::move(*articles);
      auto s = workload::ArticleVerticalSchema("papers");
      ASSERT_TRUE(s.ok());
      schema = std::move(*s);
      queries = workload::VerticalQueries("papers");
      break;
    }
    case Design::kHybrid1:
    case Design::kHybrid2: {
      gen::StoreGenOptions options;
      options.item_count = 40;
      options.seed = 73;
      options.sections = sections;
      options.large_items = false;
      auto store = gen::GenerateStore(options, nullptr);
      ASSERT_TRUE(store.ok());
      data = std::move(*store);
      auto s = workload::StoreHybridSchema(
          "store", sections, 3,
          GetParam() == Design::kHybrid1
              ? frag::HybridMode::kOneDocPerSubtree
              : frag::HybridMode::kSinglePrunedDoc);
      ASSERT_TRUE(s.ok());
      schema = std::move(*s);
      queries = workload::HybridQueries("store");
      break;
    }
  }

  middleware::DistributionCatalog catalog;
  middleware::ClusterSim cluster(schema.fragments.size(),
                                 xdb::DatabaseOptions(),
                                 middleware::NetworkModel());
  middleware::DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(data, schema).ok());
  middleware::QueryService service(&cluster, &catalog);

  for (const workload::QuerySpec& q : queries) {
    auto plan = service.decomposer().Decompose(q.text);
    ASSERT_TRUE(plan.ok()) << q.id << ": " << plan.status();
    ASSERT_NE(plan->compiled, nullptr) << q.id;
    for (const middleware::SubQuery& sub : plan->subqueries) {
      EXPECT_NE(sub.compiled, nullptr) << q.id << " " << sub.fragment;
    }

    // Ad-hoc control: the same plan with every compiled artifact
    // stripped, as a hand-built plan ships it; ExecutePlan compiles it
    // at entry.
    middleware::DistributedPlan adhoc = *plan;
    adhoc.compiled = nullptr;
    for (middleware::SubQuery& sub : adhoc.subqueries) {
      sub.compiled = nullptr;
    }

    auto prepared = service.ExecutePlan(*plan);
    ASSERT_TRUE(prepared.ok()) << q.id << ": " << prepared.status();
    auto ad_hoc = service.ExecutePlan(adhoc);
    ASSERT_TRUE(ad_hoc.ok()) << q.id << ": " << ad_hoc.status();

    // Identical plan, identical outcome order, identical composition:
    // the two runs must agree to the byte.
    EXPECT_EQ(prepared->serialized, ad_hoc->serialized) << q.id;
    EXPECT_EQ(prepared->result_items, ad_hoc->result_items) << q.id;

    // Every sub-query of both runs went through Prepare: one cache event
    // per executed sub-query.
    EXPECT_EQ(prepared->plan_cache_hits + prepared->plan_cache_misses,
              prepared->subqueries.size())
        << q.id;
    EXPECT_EQ(ad_hoc->plan_cache_hits + ad_hoc->plan_cache_misses,
              ad_hoc->subqueries.size())
        << q.id;

    // Re-running the prepared plan hits every node's cache: no compile
    // cost the second time around.
    auto warm = service.ExecutePlan(*plan);
    ASSERT_TRUE(warm.ok()) << q.id;
    EXPECT_EQ(warm->plan_cache_hits, warm->subqueries.size()) << q.id;
    EXPECT_EQ(warm->plan_cache_misses, 0u) << q.id;
    EXPECT_EQ(warm->compile_ms, 0.0) << q.id;
    EXPECT_EQ(warm->serialized, prepared->serialized) << q.id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, PreparedVsAdhocP,
    ::testing::Values(Design::kHorizontal, Design::kVertical,
                      Design::kHybrid1, Design::kHybrid2),
    [](const ::testing::TestParamInfo<Design>& info) {
      switch (info.param) {
        case Design::kHorizontal:
          return "Horizontal";
        case Design::kVertical:
          return "Vertical";
        case Design::kHybrid1:
          return "HybridFragMode1";
        case Design::kHybrid2:
          return "HybridFragMode2";
      }
      return "Unknown";
    });

// --- ExplainAnalyze surfaces compile accounting --------------------------

TEST(ExplainAnalyzePlanCacheTest, SurfacesCompileAndCacheTraffic) {
  std::vector<std::string> sections = {"CD", "DVD"};
  gen::ItemsGenOptions gen_options;
  gen_options.doc_count = 10;
  gen_options.seed = 75;
  gen_options.sections = sections;
  auto items = gen::GenerateItems(gen_options, nullptr);
  ASSERT_TRUE(items.ok());
  auto schema = workload::SectionHorizontalSchema("items", sections, 2);
  ASSERT_TRUE(schema.ok());

  middleware::DistributionCatalog catalog;
  middleware::ClusterSim cluster(2, xdb::DatabaseOptions(),
                                 middleware::NetworkModel());
  middleware::DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(*items, *schema).ok());
  middleware::QueryService service(&cluster, &catalog);

  const std::string query = "count(collection(\"items\")/Item)";
  auto cold = service.ExplainAnalyze(query);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_NE(cold->find("compile "), std::string::npos) << *cold;
  EXPECT_NE(cold->find("plan cache 0 hit(s) / 2 miss(es)"),
            std::string::npos)
      << *cold;
  EXPECT_NE(cold->find(": plan cache miss"), std::string::npos) << *cold;
  EXPECT_NE(cold->find("prepare"), std::string::npos) << *cold;

  // The second run is served from every node's plan cache.
  auto warm = service.ExplainAnalyze(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("compile 0 ms"), std::string::npos) << *warm;
  EXPECT_NE(warm->find("plan cache 2 hit(s) / 0 miss(es)"),
            std::string::npos)
      << *warm;
  EXPECT_NE(warm->find(": plan cache hit"), std::string::npos) << *warm;
}

// --- parse-once contract across the whole middleware ---------------------

TEST(ParseOnceTest, MiddlewareExecutionParsesExactlyOnce) {
  std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};
  gen::ItemsGenOptions options;
  options.doc_count = 30;
  options.seed = 74;
  options.sections = sections;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  auto schema = workload::SectionHorizontalSchema("items", sections, 4);
  ASSERT_TRUE(schema.ok());

  middleware::DistributionCatalog catalog;
  middleware::ClusterSim cluster(4, xdb::DatabaseOptions(),
                                 middleware::NetworkModel());
  middleware::DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(*items, *schema).ok());
  middleware::QueryService service(&cluster, &catalog);

  for (const workload::QuerySpec& q :
       workload::HorizontalQueries("items")) {
    const uint64_t before = xquery::ThreadParseCount();
    auto result = service.Execute(q.text);
    ASSERT_TRUE(result.ok()) << q.id << ": " << result.status();
    // Sequential dispatch (parallelism 1) runs every sub-query on this
    // thread, so any re-parse would show up in the delta.
    EXPECT_EQ(xquery::ThreadParseCount() - before, 1u) << q.id;
  }
}

}  // namespace
}  // namespace partix
