// Concurrency tests for the re-entrant evaluation core and intra-node
// morsel parallelism (docs/intra-node-parallelism.md):
//
//   - xml::NamePool: concurrent Intern/Find/Get hammer — one stable id
//     per name, ids round-trip, no torn growth
//   - morsel identity: every workload query over three fragmentation
//     designs answers byte-identically at morsel parallelism 1, 2, 4 and
//     the default, with equal per-sub-query counts, at cross-node
//     parallelism 1 and 4
//   - stats conservation: merged per-morsel EvalStats equal the
//     single-threaded totals exactly (nodes_visited, index_range_scans,
//     index_range_hits), and the morsel count is exact — no ManualClock,
//     counters only
//   - the fork minimum (no morsels below two morsels' worth of items)
//     and first-failing-morsel error determinism
//   - concurrent Execute + ExecutePrepared on ONE Database, mixed with
//     plan-cache eviction pressure (tiny cache) and memory-governor
//     pressure (tiny budget), all through the shared-lock read path
//   - LocalXdbDriver reader-writer split: concurrent queries while a
//     writer stores documents
//
// Every test name contains "Concurrent" or "Morsel" so scripts/check.sh's
// explicit TSan/ASan reruns pick the whole file up by filter.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/database.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xml/name_pool.h"
#include "xquery/compiled_query.h"
#include "xquery/evaluator.h"

namespace partix {
namespace {

// --- NamePool ------------------------------------------------------------

TEST(NamePoolConcurrentTest, ConcurrentInternsAgreeOnIds) {
  xml::NamePool pool;
  constexpr size_t kThreads = 8;
  constexpr size_t kNames = 200;
  constexpr size_t kRounds = 50;

  // Every thread interns the same kNames names over and over (plus reads
  // back names other threads may be inserting at that instant), so the
  // reader fast path, the writer re-check, and deque growth all race.
  std::vector<std::vector<xml::NameId>> ids(kThreads,
                                            std::vector<xml::NameId>(kNames));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ids, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t n = 0; n < kNames; ++n) {
          const std::string name = "name-" + std::to_string(n);
          const xml::NameId id = pool.Intern(name);
          if (round == 0) {
            ids[t][n] = id;
          } else {
            // Interning is idempotent even under contention.
            ASSERT_EQ(ids[t][n], id);
          }
          ASSERT_EQ(pool.Get(id), name);
          ASSERT_TRUE(pool.Find(name).has_value());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // All threads resolved every name to the same id, and exactly kNames
  // names exist (no duplicate slots from racing inserts).
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  EXPECT_EQ(pool.size(), kNames);
}

// --- morsel identity + stats conservation on one engine ------------------

constexpr size_t kGrain = xquery::Evaluator::kMorselGrain;

class MorselDbTest : public ::testing::Test {
 protected:
  /// Above the fork minimum with a partial last morsel: every fork over
  /// the collection runs kMorselsPerFork morsels.
  static constexpr size_t kDocs = 4 * kGrain + 7;
  static constexpr uint64_t kMorselsPerFork = (kDocs + kGrain - 1) / kGrain;

  MorselDbTest() {
    EXPECT_TRUE(db_.CreateCollection("items").ok());
    for (size_t i = 0; i < kDocs; ++i) {
      const std::string section = (i % 3 == 0) ? "CD" : (i % 3 == 1 ? "DVD"
                                                                    : "BOOK");
      EXPECT_TRUE(
          db_.StoreSerialized(
                 "items", "d" + std::to_string(i),
                 "<Item><Code>" + std::to_string(i) + "</Code><Section>" +
                     section + "</Section><Name>item " + std::to_string(i) +
                     "</Name></Item>")
              .ok());
    }
  }

  xdb::ExecParams Morsels(size_t workers) {
    xdb::ExecParams exec;
    exec.morsel_parallelism = workers;
    exec.morsel_pool = &pool_;
    return exec;
  }

  xdb::Database db_;
  ThreadPool pool_{4};
};

TEST_F(MorselDbTest, ConcurrentMorselStatsConservation) {
  // Each query with the number of forks it makes over the collection:
  // a path step over the documents, plus the for-clause over its binding.
  const std::vector<std::pair<std::string, uint64_t>> queries = {
      {"for $i in collection(\"items\")/Item return $i/Name", 2},
      {"for $i in collection(\"items\")/Item where $i/Section = \"CD\" "
       "return $i/Code",
       2},
      {"count(collection(\"items\")/Item[Section = \"DVD\"])", 1},
      {"for $i in collection(\"items\")/Item "
       "where $i/Code >= 5 and $i/Code < 20 "
       "return <hit>{ $i/Name }</hit>",
       2},
  };
  for (const auto& [query, forks] : queries) {
    auto sequential = db_.Execute(query);
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    EXPECT_EQ(sequential->metrics.morsels, 0u) << query;

    auto morseled = db_.Execute(query, Morsels(4));
    ASSERT_TRUE(morseled.ok()) << morseled.status();

    // Byte-identical answers, exactly conserved evaluator counters: the
    // per-participant EvalStats merge must reproduce the single-threaded
    // totals, not approximate them.
    EXPECT_EQ(morseled->serialized, sequential->serialized) << query;
    EXPECT_EQ(morseled->metrics.nodes_visited,
              sequential->metrics.nodes_visited)
        << query;
    EXPECT_EQ(morseled->metrics.index_range_scans,
              sequential->metrics.index_range_scans)
        << query;
    EXPECT_EQ(morseled->metrics.index_range_hits,
              sequential->metrics.index_range_hits)
        << query;
    EXPECT_EQ(morseled->metrics.result_items,
              sequential->metrics.result_items)
        << query;
    // The morsel count depends only on the iteration sizes; which thread
    // claimed each morsel does not.
    EXPECT_EQ(morseled->metrics.morsels, forks * kMorselsPerFork) << query;
    EXPECT_LE(morseled->metrics.helper_morsels, morseled->metrics.morsels)
        << query;
  }
}

TEST_F(MorselDbTest, ConcurrentMorselsInLazyPathStream) {
  // A lazy path stream slices its source by whole morsels for every
  // worker, so even one-item blocks fork, and the drained blocks
  // concatenate to the reference evaluation.
  auto prepared = db_.Prepare("collection(\"items\")/Item/Name");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto reference = db_.ExecutePrepared(*prepared->plan);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (size_t block_items : {size_t{1}, size_t{3}, size_t{256}}) {
    xdb::ExecParams exec = Morsels(4);
    exec.stream_block_items = block_items;
    auto cursor = db_.ExecutePreparedStream(*prepared->plan, exec);
    ASSERT_TRUE(cursor.ok()) << cursor.status();
    std::string streamed;
    for (;;) {
      xdb::ResultBlock block;
      auto more = (*cursor)->Next(&block);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      streamed += block.serialized;
    }
    EXPECT_EQ(streamed, reference->serialized) << "block=" << block_items;
    EXPECT_EQ((*cursor)->metrics().result_items, kDocs);
    EXPECT_GT((*cursor)->metrics().morsels, 0u) << "block=" << block_items;
  }
}

TEST_F(MorselDbTest, ConcurrentMorselsOnSaturatedPoolStillComplete) {
  // Saturate the pool with blockers parked on a latch (truly blocked, so
  // they hold pool threads without burning the CPU the coordinator needs
  // on small hosts), then run a morselized query: the coordinator's
  // help-while-waiting drain must finish the morsels itself rather than
  // deadlocking on pool capacity.
  // shared_ptr-owned: blockers may still be waking inside Wait() (and
  // queued blockers still run at pool shutdown) after this test body
  // returns, so the latch must outlive the lambdas, not the stack frame.
  auto release = std::make_shared<Latch>(1);
  for (size_t i = 0; i < 8; ++i) {
    pool_.Submit([release] { release->Wait(); });
  }
  auto result =
      db_.Execute("for $i in collection(\"items\")/Item return $i/Code",
                  Morsels(4));
  release->CountDown();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->metrics.result_items, kDocs);
  // Every helper task sat behind the blockers, so the forking thread ran
  // every morsel itself.
  EXPECT_EQ(result->metrics.morsels, 2 * kMorselsPerFork);
  EXPECT_EQ(result->metrics.helper_morsels, 0u);
}

TEST_F(MorselDbTest, ConcurrentMorselsStayOffBelowTwoMorsels) {
  // One item short of two morsels' worth: no fork at either site, even
  // with workers to spare.
  ASSERT_TRUE(db_.CreateCollection("few").ok());
  for (size_t i = 0; i + 1 < 2 * kGrain; ++i) {
    ASSERT_TRUE(db_.StoreSerialized("few", "d" + std::to_string(i),
                                    "<Item><Code>" + std::to_string(i) +
                                        "</Code></Item>")
                    .ok());
  }
  for (const std::string query :
       {"for $i in collection(\"few\")/Item return $i/Code",
        "count(collection(\"few\")/Item)"}) {
    auto result = db_.Execute(query, Morsels(4));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->metrics.morsels, 0u) << query;
  }
}

TEST_F(MorselDbTest, ConcurrentFirstFailingMorselNamesTheFirstItem) {
  // Items from Code 60 on fail (their names are no collection). The
  // first failure sits late in morsel 0 while every later morsel fails on
  // its first item, so the fastest failure is rarely the first one; with
  // more morsels than workers, the error must still name item 60, as the
  // sequential run does.
  const std::string query =
      "for $i in collection(\"items\")/Item where $i/Code >= 60 "
      "return collection($i/Name)";
  auto sequential = db_.Execute(query);
  ASSERT_FALSE(sequential.ok());
  EXPECT_NE(sequential.status().message().find("item 60"), std::string::npos)
      << sequential.status();
  for (size_t workers : {size_t{2}, size_t{4}}) {
    for (int round = 0; round < 10; ++round) {
      auto morseled = db_.Execute(query, Morsels(workers));
      ASSERT_FALSE(morseled.ok());
      EXPECT_EQ(morseled.status().ToString(), sequential.status().ToString())
          << "workers=" << workers;
    }
  }
}

// --- concurrent Execute/ExecutePrepared on one Database ------------------

TEST(EngineConcurrentTest, ConcurrentExecuteUnderCacheAndGovernorPressure) {
  // Tiny plan cache (2 entries, so 4 distinct queries continually evict)
  // and a tight memory budget with a small parse cache: concurrent
  // readers constantly charge/release the governor and shed each other's
  // cache entries while racing plan-cache insert/evict. Every third
  // thread forks morsels (the collection holds more than two morsels'
  // worth of documents), so morsel helpers race the eviction and the
  // governor too. TSan runs this via scripts/check.sh.
  xdb::DatabaseOptions options;
  options.plan_cache_capacity = 2;
  options.cache_capacity_bytes = 4096;
  options.memory_budget_bytes = 64 << 10;
  xdb::Database db(options);
  ASSERT_TRUE(db.CreateCollection("items").ok());
  for (size_t i = 0; i < 2 * kGrain + 32; ++i) {
    ASSERT_TRUE(
        db.StoreSerialized(
              "items", "d" + std::to_string(i),
              "<Item><Code>" + std::to_string(i) +
                  "</Code><Section>CD</Section><Name>item " +
                  std::to_string(i) + "</Name></Item>")
            .ok());
  }

  const std::vector<std::string> queries = {
      "count(collection(\"items\")/Item)",
      "for $i in collection(\"items\")/Item return $i/Code",
      "for $i in collection(\"items\")/Item where $i/Code >= 8 "
      "return $i/Name",
      "count(collection(\"items\")/Item[Section = \"CD\"])",
  };

  // Expected answers, computed single-threaded before the storm.
  std::vector<std::string> expected;
  std::vector<xdb::PreparedQueryPtr> plans;
  for (const std::string& query : queries) {
    auto result = db.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(result->serialized);
    auto prepared = db.Prepare(query);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    plans.push_back(prepared->plan);
  }

  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 40;
  ThreadPool morsel_pool(4);
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> wrong_forks{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t iter = 0; iter < kIters; ++iter) {
        const size_t q = (t + iter) % queries.size();
        Result<xdb::QueryResult> result = Status::Ok();
        const bool forks = t % 3 == 2;
        if (t % 3 == 0) {
          result = db.ExecutePrepared(*plans[q]);
        } else if (t % 3 == 1) {
          result = db.Execute(queries[q]);
        } else {
          xdb::ExecParams exec;
          exec.morsel_parallelism = 3;
          exec.morsel_pool = &morsel_pool;
          result = db.Execute(queries[q], exec);
        }
        if (!result.ok()) {
          ++failures;
        } else if (result->serialized != expected[q]) {
          ++mismatches;
        } else if (forks != (result->metrics.morsels > 0)) {
          ++wrong_forks;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  // Morsels ran on every morsel thread's queries, and only there.
  EXPECT_EQ(wrong_forks.load(), 0u);
}

// --- driver reader-writer split ------------------------------------------

/// Runs `query` through the driver's query path — prepare, then drain the
/// block stream — and returns the serialized answer.
Result<std::string> QueryThroughDriver(middleware::Driver& driver,
                                       const std::string& query) {
  PARTIX_ASSIGN_OR_RETURN(xquery::CompiledQueryPtr compiled,
                          xquery::CompiledQuery::Compile(query));
  PARTIX_ASSIGN_OR_RETURN(middleware::PreparedSubQueryPtr prepared,
                          driver.Prepare(compiled));
  PARTIX_ASSIGN_OR_RETURN(middleware::SubQueryStreamPtr stream,
                          driver.ExecutePreparedStream(*prepared));
  std::string out;
  for (;;) {
    xdb::ResultBlock block;
    PARTIX_ASSIGN_OR_RETURN(const bool more, stream->Next(&block));
    if (!more) return out;
    out += block.serialized;
  }
}

TEST(DriverConcurrentTest, ConcurrentQueriesWithWriterMakeProgress) {
  middleware::LocalXdbDriver driver("node0");
  ASSERT_TRUE(driver.CreateCollection("items", {}).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(driver
                    .StoreSerializedDocument(
                        "items", "d" + std::to_string(i),
                        "<Item><Code>" + std::to_string(i) + "</Code></Item>",
                        {})
                    .ok());
  }

  // Readers count items while a writer keeps appending documents under
  // the exclusive lock. Every read must see a consistent snapshot (a
  // whole number of stored documents, monotonically between 8 and 8+16)
  // and never error. Each reader runs a bounded number of reads (not a
  // free-running loop): std::shared_mutex may prefer readers, so
  // saturating every core with re-acquiring readers could legally
  // starve the writer past the test timeout on small TSan hosts.
  std::atomic<size_t> reader_errors{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&driver, &reader_errors] {
      for (int iter = 0; iter < 25; ++iter) {
        auto result =
            QueryThroughDriver(driver, "count(collection(\"items\")/Item)");
        if (!result.ok()) {
          ++reader_errors;
          continue;
        }
        const int count = std::stoi(*result);
        if (count < 8 || count > 24) ++reader_errors;
        std::this_thread::yield();
      }
    });
  }
  for (int i = 8; i < 24; ++i) {
    ASSERT_TRUE(driver
                    .StoreSerializedDocument(
                        "items", "d" + std::to_string(i),
                        "<Item><Code>" + std::to_string(i) + "</Code></Item>",
                        {})
                    .ok());
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(reader_errors.load(), 0u);

  auto final_count =
      QueryThroughDriver(driver, "count(collection(\"items\")/Item)");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(*final_count, "24");
}

// --- middleware identity across fragmentation designs --------------------

enum class MorselDesign { kHorizontal, kVertical, kHybrid };

/// One fragmented deployment per design, sized so every fragment holds
/// more than two morsels' worth of documents (or items) — all but the
/// hybrid design's one-document remainder fragment — with the executor
/// on its own 4-thread pool so morsels fork on any host.
class MorselIdentityP : public ::testing::TestWithParam<MorselDesign> {
 protected:
  void SetUp() override {
    xml::Collection data;
    frag::FragmentationSchema schema;
    const std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};
    switch (GetParam()) {
      case MorselDesign::kHorizontal: {
        gen::ItemsGenOptions options;
        options.doc_count = 14 * kGrain;
        options.seed = 91;
        options.sections = sections;
        auto items = gen::GenerateItems(options, nullptr);
        ASSERT_TRUE(items.ok());
        data = std::move(*items);
        auto s = workload::SectionHorizontalSchema("items", sections, 3);
        ASSERT_TRUE(s.ok());
        schema = std::move(*s);
        queries_ = workload::HorizontalQueries("items");
        break;
      }
      case MorselDesign::kVertical: {
        gen::XBenchGenOptions options;
        options.doc_count = 2 * kGrain + 12;
        options.target_doc_bytes = 3000;
        options.seed = 92;
        auto articles = gen::GenerateArticles(options, nullptr);
        ASSERT_TRUE(articles.ok());
        data = std::move(*articles);
        auto s = workload::ArticleVerticalSchema("papers");
        ASSERT_TRUE(s.ok());
        schema = std::move(*s);
        queries_ = workload::VerticalQueries("papers");
        break;
      }
      case MorselDesign::kHybrid: {
        gen::StoreGenOptions options;
        options.item_count = 10 * kGrain;
        options.seed = 93;
        options.sections = sections;
        options.large_items = false;
        auto store = gen::GenerateStore(options, nullptr);
        ASSERT_TRUE(store.ok());
        data = std::move(*store);
        auto s = workload::StoreHybridSchema(
            "store", sections, 3, frag::HybridMode::kOneDocPerSubtree);
        ASSERT_TRUE(s.ok());
        schema = std::move(*s);
        queries_ = workload::HybridQueries("store");
        break;
      }
    }
    cluster_ = std::make_unique<middleware::ClusterSim>(
        schema.fragments.size(), xdb::DatabaseOptions(),
        middleware::NetworkModel());
    cluster_->executor().set_pool(&pool_);
    middleware::DataPublisher publisher(cluster_.get(), &catalog_);
    ASSERT_TRUE(publisher.PublishFragmented(data, schema).ok());
    service_ =
        std::make_unique<middleware::QueryService>(cluster_.get(), &catalog_);
  }

  /// The sequential oracle: no morsels, one sub-query at a time.
  static middleware::ExecutionOptions Sequential() {
    middleware::ExecutionOptions options;
    options.intra_node_parallelism = 1;
    return options;
  }

  // Declared before the cluster, so the executor goes first.
  ThreadPool pool_{4};
  middleware::DistributionCatalog catalog_;
  std::unique_ptr<middleware::ClusterSim> cluster_;
  std::unique_ptr<middleware::QueryService> service_;
  std::vector<workload::QuerySpec> queries_;
};

TEST_P(MorselIdentityP, ConcurrentMorselsAnswerByteIdentically) {
  for (const workload::QuerySpec& q : queries_) {
    auto base = service_->Execute(q.text, Sequential());
    ASSERT_TRUE(base.ok()) << q.id << ": " << base.status();

    for (size_t morsels : {size_t{2}, size_t{4}}) {
      middleware::ExecutionOptions parallel;
      parallel.parallelism = 0;  // cross-node fan-out too
      parallel.intra_node_parallelism = morsels;
      auto result = service_->Execute(q.text, parallel);
      ASSERT_TRUE(result.ok()) << q.id << ": " << result.status();
      EXPECT_EQ(result->serialized, base->serialized)
          << q.id << " at morsels=" << morsels;
      EXPECT_EQ(result->result_items, base->result_items) << q.id;
    }
  }
}

/// The per-sub-query counts that must not depend on how the engine
/// schedules its evaluation.
std::string SubQueryCounts(const middleware::SubQueryStats& s) {
  return s.fragment + "@" + std::to_string(s.node) +
         " bytes=" + std::to_string(s.result_bytes) +
         " parsed=" + std::to_string(s.docs_parsed) +
         " attempts=" + std::to_string(s.attempts) +
         " failovers=" + std::to_string(s.failovers) +
         " corrupt=" + std::to_string(s.corrupt_responses) +
         " requests=" + std::to_string(s.engine_requests) +
         " timed_out=" + std::to_string(s.timed_out_attempts) +
         " discarded=" + std::to_string(s.discarded_successes) +
         " plan_hits=" + std::to_string(s.plan_cache_hits) +
         " plan_misses=" + std::to_string(s.plan_cache_misses);
}

TEST_P(MorselIdentityP, DefaultMorselsMatchSequentialAnswersAndCounts) {
  // Morsels are on by default. Every workload query must answer exactly
  // as the sequential engine does, with the same per-sub-query counts, at
  // sequential and at 4-way cross-node dispatch; a traced run tags each
  // attempt with the morsels it ran.
  uint64_t forked_morsels = 0;
  for (const workload::QuerySpec& q : queries_) {
    // Warm the plan and parse caches, so both runs below see them warm.
    ASSERT_TRUE(service_->Execute(q.text, Sequential()).ok()) << q.id;
    for (size_t parallelism : {size_t{1}, size_t{4}}) {
      middleware::ExecutionOptions sequential = Sequential();
      sequential.parallelism = parallelism;
      middleware::ExecutionOptions by_default;
      by_default.parallelism = parallelism;
      by_default.trace = true;
      auto base = service_->Execute(q.text, sequential);
      auto result = service_->Execute(q.text, by_default);
      ASSERT_TRUE(base.ok()) << q.id << ": " << base.status();
      ASSERT_TRUE(result.ok()) << q.id << ": " << result.status();
      const std::string where =
          q.id + " at parallelism=" + std::to_string(parallelism);
      EXPECT_EQ(result->serialized, base->serialized) << where;
      ASSERT_EQ(result->subqueries.size(), base->subqueries.size()) << where;
      for (size_t i = 0; i < base->subqueries.size(); ++i) {
        const middleware::SubQueryStats& stats = result->subqueries[i];
        EXPECT_EQ(SubQueryCounts(stats), SubQueryCounts(base->subqueries[i]))
            << where;
        EXPECT_EQ(base->subqueries[i].morsels, 0u) << where;
        EXPECT_LE(stats.helper_morsels, stats.morsels) << where;
        forked_morsels += stats.morsels;
        const telemetry::TraceSpan* lane = result->trace.Find(
            stats.fragment + "@node" + std::to_string(stats.node));
        ASSERT_NE(lane, nullptr) << where;
        const telemetry::TraceSpan* attempt = lane->Find("attempt");
        ASSERT_NE(attempt, nullptr) << where;
        EXPECT_EQ(attempt->Tag("morsels"), std::to_string(stats.morsels))
            << where;
      }
    }
  }
  // Every design has iterations above the fork minimum.
  EXPECT_GT(forked_morsels, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, MorselIdentityP,
    ::testing::Values(MorselDesign::kHorizontal, MorselDesign::kVertical,
                      MorselDesign::kHybrid),
    [](const ::testing::TestParamInfo<MorselDesign>& info) {
      switch (info.param) {
        case MorselDesign::kHorizontal:
          return "Horizontal";
        case MorselDesign::kVertical:
          return "Vertical";
        case MorselDesign::kHybrid:
          return "Hybrid";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace partix
