// Concurrency tests for the re-entrant evaluation core and intra-node
// morsel parallelism (docs/intra-node-parallelism.md):
//
//   - xml::NamePool: concurrent Intern/Find/Get hammer — one stable id
//     per name, ids round-trip, no torn growth
//   - morsel identity: every workload query over three fragmentation
//     designs answers byte-identically at morsel parallelism 1 vs 4
//   - stats conservation: merged per-morsel EvalStats equal the
//     single-threaded totals exactly (nodes_visited, index_range_scans,
//     index_range_hits) — no ManualClock, counters only
//   - concurrent Execute + ExecutePrepared on ONE Database, mixed with
//     plan-cache eviction pressure (tiny cache) and memory-governor
//     pressure (tiny budget), all through the shared-lock read path
//   - LocalXdbDriver reader-writer split: concurrent queries while a
//     writer stores documents
//
// Every test name contains "Concurrent" so scripts/check.sh's explicit
// TSan/ASan reruns pick the whole file up by filter.

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

class MorselDbTest : public ::testing::Test {
 protected:
  MorselDbTest() {
    EXPECT_TRUE(db_.CreateCollection("items").ok());
    for (int i = 0; i < 24; ++i) {
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

  xdb::Database db_;
  ThreadPool pool_{4};
};

TEST_F(MorselDbTest, ConcurrentMorselStatsConservation) {
  const std::vector<std::string> queries = {
      "for $i in collection(\"items\")/Item return $i/Name",
      "for $i in collection(\"items\")/Item where $i/Section = \"CD\" "
      "return $i/Code",
      "count(collection(\"items\")/Item[Section = \"DVD\"])",
      "for $i in collection(\"items\")/Item "
      "where $i/Code >= 5 and $i/Code < 20 "
      "return <hit>{ $i/Name }</hit>",
  };
  for (const std::string& query : queries) {
    auto sequential = db_.Execute(query);
    ASSERT_TRUE(sequential.ok()) << sequential.status();

    xdb::ExecParams exec;
    exec.morsel_parallelism = 4;
    exec.morsel_pool = &pool_;
    auto morseled = db_.Execute(query, exec);
    ASSERT_TRUE(morseled.ok()) << morseled.status();

    // Byte-identical answers, exactly conserved evaluator counters: the
    // per-morsel EvalStats merge in chunk order must reproduce the
    // single-threaded totals, not approximate them.
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
  }
}

TEST_F(MorselDbTest, ConcurrentMorselsOnSaturatedPoolStillComplete) {
  // Saturate the pool with blockers parked on a latch (truly blocked, so
  // they hold pool threads without burning the CPU the coordinator needs
  // on small hosts), then run a morselized query: the coordinator's
  // help-while-waiting drain must finish the chunks itself rather than
  // deadlocking on pool capacity.
  // shared_ptr-owned: blockers may still be waking inside Wait() (and
  // queued blockers still run at pool shutdown) after this test body
  // returns, so the latch must outlive the lambdas, not the stack frame.
  auto release = std::make_shared<Latch>(1);
  for (size_t i = 0; i < 8; ++i) {
    pool_.Submit([release] { release->Wait(); });
  }
  xdb::ExecParams exec;
  exec.morsel_parallelism = 4;
  exec.morsel_pool = &pool_;
  auto result =
      db_.Execute("for $i in collection(\"items\")/Item return $i/Code",
                  exec);
  release->CountDown();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->metrics.result_items, 24u);
}

// --- concurrent Execute/ExecutePrepared on one Database ------------------

TEST(EngineConcurrentTest, ConcurrentExecuteUnderCacheAndGovernorPressure) {
  // Tiny plan cache (2 entries, so 4 distinct queries continually evict)
  // and a tight memory budget with a small parse cache: concurrent
  // readers constantly charge/release the governor and shed each other's
  // cache entries while racing plan-cache insert/evict. TSan runs this
  // via scripts/check.sh.
  xdb::DatabaseOptions options;
  options.plan_cache_capacity = 2;
  options.cache_capacity_bytes = 4096;
  options.memory_budget_bytes = 64 << 10;
  xdb::Database db(options);
  ASSERT_TRUE(db.CreateCollection("items").ok());
  for (int i = 0; i < 16; ++i) {
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
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t iter = 0; iter < kIters; ++iter) {
        const size_t q = (t + iter) % queries.size();
        Result<xdb::QueryResult> result = Status::Ok();
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
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
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

class MorselIdentityP : public ::testing::TestWithParam<MorselDesign> {};

TEST_P(MorselIdentityP, ConcurrentMorselsAnswerByteIdentically) {
  xml::Collection data;
  frag::FragmentationSchema schema;
  std::vector<workload::QuerySpec> queries;
  std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};

  switch (GetParam()) {
    case MorselDesign::kHorizontal: {
      gen::ItemsGenOptions options;
      options.doc_count = 36;
      options.seed = 91;
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
    case MorselDesign::kVertical: {
      gen::XBenchGenOptions options;
      options.doc_count = 8;
      options.target_doc_bytes = 3000;
      options.seed = 92;
      auto articles = gen::GenerateArticles(options, nullptr);
      ASSERT_TRUE(articles.ok());
      data = std::move(*articles);
      auto s = workload::ArticleVerticalSchema("papers");
      ASSERT_TRUE(s.ok());
      schema = std::move(*s);
      queries = workload::VerticalQueries("papers");
      break;
    }
    case MorselDesign::kHybrid: {
      gen::StoreGenOptions options;
      options.item_count = 36;
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
    middleware::ExecutionOptions sequential;
    auto base = service.Execute(q.text, sequential);
    ASSERT_TRUE(base.ok()) << q.id << ": " << base.status();

    for (size_t morsels : {size_t{2}, size_t{4}}) {
      middleware::ExecutionOptions parallel;
      parallel.parallelism = 0;  // cross-node fan-out too
      parallel.intra_node_parallelism = morsels;
      auto result = service.Execute(q.text, parallel);
      ASSERT_TRUE(result.ok()) << q.id << ": " << result.status();
      EXPECT_EQ(result->serialized, base->serialized)
          << q.id << " at morsels=" << morsels;
      EXPECT_EQ(result->result_items, base->result_items) << q.id;
    }
  }
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
