#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/document_store.h"
#include "storage/indexes.h"
#include "storage/stats.h"
#include "xml/parser.h"

namespace partix::storage {
namespace {

std::shared_ptr<xml::NamePool> Pool() {
  return std::make_shared<xml::NamePool>();
}

xml::DocumentPtr Parse(const std::shared_ptr<xml::NamePool>& pool,
                       const std::string& name, const std::string& text) {
  auto result = xml::ParseXml(pool, name, text);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

TEST(DocumentStoreTest, PutAndGet) {
  auto pool = Pool();
  DocumentStore store(pool, 1 << 20);
  auto doc = Parse(pool, "d1", "<a><b>x</b></a>");
  auto slot = store.Put(*doc);
  ASSERT_TRUE(slot.ok());
  auto loaded = store.Get(*slot);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->StringValue((*loaded)->root()), "x");
  EXPECT_EQ(store.DocName(*slot), "d1");
  EXPECT_TRUE(store.Contains("d1"));
  EXPECT_EQ(*store.FindSlot("d1"), *slot);
  EXPECT_FALSE(store.FindSlot("nope").ok());
}

TEST(DocumentStoreTest, RejectsDuplicateNames) {
  auto pool = Pool();
  DocumentStore store(pool, 1 << 20);
  auto doc = Parse(pool, "d1", "<a/>");
  ASSERT_TRUE(store.Put(*doc).ok());
  EXPECT_EQ(store.Put(*doc).status().code(), StatusCode::kAlreadyExists);
}

TEST(DocumentStoreTest, ParseOnDemandCountsMetrics) {
  auto pool = Pool();
  DocumentStore store(pool, 1 << 20);
  auto doc = Parse(pool, "d1", "<a><b>hello</b></a>");
  auto slot = store.Put(*doc);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(store.metrics().parses, 0u);
  ASSERT_TRUE(store.Get(*slot).ok());
  EXPECT_EQ(store.metrics().parses, 1u);
  EXPECT_EQ(store.metrics().cache_misses, 1u);
  ASSERT_TRUE(store.Get(*slot).ok());
  EXPECT_EQ(store.metrics().parses, 1u);  // cache hit, no re-parse
  EXPECT_EQ(store.metrics().cache_hits, 1u);
  EXPECT_GT(store.metrics().bytes_parsed, 0u);
}

TEST(DocumentStoreTest, ZeroCapacityDisablesCache) {
  auto pool = Pool();
  DocumentStore store(pool, 0);
  auto doc = Parse(pool, "d1", "<a>x</a>");
  auto slot = store.Put(*doc);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(store.Get(*slot).ok());
  ASSERT_TRUE(store.Get(*slot).ok());
  EXPECT_EQ(store.metrics().parses, 2u);
}

TEST(DocumentStoreTest, LruEvictsUnderPressure) {
  auto pool = Pool();
  // Tiny cache: each parsed doc is a few hundred bytes.
  DocumentStore store(pool, 600);
  for (int i = 0; i < 8; ++i) {
    auto doc = Parse(pool, "d" + std::to_string(i),
                     "<a><b>document body " + std::to_string(i) +
                         " with some text</b></a>");
    ASSERT_TRUE(store.Put(*doc).ok());
  }
  for (DocSlot s = 0; s < 8; ++s) ASSERT_TRUE(store.Get(s).ok());
  // Evictions happened under pressure, and the metric counted them.
  EXPECT_GT(store.metrics().cache_evictions, 0u);
  // Re-reading the first document must re-parse (it was evicted).
  uint64_t parses_before = store.metrics().parses;
  ASSERT_TRUE(store.Get(0).ok());
  EXPECT_GT(store.metrics().parses, parses_before);
}

TEST(DocumentStoreTest, DropCacheForcesReparse) {
  auto pool = Pool();
  DocumentStore store(pool, 1 << 20);
  auto doc = Parse(pool, "d1", "<a>x</a>");
  auto slot = store.Put(*doc);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(store.Get(*slot).ok());
  store.DropCache();
  ASSERT_TRUE(store.Get(*slot).ok());
  EXPECT_EQ(store.metrics().parses, 2u);
  // An explicit DropCache is not an eviction: the counter stays put.
  EXPECT_EQ(store.metrics().cache_evictions, 0u);
}

TEST(PostingsTest, IntersectAndUnion) {
  PostingList a = {1, 3, 5, 7};
  PostingList b = {3, 4, 5};
  EXPECT_EQ(IntersectPostings(a, b), (PostingList{3, 5}));
  EXPECT_EQ(UnionPostings(a, b), (PostingList{1, 3, 4, 5, 7}));
  EXPECT_TRUE(IntersectPostings(a, {}).empty());
}

TEST(ElementIndexTest, FindsDocsByName) {
  auto pool = Pool();
  ElementIndex index;
  index.AddDocument(0, *Parse(pool, "a", "<Item><Code>1</Code></Item>"));
  index.AddDocument(1, *Parse(pool, "b", "<Item><Name>n</Name></Item>"));
  ASSERT_NE(index.Lookup("Item"), nullptr);
  EXPECT_EQ(*index.Lookup("Item"), (PostingList{0, 1}));
  EXPECT_EQ(*index.Lookup("Code"), (PostingList{0}));
  EXPECT_EQ(index.Lookup("Nope"), nullptr);
}

TEST(ElementIndexTest, IndexesAttributes) {
  auto pool = Pool();
  ElementIndex index;
  index.AddDocument(0, *Parse(pool, "a", "<r id=\"1\"/>"));
  ASSERT_NE(index.Lookup("id"), nullptr);
}

TEST(CollectionStatsTest, Accumulates) {
  auto pool = Pool();
  CollectionStats stats;
  auto d1 = Parse(pool, "a", "<Item><Code>1</Code></Item>");
  auto d2 = Parse(pool, "b", "<Item><Code>2</Code></Item>");
  stats.AddDocument(*d1, 100);
  stats.AddDocument(*d2, 200);
  EXPECT_EQ(stats.document_count(), 2u);
  EXPECT_EQ(stats.total_serialized_bytes(), 300u);
  EXPECT_DOUBLE_EQ(stats.AvgDocBytes(), 150.0);
  EXPECT_EQ(stats.element_counts().at("Item"), 2u);
  EXPECT_EQ(stats.element_counts().at("Code"), 2u);
  EXPECT_FALSE(stats.Summary().empty());
}

TEST(CollectionStatsTest, RecordAccessFoldsStoreDeltas) {
  // The engine feeds each query's parse-cache delta back into the
  // fragment's stats; the advisor reads hot-fragment access patterns
  // from here.
  CollectionStats stats;
  StoreMetrics delta;
  delta.parses = 3;
  delta.bytes_parsed = 1200;
  delta.cache_hits = 5;
  delta.cache_misses = 3;
  delta.cache_evictions = 1;
  stats.RecordAccess(delta);
  stats.RecordAccess(delta);

  const AccessStats& access = stats.access();
  EXPECT_EQ(access.queries, 2u);
  EXPECT_EQ(access.parses, 6u);
  EXPECT_EQ(access.bytes_parsed, 2400u);
  EXPECT_EQ(access.cache_hits, 10u);
  EXPECT_EQ(access.cache_misses, 6u);
  EXPECT_EQ(access.cache_evictions, 2u);
  EXPECT_DOUBLE_EQ(access.CacheHitRatio(), 10.0 / 16.0);
  // The summary now carries the access line.
  EXPECT_NE(stats.Summary().find("accessed by"), std::string::npos)
      << stats.Summary();
}

TEST(DocumentStoreTest, ShrinkingCapacityUnderConcurrentLoadEvictsPromptly) {
  // The store is single-thread-only; concurrent access goes through an
  // external mutex exactly like the middleware driver's per-node lock.
  // Reader threads hammer Get while a control thread repeatedly shrinks
  // the cache byte budget; eviction must keep cache_bytes within the
  // *current* capacity at every step and the byte accounting must stay
  // conservation-clean. (scripts/check.sh runs this under TSan.)
  auto pool = Pool();
  DocumentStore store(pool, size_t{1} << 20);
  constexpr int kDocs = 24;
  for (int i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(store
                    .PutSerialized("d" + std::to_string(i),
                                   "<a><b>payload number " +
                                       std::to_string(i) +
                                       " with some text</b></a>")
                    .ok());
  }
  std::mutex mu;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      int i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(mu);
        auto doc = store.Get(static_cast<DocSlot>(i % kDocs));
        ASSERT_TRUE(doc.ok()) << doc.status();
        EXPECT_LE(store.cache_bytes(), store.cache_capacity_bytes());
        i += 3;
      }
    });
  }
  // Shrink the budget step by step down to (nearly) nothing.
  size_t capacity = size_t{1} << 20;
  for (int step = 0; step < 40; ++step) {
    capacity = capacity > 2048 ? capacity / 2 : 2048;
    {
      std::lock_guard<std::mutex> lock(mu);
      store.set_cache_capacity_bytes(capacity);
      // Prompt eviction: the shrink itself brings the cache under the
      // new bound — no waiting for the next Get.
      EXPECT_LE(store.cache_bytes(), capacity);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // Conservation after the churn: the cached-byte figure equals the sum
  // of the cached entries' parsed sizes (re-derivable by draining).
  const size_t cached_before_drop = store.cache_bytes();
  EXPECT_EQ(store.ShedCacheBytes(size_t{1} << 30), cached_before_drop);
  EXPECT_EQ(store.cache_bytes(), 0u);
}

}  // namespace
}  // namespace partix::storage
