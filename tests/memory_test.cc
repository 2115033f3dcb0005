// Memory governance subsystem tests (docs/memory.md):
//
//   - ArenaPool: size classes, chunk recycling across arenas, the
//     retained-bytes cap, oversize handling, fragmentation accounting,
//     Trim, and concurrent acquire/release
//   - Arena: pooled vs direct byte-accounting parity, move semantics
//   - xml::Document byte identity: pooled and direct parses serialize
//     identically and report identical ApproxBytes (cache eviction
//     behaves the same with pooling on or off)
//   - xml::Document charge: ApproxBytes covers most of the heap a parsed
//     document holds and never more
//   - MemoryGovernor: charge/release/headroom, priority-ordered
//     eviction, pinned consumers and the overcommit counter, budget
//     shrink pressure, callback re-entrancy
//   - governed consumers: DocumentStore parse-cache shedding, PlanCache
//     byte bound, Database end-to-end under a tiny budget

#include <malloc.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "gen/virtual_store.h"
#include "gtest/gtest.h"
#include "memory/arena.h"
#include "memory/governor.h"
#include "storage/document_store.h"
#include "xml/name_pool.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace partix::memory {
namespace {

constexpr size_t KiB = size_t{1} << 10;

// --- ArenaPool -----------------------------------------------------------

TEST(ArenaPoolTest, AcquireRoundsUpToSizeClass) {
  ArenaPool pool;
  ArenaPool::Chunk* small = pool.Acquire(1);
  EXPECT_EQ(small->capacity, pool.options().min_chunk_bytes);
  ArenaPool::Chunk* mid = pool.Acquire(16 * KiB + 1);
  EXPECT_EQ(mid->capacity, 32 * KiB);
  pool.Release(small, 1);
  pool.Release(mid, 16 * KiB + 1);
}

TEST(ArenaPoolTest, ReleasedChunksAreReused) {
  ArenaPool pool;
  ArenaPool::Chunk* first = pool.Acquire(1);
  pool.Release(first, 100);
  ArenaPoolStats after_release = pool.stats();
  EXPECT_EQ(after_release.chunks_recycled, 1u);
  EXPECT_EQ(after_release.retained_bytes, pool.options().min_chunk_bytes);
  EXPECT_EQ(after_release.outstanding_bytes, 0u);

  ArenaPool::Chunk* second = pool.Acquire(1);
  ArenaPoolStats after_reuse = pool.stats();
  EXPECT_EQ(after_reuse.chunks_reused, 1u);
  EXPECT_EQ(after_reuse.chunks_created, 1u);  // still just the first
  EXPECT_EQ(after_reuse.retained_bytes, 0u);
  pool.Release(second, 0);
}

TEST(ArenaPoolTest, ALargerFreeChunkServesASmallerRequest) {
  ArenaPool pool;
  ArenaPool::Chunk* big = pool.Acquire(64 * KiB);
  pool.Release(big, 64 * KiB);
  // A min-class request is served from the idle 64 KiB chunk rather than
  // allocating fresh.
  ArenaPool::Chunk* chunk = pool.Acquire(1);
  EXPECT_EQ(chunk->capacity, 64 * KiB);
  EXPECT_EQ(pool.stats().chunks_reused, 1u);
  pool.Release(chunk, 1);
}

TEST(ArenaPoolTest, OversizeChunksAreNeverRetained) {
  ArenaPool pool;
  const size_t oversize = pool.options().max_chunk_bytes * 2;
  ArenaPool::Chunk* chunk = pool.Acquire(oversize);
  EXPECT_GE(chunk->capacity, oversize);
  pool.Release(chunk, oversize);
  ArenaPoolStats stats = pool.stats();
  EXPECT_EQ(stats.chunks_freed, 1u);
  EXPECT_EQ(stats.retained_bytes, 0u);
}

TEST(ArenaPoolTest, OversizeChunksAreExactSize) {
  ArenaPool pool;
  const size_t oversize = pool.options().max_chunk_bytes + 1;
  ArenaPool::Chunk* chunk = pool.Acquire(oversize);
  EXPECT_EQ(chunk->capacity, oversize);
  EXPECT_EQ(pool.stats().outstanding_bytes, oversize);
  pool.Release(chunk, oversize);

  // An arena's text just past the largest class takes a chunk of its size.
  Arena arena(&pool);
  arena.CopyString(std::string(oversize, 'x'));
  EXPECT_EQ(arena.capacity_bytes(), oversize);
}

TEST(ArenaPoolTest, RetainedCapBoundsIdleBytes) {
  ArenaPoolOptions options;
  // Room for two min-class chunks.
  options.max_retained_bytes = 2 * options.min_chunk_bytes;
  ArenaPool pool(options);
  std::vector<ArenaPool::Chunk*> chunks;
  for (int i = 0; i < 4; ++i) chunks.push_back(pool.Acquire(1));
  for (ArenaPool::Chunk* c : chunks) pool.Release(c, 1);
  ArenaPoolStats stats = pool.stats();
  EXPECT_LE(stats.retained_bytes, options.max_retained_bytes);
  EXPECT_EQ(stats.chunks_recycled, 2u);
  EXPECT_EQ(stats.chunks_freed, 2u);
}

TEST(ArenaPoolTest, FragmentationReflectsUnusedReleasedCapacity) {
  ArenaPool pool;
  ArenaPool::Chunk* chunk = pool.Acquire(1);  // min class
  pool.Release(chunk, pool.options().min_chunk_bytes / 4);  // quarter used
  EXPECT_NEAR(pool.stats().fragmentation_pct(), 75.0, 0.1);
}

TEST(ArenaPoolTest, TrimReturnsIdleCapacity) {
  ArenaPool pool;
  ArenaPool::Chunk* chunk = pool.Acquire(1);
  pool.Release(chunk, 1);
  ASSERT_GT(pool.stats().retained_bytes, 0u);
  pool.Trim();
  ArenaPoolStats stats = pool.stats();
  EXPECT_EQ(stats.retained_bytes, 0u);
  EXPECT_EQ(stats.chunks_freed, 1u);
}

TEST(ArenaPoolTest, ConcurrentAcquireReleaseConserves) {
  ArenaPool pool;
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kIterations; ++i) {
        Arena arena(&pool);
        arena.Allocate(1000);
        arena.CopyString("concurrent arena traffic");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ArenaPoolStats stats = pool.stats();
  EXPECT_EQ(stats.outstanding_bytes, 0u);  // every chain came back
  // Conservation: every acquisition (fresh or reused) was matched by a
  // release that either recycled or freed the chunk.
  EXPECT_EQ(stats.chunks_created + stats.chunks_reused,
            stats.chunks_recycled + stats.chunks_freed);
  EXPECT_GT(stats.chunks_reused, 0u);  // recycling actually happened
}

// --- Arena ---------------------------------------------------------------

TEST(ArenaTest, PooledAndDirectByteAccountingMatch) {
  ArenaPool pool;
  Arena pooled(&pool);
  Arena direct;
  for (int i = 0; i < 50; ++i) {
    const size_t n = 1 + static_cast<size_t>(i) * 7;
    pooled.Allocate(n, 1);
    direct.Allocate(n, 1);
    pooled.CopyString("text payload");
    direct.CopyString("text payload");
  }
  EXPECT_EQ(pooled.used_bytes(), direct.used_bytes());
  EXPECT_TRUE(pooled.pooled());
  EXPECT_FALSE(direct.pooled());
}

TEST(ArenaTest, CopyStringIsStableAndIndependent) {
  ArenaPool pool;
  Arena arena(&pool);
  std::string original = "the quick brown fox";
  std::string_view copy = arena.CopyString(original);
  original.assign(original.size(), 'x');
  EXPECT_EQ(copy, "the quick brown fox");
  EXPECT_EQ(arena.CopyString(""), std::string_view());
}

TEST(ArenaTest, MoveTransfersTheChainOnce) {
  ArenaPool pool;
  Arena a(&pool);
  std::string_view s = a.CopyString("payload");
  Arena b(std::move(a));
  EXPECT_EQ(s, "payload");  // still backed by the moved-to arena
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_GT(b.used_bytes(), 0u);
  Arena c;
  c = std::move(b);
  EXPECT_EQ(s, "payload");
  EXPECT_EQ(b.used_bytes(), 0u);
  // c's destructor releases the chain exactly once (ASan would flag a
  // double release).
}

TEST(ArenaTest, ClearRecyclesIntoThePool) {
  ArenaPool pool;
  Arena arena(&pool);
  arena.Allocate(100);
  EXPECT_GT(arena.capacity_bytes(), 0u);
  arena.Clear();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.capacity_bytes(), 0u);
  EXPECT_EQ(pool.stats().outstanding_bytes, 0u);
  EXPECT_GT(pool.stats().retained_bytes, 0u);
}

// --- Document byte identity ----------------------------------------------

constexpr const char* kDoc =
    "<Item><Code>77</Code><Name>arena &amp; pool</Name>"
    "<Description>entities &lt;decode&gt; into scratch</Description>"
    "<Section>CD</Section></Item>";

TEST(DocumentArenaTest, PooledAndDirectParsesAreByteIdentical) {
  auto pool = std::make_shared<xml::NamePool>();
  ASSERT_TRUE(DocumentArenaPoolingEnabled());  // default is on
  auto pooled = xml::ParseXml(pool, "d", kDoc);
  ASSERT_TRUE(pooled.ok()) << pooled.status();

  SetDocumentArenaPooling(false);
  auto direct = xml::ParseXml(pool, "d", kDoc);
  SetDocumentArenaPooling(true);
  ASSERT_TRUE(direct.ok()) << direct.status();

  EXPECT_EQ(xml::Serialize(**pooled), xml::Serialize(**direct));
  EXPECT_EQ((*pooled)->ApproxBytes(), (*direct)->ApproxBytes());
}

// --- Document charge -----------------------------------------------------

// Heap bytes in use by the C allocator, brk and mmap chunks of every
// malloc arena alike.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

struct ChargeAndGrowth {
  size_t charge = 0;
  size_t growth = 0;
};

// Parses every text and holds the documents; returns their summed
// ApproxBytes and the heap the parses left allocated.
ChargeAndGrowth ParseAndHold(const std::vector<std::string>& texts) {
  auto pool = std::make_shared<xml::NamePool>();
  // Intern the names first: the pool is shared, not any document's.
  EXPECT_TRUE(xml::ParseXml(pool, "warm", texts.front()).ok());
  std::vector<xml::DocumentPtr> held;
  held.reserve(texts.size());
  ArenaPool::Global().Trim();  // no idle chunk may serve the parses
  const size_t before = HeapInUse();
  for (const std::string& text : texts) {
    auto doc = xml::ParseXml(pool, "d", text);
    EXPECT_TRUE(doc.ok()) << doc.status();
    if (doc.ok()) held.push_back(*doc);
  }
  ChargeAndGrowth out;
  const size_t after = HeapInUse();
  out.growth = after > before ? after - before : 0;
  for (const xml::DocumentPtr& doc : held) out.charge += doc->ApproxBytes();
  return out;
}

// The parse cache and the governor charge ApproxBytes, so it must cover
// most of what a document holds (the rest is arena chunk slack and malloc
// headers) and never claim more.
TEST(DocumentChargeTest, ChargeCoversHeldHeap) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators keep their own books";
#endif
  gen::ItemsGenOptions item_options;
  item_options.doc_count = 2000;
  auto items = gen::GenerateItems(item_options, nullptr);
  ASSERT_TRUE(items.ok()) << items.status();
  std::vector<std::string> item_texts;
  for (const xml::DocumentPtr& doc : items->docs()) {
    item_texts.push_back(xml::Serialize(*doc));
  }
  auto store =
      gen::GenerateStoreBySize(gen::StoreGenOptions(), 4 << 20, nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  const std::vector<std::string> store_text = {
      xml::Serialize(*store->docs().front())};

  const std::vector<std::string>* const sets[] = {&item_texts, &store_text};
  for (const std::vector<std::string>* texts : sets) {
    const ChargeAndGrowth measured = ParseAndHold(*texts);
    if (measured.growth == 0) GTEST_SKIP() << "mallinfo2 reads no heap";
    const double ratio = static_cast<double>(measured.charge) /
                         static_cast<double>(measured.growth);
    EXPECT_GE(ratio, 0.75) << texts->size() << " documents: charge "
                           << measured.charge << " of " << measured.growth;
    EXPECT_LE(ratio, 1.0) << texts->size() << " documents: charge "
                          << measured.charge << " of " << measured.growth;
  }
}

// --- MemoryGovernor ------------------------------------------------------

TEST(GovernorTest, ChargeReleaseAndHeadroom) {
  MemoryGovernor governor(1000);
  EXPECT_EQ(governor.budget_bytes(), 1000u);
  EXPECT_EQ(governor.headroom_bytes(), 1000u);
  const int id = governor.RegisterConsumer("c", 0, nullptr);
  governor.Charge(id, 400);
  EXPECT_EQ(governor.charged_bytes(), 400u);
  EXPECT_EQ(governor.consumer_bytes(id), 400u);
  EXPECT_EQ(governor.headroom_bytes(), 600u);
  governor.Release(id, 400);
  EXPECT_EQ(governor.charged_bytes(), 0u);
  EXPECT_EQ(governor.headroom_bytes(), 1000u);
}

TEST(GovernorTest, UnregisterReleasesRemainingCharge) {
  MemoryGovernor governor(1000);
  const int id = governor.RegisterConsumer("c", 0, nullptr);
  governor.Charge(id, 700);
  governor.UnregisterConsumer(id);
  EXPECT_EQ(governor.charged_bytes(), 0u);
}

TEST(GovernorTest, PressureEvictsInAscendingPriorityOrder) {
  MemoryGovernor governor(1000);
  std::vector<std::string> order;
  size_t parse_held = 600;
  size_t plan_held = 300;
  int parse_id = 0;
  int plan_id = 0;
  parse_id = governor.RegisterConsumer(
      "parse", MemoryGovernor::kPriorityParseCache,
      [&](size_t) {
        order.push_back("parse");
        const size_t freed = parse_held;
        parse_held = 0;
        governor.Release(parse_id, freed);
        return freed;
      });
  plan_id = governor.RegisterConsumer(
      "plan", MemoryGovernor::kPriorityPlanCache,
      [&](size_t) {
        order.push_back("plan");
        const size_t freed = plan_held;
        plan_held = 0;
        governor.Release(plan_id, freed);
        return freed;
      });
  governor.Charge(parse_id, 600);
  governor.Charge(plan_id, 300);
  EXPECT_TRUE(order.empty());  // 900 <= 1000: no pressure yet

  const int pinned = governor.RegisterConsumer(
      "pinned", MemoryGovernor::kPriorityPinned, nullptr);
  governor.Charge(pinned, 400);  // 1300 > 1000

  // Shedding the parse cache alone (600) already relieves the pressure;
  // the plan cache is untouched.
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "parse");
  EXPECT_EQ(governor.consumer_bytes(plan_id), 300u);
  EXPECT_LE(governor.charged_bytes(), 1000u);
  EXPECT_GE(governor.stats().pressure_events, 1u);
  EXPECT_GE(governor.stats().evicted_bytes, 600u);
}

TEST(GovernorTest, PinnedOverloadCountsAnOvercommit) {
  MemoryGovernor governor(100);
  const int pinned = governor.RegisterConsumer(
      "pinned", MemoryGovernor::kPriorityPinned, nullptr);
  governor.Charge(pinned, 500);  // nothing can shed
  EXPECT_EQ(governor.charged_bytes(), 500u);  // charge still succeeded
  EXPECT_GE(governor.stats().overcommits, 1u);
}

TEST(GovernorTest, BudgetShrinkTriggersPressure) {
  MemoryGovernor governor(1000);
  std::atomic<int> evictions{0};
  size_t held = 800;
  int id = 0;
  id = governor.RegisterConsumer("c", 0, [&](size_t) {
    ++evictions;
    const size_t freed = held;
    held = 0;
    governor.Release(id, freed);
    return freed;
  });
  governor.Charge(id, 800);
  EXPECT_EQ(evictions.load(), 0);
  governor.set_budget_bytes(500);
  EXPECT_EQ(evictions.load(), 1);
  EXPECT_EQ(governor.charged_bytes(), 0u);
  EXPECT_EQ(governor.budget_bytes(), 500u);
}

// --- governed DocumentStore ----------------------------------------------

std::string SmallDoc(int code) {
  return "<Item><Code>" + std::to_string(code) +
         "</Code><Name>item name with some padding text</Name>"
         "<Section>CD</Section></Item>";
}

TEST(GovernedStoreTest, ExternalPressureShedsTheParseCache) {
  MemoryGovernor governor(size_t{1} << 20);
  storage::DocumentStore store(std::make_shared<xml::NamePool>(),
                               size_t{64} << 20);  // own bound: generous
  store.AttachGovernor(&governor);
  for (int i = 0; i < 10; ++i) {
    auto slot = store.PutSerialized("d" + std::to_string(i), SmallDoc(i));
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(store.Get(*slot).ok());
  }
  ASSERT_GT(store.cache_bytes(), 0u);
  EXPECT_EQ(governor.charged_bytes(), store.cache_bytes());

  // A pinned charge takes the whole budget: the parse cache must shed
  // everything it holds.
  const int pinned = governor.RegisterConsumer(
      "pinned", MemoryGovernor::kPriorityPinned, nullptr);
  governor.Charge(pinned, governor.budget_bytes());
  EXPECT_EQ(store.cache_bytes(), 0u);
  EXPECT_GT(store.metrics().cache_evictions, 0u);
  // Conservation: the governor now sees only the pinned charge.
  EXPECT_EQ(governor.charged_bytes(), governor.budget_bytes());
  store.AttachGovernor(nullptr);
}

// --- PlanCache byte bound -------------------------------------------------

TEST(PlanCacheBytesTest, ByteCapacityBoundsTheCache) {
  xdb::DatabaseOptions options;
  options.plan_cache_capacity = 128;
  options.plan_cache_capacity_bytes = 4096;  // a handful of plans
  xdb::Database db(options);
  ASSERT_TRUE(db.CreateCollection("items").ok());
  ASSERT_TRUE(db.StoreSerialized("items", "d0", SmallDoc(0)).ok());
  for (int i = 0; i < 32; ++i) {
    // Distinct texts -> distinct cache entries.
    auto result = db.Execute(
        "count(collection(\"items\")/Item[Code = \"" + std::to_string(i) +
        "\"])");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LE(db.plan_cache_bytes(), options.plan_cache_capacity_bytes);
    EXPECT_EQ(result->metrics.plan_cache_bytes, db.plan_cache_bytes());
  }
  EXPECT_GT(db.plan_cache_stats().evictions, 0u);
  EXPECT_GT(db.plan_cache_size(), 0u);
}

// --- Database end-to-end under a budget -----------------------------------

TEST(DatabaseBudgetTest, TinyBudgetChangesNoAnswers) {
  xdb::DatabaseOptions governed_options;
  governed_options.memory_budget_bytes = 4 * KiB;  // absurdly tight
  xdb::Database governed(governed_options);
  xdb::Database plain;
  ASSERT_NE(governed.governor(), nullptr);
  EXPECT_EQ(plain.governor(), nullptr);

  for (xdb::Database* db : {&governed, &plain}) {
    ASSERT_TRUE(db->CreateCollection("items").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          db->StoreSerialized("items", "d" + std::to_string(i), SmallDoc(i))
              .ok());
    }
  }
  const std::vector<std::string> queries = {
      "count(collection(\"items\")/Item)",
      "for $i in collection(\"items\")/Item where $i/Section = \"CD\" "
      "return $i/Code",
      "collection(\"items\")/Item[Code = \"7\"]/Name",
  };
  for (const std::string& q : queries) {
    auto a = governed.Execute(q);
    auto b = plain.Execute(q);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->serialized, b->serialized) << q;
  }
  // The budget held: pressure fired and the caches were kept near it
  // (pinned/in-flight overshoot is possible, unbounded growth is not).
  EXPECT_GT(governed.governor()->stats().pressure_events, 0u);
  EXPECT_LE(governed.governor()->charged_bytes(),
            governed_options.memory_budget_bytes);
}

}  // namespace
}  // namespace partix::memory
