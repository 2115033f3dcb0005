// Streaming batched result pipeline (docs/streaming-runtime.md):
//
//   - identity: every workload query over three fragmentation designs
//     answers byte-identically with streaming on vs the materialized
//     ablation, across parallelism levels and block sizes
//   - stable join reconstruction: fragments sharing a reconstruction id
//     merge in arrival order (std::stable_sort pin — equal keys must not
//     permute the merged children)
//   - failover mid-stream: a node that dies after forwarding blocks is
//     replaced by a replica; the committed prefix is replay-verified and
//     the answer stays byte-identical
//   - commit barrier: under kReturnPartial a lane that fails mid-stream
//     contributes nothing — its already-forwarded blocks are dropped
//   - deadline mid-stream: an expiring deadline leaks zero governor
//     bytes and conserves the block counters
//   - accounting: union composition's peak governed bytes stay near the
//     answer size (the double-charge regression test)

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "memory/governor.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "telemetry/metrics.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace partix::middleware {
namespace {

/// Fast retry policy for tests: real backoff shape, negligible sleeps.
RetryPolicy FastRetry(size_t max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.base_backoff_ms = 0.01;
  retry.max_backoff_ms = 0.1;
  retry.seed = 42;
  return retry;
}

/// Block-flow counter snapshot (partix_stream_blocks_*): the streaming
/// tests assert the conservation invariant produced == consumed +
/// discarded across fault-injected runs.
struct BlockCounters {
  uint64_t total = 0;
  uint64_t consumed = 0;
  uint64_t discarded = 0;

  static BlockCounters Read() {
    auto& registry = telemetry::MetricsRegistry::Global();
    BlockCounters out;
    out.total =
        registry.GetCounter("partix_stream_blocks_total")->Value();
    out.consumed =
        registry.GetCounter("partix_stream_blocks_consumed_total")->Value();
    out.discarded =
        registry.GetCounter("partix_stream_blocks_discarded_total")->Value();
    return out;
  }
};

/// Items collection fragmented by Section over a 4-node cluster with a
/// configurable replication factor (replica r of fragment i at node
/// (i + r) mod 4) — the failover_test fixture, reused for the streaming
/// fault-injection tests.
class StreamingClusterTest : public ::testing::Test {
 protected:
  explicit StreamingClusterTest(size_t replication_factor)
      : cluster_(4, xdb::DatabaseOptions(), NetworkModel()),
        publisher_(&cluster_, &catalog_),
        service_(&cluster_, &catalog_) {
    gen::ItemsGenOptions options;
    options.doc_count = 40;
    options.seed = 11;
    options.sections = {"CD", "DVD", "BOOK", "TOY"};
    auto items = gen::GenerateItems(options, nullptr);
    EXPECT_TRUE(items.ok());
    frag::FragmentationSchema schema;
    schema.collection = "items";
    for (const std::string& s : options.sections) {
      auto mu = xpath::Conjunction::Parse("/Item/Section = \"" + s + "\"");
      EXPECT_TRUE(mu.ok());
      schema.fragments.emplace_back(frag::HorizontalDef{"f_" + s, *mu});
    }
    EXPECT_TRUE(publisher_
                    .PublishFragmented(*items, schema, {},
                                       replication_factor)
                    .ok());
    // f_CD -> node 0, f_DVD -> node 1, f_BOOK -> node 2, f_TOY -> node 3
    // (+ backups on the next node(s) when replicated).
  }

  DistributionCatalog catalog_;
  ClusterSim cluster_;
  DataPublisher publisher_;
  QueryService service_;
};

class ReplicatedStreamingTest : public StreamingClusterTest {
 protected:
  ReplicatedStreamingTest() : StreamingClusterTest(2) {}
};

class UnreplicatedStreamingTest : public StreamingClusterTest {
 protected:
  UnreplicatedStreamingTest() : StreamingClusterTest(1) {}
};

/// Prunes to the single f_DVD sub-query (node 1) — the lane the fault
/// profiles below target.
const char* const kDvdNamesQuery =
    "for $i in collection(\"items\")/Item where $i/Section = \"DVD\" "
    "return $i/Name";
/// Touches every fragment: a 4-lane union.
const char* const kAllNamesQuery =
    "for $i in collection(\"items\")/Item return $i/Name";

// --- identity across fragmentation designs -------------------------------

enum class StreamDesign { kHorizontal, kVertical, kHybrid };

class StreamingIdentityP : public ::testing::TestWithParam<StreamDesign> {};

TEST_P(StreamingIdentityP, StreamingAnswersByteIdenticallyToMaterialized) {
  xml::Collection data;
  frag::FragmentationSchema schema;
  std::vector<workload::QuerySpec> queries;
  std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};

  switch (GetParam()) {
    case StreamDesign::kHorizontal: {
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
    case StreamDesign::kVertical: {
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
    case StreamDesign::kHybrid: {
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

  DistributionCatalog catalog;
  ClusterSim cluster(schema.fragments.size(), xdb::DatabaseOptions(),
                     NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(data, schema).ok());
  QueryService service(&cluster, &catalog);

  for (const workload::QuerySpec& q : queries) {
    ExecutionOptions materialized;
    materialized.streaming = false;
    auto base = service.Execute(q.text, materialized);
    ASSERT_TRUE(base.ok()) << q.id << ": " << base.status();
    EXPECT_EQ(base->stream_blocks, 0u) << q.id;

    for (size_t parallelism : {size_t{1}, size_t{0}}) {
      for (size_t block_items : {size_t{3}, size_t{256}}) {
        ExecutionOptions streaming;
        streaming.parallelism = parallelism;
        streaming.stream_block_items = block_items;
        auto result = service.Execute(q.text, streaming);
        ASSERT_TRUE(result.ok()) << q.id << ": " << result.status();
        EXPECT_EQ(result->serialized, base->serialized)
            << q.id << " at parallelism=" << parallelism
            << " block_items=" << block_items;
        EXPECT_EQ(result->result_items, base->result_items) << q.id;
        if (base->result_items > 0) {
          EXPECT_GT(result->stream_blocks, 0u) << q.id;
        }
        EXPECT_GE(result->ttfb_ms, 0.0) << q.id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, StreamingIdentityP,
    ::testing::Values(StreamDesign::kHorizontal, StreamDesign::kVertical,
                      StreamDesign::kHybrid),
    [](const ::testing::TestParamInfo<StreamDesign>& info) {
      switch (info.param) {
        case StreamDesign::kHorizontal:
          return "Horizontal";
        case StreamDesign::kVertical:
          return "Vertical";
        case StreamDesign::kHybrid:
          return "Hybrid";
      }
      return "Unknown";
    });

// --- stable join reconstruction ------------------------------------------

TEST(StreamingJoinTest, EqualReconstructionIdsMergeInArrivalOrder) {
  // Two fragments of one source document share reconstruction id 2
  // (FragMode2 siblings): JoinGroup merges the second into the container
  // the first created. The sort key (root id) is EQUAL for both, so only
  // a stable sort pins the merged children to plan order — this is the
  // std::stable_sort regression test. Run repeatedly: the pre-fix
  // std::sort was free to permute equal keys per run.
  DistributionCatalog catalog;
  ClusterSim cluster(2, xdb::DatabaseOptions(), NetworkModel());
  ASSERT_TRUE(cluster.node(0).CreateCollection("f_left", {}).ok());
  ASSERT_TRUE(cluster.node(1).CreateCollection("f_right", {}).ok());
  std::map<std::string, std::string> left_meta = {
      {"px-src", "d"}, {"px-root", "2"}, {"px-anc", "1:wrap"}};
  std::map<std::string, std::string> right_meta = left_meta;
  ASSERT_TRUE(cluster.node(0)
                  .StoreSerializedDocument("f_left", "d_left",
                                           "<s><x>L</x></s>", left_meta)
                  .ok());
  ASSERT_TRUE(cluster.node(1)
                  .StoreSerializedDocument("f_right", "d_right",
                                           "<s><x>R</x></s>", right_meta)
                  .ok());
  QueryService service(&cluster, &catalog);

  DistributedPlan plan;
  plan.collection = "joined";
  plan.original_query = "collection(\"joined\")/wrap";
  plan.composition = Composition::kJoinReconstruct;
  plan.subqueries.push_back({.fragment = "f_left",
                             .node = 0,
                             .query = "collection(\"f_left\")"});
  plan.subqueries.push_back({.fragment = "f_right",
                             .node = 1,
                             .query = "collection(\"f_right\")"});

  for (bool streaming : {true, false}) {
    for (int run = 0; run < 4; ++run) {
      ExecutionOptions options;
      options.streaming = streaming;
      auto result = service.ExecutePlan(plan, options);
      ASSERT_TRUE(result.ok())
          << "streaming=" << streaming << ": " << result.status();
      EXPECT_EQ(result->serialized, "<wrap><s><x>L</x><x>R</x></s></wrap>")
          << "streaming=" << streaming << " run=" << run;
    }
  }
}

// --- failover mid-stream --------------------------------------------------

TEST_F(ReplicatedStreamingTest, FailoverMidStreamKeepsAnswerByteIdentical) {
  // Node 1 (f_DVD primary) dies after serving ONE result block; the
  // executor fails over to the replica on node 2, which re-produces the
  // stream from the start. The channel replay-verifies the committed
  // prefix and drops it, so the forwarded block is never duplicated and
  // the answer matches the materialized baseline byte-for-byte.
  FaultProfile profile;
  profile.fail_stream_after_blocks = 1;
  cluster_.SetFaultProfile(1, profile);

  ExecutionOptions materialized;
  materialized.streaming = false;  // unaffected by the stream-only fault
  materialized.retry = FastRetry(3);
  auto base = service_.Execute(kDvdNamesQuery, materialized);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_GT(base->result_items, 1u);  // multi-block at block size 1

  auto& registry = telemetry::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const BlockCounters before = BlockCounters::Read();

  ExecutionOptions streaming;
  streaming.retry = FastRetry(3);
  streaming.stream_block_items = 1;  // one item per block
  auto result = service_.Execute(kDvdNamesQuery, streaming);

  const BlockCounters after = BlockCounters::Read();
  registry.set_enabled(was_enabled);

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->serialized, base->serialized);
  EXPECT_EQ(result->result_items, base->result_items);
  EXPECT_TRUE(result->complete);
  EXPECT_GE(result->failovers, 1u);
  EXPECT_GT(result->stream_blocks, 1u);
  // The failed-over sub-query records where it actually ran.
  for (const SubQueryStats& stats : result->subqueries) {
    if (stats.fragment == "f_DVD") {
      EXPECT_EQ(stats.node, 2u);
    }
  }
  // Conservation: every block pushed was either composed or discarded
  // (replay-dropped duplicates are counted in neither side).
  EXPECT_EQ(after.total - before.total, (after.consumed - before.consumed) +
                                           (after.discarded -
                                            before.discarded));
}

// --- commit barrier under kReturnPartial ---------------------------------

TEST_F(UnreplicatedStreamingTest, ReturnPartialDiscardsFailedLanePrefix) {
  // The f_DVD lane forwards one block and then dies on every attempt
  // (unreplicated: no failover target). Under kReturnPartial the query
  // still succeeds, but the commit barrier must drop the lane's
  // forwarded prefix — the degraded answer has to equal the one computed
  // with the node fully down, not contain a torn f_DVD fragment.
  ExecutionOptions degraded;
  degraded.streaming = false;
  degraded.retry = FastRetry(2);
  degraded.partial_results = PartialResultPolicy::kReturnPartial;
  cluster_.SetNodeDown(1, true);
  auto base = service_.Execute(kAllNamesQuery, degraded);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_FALSE(base->complete);
  cluster_.SetNodeDown(1, false);

  FaultProfile profile;
  profile.fail_stream_after_blocks = 1;
  cluster_.SetFaultProfile(1, profile);

  auto& registry = telemetry::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const BlockCounters before = BlockCounters::Read();

  ExecutionOptions streaming;
  streaming.retry = FastRetry(2);
  streaming.stream_block_items = 1;
  streaming.partial_results = PartialResultPolicy::kReturnPartial;
  auto result = service_.Execute(kAllNamesQuery, streaming);

  const BlockCounters after = BlockCounters::Read();
  registry.set_enabled(was_enabled);

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->complete);
  ASSERT_EQ(result->missing_fragments.size(), 1u);
  EXPECT_EQ(result->missing_fragments[0], "f_DVD");
  EXPECT_EQ(result->serialized, base->serialized);
  EXPECT_EQ(result->result_items, base->result_items);
  EXPECT_EQ(after.total - before.total, (after.consumed - before.consumed) +
                                           (after.discarded -
                                            before.discarded));
}

// --- deadline expires mid-stream -----------------------------------------

TEST_F(UnreplicatedStreamingTest, DeadlineMidStreamLeaksNoGovernorBytes) {
  // Node 1 stalls 30 ms before producing each block while the sub-query
  // deadline is 10 ms: the f_DVD attempt dies mid-stream, retries cannot
  // fit in the remaining budget, and the whole query fails under kFail.
  // The invariant under test is cleanup: zero bytes left charged to the
  // governor, and block counters that conserve (the healthy lanes'
  // forwarded blocks are all discarded).
  memory::MemoryGovernor governor(size_t{64} << 20);
  service_.set_memory_governor(&governor);

  FaultProfile profile;
  profile.stream_block_stall_ms = 30.0;
  cluster_.SetFaultProfile(1, profile);

  auto& registry = telemetry::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const BlockCounters before = BlockCounters::Read();

  ExecutionOptions options;
  options.retry = FastRetry(2);
  options.retry.subquery_deadline_ms = 10.0;
  options.stream_block_items = 1;
  auto result = service_.Execute(kAllNamesQuery, options);

  const BlockCounters after = BlockCounters::Read();
  registry.set_enabled(was_enabled);

  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("f_DVD"), std::string::npos)
      << result.status();
  EXPECT_EQ(governor.charged_bytes(), 0u);
  EXPECT_EQ(after.total - before.total, (after.consumed - before.consumed) +
                                           (after.discarded -
                                            before.discarded));
  service_.set_memory_governor(nullptr);
}

// --- union accounting: the double-charge regression ----------------------

TEST_F(UnreplicatedStreamingTest, UnionPeakGovernedBytesStayNearAnswerSize) {
  // Materialized union used to charge the partials AND the composed
  // answer without releasing the partials in between: peak ~ 2x the
  // answer. Post-fix each partial is released as it is appended, so the
  // peak stays within ~1.5x of the answer; the streaming path is bounded
  // the same way (incremental answer + a bounded block buffer). Both
  // paths must end with zero bytes charged.
  memory::MemoryGovernor governor(size_t{64} << 20);
  service_.set_memory_governor(&governor);

  ExecutionOptions materialized;
  materialized.streaming = false;
  governor.ResetPeakCharged();
  auto base = service_.Execute(kAllNamesQuery, materialized);
  ASSERT_TRUE(base.ok()) << base.status();
  const size_t answer_bytes = base->result_bytes;
  ASSERT_GT(answer_bytes, 0u);
  const size_t peak_materialized = governor.peak_charged_bytes();
  EXPECT_EQ(governor.charged_bytes(), 0u);
  EXPECT_GE(peak_materialized, answer_bytes);
  EXPECT_LE(peak_materialized, answer_bytes + answer_bytes / 2);

  governor.ResetPeakCharged();
  ExecutionOptions streaming;
  auto result = service_.Execute(kAllNamesQuery, streaming);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->serialized, base->serialized);
  const size_t peak_streaming = governor.peak_charged_bytes();
  EXPECT_EQ(governor.charged_bytes(), 0u);
  EXPECT_LE(peak_streaming, answer_bytes + answer_bytes / 2);

  service_.set_memory_governor(nullptr);
}

}  // namespace
}  // namespace partix::middleware
