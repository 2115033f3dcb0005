// Failure injection: PartiX against dead DBMS nodes. Data localization
// has a useful side effect the paper's architecture implies but never
// tests: queries that are pruned away from a dead node's fragment keep
// working.

#include <regex>

#include "common/strings.h"
#include "gen/virtual_store.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "workload/schemas.h"

namespace partix::middleware {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  FailureTest()
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
    EXPECT_TRUE(publisher_.PublishFragmented(*items, schema).ok());
    // Fragments placed round-robin: f_CD -> node 0, f_DVD -> node 1, ...
  }

  DistributionCatalog catalog_;
  ClusterSim cluster_;
  DataPublisher publisher_;
  QueryService service_;
};

TEST_F(FailureTest, NodesStartAlive) {
  for (size_t i = 0; i < cluster_.node_count(); ++i) {
    EXPECT_FALSE(cluster_.IsNodeDown(i));
  }
}

TEST_F(FailureTest, QueryTouchingDeadNodeFailsCleanly) {
  cluster_.SetNodeDown(1, true);  // f_DVD
  auto result = service_.Execute(
      "for $i in collection(\"items\")/Item "
      "where $i/Section = \"DVD\" return $i/Name");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(result.status().message(), "f_DVD"));
}

TEST_F(FailureTest, LocalizedQueryAvoidsDeadNode) {
  cluster_.SetNodeDown(1, true);  // f_DVD
  // A CD-only query never touches node 1: it still succeeds.
  auto result = service_.Execute(
      "count(collection(\"items\")/Item[Section = \"CD\"])");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->subqueries.size(), 1u);
}

TEST_F(FailureTest, FullScanFailsWhileAnyNeededNodeIsDown) {
  cluster_.SetNodeDown(3, true);
  auto result = service_.Execute("count(collection(\"items\")/Item)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(FailureTest, EveryDownNodeIsReportedInOneError) {
  // Operators restoring a cluster need the full outage picture at once,
  // not one node per retry.
  cluster_.SetNodeDown(1, true);  // f_DVD
  cluster_.SetNodeDown(3, true);  // f_TOY
  auto result = service_.Execute("count(collection(\"items\")/Item)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  const std::string& message = result.status().message();
  // Every unreachable fragment is named in the canonical
  // `fragment@node<i>` form.
  EXPECT_TRUE(Contains(message, "f_DVD@node1")) << message;
  EXPECT_TRUE(Contains(message, "f_TOY@node3")) << message;
  // Healthy nodes are not in the report.
  EXPECT_FALSE(Contains(message, "f_CD")) << message;
  EXPECT_FALSE(Contains(message, "f_BOOK")) << message;
}

TEST_F(FailureTest, ErrorTokensUseCanonicalFragmentAtNodeFormat) {
  // Both error paths — unreachable fragments and post-dispatch sub-query
  // failures — must name fragments as `fragment@node<i>`, nothing else.
  const std::regex token("f_[A-Z]+@node[0-9]+");

  cluster_.SetNodeDown(1, true);
  auto unreachable = service_.Execute("count(collection(\"items\")/Item)");
  ASSERT_FALSE(unreachable.ok());
  EXPECT_TRUE(std::regex_search(unreachable.status().message(), token))
      << unreachable.status().message();
  // The legacy "node 1 (fragment ...)" spelling is gone.
  EXPECT_FALSE(Contains(unreachable.status().message(), "(fragment"))
      << unreachable.status().message();
  cluster_.SetNodeDown(1, false);

  EXPECT_TRUE(cluster_.database(2).DropCollection("f_BOOK").ok());
  auto failed = service_.Execute("count(collection(\"items\")/Item)");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(std::regex_search(failed.status().message(), token))
      << failed.status().message();
  EXPECT_TRUE(Contains(failed.status().message(), "f_BOOK@node2"))
      << failed.status().message();
}

TEST_F(FailureTest, DownNodesReportedIdenticallyUnderParallelDispatch) {
  cluster_.SetNodeDown(0, true);  // f_CD
  cluster_.SetNodeDown(2, true);  // f_BOOK
  ExecutionOptions options;
  options.parallelism = 4;
  auto result =
      service_.Execute("count(collection(\"items\")/Item)", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(result.status().message(), "f_CD"));
  EXPECT_TRUE(Contains(result.status().message(), "f_BOOK"));
}

TEST_F(FailureTest, SubQueryFailuresAreAggregatedAcrossNodes) {
  // Break two nodes *behind* the middleware: their fragments vanish from
  // the engines while the catalog still routes to them. Both failures
  // must surface in a single error, not just the first.
  EXPECT_TRUE(cluster_.database(1).DropCollection("f_DVD").ok());
  EXPECT_TRUE(cluster_.database(3).DropCollection("f_TOY").ok());
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    ExecutionOptions options;
    options.parallelism = parallelism;
    auto result =
        service_.Execute("count(collection(\"items\")/Item)", options);
    ASSERT_FALSE(result.ok());
    const std::string& message = result.status().message();
    EXPECT_TRUE(Contains(message, "2 of 4 sub-queries failed")) << message;
    EXPECT_TRUE(Contains(message, "f_DVD")) << message;
    EXPECT_TRUE(Contains(message, "f_TOY")) << message;
  }
}

TEST_F(FailureTest, RecoveryRestoresService) {
  cluster_.SetNodeDown(2, true);
  EXPECT_FALSE(service_.Execute("count(collection(\"items\")/Item)").ok());
  cluster_.SetNodeDown(2, false);
  auto result = service_.Execute("count(collection(\"items\")/Item)");
  EXPECT_TRUE(result.ok()) << result.status();
}

TEST_F(FailureTest, ExplainRoutesAroundDownPrimary) {
  // Explain consults liveness but never executes, so a replicated catalog
  // over the same cluster is enough to show failover routing.
  frag::FragmentationSchema schema;
  schema.collection = "items_rf2";
  std::vector<FragmentPlacement> placements;
  const std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};
  for (size_t i = 0; i < sections.size(); ++i) {
    auto mu =
        xpath::Conjunction::Parse("/Item/Section = \"" + sections[i] + "\"");
    ASSERT_TRUE(mu.ok());
    schema.fragments.emplace_back(
        frag::HorizontalDef{"r_" + sections[i], *mu});
    FragmentPlacement p{.fragment = "r_" + sections[i], .node = i};
    p.backups.push_back((i + 1) % 4);
    placements.push_back(std::move(p));
  }
  DistributionCatalog replicated;
  ASSERT_TRUE(replicated.Register(schema, placements).ok());
  QueryService service(&cluster_, &replicated);

  auto healthy = service.Explain("count(collection(\"items_rf2\")/Item)");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_TRUE(Contains(*healthy, "node 1  r_DVD")) << *healthy;
  EXPECT_TRUE(Contains(*healthy, "[replicas: node1,node2]")) << *healthy;
  EXPECT_FALSE(Contains(*healthy, "failover")) << *healthy;

  cluster_.SetNodeDown(1, true);  // r_DVD primary
  auto routed = service.Explain("count(collection(\"items_rf2\")/Item)");
  ASSERT_TRUE(routed.ok()) << routed.status();
  // The DVD sub-query now shows its backup as the serving node.
  EXPECT_TRUE(Contains(*routed, "node 2  r_DVD")) << *routed;
  EXPECT_TRUE(Contains(*routed, "[primary node1 down -> failover]"))
      << *routed;
}

TEST_F(FailureTest, OutOfRangeIndexIsHarmless) {
  cluster_.SetNodeDown(99, true);  // no-op
  EXPECT_FALSE(cluster_.IsNodeDown(99));
  EXPECT_TRUE(service_.Execute("count(collection(\"items\")/Item)").ok());
}

}  // namespace
}  // namespace partix::middleware
