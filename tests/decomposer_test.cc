// Focused decomposition/localization tests: predicate contradiction over
// ranges, strings, contains, and existence; rewriting details; plan notes
// and composition selection.

#include "partix/decomposer.h"

#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/query_service.h"
#include "workload/schemas.h"
#include "xpath/predicate.h"

namespace partix::middleware {
namespace {

xpath::Conjunction Mu(const std::string& text) {
  auto result = xpath::Conjunction::Parse(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

/// Builds a catalog with one horizontally fragmented collection "c" whose
/// fragments carry the given predicates (placed on nodes 0..n-1).
DistributionCatalog MakeCatalog(
    const std::vector<std::pair<std::string, std::string>>& fragments) {
  DistributionCatalog catalog;
  frag::FragmentationSchema schema;
  schema.collection = "c";
  std::vector<FragmentPlacement> placements;
  size_t node = 0;
  for (const auto& [name, mu] : fragments) {
    schema.fragments.emplace_back(frag::HorizontalDef{name, Mu(mu)});
    placements.push_back(FragmentPlacement{.fragment = name, .node = node++});
  }
  EXPECT_TRUE(catalog.Register(std::move(schema), std::move(placements))
                  .ok());
  return catalog;
}

std::vector<std::string> Fragments(const DistributedPlan& plan) {
  std::vector<std::string> out;
  for (const SubQuery& sub : plan.subqueries) out.push_back(sub.fragment);
  return out;
}

TEST(DecomposerLocalizationTest, EqualityAgainstEqualityFragments) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_cd", "/Item/Section = \"CD\""},
      {"f_dvd", "/Item/Section = \"DVD\""},
      {"f_rest", "/Item/Section != \"CD\" and /Item/Section != \"DVD\""},
  });
  QueryDecomposer decomposer(&catalog);
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item where $i/Section = \"DVD\" "
      "return $i/Name");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Fragments(*plan), (std::vector<std::string>{"f_dvd"}));
  EXPECT_EQ(plan->pruned_fragments, 2u);
}

TEST(DecomposerLocalizationTest, EqualityAgainstStringRanges) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_low", "/Item/Section < \"M\""},
      {"f_high", "/Item/Section >= \"M\""},
  });
  QueryDecomposer decomposer(&catalog);
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item where $i/Section = \"CD\" "
      "return $i");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Fragments(*plan), (std::vector<std::string>{"f_low"}));
}

TEST(DecomposerLocalizationTest, NumericRangesAgainstRangeFragments) {
  DistributionCatalog catalog = MakeCatalog({
      {"f0", "/Item/Code < 100"},
      {"f1", "/Item/Code >= 100 and /Item/Code < 200"},
      {"f2", "/Item/Code >= 200"},
  });
  QueryDecomposer decomposer(&catalog);
  // Query range [120, 150): only f1 can match.
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item "
      "where $i/Code >= 120 and $i/Code < 150 return $i");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Fragments(*plan), (std::vector<std::string>{"f1"}));

  // Point query on the boundary: 200 lands in f2 only.
  auto boundary = decomposer.Decompose(
      "for $i in collection(\"c\")/Item where $i/Code = 200 return $i");
  ASSERT_TRUE(boundary.ok());
  EXPECT_EQ(Fragments(*boundary), (std::vector<std::string>{"f2"}));

  // Open range crossing a boundary touches both sides.
  auto open = decomposer.Decompose(
      "for $i in collection(\"c\")/Item where $i/Code > 150 return $i");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(Fragments(*open), (std::vector<std::string>{"f1", "f2"}));
}

TEST(DecomposerLocalizationTest, ReversedComparisonOperandsLocalize) {
  DistributionCatalog catalog = MakeCatalog({
      {"f0", "/Item/Code < 100"},
      {"f1", "/Item/Code >= 100"},
  });
  QueryDecomposer decomposer(&catalog);
  // "150 <= $i/Code" is "$i/Code >= 150".
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item where 150 <= $i/Code return $i");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Fragments(*plan), (std::vector<std::string>{"f1"}));
}

TEST(DecomposerLocalizationTest, ContainsAgainstNotContains) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_good", "contains(//Description, \"good\")"},
      {"f_other", "not(contains(//Description, \"good\"))"},
  });
  QueryDecomposer decomposer(&catalog);
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item "
      "where contains($i//Description, \"good\") return $i/Code");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The positive contains contradicts the negated fragment.
  EXPECT_EQ(Fragments(*plan), (std::vector<std::string>{"f_good"}));
}

TEST(DecomposerLocalizationTest, ExistenceAgainstEmptyFragments) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_pics", "/Item/PictureList"},
      {"f_nopics", "empty(/Item/PictureList)"},
  });
  QueryDecomposer decomposer(&catalog);
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item "
      "where exists($i/PictureList) return $i/Code");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Fragments(*plan), (std::vector<std::string>{"f_pics"}));
  // A deeper path under the empty() subtree also contradicts it.
  auto deep = decomposer.Decompose(
      "for $i in collection(\"c\")/Item "
      "where $i/PictureList/Picture/Name = \"front\" return $i");
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(Fragments(*deep), (std::vector<std::string>{"f_pics"}));
}

TEST(DecomposerLocalizationTest, DisjunctionsAreNeverUsedToPrune) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_cd", "/Item/Section = \"CD\""},
      {"f_rest", "/Item/Section != \"CD\""},
  });
  QueryDecomposer decomposer(&catalog);
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item "
      "where $i/Section = \"CD\" or $i/Code = 1 return $i");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->subqueries.size(), 2u);  // conservative
}

TEST(DecomposerLocalizationTest, DifferentPathsDoNotInteract) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_cd", "/Item/Section = \"CD\""},
      {"f_rest", "/Item/Section != \"CD\""},
  });
  QueryDecomposer decomposer(&catalog);
  // A Name predicate says nothing about Section fragments.
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item where $i/Name = \"CD\" return $i");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->subqueries.size(), 2u);
}

TEST(DecomposerRewriteTest, SubQueriesRenameTheCollection) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_a", "/Item/Code < 10"},
      {"f_b", "/Item/Code >= 10"},
  });
  QueryDecomposer decomposer(&catalog);
  auto plan = decomposer.Decompose(
      "for $i in collection(\"c\")/Item return $i/Name");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->subqueries.size(), 2u);
  EXPECT_NE(plan->subqueries[0].query.find("collection(\"f_a\")"),
            std::string::npos);
  EXPECT_NE(plan->subqueries[1].query.find("collection(\"f_b\")"),
            std::string::npos);
  EXPECT_EQ(plan->subqueries[0].query.find("collection(\"c\")"),
            std::string::npos);
}

TEST(DecomposerRewriteTest, SumDecomposes) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_a", "/Item/Code < 10"},
      {"f_b", "/Item/Code >= 10"},
  });
  QueryDecomposer decomposer(&catalog);
  auto plan =
      decomposer.Decompose("sum(collection(\"c\")/Item/Code)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->composition, Composition::kSumCounts);
}

TEST(DecomposerRewriteTest, AvgFallsBackToFetch) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_a", "/Item/Code < 10"},
      {"f_b", "/Item/Code >= 10"},
  });
  QueryDecomposer decomposer(&catalog);
  auto plan =
      decomposer.Decompose("avg(collection(\"c\")/Item/Code)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->composition, Composition::kJoinReconstruct);
}

TEST(ExplainTest, RendersPlanWithoutExecuting) {
  DistributionCatalog catalog = MakeCatalog({
      {"f_cd", "/Item/Section = \"CD\""},
      {"f_rest", "/Item/Section != \"CD\""},
  });
  ClusterSim cluster(2, xdb::DatabaseOptions(), NetworkModel());
  QueryService service(&cluster, &catalog);
  auto text = service.Explain(
      "for $i in collection(\"c\")/Item "
      "where $i/Section = \"CD\" return $i/Name");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("f_cd"), std::string::npos);
  EXPECT_NE(text->find("pruned"), std::string::npos);
  EXPECT_NE(text->find("union"), std::string::npos);
  EXPECT_EQ(text->find("f_rest\n"), std::string::npos);
}

TEST(ExplainTest, RendersReplicaSetsAndPlanReplicas) {
  // Replicated placements: fragment i primary on node i, backup on the
  // next node.
  DistributionCatalog catalog;
  frag::FragmentationSchema schema;
  schema.collection = "c";
  std::vector<FragmentPlacement> placements;
  const std::vector<std::pair<std::string, std::string>> defs = {
      {"f_cd", "/Item/Section = \"CD\""},
      {"f_rest", "/Item/Section != \"CD\""},
  };
  for (size_t i = 0; i < defs.size(); ++i) {
    schema.fragments.emplace_back(
        frag::HorizontalDef{defs[i].first, Mu(defs[i].second)});
    FragmentPlacement p{.fragment = defs[i].first, .node = i};
    p.backups.push_back((i + 1) % defs.size());
    placements.push_back(std::move(p));
  }
  ASSERT_TRUE(catalog.Register(std::move(schema), std::move(placements))
                  .ok());
  QueryDecomposer decomposer(&catalog);
  auto plan = decomposer.Decompose("count(collection(\"c\")/Item)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->subqueries.size(), 2u);
  EXPECT_EQ(plan->subqueries[0].replicas, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(plan->subqueries[1].replicas, (std::vector<size_t>{1, 0}));

  ClusterSim cluster(2, xdb::DatabaseOptions(), NetworkModel());
  QueryService service(&cluster, &catalog);
  auto text = service.Explain("count(collection(\"c\")/Item)");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("[replicas: node0,node1]"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("[replicas: node1,node0]"), std::string::npos)
      << *text;
  // All nodes healthy: no failover annotations.
  EXPECT_EQ(text->find("failover"), std::string::npos) << *text;
}

TEST(ExplainTest, SingleVerticalFragmentFetchIsNotCalledAJoin) {
  // The one needed fragment sits under a step with a predicate, which the
  // rewrite cannot drop, so the plan fetches that fragment alone.
  auto schema = workload::ArticleVerticalSchema("papers");
  ASSERT_TRUE(schema.ok()) << schema.status();
  std::vector<FragmentPlacement> placements;
  for (size_t i = 0; i < schema->fragments.size(); ++i) {
    placements.push_back(FragmentPlacement{
        .fragment = schema->fragments[i].name(), .node = i});
  }
  DistributionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(std::move(*schema), std::move(placements)).ok());
  QueryDecomposer decomposer(&catalog);
  auto plan = decomposer.Decompose(
      "collection(\"papers\")/article[prolog/genre = \"survey\"]"
      "/prolog/title");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->composition, Composition::kJoinReconstruct);
  EXPECT_EQ(Fragments(*plan), std::vector<std::string>{"papers_prolog"});
  ASSERT_FALSE(plan->notes.empty());
  EXPECT_EQ(plan->notes.back(),
            "one vertical fragment; fetched and evaluated at middleware");
}

TEST(DecomposerErrorsTest, UnknownCollection) {
  DistributionCatalog catalog;
  QueryDecomposer decomposer(&catalog);
  EXPECT_FALSE(decomposer.Decompose("count(collection(\"x\"))").ok());
}

TEST(DecomposerErrorsTest, NoCollectionReference) {
  DistributionCatalog catalog;
  QueryDecomposer decomposer(&catalog);
  EXPECT_FALSE(decomposer.Decompose("1 + 1").ok());
}

TEST(DecomposerErrorsTest, MalformedQuery) {
  DistributionCatalog catalog;
  QueryDecomposer decomposer(&catalog);
  EXPECT_EQ(decomposer.Decompose("for $i in").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace partix::middleware
