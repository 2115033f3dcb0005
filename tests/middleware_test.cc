#include <algorithm>
#include <memory>
#include <vector>

#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/decomposer.h"
#include "partix/publisher.h"
#include "common/strings.h"
#include "partix/query_service.h"

namespace partix::middleware {
namespace {

using frag::FragmentationSchema;
using frag::FragmentDef;
using frag::HorizontalDef;
using frag::HybridDef;
using frag::HybridMode;
using frag::VerticalDef;

xpath::Path P(const std::string& text) {
  auto result = xpath::Path::Parse(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

xpath::Conjunction Mu(const std::string& text) {
  auto result = xpath::Conjunction::Parse(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

/// Result order across fragments is not defined; compare as multisets of
/// lines.
std::string SortLines(const std::string& text) {
  auto lines = Split(text, '\n');
  std::vector<std::string> owned(lines.begin(), lines.end());
  std::sort(owned.begin(), owned.end());
  return Join(owned, "\n");
}

TEST(CatalogTest, SchemaCatalog) {
  SchemaCatalog catalog;
  EXPECT_TRUE(catalog.Register("vs", xml::VirtualStoreSchema()).ok());
  EXPECT_EQ(catalog.Register("vs", xml::VirtualStoreSchema()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.Get("vs").ok());
  EXPECT_FALSE(catalog.Get("nope").ok());
  EXPECT_EQ(catalog.Names().size(), 1u);
}

TEST(CatalogTest, DistributionCatalog) {
  DistributionCatalog catalog;
  FragmentationSchema schema;
  schema.collection = "items";
  schema.fragments.emplace_back(
      HorizontalDef{"f1", Mu("/Item/Section = \"CD\"")});
  schema.fragments.emplace_back(
      HorizontalDef{"f2", Mu("/Item/Section != \"CD\"")});

  // Missing placements rejected.
  EXPECT_FALSE(catalog.Register(schema, {{.fragment = "f1", .node = 0}}).ok());
  ASSERT_TRUE(catalog
                  .Register(schema, {{.fragment = "f1", .node = 0},
                                     {.fragment = "f2", .node = 1}})
                  .ok());
  EXPECT_TRUE(catalog.IsFragmented("items"));
  EXPECT_FALSE(catalog.IsFragmented("other"));
  auto entry = catalog.Get("items");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(*(*entry)->NodeOf("f2"), 1u);
  EXPECT_FALSE((*entry)->NodeOf("f9").ok());

  EXPECT_TRUE(catalog.RegisterCentralized("central", 0).ok());
  EXPECT_EQ(*catalog.CentralizedNode("central"), 0u);
  EXPECT_FALSE(catalog.CentralizedNode("items").ok());
  // Double registration rejected.
  EXPECT_FALSE(catalog.RegisterCentralized("items", 0).ok());
}

/// End-to-end fixture: a 4-node cluster with the items collection both
/// centralized (as "items_c") and horizontally fragmented by Section.
class HorizontalE2E : public ::testing::Test {
 protected:
  HorizontalE2E()
      : cluster_(4, xdb::DatabaseOptions(), NetworkModel()),
        publisher_(&cluster_, &catalog_),
        service_(&cluster_, &catalog_) {
    gen::ItemsGenOptions options;
    options.doc_count = 60;
    options.seed = 99;
    options.sections = {"CD", "DVD", "BOOK", "TOY"};
    auto items = gen::GenerateItems(options, nullptr);
    EXPECT_TRUE(items.ok()) << items.status();
    items_ = std::move(*items);

    xml::Collection central = items_;
    // Same docs, published under a different collection name.
    xml::Collection central_named("items_c", items_.schema(),
                                  items_.root_path(), items_.kind());
    for (const auto& doc : items_.docs()) {
      EXPECT_TRUE(central_named.Add(doc).ok());
    }
    EXPECT_TRUE(publisher_.PublishCentralized(central_named, 0).ok());

    FragmentationSchema schema;
    schema.collection = "items";
    schema.fragments.emplace_back(
        HorizontalDef{"f_cd", Mu("/Item/Section = \"CD\"")});
    schema.fragments.emplace_back(
        HorizontalDef{"f_dvd", Mu("/Item/Section = \"DVD\"")});
    schema.fragments.emplace_back(
        HorizontalDef{"f_book", Mu("/Item/Section = \"BOOK\"")});
    schema.fragments.emplace_back(
        HorizontalDef{"f_toy", Mu("/Item/Section = \"TOY\"")});
    EXPECT_TRUE(publisher_.PublishFragmented(items_, schema).ok());
  }

  /// Runs `query` against the fragmented collection and the same query
  /// (with the collection renamed) against the centralized copy, checking
  /// the answers match.
  void ExpectSameAnswer(const std::string& query) {
    auto distributed = service_.Execute(query);
    ASSERT_TRUE(distributed.ok()) << query << ": " << distributed.status();
    std::string central_query = query;
    size_t pos;
    while ((pos = central_query.find("\"items\"")) != std::string::npos) {
      central_query.replace(pos, 7, "\"items_c\"");
    }
    auto central = cluster_.node(0).Execute(central_query);
    ASSERT_TRUE(central.ok()) << central_query << ": " << central.status();
    EXPECT_EQ(SortLines(distributed->serialized),
              SortLines(central->serialized))
        << query;
  }

  DistributionCatalog catalog_;
  ClusterSim cluster_;
  DataPublisher publisher_;
  QueryService service_;
  xml::Collection items_;
};

TEST_F(HorizontalE2E, SelectiveQueryIsLocalizedToOneFragment) {
  auto plan = service_.decomposer().Decompose(
      "for $i in collection(\"items\")/Item "
      "where $i/Section = \"CD\" return $i/Name");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->subqueries.size(), 1u);
  EXPECT_EQ(plan->subqueries[0].fragment, "f_cd");
  EXPECT_EQ(plan->pruned_fragments, 3u);
}

TEST_F(HorizontalE2E, NonSelectiveQueryGoesEverywhere) {
  auto plan = service_.decomposer().Decompose(
      "for $i in collection(\"items\")/Item return $i/Code");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->subqueries.size(), 4u);
  EXPECT_EQ(plan->composition, Composition::kUnion);
}

TEST_F(HorizontalE2E, CountDecomposesToSum) {
  auto plan = service_.decomposer().Decompose(
      "count(collection(\"items\")/Item)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->composition, Composition::kSumCounts);
  ExpectSameAnswer("count(collection(\"items\")/Item)");
}

TEST_F(HorizontalE2E, RangePredicateLocalization) {
  // Numeric contradiction: Section is a string here, but Code works.
  auto plan = service_.decomposer().Decompose(
      "for $i in collection(\"items\")/Item "
      "where $i/Section = \"DVD\" and $i/Code < 10 return $i/Code");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->subqueries.size(), 1u);
  EXPECT_EQ(plan->subqueries[0].fragment, "f_dvd");
}

TEST_F(HorizontalE2E, DistributedAnswersMatchCentralized) {
  ExpectSameAnswer("for $i in collection(\"items\")/Item "
                   "where $i/Section = \"CD\" return $i/Name");
  ExpectSameAnswer("count(collection(\"items\")/Item[Section = \"DVD\"])");
  ExpectSameAnswer(
      "for $i in collection(\"items\")/Item "
      "where contains($i/Description, \"good\") return $i/Code");
  ExpectSameAnswer(
      "count(for $i in collection(\"items\")/Item "
      "where contains($i/Description, \"good\") return $i)");
  ExpectSameAnswer("for $i in collection(\"items\")/Item "
                   "where $i/Code < 5 return $i/Section");
  ExpectSameAnswer("count(collection(\"items\")/Item[PictureList])");
}

TEST_F(HorizontalE2E, TimingModelIsPopulated) {
  auto result = service_.Execute("count(collection(\"items\")/Item)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->subqueries.size(), 4u);
  EXPECT_GT(result->response_ms, 0.0);
  EXPECT_GE(result->sum_node_ms, result->slowest_node_ms);
  EXPECT_GT(result->transmission_ms, 0.0);
  ExecutionOptions no_net;
  no_net.include_transmission = false;
  auto result2 = service_.Execute("count(collection(\"items\")/Item)",
                                  no_net);
  ASSERT_TRUE(result2.ok());
  // Without transmission, the response is decomposition + slowest node +
  // composition only.
  EXPECT_NEAR(result2->response_ms,
              result2->decompose_ms + result2->slowest_node_ms +
                  result2->composition_ms,
              1e-9);
}

TEST_F(HorizontalE2E, CentralizedPlanForUnfragmentedCollection) {
  auto plan = service_.decomposer().Decompose(
      "count(collection(\"items_c\")/Item)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->subqueries.size(), 1u);
  EXPECT_EQ(plan->subqueries[0].node, 0u);
}

TEST_F(HorizontalE2E, UnknownCollectionFails) {
  EXPECT_FALSE(service_.Execute("count(collection(\"nope\")/x)").ok());
}

/// Vertical end-to-end over the XBench article collection.
class VerticalE2E : public ::testing::Test {
 protected:
  VerticalE2E()
      : cluster_(3, xdb::DatabaseOptions(), NetworkModel()),
        publisher_(&cluster_, &catalog_),
        service_(&cluster_, &catalog_) {
    gen::XBenchGenOptions options;
    options.doc_count = 12;
    options.target_doc_bytes = 4000;
    options.seed = 5;
    auto articles = gen::GenerateArticles(options, nullptr);
    EXPECT_TRUE(articles.ok()) << articles.status();
    articles_ = std::move(*articles);

    xml::Collection central("papers_c", articles_.schema(),
                            articles_.root_path(), articles_.kind());
    for (const auto& doc : articles_.docs()) {
      EXPECT_TRUE(central.Add(doc).ok());
    }
    EXPECT_TRUE(publisher_.PublishCentralized(central, 0).ok());

    FragmentationSchema schema;
    schema.collection = "papers";
    schema.fragments.emplace_back(
        VerticalDef{"f_prolog", P("/article/prolog"), {}});
    schema.fragments.emplace_back(
        VerticalDef{"f_body", P("/article/body"), {}});
    schema.fragments.emplace_back(
        VerticalDef{"f_epilog", P("/article/epilog"), {}});
    EXPECT_TRUE(publisher_.PublishFragmented(articles_, schema).ok());
  }

  void ExpectSameAnswer(const std::string& query) {
    auto distributed = service_.Execute(query);
    ASSERT_TRUE(distributed.ok()) << query << ": " << distributed.status();
    std::string central_query = query;
    size_t pos;
    while ((pos = central_query.find("\"papers\"")) != std::string::npos) {
      central_query.replace(pos, 8, "\"papers_c\"");
    }
    auto central = cluster_.node(0).Execute(central_query);
    ASSERT_TRUE(central.ok()) << central.status();
    EXPECT_EQ(SortLines(distributed->serialized),
              SortLines(central->serialized))
        << query;
  }

  DistributionCatalog catalog_;
  ClusterSim cluster_;
  DataPublisher publisher_;
  QueryService service_;
  xml::Collection articles_;
};

TEST_F(VerticalE2E, SingleFragmentQueryIsRewritten) {
  auto plan = service_.decomposer().Decompose(
      "for $a in collection(\"papers\")/article "
      "return $a/prolog/title");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->subqueries.size(), 1u);
  EXPECT_EQ(plan->subqueries[0].fragment, "f_prolog");
  EXPECT_NE(plan->subqueries[0].query.find("f_prolog"),
            std::string::npos);
}

TEST_F(VerticalE2E, SingleFragmentAnswersMatch) {
  ExpectSameAnswer("for $a in collection(\"papers\")/article "
                   "return $a/prolog/title");
  ExpectSameAnswer(
      "count(collection(\"papers\")/article/prolog/authors/author)");
  ExpectSameAnswer(
      "for $a in collection(\"papers\")/article "
      "where $a/prolog/genre = \"survey\" return $a/prolog/title");
}

TEST_F(VerticalE2E, MultiFragmentQueryFallsBackToJoin) {
  const std::string query =
      "for $a in collection(\"papers\")/article "
      "where $a/prolog/genre = \"survey\" "
      "return count($a/epilog/references/reference)";
  auto plan = service_.decomposer().Decompose(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->composition, Composition::kJoinReconstruct);
  // body fragment not needed.
  EXPECT_EQ(plan->subqueries.size(), 2u);
  ExpectSameAnswer(query);
}

TEST_F(VerticalE2E, TextSearchTouchingBodyOnly) {
  ExpectSameAnswer(
      "count(for $a in collection(\"papers\")/article "
      "where contains($a/body/abstract, \"database\") return "
      "$a/body/abstract)");
}

/// Hybrid end-to-end over the SD store.
class HybridE2E : public ::testing::TestWithParam<HybridMode> {
 protected:
  HybridE2E()
      : cluster_(5, xdb::DatabaseOptions(), NetworkModel()),
        publisher_(&cluster_, &catalog_),
        service_(&cluster_, &catalog_) {
    gen::StoreGenOptions options;
    options.item_count = 40;
    options.seed = 3;
    options.large_items = false;
    options.sections = {"CD", "DVD", "BOOK"};
    auto store = gen::GenerateStore(options, nullptr);
    EXPECT_TRUE(store.ok()) << store.status();
    store_ = std::move(*store);

    xml::Collection central("store_c", store_.schema(), store_.root_path(),
                            store_.kind());
    for (const auto& doc : store_.docs()) {
      EXPECT_TRUE(central.Add(doc).ok());
    }
    EXPECT_TRUE(publisher_.PublishCentralized(central, 0).ok());

    FragmentationSchema schema;
    schema.collection = "store";
    schema.hybrid_mode = GetParam();
    schema.fragments.emplace_back(HybridDef{
        "f_cd", P("/Store/Items"), {}, Mu("/Item/Section = \"CD\"")});
    schema.fragments.emplace_back(HybridDef{
        "f_dvd", P("/Store/Items"), {}, Mu("/Item/Section = \"DVD\"")});
    schema.fragments.emplace_back(
        HybridDef{"f_rest", P("/Store/Items"), {},
                  Mu("/Item/Section != \"CD\" and "
                     "/Item/Section != \"DVD\"")});
    schema.fragments.emplace_back(HybridDef{
        "f_store", P("/Store"), {P("/Store/Items")}, Mu("true")});
    EXPECT_TRUE(publisher_.PublishFragmented(store_, schema).ok());
  }

  void ExpectSameAnswer(const std::string& query) {
    auto distributed = service_.Execute(query);
    ASSERT_TRUE(distributed.ok()) << query << ": " << distributed.status();
    std::string central_query = query;
    size_t pos;
    while ((pos = central_query.find("\"store\"")) != std::string::npos) {
      central_query.replace(pos, 7, "\"store_c\"");
    }
    auto central = cluster_.node(0).Execute(central_query);
    ASSERT_TRUE(central.ok()) << central.status();
    EXPECT_EQ(SortLines(distributed->serialized),
              SortLines(central->serialized))
        << query;
  }

  DistributionCatalog catalog_;
  ClusterSim cluster_;
  DataPublisher publisher_;
  QueryService service_;
  xml::Collection store_;
};

TEST_P(HybridE2E, SectionQueryLocalizedToOneFragment) {
  auto plan = service_.decomposer().Decompose(
      "for $i in collection(\"store\")/Store/Items/Item "
      "where $i/Section = \"CD\" return $i/Name");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->subqueries.size(), 1u);
  EXPECT_EQ(plan->subqueries[0].fragment, "f_cd");
}

TEST_P(HybridE2E, SectionQueryAnswersMatch) {
  ExpectSameAnswer("for $i in collection(\"store\")/Store/Items/Item "
                   "where $i/Section = \"CD\" return $i/Name");
}

TEST_P(HybridE2E, AllItemsQueryUnionsInstanceFragments) {
  const std::string query =
      "count(collection(\"store\")/Store/Items/Item)";
  auto plan = service_.decomposer().Decompose(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->subqueries.size(), 3u);
  EXPECT_EQ(plan->composition, Composition::kSumCounts);
  ExpectSameAnswer(query);
}

TEST_P(HybridE2E, PrunedFragmentServesStoreQueries) {
  const std::string query =
      "for $s in collection(\"store\")/Store/Sections/Section "
      "return $s/Name";
  auto plan = service_.decomposer().Decompose(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->subqueries.size(), 1u);
  EXPECT_EQ(plan->subqueries[0].fragment, "f_store");
  ExpectSameAnswer(query);
  ExpectSameAnswer(
      "count(collection(\"store\")/Store/Employees/Employee)");
}

TEST_P(HybridE2E, TextSearchGoesToAllInstanceFragments) {
  const std::string query =
      "count(for $i in collection(\"store\")/Store/Items/Item "
      "where contains($i/Description, \"good\") return $i)";
  auto plan = service_.decomposer().Decompose(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->subqueries.size(), 3u);
  ExpectSameAnswer(query);
}

/// Vertical fragmentation of an MD collection where one fragment is
/// *optional* per document (PictureList): exercises middleware joins over
/// partial groups (some source documents have no fragment instance).
class VerticalOptionalFragmentE2E : public ::testing::Test {
 protected:
  VerticalOptionalFragmentE2E()
      : cluster_(3, xdb::DatabaseOptions(), NetworkModel()),
        publisher_(&cluster_, &catalog_),
        service_(&cluster_, &catalog_) {
    gen::ItemsGenOptions options;
    options.doc_count = 30;
    options.seed = 55;
    options.large_docs = true;  // items carry PictureList/PricesHistory
    auto items = gen::GenerateItems(options, nullptr);
    EXPECT_TRUE(items.ok());
    // Mix in a few small docs (no PictureList) so the pictures fragment
    // has gaps.
    gen::ItemsGenOptions small = options;
    small.large_docs = false;
    small.doc_count = 10;
    small.seed = 56;
    small.name = "tiny";
    auto tiny = gen::GenerateItems(small, nullptr);
    EXPECT_TRUE(tiny.ok());
    xml::Collection data("items", items->schema(), items->root_path(),
                         items->kind());
    for (const auto& doc : items->docs()) EXPECT_TRUE(data.Add(doc).ok());
    for (const auto& doc : tiny->docs()) EXPECT_TRUE(data.Add(doc).ok());

    xml::Collection central("items_c", data.schema(), data.root_path(),
                            data.kind());
    for (const auto& doc : data.docs()) {
      EXPECT_TRUE(central.Add(doc).ok());
    }
    EXPECT_TRUE(publisher_.PublishCentralized(central, 0).ok());

    frag::FragmentationSchema schema;
    schema.collection = "items";
    schema.fragments.emplace_back(frag::VerticalDef{
        "f_item", P("/Item"), {P("/Item/PictureList")}});
    schema.fragments.emplace_back(
        frag::VerticalDef{"f_pics", P("/Item/PictureList"), {}});
    EXPECT_TRUE(publisher_.PublishFragmented(data, schema).ok());
  }

  void ExpectSameAnswer(const std::string& query) {
    auto distributed = service_.Execute(query);
    ASSERT_TRUE(distributed.ok()) << query << ": " << distributed.status();
    std::string central_query = query;
    size_t pos;
    while ((pos = central_query.find("\"items\"")) != std::string::npos) {
      central_query.replace(pos, 7, "\"items_c\"");
    }
    auto central = cluster_.node(0).Execute(central_query);
    ASSERT_TRUE(central.ok()) << central.status();
    EXPECT_EQ(SortLines(distributed->serialized),
              SortLines(central->serialized))
        << query;
  }

  DistributionCatalog catalog_;
  ClusterSim cluster_;
  DataPublisher publisher_;
  QueryService service_;
};

TEST_F(VerticalOptionalFragmentE2E, SingleFragmentQueries) {
  ExpectSameAnswer("count(collection(\"items\")/Item/Code)");
  ExpectSameAnswer(
      "count(collection(\"items\")/Item/PictureList/Picture)");
  ExpectSameAnswer("for $i in collection(\"items\")/Item "
                   "where $i/Code = 3 return $i/Name");
}

TEST_F(VerticalOptionalFragmentE2E, JoinOverPartialGroups) {
  // Needs both fragments; tiny documents have no pictures fragment.
  ExpectSameAnswer(
      "count(for $i in collection(\"items\")/Item "
      "where $i/Section = \"CD\" "
      "return count($i/PictureList/Picture))");
  ExpectSameAnswer(
      "sum(for $i in collection(\"items\")/Item "
      "return count($i/PictureList/Picture))");
}

TEST_F(VerticalOptionalFragmentE2E, ExistentialOverOptionalFragment) {
  ExpectSameAnswer("count(collection(\"items\")/Item[PictureList])");
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HybridE2E,
    ::testing::Values(HybridMode::kSinglePrunedDoc,
                      HybridMode::kOneDocPerSubtree),
    [](const ::testing::TestParamInfo<HybridMode>& info) {
      return info.param == HybridMode::kSinglePrunedDoc ? "FragMode2"
                                                        : "FragMode1";
    });

}  // namespace
}  // namespace partix::middleware
