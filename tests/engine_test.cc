#include <memory>

#include "engine/database.h"
#include "engine/planner.h"
#include "gtest/gtest.h"
#include "xquery/parser.h"

namespace partix::xdb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() {
    EXPECT_TRUE(db_.CreateCollection("items").ok());
    Store("<Item><Code>1</Code><Name>cd one</Name>"
          "<Description>a good disc</Description><Section>CD</Section>"
          "</Item>");
    Store("<Item><Code>2</Code><Name>dvd one</Name>"
          "<Description>a fine movie</Description><Section>DVD</Section>"
          "</Item>");
    Store("<Item><Code>3</Code><Name>cd two</Name>"
          "<Description>another good disc</Description>"
          "<Section>CD</Section></Item>");
  }

  void Store(const std::string& xml) {
    static int n = 0;
    ASSERT_TRUE(
        db_.StoreSerialized("items", "doc" + std::to_string(n++), xml)
            .ok());
  }

  std::string Run(const std::string& query) {
    auto result = db_.Execute(query);
    EXPECT_TRUE(result.ok()) << query << " -> " << result.status();
    if (!result.ok()) return "<error>";
    last_metrics_ = result->metrics;
    return result->serialized;
  }

  Database db_;
  QueryMetrics last_metrics_;
};

TEST_F(DatabaseTest, DdlBasics) {
  EXPECT_TRUE(db_.HasCollection("items"));
  EXPECT_FALSE(db_.HasCollection("nope"));
  EXPECT_EQ(db_.CreateCollection("items").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db_.CreateCollection("tmp").ok());
  EXPECT_TRUE(db_.DropCollection("tmp").ok());
  EXPECT_EQ(db_.DropCollection("tmp").code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.CollectionNames().size(), 1u);
  EXPECT_EQ(*db_.DocumentCount("items"), 3u);
  EXPECT_GT(*db_.SerializedBytes("items"), 0u);
}

TEST_F(DatabaseTest, ExecutesQueries) {
  EXPECT_EQ(Run("count(collection(\"items\")/Item)"), "3");
  EXPECT_EQ(Run("for $i in collection(\"items\")/Item "
                "where $i/Section = \"CD\" return $i/Code"),
            "<Code>1</Code>\n<Code>3</Code>");
}

TEST_F(DatabaseTest, MetricsArePopulated) {
  Run("count(collection(\"items\")/Item)");
  EXPECT_EQ(last_metrics_.docs_in_collections, 3u);
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
  EXPECT_EQ(last_metrics_.result_items, 1u);
  EXPECT_GT(last_metrics_.elapsed_ms, 0.0);
}

TEST_F(DatabaseTest, ElementIndexPrunesStructuralQuery) {
  Run("count(collection(\"items\")/Item/Bogus)");
  EXPECT_EQ(last_metrics_.docs_considered, 0u);
}

// The paper's eXist ran with no value indexes: value predicates prune
// only by the element names they mention, then scan every candidate.
TEST_F(DatabaseTest, EqualityPredicateScansEveryCandidate) {
  EXPECT_EQ(Run("count(collection(\"items\")/Item[Section = \"DVD\"])"), "1");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
}

TEST_F(DatabaseTest, ContainsPredicateScansEveryCandidate) {
  EXPECT_EQ(Run("count(for $i in collection(\"items\")/Item "
                "where contains($i/Description, \"movie\") return $i)"),
            "1");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
}

TEST_F(DatabaseTest, UnprunableQueriesConsiderAllDocs) {
  Run("count(collection(\"items\"))");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
}

TEST_F(DatabaseTest, NegatedPredicatesAreNotPruned) {
  // not(contains(...)) gives the planner no constraint to prune on.
  EXPECT_EQ(Run("count(for $i in collection(\"items\")/Item "
                "where not(contains($i/Description, \"good\")) "
                "return $i)"),
            "1");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
}

TEST_F(DatabaseTest, CacheControl) {
  Run("count(collection(\"items\")/Item)");
  EXPECT_EQ(last_metrics_.docs_parsed, 3u);
  Run("count(collection(\"items\")/Item)");
  EXPECT_EQ(last_metrics_.docs_parsed, 0u);  // cached
  EXPECT_EQ(last_metrics_.cache_hits, 3u);
  db_.DropCaches();
  Run("count(collection(\"items\")/Item)");
  EXPECT_EQ(last_metrics_.docs_parsed, 3u);
}

TEST_F(DatabaseTest, QueryAgainstMissingCollection) {
  auto result = db_.Execute("count(collection(\"nope\"))");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, MalformedQueryReportsParseError) {
  auto result = db_.Execute("for $i in");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(DatabaseOptionsTest, ElementIndexPrunesWithStructuralIndexOff) {
  DatabaseOptions options;
  options.enable_structural_index = false;
  Database db(options);
  ASSERT_TRUE(db.CreateCollection("c").ok());
  ASSERT_TRUE(
      db.StoreSerialized("c", "d0", "<Item><Section>CD</Section></Item>").ok());
  ASSERT_TRUE(
      db.StoreSerialized("c", "d1", "<Item><Name>x</Name></Item>").ok());
  auto result = db.Execute("count(collection(\"c\")/Item[Section = \"CD\"])");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->serialized, "1");
  // Only the document holding a Section element is a candidate.
  EXPECT_EQ(result->metrics.docs_considered, 1u);
  result = db.Execute("count(collection(\"c\")/Item/Bogus)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->serialized, "0");
  EXPECT_EQ(result->metrics.docs_considered, 0u);
}

TEST(DatabaseSchemaTest, ValidateOnStore) {
  Database db;
  CollectionMeta meta;
  meta.schema = xml::VirtualStoreSchema();
  meta.root_path = "/Store/Items/Item";
  meta.validate_on_store = true;
  ASSERT_TRUE(db.CreateCollection("items", meta).ok());
  EXPECT_FALSE(db.StoreSerialized("items", "bad", "<Item><X/></Item>").ok());
  EXPECT_TRUE(db.StoreSerialized(
                    "items", "good",
                    "<Item><Code>1</Code><Name>n</Name>"
                    "<Description>d</Description><Section>CD</Section>"
                    "<Release>r</Release></Item>")
                  .ok());
}

// ---- Planner unit tests ----

std::map<std::string, CollectionPlan> Plan(const std::string& query) {
  auto ast = xquery::ParseQuery(query);
  EXPECT_TRUE(ast.ok()) << ast.status();
  return AnalyzeQuery(**ast);
}

TEST(PlannerTest, ExtractsSpineElements) {
  auto plans = Plan("collection(\"c\")/Item/Name");
  ASSERT_EQ(plans.count("c"), 1u);
  ASSERT_EQ(plans["c"].sites.size(), 1u);
  EXPECT_EQ(plans["c"].sites[0].required_elements,
            (std::vector<std::string>{"Item", "Name"}));
}

TEST(PlannerTest, ExtractsStepPredicateConstraints) {
  auto plans = Plan("collection(\"c\")/Item[Section = \"CD\"]");
  const SiteConstraints& site = plans["c"].sites[0];
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item", "Section"}));
}

TEST(PlannerTest, ExtractsWhereClauseConstraints) {
  auto plans = Plan(
      "for $i in collection(\"c\")/Item "
      "where contains($i/Description, \"good\") and $i/Code = 5 "
      "return $i");
  const SiteConstraints& site = plans["c"].sites[0];
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item", "Description", "Code"}));
}

TEST(PlannerTest, BareCollectionIsUnconstrained) {
  auto plans = Plan("count(collection(\"c\"))");
  ASSERT_EQ(plans["c"].sites.size(), 1u);
  EXPECT_TRUE(plans["c"].sites[0].unconstrained);
}

TEST(PlannerTest, OrPredicatesYieldNoConstraints) {
  auto plans = Plan(
      "for $i in collection(\"c\")/Item "
      "where $i/A = \"x\" or $i/B = \"y\" return $i");
  const SiteConstraints& site = plans["c"].sites[0];
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item"}));
}

TEST(PlannerTest, MultipleSitesUnion) {
  auto plans = Plan(
      "count(collection(\"c\")/Item[Section = \"CD\"]) + "
      "count(collection(\"c\")/Item[Section = \"DVD\"])");
  EXPECT_EQ(plans["c"].sites.size(), 2u);
}

}  // namespace
}  // namespace partix::xdb
