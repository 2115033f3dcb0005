#include "fragmentation/advisor.h"

#include "fragmentation/correctness.h"
#include "gen/virtual_store.h"
#include "gtest/gtest.h"
#include "xml/parser.h"

namespace partix::frag {
namespace {

xpath::Predicate Pred(const std::string& text) {
  auto result = xpath::Predicate::Parse(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

xml::Collection Items(size_t count, uint64_t seed = 7) {
  gen::ItemsGenOptions options;
  options.doc_count = count;
  options.seed = seed;
  auto items = gen::GenerateItems(options, nullptr);
  EXPECT_TRUE(items.ok());
  return std::move(*items);
}

TEST(AdvisorTest, MintermDesignIsAlwaysCorrect) {
  xml::Collection items = Items(80);
  std::vector<WeightedPredicate> predicates = {
      {Pred("/Item/Section = \"CD\""), 5.0},
      {Pred("contains(/Item/Description, \"good\")"), 3.0},
  };
  auto report = DesignHorizontalByMinterms(items, predicates, {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LE(report->schema.fragments.size(), 4u);
  EXPECT_GE(report->schema.fragments.size(), 2u);

  auto correctness = CheckCorrectness(items, report->schema);
  ASSERT_TRUE(correctness.ok());
  EXPECT_TRUE(correctness->ok()) << correctness->Summary();
}

TEST(AdvisorTest, FragmentSizesSumToCollectionSize) {
  xml::Collection items = Items(60);
  std::vector<WeightedPredicate> predicates = {
      {Pred("/Item/Section = \"CD\""), 1.0},
  };
  auto report = DesignHorizontalByMinterms(items, predicates, {});
  ASSERT_TRUE(report.ok());
  size_t total = 0;
  for (size_t s : report->fragment_sizes) total += s;
  EXPECT_EQ(total, items.size());
  EXPECT_GE(report->BalanceFactor(), 1.0);
}

TEST(AdvisorTest, BudgetDropsLowWeightPredicates) {
  xml::Collection items = Items(40);
  std::vector<WeightedPredicate> predicates = {
      {Pred("/Item/Section = \"CD\""), 10.0},
      {Pred("/Item/Code < 10"), 5.0},
      {Pred("contains(/Item/Description, \"good\")"), 1.0},
  };
  AdvisorOptions options;
  options.max_fragments = 4;  // budget for 2 predicates
  auto report = DesignHorizontalByMinterms(items, predicates, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->used_predicates.size(), 2u);
  EXPECT_LE(report->schema.fragments.size(), 4u);
  bool dropped_note = false;
  for (const std::string& note : report->notes) {
    if (note.find("dropped") != std::string::npos) dropped_note = true;
  }
  EXPECT_TRUE(dropped_note);
}

TEST(AdvisorTest, DuplicatePredicatesMergeWeights) {
  xml::Collection items = Items(30);
  std::vector<WeightedPredicate> predicates = {
      {Pred("/Item/Section = \"CD\""), 1.0},
      {Pred("/Item/Section = \"CD\""), 1.0},
      {Pred("/Item/Code < 10"), 1.5},
  };
  AdvisorOptions options;
  options.max_fragments = 2;  // budget for 1 predicate
  auto report = DesignHorizontalByMinterms(items, predicates, options);
  ASSERT_TRUE(report.ok());
  // The duplicated Section predicate (total weight 2.0) must win.
  ASSERT_EQ(report->used_predicates.size(), 1u);
  EXPECT_NE(report->used_predicates[0].find("Section"), std::string::npos);
}

TEST(AdvisorTest, RejectsBadInputs) {
  xml::Collection items = Items(5);
  EXPECT_FALSE(DesignHorizontalByMinterms(items, {}, {}).ok());
  std::vector<WeightedPredicate> predicates = {
      {Pred("/Item/Section = \"CD\""), 1.0}};
  AdvisorOptions tight;
  tight.max_fragments = 1;
  EXPECT_FALSE(DesignHorizontalByMinterms(items, predicates, tight).ok());

  xml::Collection sd("sd", nullptr, "/Store",
                     xml::RepoKind::kSingleDocument);
  auto doc = xml::ParseXml(std::make_shared<xml::NamePool>(), "d",
                           "<Store><Items/></Store>");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(sd.Add(*doc).ok());
  EXPECT_EQ(DesignHorizontalByMinterms(sd, predicates, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdvisorTest, MinesPredicatesFromQueries) {
  xml::Collection items = Items(60);
  std::vector<std::string> workload = {
      "for $i in collection(\"items\")/Item "
      "where $i/Section = \"CD\" return $i/Name",
      "for $i in collection(\"items\")/Item "
      "where $i/Section = \"CD\" return $i/Code",
      "count(collection(\"items\")/Item[contains(Description, "
      "\"good\")])",
  };
  auto report = DesignHorizontalFromQueries(items, workload, {});
  ASSERT_TRUE(report.ok()) << report.status();
  // Section = CD (weight 2) and contains(...) (weight 1) both fit the
  // default budget of 8 fragments (3 bits).
  EXPECT_GE(report->used_predicates.size(), 2u);
  auto correctness = CheckCorrectness(items, report->schema);
  ASSERT_TRUE(correctness.ok());
  EXPECT_TRUE(correctness->ok()) << correctness->Summary();
}

TEST(AdvisorTest, LiteralOnTheLeftMirrorsTheComparison) {
  xml::Collection items = Items(60, 99);
  auto report = DesignHorizontalFromQueries(
      items,
      {"for $i in collection(\"items\")/Item where 100 <= $i/Code "
       "return $i/Name"},
      {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->used_predicates,
            (std::vector<std::string>{"/Item/Code >= \"100\""}));
}

TEST(AdvisorTest, ExistsMinesLikeABarePath) {
  xml::Collection items = Items(60, 99);
  auto bare = DesignHorizontalFromQueries(
      items,
      {"for $i in collection(\"items\")/Item where $i/PictureList "
       "return $i/Code"},
      {});
  ASSERT_TRUE(bare.ok()) << bare.status();
  auto exists = DesignHorizontalFromQueries(
      items,
      {"for $i in collection(\"items\")/Item where exists($i/PictureList) "
       "return $i/Code"},
      {});
  ASSERT_TRUE(exists.ok()) << exists.status();
  EXPECT_EQ(exists->used_predicates, bare->used_predicates);
}

TEST(AdvisorTest, QueriesWithoutPredicatesAreRejected) {
  xml::Collection items = Items(5);
  EXPECT_FALSE(DesignHorizontalFromQueries(
                   items, {"count(collection(\"items\"))"}, {})
                   .ok());
}

}  // namespace
}  // namespace partix::frag
