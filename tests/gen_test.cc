#include <set>

#include "gen/virtual_store.h"
#include "common/strings.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "xml/serializer.h"
#include "xpath/eval.h"
#include "xpath/path.h"
#include "xpath/predicate.h"

namespace partix::gen {
namespace {

xpath::Path P(const std::string& text) {
  auto result = xpath::Path::Parse(text);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

TEST(ItemsGeneratorTest, ProducesValidHomogeneousCollection) {
  ItemsGenOptions options;
  options.doc_count = 50;
  options.seed = 1;
  auto items = GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok()) << items.status();
  EXPECT_EQ(items->size(), 50u);
  EXPECT_EQ(items->kind(), xml::RepoKind::kMultipleDocuments);
  EXPECT_EQ(items->RootType(), "Item");
  EXPECT_TRUE(items->ValidateHomogeneous().ok());
}

TEST(ItemsGeneratorTest, DeterministicInSeed) {
  ItemsGenOptions options;
  options.doc_count = 10;
  options.seed = 42;
  auto a = GenerateItems(options, nullptr);
  auto b = GenerateItems(options, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(xml::Serialize(*a->docs()[i]), xml::Serialize(*b->docs()[i]));
  }
  options.seed = 43;
  auto c = GenerateItems(options, nullptr);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(xml::Serialize(*a->docs()[0]), xml::Serialize(*c->docs()[0]));
}

TEST(ItemsGeneratorTest, SmallDocsHaveNoPicturesOrPrices) {
  ItemsGenOptions options;
  options.doc_count = 20;
  options.large_docs = false;
  auto items = GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  for (const auto& doc : items->docs()) {
    EXPECT_TRUE(xpath::EvalPath(*doc, P("/Item/PictureList")).empty());
    EXPECT_TRUE(xpath::EvalPath(*doc, P("/Item/PricesHistory")).empty());
    // Small documents target roughly 2 KB.
    EXPECT_LT(xml::Serialize(*doc).size(), 4096u);
  }
}

TEST(ItemsGeneratorTest, LargeDocsCarryPicturesAndPrices) {
  ItemsGenOptions options;
  options.doc_count = 5;
  options.large_docs = true;
  auto items = GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  for (const auto& doc : items->docs()) {
    EXPECT_FALSE(
        xpath::EvalPath(*doc, P("/Item/PictureList/Picture")).empty());
    EXPECT_FALSE(
        xpath::EvalPath(*doc, P("/Item/PricesHistory/PriceHistory"))
            .empty());
    size_t bytes = xml::Serialize(*doc).size();
    EXPECT_GT(bytes, 20u * 1024);
  }
}

TEST(ItemsGeneratorTest, SectionsComeFromConfiguredSet) {
  ItemsGenOptions options;
  options.doc_count = 60;
  options.sections = {"A", "B", "C"};
  auto items = GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  std::set<std::string> seen;
  for (const auto& doc : items->docs()) {
    auto nodes = xpath::EvalPath(*doc, P("/Item/Section"));
    ASSERT_EQ(nodes.size(), 1u);
    seen.insert(doc->StringValue(nodes[0]));
  }
  for (const std::string& s : seen) {
    EXPECT_TRUE(s == "A" || s == "B" || s == "C") << s;
  }
}

TEST(ItemsGeneratorTest, ZipfSkewMakesFirstSectionHeavy) {
  ItemsGenOptions options;
  options.doc_count = 400;
  options.section_skew = 1.0;
  auto items = GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  size_t first = 0;
  for (const auto& doc : items->docs()) {
    auto nodes = xpath::EvalPath(*doc, P("/Item/Section"));
    if (doc->StringValue(nodes[0]) == options.sections[0]) ++first;
  }
  // Rank-one Zipf mass with s=1 over 8 values is ~37%; uniform is 12.5%.
  EXPECT_GT(first, items->size() / 5);
}

TEST(ItemsGeneratorTest, GoodFractionControlsTextHits) {
  ItemsGenOptions options;
  options.doc_count = 300;
  options.good_fraction = 0.5;
  auto items = GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  auto pred = xpath::Predicate::Parse(
      "contains(/Item/Description, \"good\")");
  ASSERT_TRUE(pred.ok());
  size_t hits = 0;
  for (const auto& doc : items->docs()) {
    if (pred->Eval(*doc)) ++hits;
  }
  EXPECT_GT(hits, items->size() / 4);
  EXPECT_LT(hits, items->size() * 3 / 4);
}

TEST(ItemsGeneratorTest, BySizeHitsTarget) {
  ItemsGenOptions options;
  options.seed = 9;
  auto items = GenerateItemsBySize(options, 512 * 1024, nullptr);
  ASSERT_TRUE(items.ok());
  uint64_t bytes = 0;
  for (const auto& doc : items->docs()) {
    bytes += xml::Serialize(*doc).size();
  }
  EXPECT_GT(bytes, 512u * 1024 * 7 / 10);
  EXPECT_LT(bytes, 512u * 1024 * 13 / 10);
}

TEST(ItemsGeneratorTest, RejectsEmptySections) {
  ItemsGenOptions options;
  options.sections = {};
  EXPECT_FALSE(GenerateItems(options, nullptr).ok());
}

TEST(StoreGeneratorTest, ProducesValidSdStore) {
  StoreGenOptions options;
  options.item_count = 30;
  options.employee_count = 5;
  auto store = GenerateStore(options, nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ(store->size(), 1u);
  EXPECT_EQ(store->kind(), xml::RepoKind::kSingleDocument);
  EXPECT_TRUE(store->ValidateHomogeneous().ok());
  const xml::Document& doc = *store->docs()[0];
  EXPECT_EQ(xpath::EvalPath(doc, P("/Store/Items/Item")).size(), 30u);
  EXPECT_EQ(xpath::EvalPath(doc, P("/Store/Employees/Employee")).size(),
            5u);
  EXPECT_EQ(xpath::EvalPath(doc, P("/Store/Sections/Section")).size(),
            options.sections.size());
}

TEST(StoreGeneratorTest, BySizeHitsTarget) {
  StoreGenOptions options;
  options.seed = 5;
  auto store = GenerateStoreBySize(options, 256 * 1024, nullptr);
  ASSERT_TRUE(store.ok());
  size_t bytes = xml::Serialize(*store->docs()[0]).size();
  EXPECT_GT(bytes, 256u * 1024 * 6 / 10);
  EXPECT_LT(bytes, 256u * 1024 * 15 / 10);
}

TEST(XBenchGeneratorTest, ProducesValidArticles) {
  XBenchGenOptions options;
  options.doc_count = 6;
  options.target_doc_bytes = 16 * 1024;
  auto articles = GenerateArticles(options, nullptr);
  ASSERT_TRUE(articles.ok()) << articles.status();
  EXPECT_EQ(articles->size(), 6u);
  EXPECT_TRUE(articles->ValidateHomogeneous().ok());
  for (const auto& doc : articles->docs()) {
    EXPECT_EQ(xpath::EvalPath(*doc, P("/article/prolog")).size(), 1u);
    EXPECT_EQ(xpath::EvalPath(*doc, P("/article/body")).size(), 1u);
    EXPECT_EQ(xpath::EvalPath(*doc, P("/article/epilog")).size(), 1u);
    EXPECT_FALSE(
        xpath::EvalPath(*doc, P("/article/prolog/title")).empty());
  }
}

TEST(XBenchGeneratorTest, DocSizeFollowsTarget) {
  XBenchGenOptions options;
  options.doc_count = 3;
  options.target_doc_bytes = 64 * 1024;
  auto articles = GenerateArticles(options, nullptr);
  ASSERT_TRUE(articles.ok());
  for (const auto& doc : articles->docs()) {
    size_t bytes = xml::Serialize(*doc).size();
    EXPECT_GT(bytes, 32u * 1024);
    EXPECT_LT(bytes, 128u * 1024);
  }
}

TEST(XBenchGeneratorTest, BodyDominatesBytes) {
  XBenchGenOptions options;
  options.doc_count = 2;
  options.target_doc_bytes = 64 * 1024;
  auto articles = GenerateArticles(options, nullptr);
  ASSERT_TRUE(articles.ok());
  const xml::Document& doc = *articles->docs()[0];
  auto body = xpath::EvalPath(doc, P("/article/body"));
  ASSERT_EQ(body.size(), 1u);
  size_t body_bytes = xml::SerializeSubtree(doc, body[0]).size();
  size_t total = xml::Serialize(doc).size();
  EXPECT_GT(body_bytes, total * 2 / 3);
}

// Serialization bytes pinned to values computed before the serializer
// started escaping in place: a generated Store, XBench articles and
// ItemsSHor Items must keep every byte.
TEST(SerializerTest, GeneratedDocumentsKeepTheirBytes) {
  auto digest = [](const xml::Collection& c, const xml::SerializeOptions& o) {
    uint64_t h = Fnv1a64("");
    for (const xml::DocumentPtr& doc : c.docs()) {
      h = Fnv1a64(xml::Serialize(*doc, o), h);
    }
    return HashHex(h);
  };
  StoreGenOptions store_options;
  store_options.seed = 5;
  store_options.item_count = 24;
  store_options.large_items = true;
  auto store = GenerateStore(store_options, nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  xml::SerializeOptions pretty;
  pretty.declaration = true;
  pretty.indent = true;
  EXPECT_EQ(digest(*store, {}), "ef55a4614ce7bbdb");
  EXPECT_EQ(digest(*store, pretty), "df3c7dd187890794");

  XBenchGenOptions article_options;
  article_options.doc_count = 4;
  auto articles = GenerateArticles(article_options, nullptr);
  ASSERT_TRUE(articles.ok()) << articles.status();
  EXPECT_EQ(digest(*articles, {}), "7ac203cab7b6f838");

  ItemsGenOptions item_options;
  item_options.doc_count = 200;
  auto items = GenerateItems(item_options, nullptr);
  ASSERT_TRUE(items.ok()) << items.status();
  EXPECT_EQ(digest(*items, {}), "597c6a41e5df028f");
}

}  // namespace
}  // namespace partix::gen
