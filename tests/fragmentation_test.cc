#include <memory>

#include "fragmentation/algebra.h"

#include "xpath/eval.h"
#include "fragmentation/correctness.h"
#include "fragmentation/fragment_def.h"
#include "fragmentation/fragmenter.h"
#include "fragmentation/origins.h"
#include "fragmentation/reconstruct.h"
#include "gtest/gtest.h"
#include "xml/compare.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace partix::frag {
namespace {

using xml::Collection;
using xml::DocumentPtr;
using xml::RepoKind;

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

/// Builds the Citems-style MD collection used across these tests.
class ItemsFixture : public ::testing::Test {
 protected:
  ItemsFixture()
      : pool_(std::make_shared<xml::NamePool>()),
        items_("items", xml::VirtualStoreSchema(), "/Store/Items/Item",
               RepoKind::kMultipleDocuments) {
    Add("<Item><Code>1</Code><Name>cd one</Name>"
        "<Description>a good disc</Description><Section>CD</Section>"
        "<Release>2004-01-01</Release>"
        "<PictureList><Picture><Name>p1</Name><Description>d1"
        "</Description><ModificationDate>m</ModificationDate>"
        "<OriginalPath>o</OriginalPath><ThumbPath>t</ThumbPath>"
        "</Picture></PictureList></Item>");
    Add("<Item><Code>2</Code><Name>dvd one</Name>"
        "<Description>a movie</Description><Section>DVD</Section>"
        "<Release>2004-02-02</Release></Item>");
    Add("<Item><Code>3</Code><Name>book one</Name>"
        "<Description>sturdy good book</Description>"
        "<Section>BOOK</Section><Release>2004-03-03</Release></Item>");
  }

  void Add(const std::string& xml) {
    auto doc =
        xml::ParseXml(pool_, "item" + std::to_string(next_doc_++), xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    ASSERT_TRUE(items_.Add(*doc).ok());
  }

  std::shared_ptr<xml::NamePool> pool_;
  Collection items_;
  int next_doc_ = 0;
};

// ---- Algebra: selection ----

TEST_F(ItemsFixture, SelectFiltersDocuments) {
  Collection cds = Select(items_, Mu("/Item/Section = \"CD\""), "cds");
  EXPECT_EQ(cds.size(), 1u);
  Collection good =
      Select(items_, Mu("contains(//Description, \"good\")"), "good");
  EXPECT_EQ(good.size(), 2u);
  Collection none = Select(items_, Mu("/Item/Section = \"VHS\""), "none");
  EXPECT_TRUE(none.empty());
}

TEST_F(ItemsFixture, SelectSharesDocuments) {
  Collection cds = Select(items_, Mu("/Item/Section = \"CD\""), "cds");
  ASSERT_EQ(cds.size(), 1u);
  EXPECT_EQ(cds.docs()[0].get(), items_.docs()[0].get());
}

// ---- Algebra: projection ----

TEST_F(ItemsFixture, ProjectSubtree) {
  auto result =
      ProjectDocument(*items_.docs()[0], P("/Item/PictureList"), {}, "f");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(*result, nullptr);
  const xml::Document& doc = **result;
  EXPECT_EQ(doc.name(doc.root()), "PictureList");
  auto origins = frag::DecodeOrigins(doc);
  ASSERT_TRUE(origins.ok()) << origins.status();
  EXPECT_EQ(origins->source, "item0");
  ASSERT_EQ(origins->ancestors.size(), 1u);
  EXPECT_EQ(origins->ancestors[0].second, "Item");
}

TEST_F(ItemsFixture, ProjectWithPrune) {
  auto result = ProjectDocument(*items_.docs()[0], P("/Item"),
                                {P("/Item/PictureList")}, "f");
  ASSERT_TRUE(result.ok()) << result.status();
  const xml::Document& doc = **result;
  EXPECT_EQ(doc.name(doc.root()), "Item");
  // PictureList pruned away.
  EXPECT_TRUE(
      xpath::EvalPath(doc, P("/Item/PictureList")).empty());
  EXPECT_FALSE(xpath::EvalPath(doc, P("/Item/Code")).empty());
}

TEST_F(ItemsFixture, ProjectMissingPathYieldsNoInstance) {
  // Document item1 has no PictureList.
  auto result =
      ProjectDocument(*items_.docs()[1], P("/Item/PictureList"), {}, "f");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, nullptr);
}

TEST_F(ItemsFixture, ProjectRejectsMultiNodeSelection) {
  // Picture has cardinality 1..n under PictureList; construct a doc with
  // two pictures to trigger the restriction.
  auto doc = xml::ParseXml(
      pool_, "multi",
      "<Item><PictureList><Picture><Name>a</Name></Picture>"
      "<Picture><Name>b</Name></Picture></PictureList></Item>");
  ASSERT_TRUE(doc.ok());
  auto result = ProjectDocument(**doc, P("/Item/PictureList/Picture"), {},
                                "f");
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // A positional index resolves it (the paper's escape hatch).
  auto positional = ProjectDocument(
      **doc, P("/Item/PictureList/Picture[1]"), {}, "f");
  ASSERT_TRUE(positional.ok()) << positional.status();
  EXPECT_EQ((*positional)->StringValue((*positional)->root()), "a");
}

// ---- Algebra: union and join ----

TEST_F(ItemsFixture, UnionRebuildsHorizontal) {
  Collection cds = Select(items_, Mu("/Item/Section = \"CD\""), "f1");
  Collection rest = Select(items_, Mu("/Item/Section != \"CD\""), "f2");
  auto rebuilt = UnionCollections({cds, rest}, "items");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(rebuilt->size(), items_.size());
}

TEST_F(ItemsFixture, UnionDetectsOverlap) {
  Collection all1 = Select(items_, Mu("true"), "f1");
  Collection all2 = Select(items_, Mu("true"), "f2");
  auto rebuilt = UnionCollections({all1, all2}, "items");
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ItemsFixture, JoinRebuildsVerticalSplit) {
  const DocumentPtr& src = items_.docs()[0];
  auto body = ProjectDocument(*src, P("/Item"), {P("/Item/PictureList")},
                              "f1");
  auto pictures =
      ProjectDocument(*src, P("/Item/PictureList"), {}, "f2");
  ASSERT_TRUE(body.ok() && pictures.ok());
  ASSERT_NE(*body, nullptr);
  ASSERT_NE(*pictures, nullptr);
  auto joined = JoinFragments({*body, *pictures}, pool_);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_TRUE(xml::DocumentsEqual(*src, **joined))
      << xml::ExplainDifference(*src, src->root(), **joined,
                                (*joined)->root());
}

TEST_F(ItemsFixture, JoinDetectsOverlappingFragments) {
  const DocumentPtr& src = items_.docs()[0];
  auto whole1 = ProjectDocument(*src, P("/Item"), {}, "f1");
  auto whole2 = ProjectDocument(*src, P("/Item"), {}, "f2");
  ASSERT_TRUE(whole1.ok() && whole2.ok());
  auto joined = JoinFragments({*whole1, *whole2}, pool_);
  EXPECT_EQ(joined.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ItemsFixture, JoinRecreatesScaffoldAncestors) {
  // Split into three children fragments; no fragment holds the Item root,
  // which must be re-created from the scaffold chains.
  const DocumentPtr& src = items_.docs()[1];
  auto code = ProjectDocument(*src, P("/Item/Code"), {}, "f1");
  auto name = ProjectDocument(*src, P("/Item/Name"), {}, "f2");
  auto desc = ProjectDocument(*src, P("/Item/Description"), {}, "f3");
  auto section = ProjectDocument(*src, P("/Item/Section"), {}, "f4");
  auto release = ProjectDocument(*src, P("/Item/Release"), {}, "f5");
  ASSERT_TRUE(code.ok() && name.ok() && desc.ok() && section.ok() &&
              release.ok());
  auto joined =
      JoinFragments({*code, *name, *desc, *section, *release}, pool_);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_TRUE(xml::DocumentsEqual(*src, **joined))
      << xml::ExplainDifference(*src, src->root(), **joined,
                                (*joined)->root());
}

// ---- Fragment definitions ----

TEST(FragmentDefTest, KindsAndNames) {
  FragmentDef h(HorizontalDef{"fh", Mu("/Item/Section = \"CD\"")});
  FragmentDef v(VerticalDef{"fv", P("/article/prolog"), {}});
  FragmentDef y(HybridDef{"fy", P("/Store/Items"), {},
                          Mu("/Item/Section = \"CD\"")});
  EXPECT_EQ(h.kind(), FragmentKind::kHorizontal);
  EXPECT_EQ(v.kind(), FragmentKind::kVertical);
  EXPECT_EQ(y.kind(), FragmentKind::kHybrid);
  EXPECT_EQ(h.name(), "fh");
  EXPECT_FALSE(h.ToString("c").empty());
  EXPECT_FALSE(v.ToString("c").empty());
  EXPECT_FALSE(y.ToString("c").empty());
}

TEST(FragmentationSchemaTest, ValidateStructure) {
  FragmentationSchema schema;
  schema.collection = "c";
  EXPECT_FALSE(schema.ValidateStructure().ok());  // empty
  schema.fragments.emplace_back(
      HorizontalDef{"f1", Mu("/Item/Section = \"CD\"")});
  schema.fragments.emplace_back(
      HorizontalDef{"f1", Mu("/Item/Section != \"CD\"")});
  EXPECT_FALSE(schema.ValidateStructure().ok());  // duplicate name
  schema.fragments[1] = FragmentDef(
      HorizontalDef{"f2", Mu("/Item/Section != \"CD\"")});
  EXPECT_TRUE(schema.ValidateStructure().ok());
}

TEST(FragmentationSchemaTest, PrunePathsMustExtendFragmentPath) {
  FragmentationSchema schema;
  schema.collection = "c";
  schema.fragments.emplace_back(
      VerticalDef{"f", P("/a/b"), {P("/a/c")}});
  EXPECT_FALSE(schema.ValidateStructure().ok());
  schema.fragments[0] =
      FragmentDef(VerticalDef{"f", P("/a/b"), {P("/a/b/c")}});
  EXPECT_TRUE(schema.ValidateStructure().ok());
}

// ---- Fragmenter + correctness: horizontal ----

TEST_F(ItemsFixture, HorizontalFragmentationAndCorrectness) {
  FragmentationSchema schema;
  schema.collection = "items";
  schema.fragments.emplace_back(
      HorizontalDef{"f_cd", Mu("/Item/Section = \"CD\"")});
  schema.fragments.emplace_back(
      HorizontalDef{"f_rest", Mu("/Item/Section != \"CD\"")});

  auto fragments = ApplyFragmentation(items_, schema);
  ASSERT_TRUE(fragments.ok()) << fragments.status();
  ASSERT_EQ(fragments->size(), 2u);
  EXPECT_EQ((*fragments)[0].size(), 1u);
  EXPECT_EQ((*fragments)[1].size(), 2u);

  auto report = CheckCorrectness(items_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->complete);
  EXPECT_TRUE(report->disjoint);
  EXPECT_TRUE(report->reconstructible);
}

TEST_F(ItemsFixture, HorizontalIncompletenessDetected) {
  FragmentationSchema schema;
  schema.collection = "items";
  schema.fragments.emplace_back(
      HorizontalDef{"f_cd", Mu("/Item/Section = \"CD\"")});
  schema.fragments.emplace_back(
      HorizontalDef{"f_dvd", Mu("/Item/Section = \"DVD\"")});
  // BOOK items match no fragment.
  auto report = CheckCorrectness(items_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->complete);
  EXPECT_FALSE(report->ok());
}

TEST_F(ItemsFixture, HorizontalOverlapDetected) {
  FragmentationSchema schema;
  schema.collection = "items";
  schema.fragments.emplace_back(HorizontalDef{"f_all", Mu("true")});
  schema.fragments.emplace_back(
      HorizontalDef{"f_cd", Mu("/Item/Section = \"CD\"")});
  auto report = CheckCorrectness(items_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->disjoint);
}

TEST_F(ItemsFixture, ExistentialFragmentation) {
  // Paper Fig. 2(c): partition by presence of PictureList.
  FragmentationSchema schema;
  schema.collection = "items";
  schema.fragments.emplace_back(
      HorizontalDef{"f_pics", Mu("/Item/PictureList")});
  schema.fragments.emplace_back(
      HorizontalDef{"f_nopics", Mu("empty(/Item/PictureList)")});
  auto report = CheckCorrectness(items_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST(FragmenterTest, RejectsHeterogeneousCollections) {
  auto pool = std::make_shared<xml::NamePool>();
  Collection mixed("mixed", xml::VirtualStoreSchema(), "/Store/Items/Item",
                   RepoKind::kMultipleDocuments);
  auto item = xml::ParseXml(
      pool, "ok",
      "<Item><Code>1</Code><Name>n</Name><Description>d</Description>"
      "<Section>CD</Section><Release>r</Release></Item>");
  auto alien = xml::ParseXml(pool, "alien", "<Other><X/></Other>");
  ASSERT_TRUE(item.ok() && alien.ok());
  ASSERT_TRUE(mixed.Add(*item).ok());
  ASSERT_TRUE(mixed.Add(*alien).ok());
  FragmentationSchema schema;
  schema.collection = "mixed";
  schema.fragments.emplace_back(HorizontalDef{"f", Mu("true")});
  auto result = ApplyFragmentation(mixed, schema);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // Schemaless collections are exempt (nothing to validate against).
  Collection schemaless("mixed2", nullptr, "", RepoKind::kMultipleDocuments);
  ASSERT_TRUE(schemaless.Add(*item).ok());
  ASSERT_TRUE(schemaless.Add(*alien).ok());
  FragmentationSchema schema2 = schema;
  schema2.collection = "mixed2";
  EXPECT_TRUE(ApplyFragmentation(schemaless, schema2).ok());
}

TEST(FragmenterTest, HorizontalRejectsSdCollections) {
  auto pool = std::make_shared<xml::NamePool>();
  Collection store("store", nullptr, "/Store", RepoKind::kSingleDocument);
  auto doc = xml::ParseXml(pool, "s", "<Store><Items/></Store>");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(store.Add(*doc).ok());
  FragmentationSchema schema;
  schema.collection = "store";
  schema.fragments.emplace_back(HorizontalDef{"f", Mu("true")});
  auto fragments = ApplyFragmentation(store, schema);
  EXPECT_EQ(fragments.status().code(), StatusCode::kFailedPrecondition);
}

// ---- Fragmenter + correctness: vertical ----

TEST_F(ItemsFixture, VerticalFragmentationAndCorrectness) {
  FragmentationSchema schema;
  schema.collection = "items";
  // Paper Fig. 3(a): F1 = Item minus PictureList, F2 = PictureList.
  schema.fragments.emplace_back(
      VerticalDef{"f_item", P("/Item"), {P("/Item/PictureList")}});
  schema.fragments.emplace_back(
      VerticalDef{"f_pics", P("/Item/PictureList"), {}});
  auto report = CheckCorrectness(items_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(ItemsFixture, VerticalIncompletenessDetected) {
  FragmentationSchema schema;
  schema.collection = "items";
  // Only project Code: everything else is uncovered.
  schema.fragments.emplace_back(VerticalDef{"f", P("/Item/Code"), {}});
  auto report = CheckCorrectness(items_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->complete);
}

TEST_F(ItemsFixture, VerticalOverlapDetected) {
  FragmentationSchema schema;
  schema.collection = "items";
  schema.fragments.emplace_back(VerticalDef{"f_all", P("/Item"), {}});
  schema.fragments.emplace_back(VerticalDef{"f_code", P("/Item/Code"), {}});
  auto report = CheckCorrectness(items_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->disjoint);
}

TEST_F(ItemsFixture, VerticalReconstructionRoundTrip) {
  FragmentationSchema schema;
  schema.collection = "items";
  schema.fragments.emplace_back(
      VerticalDef{"f_item", P("/Item"), {P("/Item/PictureList")}});
  schema.fragments.emplace_back(
      VerticalDef{"f_pics", P("/Item/PictureList"), {}});
  auto fragments = ApplyFragmentation(items_, schema);
  ASSERT_TRUE(fragments.ok());
  auto rebuilt = ReconstructVertical(*fragments, "items", pool_);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ASSERT_EQ(rebuilt->size(), items_.size());
  for (size_t i = 0; i < items_.size(); ++i) {
    // Reconstructed collection is ordered by source doc name.
    bool found = false;
    for (const DocumentPtr& doc : rebuilt->docs()) {
      if (doc->doc_name() == items_.docs()[i]->doc_name()) {
        EXPECT_TRUE(xml::DocumentsEqual(*items_.docs()[i], *doc));
        found = true;
      }
    }
    EXPECT_TRUE(found) << items_.docs()[i]->doc_name();
  }
}

// ---- Hybrid fragmentation over an SD store ----

class StoreFixture : public ::testing::Test {
 protected:
  StoreFixture()
      : pool_(std::make_shared<xml::NamePool>()),
        store_("store", xml::VirtualStoreSchema(), "/Store",
               RepoKind::kSingleDocument) {
    auto doc = xml::ParseXml(
        pool_, "store-doc",
        "<Store>"
        "<Sections><Section><Code>1</Code><Name>CD</Name></Section>"
        "<Section><Code>2</Code><Name>DVD</Name></Section></Sections>"
        "<Items>"
        "<Item><Code>1</Code><Name>cd one</Name><Description>good"
        "</Description><Section>CD</Section><Release>r</Release></Item>"
        "<Item><Code>2</Code><Name>dvd one</Name><Description>fine"
        "</Description><Section>DVD</Section><Release>r</Release></Item>"
        "<Item><Code>3</Code><Name>cd two</Name><Description>nice"
        "</Description><Section>CD</Section><Release>r</Release></Item>"
        "<Item><Code>4</Code><Name>toy one</Name><Description>fun"
        "</Description><Section>TOY</Section><Release>r</Release></Item>"
        "</Items>"
        "<Employees><Employee>ann</Employee><Employee>bob</Employee>"
        "</Employees>"
        "</Store>");
    EXPECT_TRUE(doc.ok()) << doc.status();
    EXPECT_TRUE(store_.Add(*doc).ok());
  }

  FragmentationSchema PaperHybridSchema(HybridMode mode) {
    // Paper Fig. 4 adapted: 3 instance fragments by Section + the pruned
    // store fragment.
    FragmentationSchema schema;
    schema.collection = "store";
    schema.hybrid_mode = mode;
    schema.fragments.emplace_back(HybridDef{
        "f_cd", P("/Store/Items"), {}, Mu("/Item/Section = \"CD\"")});
    schema.fragments.emplace_back(HybridDef{
        "f_dvd", P("/Store/Items"), {}, Mu("/Item/Section = \"DVD\"")});
    schema.fragments.emplace_back(
        HybridDef{"f_other", P("/Store/Items"), {},
                  Mu("/Item/Section != \"CD\" and "
                     "/Item/Section != \"DVD\"")});
    schema.fragments.emplace_back(
        HybridDef{"f_store", P("/Store"), {P("/Store/Items")}, Mu("true")});
    return schema;
  }

  std::shared_ptr<xml::NamePool> pool_;
  Collection store_;
};

TEST_F(StoreFixture, HybridFragMode2ProducesContainers) {
  auto fragments =
      ApplyFragmentation(store_, PaperHybridSchema(
                                     HybridMode::kSinglePrunedDoc));
  ASSERT_TRUE(fragments.ok()) << fragments.status();
  ASSERT_EQ(fragments->size(), 4u);
  // f_cd: one container doc with the two CD items.
  EXPECT_EQ((*fragments)[0].size(), 1u);
  const xml::Document& cd = *(*fragments)[0].docs()[0];
  EXPECT_EQ(cd.name(cd.root()), "Items");
  EXPECT_EQ(cd.ElementChildren(cd.root()).size(), 2u);
  // f_store: Store without Items.
  const xml::Document& st = *(*fragments)[3].docs()[0];
  EXPECT_EQ(st.name(st.root()), "Store");
  EXPECT_EQ(st.ElementChildren(st.root()).size(), 2u);  // Sections+Employees
}

TEST_F(StoreFixture, HybridFragMode1ProducesOneDocPerItem) {
  auto fragments = ApplyFragmentation(
      store_, PaperHybridSchema(HybridMode::kOneDocPerSubtree));
  ASSERT_TRUE(fragments.ok()) << fragments.status();
  EXPECT_EQ((*fragments)[0].size(), 2u);  // two CD items
  EXPECT_EQ((*fragments)[1].size(), 1u);
  EXPECT_EQ((*fragments)[2].size(), 1u);
  const xml::Document& item = *(*fragments)[0].docs()[0];
  EXPECT_EQ(item.name(item.root()), "Item");
}

TEST_F(StoreFixture, HybridCorrectnessBothModes) {
  for (HybridMode mode : {HybridMode::kSinglePrunedDoc,
                          HybridMode::kOneDocPerSubtree}) {
    auto report = CheckCorrectness(store_, PaperHybridSchema(mode));
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->ok()) << report->Summary();
  }
}

TEST_F(StoreFixture, HybridIncompletenessDetected) {
  FragmentationSchema schema;
  schema.collection = "store";
  // CD fragment only: DVD/TOY items and the rest of the store uncovered.
  schema.fragments.emplace_back(HybridDef{
      "f_cd", P("/Store/Items"), {}, Mu("/Item/Section = \"CD\"")});
  auto report = CheckCorrectness(store_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->complete);
}

TEST_F(StoreFixture, HybridOverlapDetected) {
  auto schema = PaperHybridSchema(HybridMode::kSinglePrunedDoc);
  // Make f_other overlap with f_cd.
  schema.fragments[2] = FragmentDef(HybridDef{
      "f_other", P("/Store/Items"), {},
      Mu("/Item/Section != \"DVD\"")});
  auto report = CheckCorrectness(store_, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->disjoint);
}

}  // namespace
}  // namespace partix::frag
