// Structural labeling index tests (see docs/structural-index.md):
//
//   - label invariants: (pre, sub_max, level) interval axioms, sub_max
//     contiguity, NodeAtPre/VisitSubtree agreement
//   - labels survive mutation correctly: any edit invalidates, resealing
//     reproduces the same label stream (determinism contract behind the
//     STRUCT persistence sidecar)
//   - persistence: the STRUCT checksum keeps its pinned values, the
//     sidecar round-trips and detects corrupted entries
//   - index-backed evaluation is byte-identical to navigational
//     evaluation across every workload query under every fragmentation
//     design (DatabaseOptions::enable_structural_index on vs off)
//   - the size rule: contexts below xpath::kLabelRangeMinSubtree nodes
//     navigate and larger ones scan labels, with identical answers
//   - label-merge JoinFragments is byte-identical to the value-join
//     baseline (JoinFragmentsValueJoin)
//   - planner: spine level bounds
//   - concurrency: parallel probes of a built StructuralIndex and
//     label-range scans over shared sealed documents — the read surface
//     the index contract declares shareable (exercised under TSan by
//     scripts/check.sh)

#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/persistence.h"
#include "engine/planner.h"
#include "fragmentation/algebra.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "storage/indexes.h"
#include "telemetry/metrics.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/eval.h"
#include "xpath/path.h"
#include "xquery/parser.h"

namespace partix {
namespace {

namespace fs = std::filesystem;

using xml::Document;
using xml::DocumentPtr;
using xml::kNullNode;
using xml::NodeId;
using xml::NodeKind;

/// `count` empty `<name/>` elements: filler that moves a context's
/// subtree across xpath::kLabelRangeMinSubtree.
std::string Filler(const std::string& name, size_t count) {
  std::string out;
  for (size_t i = 0; i < count; ++i) out += "<" + name + "/>";
  return out;
}

xml::DocumentPtr MustParse(const std::shared_ptr<xml::NamePool>& pool,
                           const std::string& name, const std::string& text) {
  auto doc = xml::ParseXml(pool, name, text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return *doc;
}

// --- label invariants ----------------------------------------------------

/// Checks every labeling axiom on one sealed document.
void CheckLabelInvariants(const Document& doc) {
  ASSERT_TRUE(doc.has_labels());
  const uint32_t n_count = doc.node_count();

  // pre is a permutation of [0, node_count) and NodeAtPre inverts it.
  std::vector<bool> seen(n_count, false);
  for (NodeId n = 0; n < n_count; ++n) {
    const xml::NodeLabel& l = doc.label(n);
    ASSERT_LT(l.pre, n_count);
    EXPECT_FALSE(seen[l.pre]);
    seen[l.pre] = true;
    EXPECT_EQ(doc.NodeAtPre(l.pre), n);
    EXPECT_GE(l.sub_max, l.pre);
    EXPECT_LT(l.sub_max, n_count);
  }

  // Root: pre 0, level 1, subtree spans the whole document.
  const xml::NodeLabel& root = doc.label(doc.root());
  EXPECT_EQ(root.pre, 0u);
  EXPECT_EQ(root.level, 1u);
  EXPECT_EQ(root.sub_max, n_count - 1);

  for (NodeId n = 0; n < n_count; ++n) {
    const xml::NodeLabel& l = doc.label(n);
    NodeId parent = doc.parent(n);
    if (parent != kNullNode) {
      const xml::NodeLabel& p = doc.label(parent);
      // Interval containment: child strictly inside the parent.
      EXPECT_LT(p.pre, l.pre);
      EXPECT_LE(l.sub_max, p.sub_max);
      EXPECT_EQ(l.level, p.level + 1);
      EXPECT_TRUE(doc.IsAncestor(parent, n));
      EXPECT_FALSE(doc.IsAncestor(n, parent));
    }
  }

  // Preorder follows sibling order.
  for (NodeId n = 0; n < n_count; ++n) {
    uint32_t prev_pre = 0;
    bool first = true;
    for (NodeId c = doc.first_child(n); c != kNullNode;
         c = doc.next_sibling(c)) {
      const uint32_t pre = doc.label(c).pre;
      if (!first) {
        EXPECT_GT(pre, prev_pre);
      }
      prev_pre = pre;
      first = false;
    }
  }

  // VisitSubtree from the root delivers exactly preorder rank order.
  uint32_t expected_pre = 0;
  doc.VisitSubtree(doc.root(), [&](NodeId n) {
    EXPECT_EQ(doc.label(n).pre, expected_pre);
    ++expected_pre;
  });
  EXPECT_EQ(expected_pre, n_count);

  // NameOccurrences lists are ascending and complete.
  size_t named_total = 0;
  for (NodeId n = 0; n < n_count; ++n) {
    if (doc.kind(n) == NodeKind::kText) continue;
    const std::span<const uint32_t> occ = doc.NameOccurrences(doc.name_id(n));
    ASSERT_FALSE(occ.empty());
    EXPECT_TRUE(std::is_sorted(occ.begin(), occ.end()));
    ++named_total;
  }
  size_t listed_total = 0;
  for (NodeId n = 0; n < n_count; ++n) {
    if (doc.kind(n) == NodeKind::kText) continue;
    // Count each name list once by only tallying at its first holder.
    const std::span<const uint32_t> occ = doc.NameOccurrences(doc.name_id(n));
    if (doc.NodeAtPre(occ[0]) == n) listed_total += occ.size();
  }
  EXPECT_EQ(listed_total, named_total);
}

TEST(StructuralLabelTest, ParserSealsLabels) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = MustParse(
      pool, "d",
      "<a id=\"1\"><b><c>x</c><c>y</c></b><b hint=\"h\">z</b></a>");
  CheckLabelInvariants(*doc);
}

TEST(StructuralLabelTest, GeneratedDocumentsSatisfyInvariants) {
  gen::ItemsGenOptions options;
  options.doc_count = 5;
  options.seed = 91;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  for (const DocumentPtr& doc : items->docs()) CheckLabelInvariants(*doc);
}

TEST(StructuralLabelTest, DescendantIntervalMatchesSubtree) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = MustParse(pool, "d",
                       "<a><b><c/><c/></b><d><c/></d><b/></a>");
  for (NodeId n = 0; n < doc->node_count(); ++n) {
    const xml::NodeLabel& l = doc->label(n);
    // Every node in (pre, sub_max] is a descendant; none outside is.
    for (NodeId m = 0; m < doc->node_count(); ++m) {
      const uint32_t pre = doc->label(m).pre;
      const bool in_interval = pre > l.pre && pre <= l.sub_max;
      EXPECT_EQ(doc->IsAncestor(n, m), in_interval);
    }
  }
}

// Occurrence runs hold preorder ranks, so they must follow document order
// even where node ids (creation order) do not.
TEST(StructuralLabelTest, OccurrencesFollowPreorderWhenIdsDoNot) {
  auto pool = std::make_shared<xml::NamePool>();
  Document doc(pool, "d");
  const NodeId a = doc.CreateRoot("a");
  const NodeId b = doc.AppendElement(a, "b");
  doc.AppendElement(a, "c");
  doc.AppendElement(b, "c");  // id 3, but preorder rank 2
  doc.AppendAttribute(b, "k", "v");
  doc.AppendText(doc.AppendElement(a, "b"), "t");
  doc.SealLabels();
  CheckLabelInvariants(doc);
  ASSERT_NE(doc.label(2).pre, 2u);  // ids really are out of preorder

  for (const char* name : {"a", "b", "c", "k"}) {
    const xml::NameId id = *pool->Find(name);
    std::vector<uint32_t> expected;
    doc.VisitSubtree(doc.root(), [&](NodeId n) {
      if (doc.kind(n) != NodeKind::kText && doc.name_id(n) == id) {
        expected.push_back(doc.label(n).pre);
      }
    });
    const std::span<const uint32_t> occ = doc.NameOccurrences(id);
    EXPECT_EQ(std::vector<uint32_t>(occ.begin(), occ.end()), expected)
        << name;
  }
  // Interned in the pool but absent here, and past the largest id.
  EXPECT_TRUE(doc.NameOccurrences(pool->Intern("absent")).empty());
  EXPECT_TRUE(
      doc.NameOccurrences(static_cast<xml::NameId>(pool->size() + 7)).empty());
}

TEST(StructuralLabelTest, MutationInvalidatesAndResealReproduces) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = xml::ParseXml(pool, "d", "<a><b>x</b></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE((*doc)->has_labels());
  const uint64_t before = xdb::StructuralLabelChecksum(**doc);

  auto copy = std::make_shared<Document>(pool, "d");
  copy->CopySubtree(**doc, (*doc)->root(), kNullNode);
  EXPECT_FALSE(copy->has_labels());  // mutation leaves labels unsealed
  copy->SealLabels();
  // Identical structure -> identical label stream (the STRUCT contract).
  EXPECT_EQ(xdb::StructuralLabelChecksum(*copy), before);

  copy->AppendElement(copy->root(), "b");
  EXPECT_FALSE(copy->has_labels());  // any edit invalidates
  copy->SealLabels();
  EXPECT_NE(xdb::StructuralLabelChecksum(*copy), before);
}

// Values computed when post and Dewey labels were still stored: deriving
// them must leave every STRUCT checksum as it was, so that earlier exports
// still import.
TEST(StructuralLabelTest, ChecksumKeepsPinnedValues) {
  auto pool = std::make_shared<xml::NamePool>();
  EXPECT_EQ(xdb::StructuralLabelChecksum(
                *MustParse(pool, "a", "<a><b>x</b><c/></a>")),
            0x2db29ebe9aad6882ull);
  EXPECT_EQ(xdb::StructuralLabelChecksum(*MustParse(
                pool, "r", "<r id=\"1\"><s><t>v</t><u/></s><s k=\"2\"/></r>")),
            0x8386561d99347dc2ull);
}

// Attributes push the elements' positions to two digits, so the derived
// root paths must keep multi-digit components apart exactly as the stored
// ones did.
TEST(StructuralLabelTest, ChecksumKeepsPinnedValueOnWideDocument) {
  auto pool = std::make_shared<xml::NamePool>();
  std::string text = "<r a=\"1\" b=\"2\">";
  for (int i = 1; i <= 11; ++i) text += "<s>" + std::to_string(i) + "</s>";
  text += "<t x=\"y\"><u><v>deep</v><w/></u></t></r>";
  EXPECT_EQ(xdb::StructuralLabelChecksum(*MustParse(pool, "w", text)),
            0xe039619e4e8ef91cull);
}

/// Assigns each node of `n`'s subtree its 0-based postorder rank.
void PostorderRanks(const Document& doc, NodeId n, uint32_t* next,
                    std::vector<uint32_t>* rank) {
  for (NodeId c = doc.first_child(n); c != kNullNode; c = doc.next_sibling(c)) {
    PostorderRanks(doc, c, next, rank);
  }
  (*rank)[n] = (*next)++;
}

// The STRUCT checksum mixes sub_max + 1 - level as the postorder rank.
TEST(StructuralLabelTest, DerivedPostIsPostorderRank) {
  auto pool = std::make_shared<xml::NamePool>();
  std::vector<DocumentPtr> docs = {MustParse(
      pool, "d",
      "<a id=\"1\"><b><c>x</c><c>y</c></b><b hint=\"h\">z</b><d/></a>")};
  gen::ItemsGenOptions options;
  options.doc_count = 3;
  options.seed = 92;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  for (const DocumentPtr& doc : items->docs()) docs.push_back(doc);
  for (const DocumentPtr& doc : docs) {
    std::vector<uint32_t> rank(doc->node_count());
    uint32_t next = 0;
    PostorderRanks(*doc, doc->root(), &next, &rank);
    ASSERT_EQ(next, doc->node_count());
    for (NodeId n = 0; n < doc->node_count(); ++n) {
      const xml::NodeLabel& l = doc->label(n);
      EXPECT_EQ(l.sub_max + 1 - l.level, rank[n])
          << doc->doc_name() << " node " << n;
    }
  }
}

// Labels are fixed-size per node: a document's byte charge depends on
// how many nodes it has, not on how deep they nest. Both documents are
// built node by node: the charge counts container capacity, and the
// parser reserves by input length, which a chain's closing tags inflate.
TEST(StructuralLabelTest, LabelBytesDoNotDependOnDepth) {
  auto pool = std::make_shared<xml::NamePool>();
  Document deep(pool, "deep");
  Document flat(pool, "flat");
  NodeId tip = deep.CreateRoot("e");
  flat.CreateRoot("e");
  for (int i = 1; i < 300; ++i) {
    tip = deep.AppendElement(tip, "e");
    flat.AppendElement(flat.root(), "e");
  }
  deep.SealLabels();
  flat.SealLabels();
  ASSERT_EQ(deep.node_count(), flat.node_count());
  ASSERT_EQ(deep.label(tip).level, 300u);
  ASSERT_TRUE(flat.has_labels());
  EXPECT_EQ(deep.ApproxBytes(), flat.ApproxBytes());
}

// --- xpath: index-backed steps vs navigation -----------------------------

TEST(StructuralEvalTest, StrategySelection) {
  auto parse = [](const std::string& text) {
    auto p = xpath::Path::Parse(text);
    EXPECT_TRUE(p.ok()) << p.status();
    return *p;
  };
  // Descendant + named: always a label range.
  EXPECT_EQ(xpath::StaticStepStrategy(parse("//Item").steps()[0]),
            xpath::StepStrategy::kLabelRange);
  // Wildcards and positional predicates stay navigational.
  EXPECT_EQ(xpath::StaticStepStrategy(parse("/*").steps()[0]),
            xpath::StepStrategy::kNavigate);
  EXPECT_EQ(xpath::StaticStepStrategy(parse("/Item[2]").steps()[0]),
            xpath::StepStrategy::kNavigate);
  // Child axis: decided per document at evaluation time.
  EXPECT_EQ(xpath::StaticStepStrategy(parse("/Item").steps()[0]),
            xpath::StepStrategy::kDynamic);
}

TEST(StructuralEvalTest, IndexedAndNavigationalPathsAgree) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = MustParse(
      pool, "d",
      "<Store><Items>"
      "<Item><Code>1</Code><Name>a</Name></Item>"
      "<Item><Code>2</Code><Name middle=\"m\">b</Name></Item>"
      "</Items><Name>store</Name></Store>");
  const char* paths[] = {"//Item",       "//Name",      "/Store/Items/Item",
                         "//Item/Code",  "//Items//Name", "/Store//Name",
                         "//Item/@*",    "/Store/Name"};
  for (const char* text : paths) {
    auto p = xpath::Path::Parse(text);
    ASSERT_TRUE(p.ok()) << text;
    xpath::EvalOptions on;
    on.use_structural_index = true;
    xpath::EvalOptions off;
    off.use_structural_index = false;
    const std::vector<xml::NodeId> with_index = xpath::EvalPath(*doc, *p, on);
    const std::vector<xml::NodeId> without = xpath::EvalPath(*doc, *p, off);
    EXPECT_EQ(with_index, without) << text;
  }
}

// The size rule: contexts below xpath::kLabelRangeMinSubtree nodes
// navigate; from it on, descendant steps and sparse child names scan
// labels while dense child names keep the walk. Answers never change.
TEST(StructuralEvalTest, SizeRuleKeepsAnswersAcrossTheThreshold) {
  constexpr size_t kT = xpath::kLabelRangeMinSubtree;
  struct Case {
    std::string query;
    std::string expected;  // empty: compared on vs off only
    bool label_eligible;   // scans once the context is large enough
    bool from_document;    // context is the whole document (one more node)
  };
  const std::string r = "collection(\"c\")/r";
  const std::string let = "let $r := " + r + " return ";
  const std::vector<Case> cases = {
      {r + "/x", "<x/>", true, false},              // child, sparse
      {r + "/f", "", false, false},                 // child, dense
      {r + "//x", "<x/>\n<x/>", true, false},       // descendant, sparse
      {"count(" + r + "//f)", "", true, false},     // descendant, dense
      {"collection(\"c\")//x", "<x/>\n<x/>", true, true},
      {let + "count(($r, $r)/x)", "1", true, false},       // duplicates
      {let + "count(($r, $r/y)//x)", "2", true, false},    // nested
  };
  auto pool = std::make_shared<xml::NamePool>();
  for (size_t descendants : {kT - 1, kT, kT + 1}) {
    // r's descendants: y, the x inside it, the x child and the fillers.
    const std::string text =
        "<r><y><x/></y><x/>" + Filler("f", descendants - 3) + "</r>";
    xdb::DatabaseOptions on_options;
    on_options.enable_structural_index = true;
    xdb::DatabaseOptions off_options;
    off_options.enable_structural_index = false;
    xdb::Database on(on_options);
    xdb::Database off(off_options);
    for (xdb::Database* db : {&on, &off}) {
      ASSERT_TRUE(db->CreateCollection("c").ok());
      ASSERT_TRUE(db->StoreSerialized("c", "d", text).ok());
    }
    for (const Case& c : cases) {
      SCOPED_TRACE(c.query + " over " + std::to_string(descendants) +
                   " descendants");
      auto with = on.Execute(c.query);
      auto without = off.Execute(c.query);
      ASSERT_TRUE(with.ok()) << with.status();
      ASSERT_TRUE(without.ok()) << without.status();
      EXPECT_EQ(with->serialized, without->serialized);
      if (!c.expected.empty()) {
        EXPECT_EQ(with->serialized, c.expected);
      }
      EXPECT_EQ(without->metrics.index_range_scans, 0u);
      const size_t context = descendants + (c.from_document ? 1 : 0);
      if (c.label_eligible && context >= kT) {
        EXPECT_GT(with->metrics.index_range_scans, 0u);
      } else {
        EXPECT_EQ(with->metrics.index_range_scans, 0u);
      }
    }
    // The xpath evaluator shares the rule.
    DocumentPtr doc = MustParse(pool, "d", text);
    for (const char* path : {"/r/x", "/r/f", "/r//x", "//x", "//f", "/r/y"}) {
      auto p = xpath::Path::Parse(path);
      ASSERT_TRUE(p.ok()) << path;
      xpath::EvalOptions labels_off;
      labels_off.use_structural_index = false;
      EXPECT_EQ(xpath::EvalPath(*doc, *p),
                xpath::EvalPath(*doc, *p, labels_off))
          << path << " over " << descendants << " descendants";
    }
  }
}

// --- storage: StructuralIndex --------------------------------------------

TEST(StructuralIndexTest, LevelBoundsPruneDocuments) {
  auto pool = std::make_shared<xml::NamePool>();
  auto shallow = MustParse(pool, "s", "<a><b/></a>");         // b at level 2
  auto deep = MustParse(pool, "t", "<a><x><b/></x></a>");     // b at level 3

  storage::StructuralIndex index;
  index.AddDocument(0, *shallow);
  index.AddDocument(1, *deep);
  EXPECT_EQ(index.distinct_names(), 3u);  // a, b, x

  const auto* postings = index.Lookup("b");
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(postings->size(), 2u);
  EXPECT_EQ(index.Lookup("zzz"), nullptr);

  // Exact level: only the document where some `b` sits at that level.
  EXPECT_EQ(index.LookupWithLevel("b", 2, /*exact_level=*/true),
            (storage::PostingList{0}));
  EXPECT_EQ(index.LookupWithLevel("b", 3, /*exact_level=*/true),
            (storage::PostingList{1}));
  // Lower bound (descendant spine): level <= max_level.
  EXPECT_EQ(index.LookupWithLevel("b", 2, /*exact_level=*/false),
            (storage::PostingList{0, 1}));
  EXPECT_EQ(index.LookupWithLevel("b", 3, /*exact_level=*/false),
            (storage::PostingList{1}));
  EXPECT_TRUE(index.LookupWithLevel("b", 4, false).empty());
}

// --- planner: spine levels and step strategies ---------------------------

std::map<std::string, xdb::CollectionPlan> Plan(const std::string& query) {
  auto ast = xquery::ParseQuery(query);
  EXPECT_TRUE(ast.ok()) << ast.status();
  return xdb::AnalyzeQuery(**ast);
}

TEST(StructuralPlannerTest, ChildOnlySpineHasExactLevels) {
  auto plans = Plan("collection(\"c\")/Store/Items/Item");
  const xdb::SiteConstraints& site = plans["c"].sites[0];
  ASSERT_EQ(site.spine_levels.size(), 3u);
  EXPECT_EQ(site.spine_levels[0], (xdb::SpineLevel{"Store", 1, true}));
  EXPECT_EQ(site.spine_levels[1], (xdb::SpineLevel{"Items", 2, true}));
  EXPECT_EQ(site.spine_levels[2], (xdb::SpineLevel{"Item", 3, true}));
}

TEST(StructuralPlannerTest, DescendantAxisWeakensToLowerBound) {
  auto plans = Plan("collection(\"c\")//Items/Item");
  const xdb::SiteConstraints& site = plans["c"].sites[0];
  ASSERT_EQ(site.spine_levels.size(), 2u);
  EXPECT_EQ(site.spine_levels[0], (xdb::SpineLevel{"Items", 1, false}));
  EXPECT_EQ(site.spine_levels[1], (xdb::SpineLevel{"Item", 2, false}));
}

TEST(StructuralPlannerTest, LevelPruningSkipsMismatchedDocuments) {
  xdb::Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  // `Name` at level 2 here; the query wants it at level 3.
  ASSERT_TRUE(db.StoreSerialized("c", "flat", "<Item><Name>x</Name></Item>")
                  .ok());
  ASSERT_TRUE(db.StoreSerialized(
                    "c", "nested",
                    "<Store><Item><Name>y</Name></Item></Store>")
                  .ok());
  auto result = db.Execute("collection(\"c\")/Store/Item/Name");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->serialized, "<Name>y</Name>");
  // Level pruning skipped the structurally incompatible document.
  EXPECT_EQ(result->metrics.docs_in_collections, 2u);
  EXPECT_EQ(result->metrics.docs_considered, 1u);
}

// --- engine: on/off byte-identity across workloads -----------------------

enum class Design { kHorizontal, kVertical, kHybrid };

class IndexOnOffP : public ::testing::TestWithParam<Design> {};

TEST_P(IndexOnOffP, ByteIdenticalAnswers) {
  xml::Collection data;
  frag::FragmentationSchema schema;
  std::vector<workload::QuerySpec> queries;
  std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};

  switch (GetParam()) {
    case Design::kHorizontal: {
      gen::ItemsGenOptions options;
      options.doc_count = 40;
      options.seed = 92;
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
    case Design::kVertical: {
      gen::XBenchGenOptions options;
      options.doc_count = 8;
      options.target_doc_bytes = 3000;
      options.seed = 93;
      auto articles = gen::GenerateArticles(options, nullptr);
      ASSERT_TRUE(articles.ok());
      data = std::move(*articles);
      auto s = workload::ArticleVerticalSchema("papers");
      ASSERT_TRUE(s.ok());
      schema = std::move(*s);
      queries = workload::VerticalQueries("papers");
      break;
    }
    case Design::kHybrid: {
      gen::StoreGenOptions options;
      options.item_count = 40;
      options.seed = 94;
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

  xdb::DatabaseOptions with_index;
  with_index.enable_structural_index = true;
  xdb::DatabaseOptions without_index;
  without_index.enable_structural_index = false;

  auto indexed = workload::Deployment::Fragmented(
      data, schema, with_index, middleware::NetworkModel());
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  auto navigational = workload::Deployment::Fragmented(
      data, schema, without_index, middleware::NetworkModel());
  ASSERT_TRUE(navigational.ok()) << navigational.status();

  for (const workload::QuerySpec& q : queries) {
    auto on = (*indexed)->service().Execute(q.text);
    ASSERT_TRUE(on.ok()) << q.id << ": " << on.status();
    auto off = (*navigational)->service().Execute(q.text);
    ASSERT_TRUE(off.ok()) << q.id << ": " << off.status();
    EXPECT_EQ(on->serialized, off->serialized) << q.id;
    EXPECT_EQ(on->result_items, off->result_items) << q.id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, IndexOnOffP,
    ::testing::Values(Design::kHorizontal, Design::kVertical,
                      Design::kHybrid),
    [](const ::testing::TestParamInfo<Design>& info) {
      switch (info.param) {
        case Design::kHorizontal:
          return "Horizontal";
        case Design::kVertical:
          return "Vertical";
        case Design::kHybrid:
          return "Hybrid";
      }
      return "Unknown";
    });

// --- reconstruction: label merge vs value join ---------------------------

TEST(LabelMergeTest, MatchesValueJoinByteForByte) {
  gen::ItemsGenOptions options;
  options.doc_count = 12;
  options.seed = 95;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  auto pool = items->docs()[0]->pool();

  auto parse = [](const std::string& text) {
    auto p = xpath::Path::Parse(text);
    EXPECT_TRUE(p.ok());
    return *p;
  };
  const std::vector<xpath::Path> cuts = {
      parse("/Item/Code"), parse("/Item/Name"), parse("/Item/Description"),
      parse("/Item/Section"), parse("/Item/Release")};

  for (const DocumentPtr& src : items->docs()) {
    std::vector<DocumentPtr> fragments;
    for (size_t i = 0; i < cuts.size(); ++i) {
      auto fragment = frag::ProjectDocument(
          *src, cuts[i], {}, "f" + std::to_string(i));
      ASSERT_TRUE(fragment.ok()) << fragment.status();
      if (*fragment != nullptr) fragments.push_back(*fragment);
    }
    ASSERT_GE(fragments.size(), 2u);

    auto merged = frag::JoinFragments(fragments, pool);
    ASSERT_TRUE(merged.ok()) << merged.status();
    auto joined = frag::JoinFragmentsValueJoin(fragments, pool);
    ASSERT_TRUE(joined.ok()) << joined.status();
    EXPECT_EQ(xml::Serialize(**merged), xml::Serialize(**joined));
  }
}

TEST(LabelMergeTest, DetectsDisjointnessViolation) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = MustParse(pool, "d", "<Item><Code>1</Code></Item>");
  auto p = xpath::Path::Parse("/Item/Code");
  ASSERT_TRUE(p.ok());
  auto f1 = frag::ProjectDocument(*doc, *p, {}, "f1");
  auto f2 = frag::ProjectDocument(*doc, *p, {}, "f2");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  auto joined = frag::JoinFragments({*f1, *f2}, pool);
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kFailedPrecondition);
}

// --- persistence: STRUCT sidecar -----------------------------------------

class StructSidecarTest : public ::testing::Test {
 protected:
  StructSidecarTest() {
    dir_ = fs::temp_directory_path() /
           ("partix_struct_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  ~StructSidecarTest() override { fs::remove_all(dir_); }

  void Export() {
    gen::ItemsGenOptions options;
    options.doc_count = 6;
    options.seed = 96;
    auto items = gen::GenerateItems(options, nullptr);
    ASSERT_TRUE(items.ok());
    xdb::Database source;
    ASSERT_TRUE(source.StoreCollection(*items).ok());
    ASSERT_TRUE(
        xdb::ExportCollection(source, "items", dir_.string()).ok());
  }

  fs::path dir_;
};

TEST_F(StructSidecarTest, RoundTripVerifiesLabels) {
  Export();
  ASSERT_TRUE(fs::exists(dir_ / "STRUCT"));

  xdb::Database restored;
  EXPECT_TRUE(xdb::ImportCollection(restored, "items", dir_.string()).ok());
  EXPECT_EQ(*restored.DocumentCount("items"), 6u);
}

TEST_F(StructSidecarTest, CorruptedChecksumFailsImport) {
  Export();
  // Flip the checksum of the first STRUCT entry.
  std::ifstream in(dir_ / "STRUCT");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  const size_t tab = all.rfind('\t', all.find('\n'));
  ASSERT_NE(tab, std::string::npos);
  all[tab + 1] = all[tab + 1] == '0' ? '1' : '0';
  std::ofstream out(dir_ / "STRUCT");
  out << all;
  out.close();

  xdb::Database restored;
  Status status = xdb::ImportCollection(restored, "items", dir_.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("do not match STRUCT"), std::string::npos)
      << status.ToString();
}

TEST_F(StructSidecarTest, MalformedStructLineFailsImport) {
  Export();
  std::ofstream out(dir_ / "STRUCT", std::ios::app);
  out << "zzz.xml\tnot-a-number\t1\tdeadbeef\n";
  out.close();

  xdb::Database restored;
  Status status = xdb::ImportCollection(restored, "items", dir_.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("bad STRUCT line"), std::string::npos);
}

TEST_F(StructSidecarTest, MissingStructSkipsVerification) {
  Export();
  fs::remove(dir_ / "STRUCT");
  xdb::Database restored;
  EXPECT_TRUE(xdb::ImportCollection(restored, "items", dir_.string()).ok());
}

// --- telemetry: probe counters -------------------------------------------

TEST(StructuralTelemetryTest, ProbeAndHitCountersAdvance) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  registry.set_enabled(true);
  auto* probes =
      registry.GetCounter("partix_structural_index_probes_total");
  auto* hits = registry.GetCounter("partix_structural_index_hits_total");
  const uint64_t probes_before = probes->Value();
  const uint64_t hits_before = hits->Value();

  xdb::Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  // Filler siblings lift the document above the size at which `//Item`
  // from the document node becomes a label-range scan.
  ASSERT_TRUE(db.StoreSerialized(
                    "c", "d",
                    "<Store><Item><Name>x</Name></Item>" +
                        Filler("Other", xpath::kLabelRangeMinSubtree) +
                        "</Store>")
                  .ok());
  auto result = db.Execute("collection(\"c\")//Item/Name");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->serialized, "<Name>x</Name>");
  EXPECT_GT(result->metrics.index_range_scans, 0u);
  EXPECT_GT(result->metrics.index_range_hits, 0u);
  EXPECT_GT(probes->Value(), probes_before);
  EXPECT_GT(hits->Value(), hits_before);

  // The same query over a 4-node document navigates: no scan runs.
  ASSERT_TRUE(db.CreateCollection("small").ok());
  ASSERT_TRUE(db.StoreSerialized(
                    "small", "d",
                    "<Store><Item><Name>x</Name></Item></Store>")
                  .ok());
  auto small = db.Execute("collection(\"small\")//Item/Name");
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->serialized, "<Name>x</Name>");
  EXPECT_EQ(small->metrics.index_range_scans, 0u);
  EXPECT_EQ(small->metrics.index_range_hits, 0u);
}

// A label-range scan is one probe; it is one hit when it matches anything,
// however many nodes it matches, as a StructuralIndex lookup is.
TEST(StructuralTelemetryTest, HitsNeverExceedProbes) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  registry.set_enabled(true);
  auto* probes = registry.GetCounter("partix_structural_index_probes_total");
  auto* hits = registry.GetCounter("partix_structural_index_hits_total");
  const uint64_t probes_before = probes->Value();
  const uint64_t hits_before = hits->Value();

  xdb::Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  ASSERT_TRUE(db.StoreSerialized("c", "d",
                                 "<Store><Item/><Item/><Item/>" +
                                     Filler("Other",
                                            xpath::kLabelRangeMinSubtree) +
                                     "</Store>")
                  .ok());
  auto result = db.Execute("count(collection(\"c\")//Item)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->serialized, "3");
  EXPECT_GT(result->metrics.index_range_scans, 0u);
  EXPECT_EQ(result->metrics.index_range_hits,
            result->metrics.index_range_scans);
  EXPECT_LE(hits->Value() - hits_before, probes->Value() - probes_before);
}

// --- concurrency: parallel probes (TSan coverage) ------------------------

// The StructuralIndex contract is single-writer during loading, immutable
// and freely shared afterwards (the engine itself stays single-thread-only;
// concurrency arrives via the middleware drivers, which hand out shared
// const documents and index views). This test hammers exactly that read
// surface from multiple threads: index lookups, level-pruned lookups, and
// index-backed label-range path scans over shared sealed documents.
TEST(StructuralIndexConcurrencyTest, ConcurrentIndexProbes) {
  auto pool = std::make_shared<xml::NamePool>();
  std::vector<DocumentPtr> docs;
  storage::StructuralIndex index;
  for (int i = 0; i < 8; ++i) {
    // Filler beside the Item keeps Store and Items above the size at
    // which their steps become label-range scans.
    DocumentPtr doc = MustParse(
        pool, "d" + std::to_string(i),
        "<Store><Items><Item><Code>" + std::to_string(i) +
            "</Code><Name>n</Name></Item>" +
            Filler("Other", xpath::kLabelRangeMinSubtree) +
            "</Items></Store>");
    index.AddDocument(static_cast<storage::DocSlot>(i), *doc);
    docs.push_back(doc);
  }
  // Intern the query names up front: concurrent evaluation only ever
  // *finds* names, it never interns new ones.
  auto item_parsed = xpath::Path::Parse("//Item");
  auto name_parsed = xpath::Path::Parse("/Store/Items/Item/Name");
  ASSERT_TRUE(item_parsed.ok());
  ASSERT_TRUE(name_parsed.ok());
  const xpath::Path& item_path = *item_parsed;
  const xpath::Path& name_path = *name_parsed;
  xpath::EvalOptions on;
  on.use_structural_index = true;
  ASSERT_EQ(xpath::EvalPath(*docs[0], item_path, on).size(), 1u);
  std::vector<NodeId> items;
  ASSERT_TRUE(xpath::MatchStep(*docs[0], docs[0]->root(), item_path.steps()[0],
                               pool->Find("Item"), /*use_labels=*/true,
                               &items)
                  .label_range);
  ASSERT_EQ(items.size(), 1u);

  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        bool ok = true;
        // Index probes: plain lookup and both level-pruned shapes.
        const auto* postings = index.Lookup("Item");
        ok &= postings != nullptr && postings->size() == 8;
        ok &= index.LookupWithLevel("Item", 3, /*exact_level=*/true).size() ==
              8;
        ok &= index.LookupWithLevel("Item", 1, /*exact_level=*/true).empty();
        ok &= index.LookupWithLevel("Name", 2, /*exact_level=*/false).size() ==
              8;
        // Label-range scans over a shared sealed document.
        const Document& doc = *docs[(t + i) % docs.size()];
        ok &= xpath::EvalPath(doc, item_path, on).size() == 1;
        ok &= xpath::EvalPath(doc, name_path, on).size() == 1;
        auto item_name = doc.pool()->Find("Item");
        ok &= item_name.has_value();
        if (item_name.has_value()) {
          ok &= doc.NameOccurrences(*item_name).size() == 1;
        }
        if (ok) ++ok_counts[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok_counts[t], kIters);
}

}  // namespace
}  // namespace partix
