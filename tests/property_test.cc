// Property-based suites: parameterized sweeps over seeds, fragment
// designs, and whole query workloads, checking invariants rather than
// example outputs:
//
//   - parse(serialize(d)) == d for random documents
//   - path-evaluation algebraic properties on random documents
//   - every complementary horizontal design is correct
//   - every projection partition of the article schema is correct and
//     reconstructs exactly
//   - distributed execution (any design, any workload query) returns the
//     centralized answer

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "fragmentation/correctness.h"
#include "fragmentation/fragmenter.h"
#include "fragmentation/reconstruct.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xml/compare.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/eval.h"

namespace partix {
namespace {

// ---------------------------------------------------------------------
// Random document machinery
// ---------------------------------------------------------------------

/// Builds a random (but seeded, reproducible) document with nested
/// elements, attributes, and text leaves.
xml::DocumentPtr RandomDocument(uint64_t seed,
                                std::shared_ptr<xml::NamePool> pool) {
  Rng rng(seed);
  auto doc = std::make_shared<xml::Document>(pool, "rand-" +
                                                       std::to_string(seed));
  static const char* kNames[] = {"alpha", "beta", "gamma", "delta",
                                 "epsilon", "zeta"};
  xml::NodeId root = doc->CreateRoot("root");
  std::vector<std::pair<xml::NodeId, int>> frontier = {{root, 0}};
  while (!frontier.empty()) {
    auto [node, depth] = frontier.back();
    frontier.pop_back();
    if (rng.Bernoulli(0.4)) {
      doc->AppendAttribute(node, "id",
                           std::to_string(rng.UniformInt(0, 999)));
    }
    int children = static_cast<int>(rng.UniformInt(0, depth > 3 ? 1 : 4));
    if (children == 0) {
      // Leaf: text (possibly with characters needing escapes).
      std::string text = rng.Sentence(int(rng.UniformInt(1, 6)));
      if (rng.Bernoulli(0.3)) text += " <&\"'> " + rng.Word(2, 5);
      doc->AppendText(node, text);
      continue;
    }
    for (int i = 0; i < children; ++i) {
      xml::NodeId child =
          doc->AppendElement(node, kNames[rng.NextBelow(6)]);
      frontier.emplace_back(child, depth + 1);
    }
  }
  return doc;
}

class RoundTripP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripP, ParseSerializeRoundTrip) {
  auto pool = std::make_shared<xml::NamePool>();
  xml::DocumentPtr doc = RandomDocument(GetParam(), pool);
  std::string compact = xml::Serialize(*doc);
  auto reparsed = xml::ParseXml(pool, "rt", compact);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(xml::DocumentsEqual(*doc, **reparsed))
      << xml::ExplainDifference(*doc, doc->root(), **reparsed,
                                (*reparsed)->root());
  // Serialization is deterministic: serialize(parse(serialize(d))) ==
  // serialize(d).
  EXPECT_EQ(xml::Serialize(**reparsed), compact);
}

TEST_P(RoundTripP, IndentedFormStillRoundTrips) {
  auto pool = std::make_shared<xml::NamePool>();
  xml::DocumentPtr doc = RandomDocument(GetParam(), pool);
  xml::SerializeOptions options;
  options.indent = true;
  options.declaration = true;
  auto reparsed = xml::ParseXml(pool, "rt", xml::Serialize(*doc, options));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  // Indentation only introduces ignorable whitespace, which the data
  // model drops; the trees must match (text leaves keep their spacing
  // because indentation never touches simple content).
  EXPECT_TRUE(xml::DocumentsEqual(*doc, **reparsed))
      << xml::ExplainDifference(*doc, doc->root(), **reparsed,
                                (*reparsed)->root());
}

TEST_P(RoundTripP, PathEvaluationProperties) {
  auto pool = std::make_shared<xml::NamePool>();
  xml::DocumentPtr doc = RandomDocument(GetParam(), pool);
  static const char* kNames[] = {"alpha", "beta", "gamma"};
  for (const char* name : kNames) {
    auto child = xpath::Path::Parse(std::string("/root/") + name);
    auto anywhere = xpath::Path::Parse(std::string("//") + name);
    ASSERT_TRUE(child.ok() && anywhere.ok());
    std::vector<xml::NodeId> direct = xpath::EvalPath(*doc, *child);
    std::vector<xml::NodeId> descendants =
        xpath::EvalPath(*doc, *anywhere);
    // /root/x is a subset of //x.
    for (xml::NodeId n : direct) {
      EXPECT_TRUE(std::find(descendants.begin(), descendants.end(), n) !=
                  descendants.end());
    }
    // Every match carries the right label, results are sorted and unique.
    for (xml::NodeId n : descendants) {
      EXPECT_EQ(doc->name(n), name);
    }
    EXPECT_TRUE(
        std::is_sorted(descendants.begin(), descendants.end()));
    EXPECT_TRUE(std::adjacent_find(descendants.begin(),
                                   descendants.end()) ==
                descendants.end());
    // Rooted-at-root equals absolute evaluation.
    EXPECT_EQ(xpath::EvalPathRootedAt(*doc, doc->root(), *anywhere),
              descendants);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripP,
                         ::testing::Range(uint64_t{0}, uint64_t{24}));

// ---------------------------------------------------------------------
// Complementary horizontal designs
// ---------------------------------------------------------------------

class ComplementaryHorizontalP
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(ComplementaryHorizontalP, AlwaysCorrect) {
  const auto& [pred_text, seed] = GetParam();
  gen::ItemsGenOptions options;
  options.doc_count = 40;
  options.seed = seed;
  options.large_docs = (seed % 2) == 0;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());

  auto pred = xpath::Predicate::Parse(pred_text);
  ASSERT_TRUE(pred.ok()) << pred.status();
  frag::FragmentationSchema schema;
  schema.collection = "items";
  schema.fragments.emplace_back(frag::HorizontalDef{
      "f_pos", xpath::Conjunction({*pred})});
  schema.fragments.emplace_back(frag::HorizontalDef{
      "f_neg", xpath::Conjunction({pred->Complement()})});

  auto report = frag::CheckCorrectness(*items, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << pred_text << " seed=" << seed << ": "
                            << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(
    PredicatesAndSeeds, ComplementaryHorizontalP,
    ::testing::Combine(
        ::testing::Values("/Item/Section = \"CD\"",
                          "/Item/Code < 20",
                          "contains(/Item/Description, \"good\")",
                          "/Item/PictureList",
                          "/Item/Release >= \"2002\""),
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3})));

TEST_P(ComplementaryHorizontalP, ComplementIsExactNegationOnSingleOccurrencePaths) {
  // The localization logic assumes fragmentation predicates address
  // single-occurrence paths, under which Complement() is an exact logical
  // negation per document. Verify the law on generated data.
  const auto& [pred_text, seed] = GetParam();
  gen::ItemsGenOptions options;
  options.doc_count = 30;
  options.seed = seed + 100;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  auto pred = xpath::Predicate::Parse(pred_text);
  ASSERT_TRUE(pred.ok());
  xpath::Predicate complement = pred->Complement();
  for (const auto& doc : items->docs()) {
    EXPECT_NE(pred->Eval(*doc), complement.Eval(*doc))
        << pred_text << " on " << doc->doc_name();
  }
}

// ---------------------------------------------------------------------
// Projection partitions of the article schema
// ---------------------------------------------------------------------

/// Bitmask over {prolog, body, epilog}: the masked parts become their own
/// fragments, the base fragment keeps the rest.
class ArticlePartitionP : public ::testing::TestWithParam<int> {};

TEST_P(ArticlePartitionP, CorrectAndReconstructsExactly) {
  const int mask = GetParam();
  gen::XBenchGenOptions options;
  options.doc_count = 5;
  options.target_doc_bytes = 3000;
  options.seed = 77;
  auto articles = gen::GenerateArticles(options, nullptr);
  ASSERT_TRUE(articles.ok());

  static const char* kParts[] = {"prolog", "body", "epilog"};
  frag::FragmentationSchema schema;
  schema.collection = "papers";
  std::vector<xpath::Path> prune;
  for (int i = 0; i < 3; ++i) {
    if ((mask & (1 << i)) == 0) continue;
    auto path = xpath::Path::Parse(std::string("/article/") + kParts[i]);
    ASSERT_TRUE(path.ok());
    prune.push_back(*path);
    schema.fragments.emplace_back(
        frag::VerticalDef{std::string("f_") + kParts[i], *path, {}});
  }
  auto base = xpath::Path::Parse("/article");
  ASSERT_TRUE(base.ok());
  schema.fragments.emplace_back(frag::VerticalDef{"f_base", *base, prune});

  auto report = frag::CheckCorrectness(*articles, schema);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << "mask=" << mask << ": "
                            << report->Summary();

  // And the reconstruction is byte-exact.
  auto fragments = frag::ApplyFragmentation(*articles, schema);
  ASSERT_TRUE(fragments.ok());
  auto rebuilt = frag::ReconstructVertical(
      *fragments, "papers", articles->docs()[0]->pool());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ASSERT_EQ(rebuilt->size(), articles->size());
  for (const auto& original : articles->docs()) {
    bool matched = false;
    for (const auto& doc : rebuilt->docs()) {
      if (doc->doc_name() == original->doc_name()) {
        EXPECT_EQ(xml::Serialize(*original), xml::Serialize(*doc));
        matched = true;
      }
    }
    EXPECT_TRUE(matched);
  }
}

INSTANTIATE_TEST_SUITE_P(Masks, ArticlePartitionP,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Distributed == centralized, across whole workloads and designs
// ---------------------------------------------------------------------

std::string SortLines(const std::string& text) {
  auto views = Split(text, '\n');
  std::vector<std::string> lines(views.begin(), views.end());
  std::sort(lines.begin(), lines.end());
  return Join(lines, "\n");
}

enum class DesignKind { kHorizontal, kVertical, kHybrid1, kHybrid2 };

struct EquivalenceCase {
  DesignKind design;
  std::string label;
};

class WorkloadEquivalenceP
    : public ::testing::TestWithParam<DesignKind> {};

TEST_P(WorkloadEquivalenceP, EveryQueryMatchesCentralized) {
  const DesignKind design = GetParam();

  xml::Collection data;
  frag::FragmentationSchema schema;
  std::vector<workload::QuerySpec> queries;
  std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};

  switch (design) {
    case DesignKind::kHorizontal: {
      gen::ItemsGenOptions options;
      options.doc_count = 50;
      options.seed = 31;
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
    case DesignKind::kVertical: {
      gen::XBenchGenOptions options;
      options.doc_count = 10;
      options.target_doc_bytes = 3000;
      options.seed = 32;
      auto articles = gen::GenerateArticles(options, nullptr);
      ASSERT_TRUE(articles.ok());
      data = std::move(*articles);
      auto s = workload::ArticleVerticalSchema("papers");
      ASSERT_TRUE(s.ok());
      schema = std::move(*s);
      queries = workload::VerticalQueries("papers");
      break;
    }
    case DesignKind::kHybrid1:
    case DesignKind::kHybrid2: {
      gen::StoreGenOptions options;
      options.item_count = 50;
      options.seed = 33;
      options.sections = sections;
      options.large_items = false;
      auto store = gen::GenerateStore(options, nullptr);
      ASSERT_TRUE(store.ok());
      data = std::move(*store);
      auto s = workload::StoreHybridSchema(
          "store", sections, 3,
          design == DesignKind::kHybrid1
              ? frag::HybridMode::kOneDocPerSubtree
              : frag::HybridMode::kSinglePrunedDoc);
      ASSERT_TRUE(s.ok());
      schema = std::move(*s);
      queries = workload::HybridQueries("store");
      break;
    }
  }

  // Centralized copy on its own node.
  middleware::DistributionCatalog catalog;
  middleware::ClusterSim cluster(schema.fragments.size() + 1,
                                 xdb::DatabaseOptions(),
                                 middleware::NetworkModel());
  middleware::DataPublisher publisher(&cluster, &catalog);

  xml::Collection central(data.name() + "_central", data.schema(),
                          data.root_path(), data.kind());
  for (const auto& doc : data.docs()) ASSERT_TRUE(central.Add(doc).ok());
  ASSERT_TRUE(
      publisher.PublishCentralized(central, schema.fragments.size())
          .ok());
  ASSERT_TRUE(publisher.PublishFragmented(data, schema).ok());

  middleware::QueryService service(&cluster, &catalog);
  size_t joins = 0;
  for (const workload::QuerySpec& q : queries) {
    auto distributed = service.Execute(q.text);
    ASSERT_TRUE(distributed.ok()) << q.id << ": " << distributed.status();
    std::string central_query = q.text;
    const std::string needle = "\"" + data.name() + "\"";
    const std::string replacement = "\"" + central.name() + "\"";
    size_t pos;
    while ((pos = central_query.find(needle)) != std::string::npos) {
      central_query.replace(pos, needle.size(), replacement);
    }
    auto reference =
        cluster.database(schema.fragments.size()).Execute(central_query);
    ASSERT_TRUE(reference.ok()) << q.id << ": " << reference.status();
    auto plan = service.decomposer().Decompose(q.text);
    ASSERT_TRUE(plan.ok()) << q.id << ": " << plan.status();
    if (plan->composition == middleware::Composition::kJoinReconstruct) {
      // The join rebuilds the source documents and runs the original
      // query over them: byte for byte.
      EXPECT_EQ(distributed->serialized, reference->serialized)
          << q.id << " (" << q.description << ")";
      ++joins;
    } else {
      // Union and sum keep each fragment's answer order (ROADMAP item
      // 5.1), so only the lines are compared.
      EXPECT_EQ(SortLines(distributed->serialized),
                SortLines(reference->serialized))
          << q.id << " (" << q.description << ")";
    }
  }
  // Q4, Q7, Q8 and Q9 span several vertical fragments and compose by join.
  if (design == DesignKind::kVertical) {
    EXPECT_EQ(joins, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, WorkloadEquivalenceP,
    ::testing::Values(DesignKind::kHorizontal, DesignKind::kVertical,
                      DesignKind::kHybrid1, DesignKind::kHybrid2),
    [](const ::testing::TestParamInfo<DesignKind>& info) {
      switch (info.param) {
        case DesignKind::kHorizontal:
          return "Horizontal";
        case DesignKind::kVertical:
          return "Vertical";
        case DesignKind::kHybrid1:
          return "HybridFragMode1";
        case DesignKind::kHybrid2:
          return "HybridFragMode2";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace partix
