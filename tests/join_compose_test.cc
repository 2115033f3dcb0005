// Join-reconstruct composition (query_service.cc ComposeJoin): the
// coordinator joins the fetched vertical fragments of each article and
// evaluates the original query over the joined documents in memory.
//
//   - byte-exact answers: every vertical workload query answers exactly
//     what the original query answers over the reconstructed collection
//     stored in a fresh engine (fragment, reconstruct, store, query),
//     with streaming on and off, at two scales
//   - parse conservation: the store parse counter grows by exactly the
//     node-side parses the sub-queries report, so composition parses
//     nothing
//   - collection scope: the joined documents answer only the plan's
//     collection; any other name fails as the engine would
//   - source order: hybrid Store joins answer byte-identically to the
//     centralized Store, in both FragModes, where subtrees pruned from
//     the middle of a parent and interleaved instances must land back in
//     their source positions
//   - short rooted paths: a Store path that stops above the Item
//     fragments' prefix fetches and evaluates, and answers like the
//     centralized Store in both FragModes
//   - wire round trip: every stored fragment decodes to the origin id and
//     scaffold flag of every node the fragmenter recorded
//   - hostile metadata: missing, unparsable, non-increasing or
//     wrong-length reconstruction IDs fail the query with kCorruption
//     naming the document

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "fragmentation/algebra.h"
#include "fragmentation/fragmenter.h"
#include "fragmentation/origins.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "partix/query_service.h"
#include "telemetry/metrics.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace partix::middleware {
namespace {

struct ArticleScale {
  size_t articles;
  uint64_t doc_bytes;
};

/// Generated articles and their prolog/body/epilog design, deployed one
/// node per fragment.
struct VerticalSetup {
  xml::Collection data;
  frag::FragmentationSchema schema;
  std::unique_ptr<workload::Deployment> deployment;

  QueryService& service() { return deployment->service(); }
};

void DeployArticles(ArticleScale scale, VerticalSetup* out) {
  gen::XBenchGenOptions options;
  options.doc_count = scale.articles;
  options.target_doc_bytes = scale.doc_bytes;
  options.seed = 131;
  auto articles = gen::GenerateArticles(options, nullptr);
  ASSERT_TRUE(articles.ok()) << articles.status();
  out->data = std::move(*articles);
  auto schema = workload::ArticleVerticalSchema(out->data.name());
  ASSERT_TRUE(schema.ok()) << schema.status();
  out->schema = std::move(*schema);
  auto deployment = workload::Deployment::Fragmented(
      out->data, out->schema, xdb::DatabaseOptions(), NetworkModel());
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  out->deployment = std::move(*deployment);
}

class JoinComposeByteExactP : public ::testing::TestWithParam<ArticleScale> {};

TEST_P(JoinComposeByteExactP, AnswersEqualTheReconstructedCollection) {
  VerticalSetup setup;
  ASSERT_NO_FATAL_FAILURE(DeployArticles(GetParam(), &setup));
  const xml::Collection& data = setup.data;

  // Oracle: fragment, rebuild every article with the value join (an
  // implementation independent of the label merge the query path runs),
  // store the rebuilt articles in source-name order in a fresh engine and
  // run the original query there.
  auto fragments = frag::ApplyFragmentation(data, setup.schema);
  ASSERT_TRUE(fragments.ok()) << fragments.status();
  std::map<std::string, std::vector<xml::DocumentPtr>> by_source;
  for (const xml::Collection& fragment : *fragments) {
    for (const xml::DocumentPtr& doc : fragment.docs()) {
      auto origins = frag::DecodeOrigins(*doc);
      ASSERT_TRUE(origins.ok()) << origins.status();
      by_source[origins->source].push_back(doc);
    }
  }
  xdb::Database reference;
  ASSERT_TRUE(reference.CreateCollection(data.name()).ok());
  for (const auto& [source, docs] : by_source) {
    auto rebuilt = frag::JoinFragmentsValueJoin(
        docs, std::make_shared<xml::NamePool>());
    ASSERT_TRUE(rebuilt.ok()) << source << ": " << rebuilt.status();
    ASSERT_TRUE(reference.StoreDocument(data.name(), **rebuilt).ok());
  }

  size_t joins = 0;
  for (const workload::QuerySpec& q : workload::VerticalQueries(data.name())) {
    auto expected = reference.Execute(q.text);
    ASSERT_TRUE(expected.ok()) << q.id << ": " << expected.status();
    for (bool streaming : {true, false}) {
      ExecutionOptions options;
      options.streaming = streaming;
      auto result = setup.service().Execute(q.text, options);
      ASSERT_TRUE(result.ok()) << q.id << ": " << result.status();
      EXPECT_EQ(result->serialized, expected->serialized)
          << q.id << " streaming=" << streaming;
      EXPECT_EQ(result->result_items, expected->metrics.result_items)
          << q.id << " streaming=" << streaming;
      if (streaming && result->subqueries.size() > 1) ++joins;
    }
  }
  // Q4, Q7, Q8 and Q9 span several fragments and compose by join.
  EXPECT_EQ(joins, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Scales, JoinComposeByteExactP,
    ::testing::Values(ArticleScale{10, 3000}, ArticleScale{12, 60000}),
    [](const ::testing::TestParamInfo<ArticleScale>& info) {
      return std::to_string(info.param.articles) + "x" +
             std::to_string(info.param.doc_bytes / 1000) + "KB";
    });

TEST(JoinComposeTest, StoreParsesAreOnlyNodeSideParses) {
  VerticalSetup setup;
  ASSERT_NO_FATAL_FAILURE(DeployArticles(ArticleScale{10, 3000}, &setup));
  auto& registry = telemetry::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  telemetry::Counter* parses =
      registry.GetCounter("partix_store_parses_total");

  for (int round = 0; round < 2; ++round) {
    for (const workload::QuerySpec& q :
         workload::VerticalQueries(setup.data.name())) {
      const uint64_t before = parses->Value();
      auto result = setup.service().Execute(q.text);
      const uint64_t after = parses->Value();
      ASSERT_TRUE(result.ok()) << q.id << ": " << result.status();
      uint64_t node_parses = 0;
      for (const SubQueryStats& stats : result->subqueries) {
        node_parses += stats.docs_parsed;
      }
      EXPECT_EQ(after - before, node_parses) << q.id << " round " << round;
    }
  }
  registry.set_enabled(was_enabled);
}

TEST(JoinComposeTest, OtherCollectionsDoNotExist) {
  VerticalSetup setup;
  ASSERT_NO_FATAL_FAILURE(DeployArticles(ArticleScale{4, 3000}, &setup));
  const std::string collection = setup.data.name();
  const std::vector<workload::QuerySpec> queries =
      workload::VerticalQueries(collection);
  auto plan = setup.service().decomposer().Decompose(
      workload::FindQuery(queries, "Q4")->text);  // a two-fragment join
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->composition, Composition::kJoinReconstruct);

  // A hand-built plan carries no compiled query: composition compiles
  // the original text, which here names a collection the join never
  // produced.
  plan->compiled = nullptr;
  plan->original_query = "count(collection(\"elsewhere\")/article)";
  for (bool streaming : {true, false}) {
    ExecutionOptions options;
    options.streaming = streaming;
    auto result = setup.service().ExecutePlan(*plan, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
    EXPECT_NE(result.status().message().find(
                  "collection 'elsewhere' does not exist"),
              std::string::npos)
        << result.status();
  }

  plan->original_query =
      "count(collection(\"" + collection + "\")/article)";
  auto counted = setup.service().ExecutePlan(*plan);
  ASSERT_TRUE(counted.ok()) << counted.status();
  EXPECT_EQ(counted->serialized, "4");
}

// --- order by: the sort keys' fragment is fetched ----------------------

TEST(JoinComposeTest, OrderByKeysReachTheirFragment) {
  // Below 10 articles, so source names sort like collection positions.
  VerticalSetup setup;
  ASSERT_NO_FATAL_FAILURE(DeployArticles(ArticleScale{6, 8 * 1024}, &setup));
  auto centralized = workload::Deployment::Centralized(
      setup.data, xdb::DatabaseOptions(), NetworkModel());
  ASSERT_TRUE(centralized.ok()) << centralized.status();
  const std::string query =
      "for $a in collection(\"papers\")/article order by $a/prolog/title "
      "return string($a/epilog/references/reference[1])";
  auto plan = setup.service().decomposer().Decompose(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->composition, Composition::kJoinReconstruct);
  std::vector<std::string> fragments;
  for (const SubQuery& sub : plan->subqueries) {
    fragments.push_back(sub.fragment);
  }
  EXPECT_EQ(fragments,
            (std::vector<std::string>{"papers_prolog", "papers_epilog"}));
  auto expected = (*centralized)->service().Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto actual = setup.service().Execute(query);
  ASSERT_TRUE(actual.ok()) << actual.status();
  EXPECT_EQ(actual->serialized, expected->serialized);
}

// --- hybrid Store: source order survives the join -----------------------

/// A 24-item Store split by the StoreHyb design into F1 (the Store without
/// its Items) and four Item fragments, deployed fragmented and centralized.
struct StoreSetup {
  xml::Collection data;
  frag::FragmentationSchema schema;
  std::unique_ptr<workload::Deployment> fragmented;
  std::unique_ptr<workload::Deployment> centralized;
};

void DeployStore(frag::HybridMode mode, StoreSetup* out) {
  gen::StoreGenOptions options;
  options.seed = 5;
  options.item_count = 24;
  options.large_items = false;
  auto store = gen::GenerateStore(options, nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  out->data = std::move(*store);
  auto schema = workload::StoreHybridSchema(out->data.name(),
                                            options.sections, 4, mode);
  ASSERT_TRUE(schema.ok()) << schema.status();
  out->schema = std::move(*schema);
  auto fragmented = workload::Deployment::Fragmented(
      out->data, out->schema, xdb::DatabaseOptions(), NetworkModel());
  ASSERT_TRUE(fragmented.ok()) << fragmented.status();
  out->fragmented = std::move(*fragmented);
  auto centralized = workload::Deployment::Centralized(
      out->data, xdb::DatabaseOptions(), NetworkModel());
  ASSERT_TRUE(centralized.ok()) << centralized.status();
  out->centralized = std::move(*centralized);
}

std::string ModeName(frag::HybridMode mode) {
  return mode == frag::HybridMode::kOneDocPerSubtree ? "FragMode1"
                                                     : "FragMode2";
}

class StoreJoinP : public ::testing::TestWithParam<frag::HybridMode> {};

TEST_P(StoreJoinP, AnswersEqualTheCentralizedStore) {
  StoreSetup setup;
  ASSERT_NO_FATAL_FAILURE(DeployStore(GetParam(), &setup));
  // Items is the Store's second child, between Sections and Employees,
  // and F1 prunes it from there; the Item instances interleave across
  // the four Item fragments.
  const std::vector<std::string> queries = {
      "count(collection(\"store\")/Store/*[2]/Item)",
      "for $x in collection(\"store\")/Store/* return name($x)",
      "for $i in collection(\"store\")/Store/*/Item return string($i/Code)"};
  for (const std::string& query : queries) {
    auto expected = setup.centralized->service().Execute(query);
    ASSERT_TRUE(expected.ok()) << query << ": " << expected.status();
    auto plan = setup.fragmented->service().decomposer().Decompose(query);
    ASSERT_TRUE(plan.ok()) << query << ": " << plan.status();
    EXPECT_EQ(plan->composition, Composition::kJoinReconstruct) << query;
    for (bool streaming : {true, false}) {
      ExecutionOptions options;
      options.streaming = streaming;
      auto result = setup.fragmented->service().Execute(query, options);
      ASSERT_TRUE(result.ok()) << query << ": " << result.status();
      EXPECT_EQ(result->serialized, expected->serialized)
          << query << " streaming=" << streaming;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StoreJoinP,
    ::testing::Values(frag::HybridMode::kOneDocPerSubtree,
                      frag::HybridMode::kSinglePrunedDoc),
    [](const ::testing::TestParamInfo<frag::HybridMode>& info) {
      return ModeName(info.param);
    });

// --- a rooted path shorter than the prefix above the fragments ----------

class ShortRootedPathP : public ::testing::TestWithParam<frag::HybridMode> {};

TEST_P(ShortRootedPathP, AnswersEqualTheCentralizedStore) {
  // The Item fragments hold what lies below /Store/Items (FragMode1: one
  // document per Item; FragMode2: one Items document). A path from
  // collection() that stops above that prefix cannot be rewritten for a
  // fragment by dropping steps, so the plan fetches and evaluates.
  StoreSetup setup;
  ASSERT_NO_FATAL_FAILURE(DeployStore(GetParam(), &setup));
  const std::vector<std::string> queries = {
      "for $s in collection(\"store\")/Store, $i in $s/Items/Item "
      "where $i/Section = \"CD\" return $i/Code",
      "for $s in collection(\"store\")/Store/Items, $i in $s/Item "
      "where $i/Section = \"CD\" return $i/Code",
      "for $s in collection(\"store\"), $i in $s/Store/Items/Item "
      "where $i/Section = \"CD\" return $i/Code"};
  for (const std::string& query : queries) {
    auto expected = setup.centralized->service().Execute(query);
    ASSERT_TRUE(expected.ok()) << query << ": " << expected.status();
    EXPECT_NE(expected->serialized, "") << query;
    for (bool streaming : {true, false}) {
      ExecutionOptions options;
      options.streaming = streaming;
      auto result = setup.fragmented->service().Execute(query, options);
      ASSERT_TRUE(result.ok()) << query << ": " << result.status();
      EXPECT_EQ(result->serialized, expected->serialized)
          << query << " streaming=" << streaming;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ShortRootedPathP,
    ::testing::Values(frag::HybridMode::kOneDocPerSubtree,
                      frag::HybridMode::kSinglePrunedDoc),
    [](const ::testing::TestParamInfo<frag::HybridMode>& info) {
      return ModeName(info.param);
    });

// --- quantifiers over a fragmented collection ----------------------------

/// Items split into their Description and everything else.
Result<frag::FragmentationSchema> ItemsVerticalSchema(
    const std::string& collection) {
  frag::FragmentationSchema schema;
  schema.collection = collection;
  PARTIX_ASSIGN_OR_RETURN(xpath::Path item, xpath::Path::Parse("/Item"));
  PARTIX_ASSIGN_OR_RETURN(xpath::Path description,
                          xpath::Path::Parse("/Item/Description"));
  schema.fragments.emplace_back(
      frag::VerticalDef{collection + "_main", item, {description}});
  schema.fragments.emplace_back(
      frag::VerticalDef{collection + "_description", description, {}});
  PARTIX_RETURN_IF_ERROR(schema.ValidateStructure());
  return schema;
}

enum class QuantifierDesign { kHorizontal, kVertical, kFragMode1, kFragMode2 };

class QuantifierP : public ::testing::TestWithParam<QuantifierDesign> {};

TEST_P(QuantifierP, AnswersEqualTheCentralizedDeployment) {
  // Item codes run 0..n-1 in every generated collection.
  std::string items;
  std::unique_ptr<workload::Deployment> fragmented;
  std::unique_ptr<workload::Deployment> centralized;
  StoreSetup store;
  if (GetParam() == QuantifierDesign::kHorizontal ||
      GetParam() == QuantifierDesign::kVertical) {
    gen::ItemsGenOptions options;
    options.doc_count = 60;
    options.seed = 99;
    auto data = gen::GenerateItems(options, nullptr);
    ASSERT_TRUE(data.ok()) << data.status();
    auto schema = GetParam() == QuantifierDesign::kHorizontal
                      ? workload::SectionHorizontalSchema(
                            data->name(), options.sections, 4)
                      : ItemsVerticalSchema(data->name());
    ASSERT_TRUE(schema.ok()) << schema.status();
    auto f = workload::Deployment::Fragmented(
        *data, *schema, xdb::DatabaseOptions(), NetworkModel());
    ASSERT_TRUE(f.ok()) << f.status();
    fragmented = std::move(*f);
    auto c = workload::Deployment::Centralized(*data, xdb::DatabaseOptions(),
                                               NetworkModel());
    ASSERT_TRUE(c.ok()) << c.status();
    centralized = std::move(*c);
    items = "collection(\"" + data->name() + "\")/Item";
  } else {
    ASSERT_NO_FATAL_FAILURE(
        DeployStore(GetParam() == QuantifierDesign::kFragMode1
                        ? frag::HybridMode::kOneDocPerSubtree
                        : frag::HybridMode::kSinglePrunedDoc,
                    &store));
    fragmented = std::move(store.fragmented);
    centralized = std::move(store.centralized);
    items = "collection(\"store\")/Store/Items/Item";
  }
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"some $i in " + items + " satisfies $i/Code = 5", "true"},
      {"some $i in " + items + " satisfies $i/Code = 100000", "false"},
      {"every $i in " + items + " satisfies $i/Code >= 0", "true"},
  };
  for (const auto& [query, answer] : cases) {
    auto expected = centralized->service().Execute(query);
    ASSERT_TRUE(expected.ok()) << query << ": " << expected.status();
    EXPECT_EQ(expected->serialized, answer) << query;
    auto actual = fragmented->service().Execute(query);
    ASSERT_TRUE(actual.ok()) << query << ": " << actual.status();
    EXPECT_EQ(actual->serialized, expected->serialized) << query;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, QuantifierP,
    ::testing::Values(QuantifierDesign::kHorizontal,
                      QuantifierDesign::kVertical,
                      QuantifierDesign::kFragMode1,
                      QuantifierDesign::kFragMode2),
    [](const ::testing::TestParamInfo<QuantifierDesign>& info) {
      switch (info.param) {
        case QuantifierDesign::kHorizontal:
          return std::string("Horizontal");
        case QuantifierDesign::kVertical:
          return std::string("Vertical");
        case QuantifierDesign::kFragMode1:
          return std::string("FragMode1");
        case QuantifierDesign::kFragMode2:
          return std::string("FragMode2");
      }
      return std::string("?");
    });

// --- wire round trip -------------------------------------------------------

/// Publishes `data` under `schema`, reads every fragment's documents back
/// from its node and checks their decoded reconstruction IDs: they equal
/// what the fragmenter attached, and, independently of the encoder, each
/// node's origin is a source node of the same kind, name and value, the
/// ancestor chain is the source's, and only the container root of a
/// FragMode2 instance fragment and its attributes are scaffolding.
void ExpectOriginsSurviveTheWire(const xml::Collection& data,
                                 const frag::FragmentationSchema& schema,
                                 const std::string& design) {
  auto fragments = frag::ApplyFragmentation(data, schema);
  ASSERT_TRUE(fragments.ok()) << design << ": " << fragments.status();
  auto deployment = workload::Deployment::Fragmented(
      data, schema, xdb::DatabaseOptions(), NetworkModel());
  ASSERT_TRUE(deployment.ok()) << design << ": " << deployment.status();
  std::map<std::string, const xml::Document*> sources;
  for (const xml::DocumentPtr& doc : data.docs()) {
    sources[doc->doc_name()] = doc.get();
  }
  size_t checked = 0;
  size_t scaffold_nodes = 0;
  for (size_t i = 0; i < fragments->size(); ++i) {
    const xml::Collection& fragment = (*fragments)[i];
    const frag::FragmentDef& def = schema.fragments[i];
    // FragMode2 instance fragments replicate their container.
    const bool has_container = design == "FragMode2" &&
                               def.kind() == frag::FragmentKind::kHybrid &&
                               !def.hybrid().mu.IsTrue();
    // Deployment::Fragmented places fragment i at node i.
    auto fetched = (*deployment)->cluster().database(i).AllDocuments(
        fragment.name());
    ASSERT_TRUE(fetched.ok()) << design << ": " << fetched.status();
    ASSERT_EQ(fetched->size(), fragment.docs().size()) << fragment.name();
    for (size_t d = 0; d < fetched->size(); ++d) {
      const xml::Document& got = *(*fetched)[d];
      const std::string where = design + " " + got.doc_name();
      ASSERT_EQ(got.doc_name(), fragment.docs()[d]->doc_name()) << where;
      auto sent = frag::DecodeOrigins(*fragment.docs()[d]);
      auto origins = frag::DecodeOrigins(got);
      ASSERT_TRUE(sent.ok()) << where << ": " << sent.status();
      ASSERT_TRUE(origins.ok()) << where << ": " << origins.status();
      EXPECT_EQ(origins->source, sent->source) << where;
      EXPECT_EQ(origins->ancestors, sent->ancestors) << where;
      ASSERT_EQ(origins->runs.size(), sent->runs.size()) << where;

      const xml::Document* src = sources[origins->source];
      ASSERT_NE(src, nullptr) << where;
      xml::NodeId n = 0;
      for (const frag::OriginRun& run : origins->runs) {
        for (uint32_t k = 0; k < run.length; ++k, ++n) {
          ASSERT_LT(n, got.node_count()) << where;
          const xml::NodeId id = run.first + k;
          ASSERT_LT(id, src->node_count()) << where;
          ASSERT_EQ(src->kind(id), got.kind(n)) << where << " node " << n;
          if (got.kind(n) != xml::NodeKind::kText) {
            EXPECT_EQ(src->name(id), got.name(n)) << where << " node " << n;
          }
          if (got.kind(n) != xml::NodeKind::kElement) {
            EXPECT_EQ(src->value(id), got.value(n)) << where << " node " << n;
          }
          const bool container =
              has_container &&
              (n == 0 || (got.parent(n) == 0 &&
                          got.kind(n) == xml::NodeKind::kAttribute));
          EXPECT_EQ(run.scaffold, container) << where << " node " << n;
          scaffold_nodes += run.scaffold ? 1 : 0;
        }
      }
      EXPECT_EQ(n, got.node_count()) << where;
      std::vector<std::pair<xml::NodeId, std::string>> chain;
      for (xml::NodeId a = src->parent(origins->runs[0].first);
           a != xml::kNullNode; a = src->parent(a)) {
        chain.insert(chain.begin(), {a, std::string(src->name(a))});
      }
      EXPECT_EQ(origins->ancestors, chain) << where;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << design;
  EXPECT_EQ(scaffold_nodes > 0, design == "FragMode2") << design;
}

TEST(JoinComposeTest, OriginsSurviveTheWireInEveryDesign) {
  VerticalSetup vertical;
  ASSERT_NO_FATAL_FAILURE(DeployArticles(ArticleScale{4, 3000}, &vertical));
  ExpectOriginsSurviveTheWire(vertical.data, vertical.schema, "vertical");
  for (frag::HybridMode mode : {frag::HybridMode::kOneDocPerSubtree,
                                frag::HybridMode::kSinglePrunedDoc}) {
    StoreSetup store;
    ASSERT_NO_FATAL_FAILURE(DeployStore(mode, &store));
    ExpectOriginsSurviveTheWire(store.data, store.schema, ModeName(mode));
  }
}

// --- hostile reconstruction metadata --------------------------------------

TEST(JoinComposeTest, BadOriginMetadataIsCorruption) {
  // Source <wrap><s><x>L</x><x>R</x></s></wrap>: wrap 0, s 1, x 2 and 4,
  // texts 3 and 5. "d_good" is the left half; "d_bad" holds the right
  // half under each broken variant of its metadata.
  const std::map<std::string, std::string> good = {
      {"px-src", "d"}, {"px-runs", "1:1:1,2:2:0"}, {"px-anc", "0:wrap"}};
  const std::map<std::string, std::string> right = {
      {"px-src", "d"}, {"px-runs", "1:1:1,4:2:0"}, {"px-anc", "0:wrap"}};
  struct Variant {
    std::string what;
    std::string key;
    std::string value;  // "-" erases the key
  };
  const std::vector<Variant> variants = {
      {"missing runs", "px-runs", "-"},
      {"missing ancestors", "px-anc", "-"},
      {"empty source", "px-src", ""},
      {"non-numeric length", "px-runs", "1:1:1,4:x:0"},
      {"two fields", "px-runs", "1:1,4:2:0"},
      {"negative id", "px-runs", "-1:1:1,4:2:0"},
      {"bad scaffold flag", "px-runs", "1:1:2,4:2:0"},
      {"id past NodeId", "px-runs", "1:1:1,99999999999:2:0"},
      {"bad ancestor", "px-anc", "wrap"},
      {"unnamed ancestor", "px-anc", "0:"},
      {"repeated id", "px-runs", "1:1:1,1:2:0"},
      {"decreasing runs", "px-runs", "4:2:0,1:1:1"},
      {"ancestor after root", "px-anc", "7:wrap"},
      {"sentinel id", "px-runs", "1:1:1,4294967294:2:0"},
      {"too short", "px-runs", "1:1:1,4:1:0"},
      {"too long", "px-runs", "1:1:1,4:5:0"},
      {"zero-length run", "px-runs", "1:1:1,4:0:0,4:2:0"},
      {"no runs", "px-runs", ""},
      {"second root", "px-anc", ""},
  };
  for (const Variant& v : variants) {
    std::map<std::string, std::string> bad = right;
    if (v.value == "-") {
      bad.erase(v.key);
    } else {
      bad[v.key] = v.value;
    }
    DistributionCatalog catalog;
    ClusterSim cluster(2, xdb::DatabaseOptions(), NetworkModel());
    ASSERT_TRUE(cluster.node(0).CreateCollection("f_good", {}).ok());
    ASSERT_TRUE(cluster.node(1).CreateCollection("f_bad", {}).ok());
    ASSERT_TRUE(cluster.node(0)
                    .StoreSerializedDocument("f_good", "d_good",
                                             "<s><x>L</x></s>", good)
                    .ok());
    ASSERT_TRUE(cluster.node(1)
                    .StoreSerializedDocument("f_bad", "d_bad",
                                             "<s><x>R</x></s>", bad)
                    .ok());
    QueryService service(&cluster, &catalog);
    DistributedPlan plan;
    plan.collection = "joined";
    plan.original_query = "collection(\"joined\")/wrap";
    plan.composition = Composition::kJoinReconstruct;
    plan.subqueries.push_back({.fragment = "f_good",
                               .node = 0,
                               .query = "collection(\"f_good\")"});
    plan.subqueries.push_back({.fragment = "f_bad",
                               .node = 1,
                               .query = "collection(\"f_bad\")"});
    auto result = service.ExecutePlan(plan);
    ASSERT_FALSE(result.ok()) << v.what;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << v.what << ": " << result.status();
    // Consistent IDs that place the right half beside wrap instead of in
    // it make a second root of source 'd'; every other variant is wrong
    // in d_bad itself.
    EXPECT_NE(result.status().message().find(
                  v.what == "second root" ? "'d'" : "'d_bad'"),
              std::string::npos)
        << v.what << ": " << result.status();
  }
}

}  // namespace
}  // namespace partix::middleware
