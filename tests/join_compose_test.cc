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

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "fragmentation/fragmenter.h"
#include "fragmentation/reconstruct.h"
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

  // Oracle: fragment, rebuild every article, store the rebuilt collection
  // in a fresh engine and run the original query there.
  auto fragments = frag::ApplyFragmentation(data, setup.schema);
  ASSERT_TRUE(fragments.ok()) << fragments.status();
  auto rebuilt = frag::ReconstructVertical(*fragments, data.name(), nullptr);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  xdb::Database reference;
  ASSERT_TRUE(reference.CreateCollection(data.name()).ok());
  for (const xml::DocumentPtr& doc : rebuilt->docs()) {
    ASSERT_TRUE(reference.StoreDocument(data.name(), *doc).ok());
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

}  // namespace
}  // namespace partix::middleware
