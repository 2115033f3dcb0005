// Plan golden: pins the plan of every workload query on every perfbench
// design, so a change to query analysis or decomposition shows up as a
// reviewed diff rather than as a silently different plan.
//
// Each cell renders the QueryService::Explain text of one query on one
// design, followed by the engine site constraints Database::Prepare
// stores for every sub-query (collection, required elements, spine levels,
// unconstrained). The expected text lives in tests/golden/workload_plans.txt.
// On a mismatch the actual rendering is written next to the test binary
// and the failure message names both files; when a plan change is
// intended, diff the two and copy the actual file over the golden.

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "partix/query_service.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace partix::middleware {
namespace {

constexpr char kGoldenPath[] =
    PARTIX_TESTS_SOURCE_DIR "/golden/workload_plans.txt";
constexpr char kActualPath[] =
    PARTIX_TESTS_BINARY_DIR "/workload_plans.actual.txt";

/// One perfbench design over small generated data (plans do not depend
/// on the data, only on the design).
struct Design {
  std::string name;
  xml::Collection data;
  frag::FragmentationSchema schema;
  std::vector<workload::QuerySpec> queries;
};

std::vector<Design> Designs() {
  std::vector<Design> out;
  {
    gen::ItemsGenOptions options;
    options.doc_count = 16;
    auto items = gen::GenerateItems(options, nullptr);
    EXPECT_TRUE(items.ok()) << items.status();
    auto schema = workload::SectionHorizontalSchema(items->name(),
                                                    options.sections, 4);
    EXPECT_TRUE(schema.ok()) << schema.status();
    out.push_back(Design{"horizontal", std::move(*items), std::move(*schema),
                         workload::HorizontalQueries(options.name)});
  }
  {
    gen::XBenchGenOptions options;
    options.doc_count = 3;
    options.target_doc_bytes = 4 * 1024;
    auto articles = gen::GenerateArticles(options, nullptr);
    EXPECT_TRUE(articles.ok()) << articles.status();
    auto schema = workload::ArticleVerticalSchema(articles->name());
    EXPECT_TRUE(schema.ok()) << schema.status();
    out.push_back(Design{"vertical", std::move(*articles),
                         std::move(*schema),
                         workload::VerticalQueries(options.name)});
  }
  for (frag::HybridMode mode : {frag::HybridMode::kOneDocPerSubtree,
                                frag::HybridMode::kSinglePrunedDoc}) {
    gen::StoreGenOptions options;
    options.item_count = 24;
    options.large_items = false;
    auto store = gen::GenerateStore(options, nullptr);
    EXPECT_TRUE(store.ok()) << store.status();
    auto schema = workload::StoreHybridSchema(store->name(),
                                              options.sections, 4, mode);
    EXPECT_TRUE(schema.ok()) << schema.status();
    out.push_back(Design{mode == frag::HybridMode::kOneDocPerSubtree
                             ? "hybrid FragMode1"
                             : "hybrid FragMode2",
                         std::move(*store), std::move(*schema),
                         workload::HybridQueries(options.name)});
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += ' ';
    out += part;
  }
  return out;
}

/// The site constraints Database::Prepare stores for one sub-query.
std::string RenderSites(const xdb::PreparedQuery& prepared) {
  std::string out;
  for (const auto& [collection, plan] : prepared.plans) {
    for (size_t i = 0; i < plan.sites.size(); ++i) {
      const xdb::SiteConstraints& site = plan.sites[i];
      std::vector<std::string> spine;
      for (const xdb::SpineLevel& level : site.spine_levels) {
        spine.push_back(level.name + (level.exact_level ? "=" : ">=") +
                        std::to_string(level.min_level));
      }
      out += "    site " + collection + "#" + std::to_string(i) +
             ": required [" + Join(site.required_elements) + "] spine [" +
             Join(spine) + "]" +
             (site.unconstrained ? " unconstrained" : "") + "\n";
    }
  }
  return out;
}

Result<std::string> RenderCell(workload::Deployment* deployment,
                               const std::string& query) {
  PARTIX_ASSIGN_OR_RETURN(std::string out,
                          deployment->service().Explain(query));
  PARTIX_ASSIGN_OR_RETURN(
      DistributedPlan plan,
      deployment->service().decomposer().Decompose(query));
  xdb::Database engine;
  for (const SubQuery& sub : plan.subqueries) {
    PARTIX_ASSIGN_OR_RETURN(xdb::PrepareOutcome prepared,
                            engine.Prepare(sub.compiled));
    out += "  prepared " + sub.fragment + "\n" + RenderSites(*prepared.plan);
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(PlanGoldenTest, WorkloadPlansMatchTheGolden) {
  std::string actual;
  for (Design& design : Designs()) {
    auto deployment = workload::Deployment::Fragmented(
        design.data, design.schema, xdb::DatabaseOptions(), NetworkModel());
    ASSERT_TRUE(deployment.ok()) << design.name << ": "
                                 << deployment.status();
    for (const workload::QuerySpec& query : design.queries) {
      auto cell = RenderCell(deployment->get(), query.text);
      ASSERT_TRUE(cell.ok()) << design.name << " " << query.id << ": "
                             << cell.status();
      actual += "=== " + design.name + " " + query.id + "\n" + *cell;
    }
  }
  const std::string expected = ReadFile(kGoldenPath);
  if (actual != expected) {
    std::ofstream(kActualPath, std::ios::binary) << actual;
    ADD_FAILURE() << "workload plans differ from " << kGoldenPath
                  << "; the actual rendering is in " << kActualPath;
  }
}

}  // namespace
}  // namespace partix::middleware
