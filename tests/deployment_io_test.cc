#include "partix/deployment_io.h"

#include <filesystem>

#include "fragmentation/schema_io.h"
#include "gen/virtual_store.h"
#include "gtest/gtest.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "workload/schemas.h"

namespace partix::middleware {
namespace {

namespace fs = std::filesystem;

TEST(SchemaIoTest, HorizontalRoundTrip) {
  auto schema = workload::SectionHorizontalSchema(
      "items", {"CD", "DVD", "BOOK", "TOY"}, 3);
  ASSERT_TRUE(schema.ok());
  std::string text = frag::SerializeFragmentationSchema(*schema);
  auto parsed = frag::ParseFragmentationSchema(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(frag::SerializeFragmentationSchema(*parsed), text);
  EXPECT_EQ(parsed->collection, "items");
  EXPECT_EQ(parsed->fragments.size(), 3u);
}

TEST(SchemaIoTest, VerticalAndHybridRoundTrip) {
  auto vertical = workload::ArticleVerticalSchema("papers");
  ASSERT_TRUE(vertical.ok());
  std::string vtext = frag::SerializeFragmentationSchema(*vertical);
  auto vparsed = frag::ParseFragmentationSchema(vtext);
  ASSERT_TRUE(vparsed.ok()) << vparsed.status();
  EXPECT_EQ(frag::SerializeFragmentationSchema(*vparsed), vtext);

  for (frag::HybridMode mode : {frag::HybridMode::kOneDocPerSubtree,
                                frag::HybridMode::kSinglePrunedDoc}) {
    auto hybrid = workload::StoreHybridSchema(
        "store", {"CD", "DVD", "BOOK"}, 2, mode);
    ASSERT_TRUE(hybrid.ok());
    std::string htext = frag::SerializeFragmentationSchema(*hybrid);
    auto hparsed = frag::ParseFragmentationSchema(htext);
    ASSERT_TRUE(hparsed.ok()) << hparsed.status();
    EXPECT_EQ(frag::SerializeFragmentationSchema(*hparsed), htext);
    EXPECT_EQ(hparsed->hybrid_mode, mode);
  }
}

TEST(SchemaIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(frag::ParseFragmentationSchema("bogus\tline\n").ok());
  EXPECT_FALSE(frag::ParseFragmentationSchema(
                   "collection\tc\nhorizontal\tf\n")
                   .ok());  // missing predicate field
  EXPECT_FALSE(
      frag::ParseFragmentationSchema("collection\tc\n").ok());  // empty
}

class DeploymentIoTest : public ::testing::Test {
 protected:
  DeploymentIoTest() {
    dir_ = fs::temp_directory_path() /
           ("partix_deploy_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  ~DeploymentIoTest() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(DeploymentIoTest, SaveAndRestoreAnsweringIdentically) {
  gen::ItemsGenOptions options;
  options.doc_count = 40;
  options.seed = 77;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  auto schema =
      workload::SectionHorizontalSchema("items", options.sections, 4);
  ASSERT_TRUE(schema.ok());

  DistributionCatalog catalog;
  ClusterSim cluster(4, xdb::DatabaseOptions(), NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(*items, *schema).ok());

  const std::string query =
      "for $i in collection(\"items\")/Item "
      "where $i/Section = \"CD\" return $i/Name";
  QueryService service(&cluster, &catalog);
  auto before = service.Execute(query);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(SaveDeployment(dir_.string(), catalog, &cluster).ok());

  // "Restart": load into fresh objects and re-run the query.
  auto restored = LoadDeployment(dir_.string(), xdb::DatabaseOptions(),
                                 NetworkModel());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->cluster->node_count(), 4u);
  QueryService restored_service(restored->cluster.get(),
                                restored->catalog.get());
  auto after = restored_service.Execute(query);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->serialized, before->serialized);
  EXPECT_EQ(after->pruned_fragments, before->pruned_fragments);
}

TEST_F(DeploymentIoTest, VerticalDeploymentKeepsReconstructionIds) {
  gen::ItemsGenOptions options;
  options.doc_count = 12;
  options.seed = 78;
  options.large_docs = true;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());

  frag::FragmentationSchema schema;
  schema.collection = "items";
  auto item_path = xpath::Path::Parse("/Item");
  auto pics_path = xpath::Path::Parse("/Item/PictureList");
  ASSERT_TRUE(item_path.ok() && pics_path.ok());
  schema.fragments.emplace_back(
      frag::VerticalDef{"f_item", *item_path, {*pics_path}});
  schema.fragments.emplace_back(
      frag::VerticalDef{"f_pics", *pics_path, {}});

  DistributionCatalog catalog;
  ClusterSim cluster(2, xdb::DatabaseOptions(), NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(*items, schema).ok());
  ASSERT_TRUE(SaveDeployment(dir_.string(), catalog, &cluster).ok());

  auto restored = LoadDeployment(dir_.string(), xdb::DatabaseOptions(),
                                 NetworkModel());
  ASSERT_TRUE(restored.ok()) << restored.status();
  // A multi-fragment query needs the px-* metadata to have survived.
  QueryService service(restored->cluster.get(), restored->catalog.get());
  auto result = service.Execute(
      "sum(for $i in collection(\"items\")/Item "
      "return count($i/PictureList/Picture))");
  ASSERT_TRUE(result.ok()) << result.status();
  QueryService original_service(&cluster, &catalog);
  auto expected = original_service.Execute(
      "sum(for $i in collection(\"items\")/Item "
      "return count($i/PictureList/Picture))");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(result->serialized, expected->serialized);
}

TEST_F(DeploymentIoTest, ReplicaSetsSurviveSaveAndLoad) {
  gen::ItemsGenOptions options;
  options.doc_count = 24;
  options.seed = 79;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  auto schema =
      workload::SectionHorizontalSchema("items", options.sections, 4);
  ASSERT_TRUE(schema.ok());

  DistributionCatalog catalog;
  ClusterSim cluster(4, xdb::DatabaseOptions(), NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(
      publisher.PublishFragmented(*items, *schema, {}, 2).ok());
  ASSERT_TRUE(SaveDeployment(dir_.string(), catalog, &cluster).ok());

  auto restored = LoadDeployment(dir_.string(), xdb::DatabaseOptions(),
                                 NetworkModel());
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto entry = restored->catalog->Get("items");
  ASSERT_TRUE(entry.ok());
  for (const FragmentPlacement& p : (*entry)->placements) {
    ASSERT_EQ(p.backups.size(), 1u) << p.fragment;
    EXPECT_EQ(p.backups[0], (p.node + 1) % 4) << p.fragment;
  }

  // The restored deployment fails over just like the original: kill a
  // primary and the query still answers.
  restored->cluster->SetNodeDown(0, true);
  QueryService service(restored->cluster.get(), restored->catalog.get());
  auto result = service.Execute("count(collection(\"items\")/Item)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->serialized, std::to_string(items->size()));
  EXPECT_GE(result->failovers, 1u);
}

TEST_F(DeploymentIoTest, RefusesToOverwrite) {
  DistributionCatalog catalog;
  ClusterSim cluster(1, xdb::DatabaseOptions(), NetworkModel());
  ASSERT_TRUE(SaveDeployment(dir_.string(), catalog, &cluster).ok());
  EXPECT_EQ(SaveDeployment(dir_.string(), catalog, &cluster).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DeploymentIoTest, SaveReportsFailedWrite) {
  // /dev/full opens for writing and fails every flush, like a full disk.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  gen::ItemsGenOptions options;
  options.doc_count = 8;
  options.seed = 80;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  auto schema =
      workload::SectionHorizontalSchema("items", options.sections, 2);
  ASSERT_TRUE(schema.ok());
  DistributionCatalog catalog;
  ClusterSim cluster(2, xdb::DatabaseOptions(), NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(*items, *schema).ok());

  // The schema file, not catalog.txt: a catalog.txt link would trip the
  // overwrite check before anything is written.
  fs::create_directories(dir_);
  const fs::path link = dir_ / "schema_items.txt";
  fs::create_symlink("/dev/full", link);
  const Status status = SaveDeployment(dir_.string(), catalog, &cluster);
  // Reading /dev/full never ends: drop the link before anything can.
  fs::remove(link);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  EXPECT_NE(status.message().find("schema_items.txt"), std::string::npos)
      << status;
}

TEST_F(DeploymentIoTest, SaveReportsFailedCollectionExport) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  gen::ItemsGenOptions options;
  options.doc_count = 8;
  options.seed = 81;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());
  auto schema =
      workload::SectionHorizontalSchema("items", options.sections, 2);
  ASSERT_TRUE(schema.ok());
  DistributionCatalog catalog;
  ClusterSim cluster(2, xdb::DatabaseOptions(), NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(*items, *schema).ok());

  // The first document file of the first collection node 0 exports.
  xdb::Database& db = cluster.database(0);
  ASSERT_FALSE(db.CollectionNames().empty());
  const std::string collection = db.CollectionNames()[0];
  ASSERT_GT(*db.DocumentCount(collection), 0u);
  const fs::path target = dir_ / "node0" / collection;
  fs::create_directories(target);
  const fs::path link = target / "000000.xml";
  fs::create_symlink("/dev/full", link);
  const Status status = SaveDeployment(dir_.string(), catalog, &cluster);
  // Reading /dev/full never ends: drop the link before anything can.
  fs::remove(link);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  EXPECT_NE(status.message().find("000000.xml"), std::string::npos)
      << status;
}

TEST_F(DeploymentIoTest, LoadMissingDirectoryFails) {
  auto result = LoadDeployment((dir_ / "nope").string(),
                               xdb::DatabaseOptions(), NetworkModel());
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace partix::middleware
