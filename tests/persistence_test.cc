#include "engine/persistence.h"

#include <cstdio>
#include <filesystem>

#include "fragmentation/fragmenter.h"
#include "gen/virtual_store.h"
#include "gtest/gtest.h"
#include "partix/publisher.h"
#include "telemetry/metrics.h"
#include "workload/schemas.h"
#include "xml/compare.h"

namespace partix::xdb {
namespace {

namespace fs = std::filesystem;

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest() {
    dir_ = fs::temp_directory_path() /
           ("partix_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  ~PersistenceTest() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(PersistenceTest, ExportImportRoundTrip) {
  gen::ItemsGenOptions options;
  options.doc_count = 25;
  options.seed = 41;
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok());

  Database source;
  ASSERT_TRUE(source.StoreCollection(*items).ok());
  ASSERT_TRUE(ExportCollection(source, "items", dir_.string()).ok());
  EXPECT_TRUE(fs::exists(dir_ / "MANIFEST"));

  Database restored;
  ASSERT_TRUE(ImportCollection(restored, "items", dir_.string()).ok());
  EXPECT_EQ(*restored.DocumentCount("items"), items->size());

  auto docs = restored.AllDocuments("items");
  ASSERT_TRUE(docs.ok());
  for (size_t i = 0; i < items->size(); ++i) {
    bool found = false;
    for (const auto& doc : *docs) {
      if (doc->doc_name() == items->docs()[i]->doc_name()) {
        EXPECT_TRUE(xml::DocumentsEqual(*items->docs()[i], *doc));
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }

  // Queries behave the same after the round trip.
  auto a = source.Execute("count(collection(\"items\")/Item)");
  auto b = restored.Execute("count(collection(\"items\")/Item)");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->serialized, b->serialized);
}

TEST_F(PersistenceTest, MetadataSurvivesRoundTrip) {
  Database source;
  ASSERT_TRUE(source.CreateCollection("frags").ok());
  std::map<std::string, std::string> metadata = {
      {"px-src", "store-doc"},
      {"px-runs", "42:3:0"},
      {"px-anc", "0:Store,22:Items"},
      {"odd", "a=b;c\td\ne\\f"},  // exercises escaping
  };
  ASSERT_TRUE(source
                  .StoreSerializedWithMetadata("frags", "f0",
                                               "<Item><Code>1</Code></Item>",
                                               metadata)
                  .ok());
  ASSERT_TRUE(ExportCollection(source, "frags", dir_.string()).ok());

  Database restored;
  ASSERT_TRUE(ImportCollection(restored, "frags", dir_.string()).ok());
  auto docs = restored.AllDocuments("frags");
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 1u);
  EXPECT_EQ((*docs)[0]->metadata(), metadata);
}

TEST_F(PersistenceTest, RefusesToOverwriteExistingExport) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  ASSERT_TRUE(db.StoreSerialized("c", "d", "<a/>").ok());
  ASSERT_TRUE(ExportCollection(db, "c", dir_.string()).ok());
  EXPECT_EQ(ExportCollection(db, "c", dir_.string()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(PersistenceTest, ImportMissingDirectoryFails) {
  Database db;
  EXPECT_EQ(
      ImportCollection(db, "c", (dir_ / "nope").string()).code(),
      StatusCode::kNotFound);
}

TEST_F(PersistenceTest, ImportDetectsMissingDocumentFile) {
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  ASSERT_TRUE(db.StoreSerialized("c", "d", "<a/>").ok());
  ASSERT_TRUE(ExportCollection(db, "c", dir_.string()).ok());
  fs::remove(dir_ / "000000.xml");
  Database restored;
  EXPECT_EQ(ImportCollection(restored, "c", dir_.string()).code(),
            StatusCode::kCorruption);
}

TEST_F(PersistenceTest, ExportReportsFailedWrite) {
  // /dev/full opens for writing and fails every flush, like a full disk.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Database db;
  ASSERT_TRUE(db.CreateCollection("c").ok());
  ASSERT_TRUE(db.StoreSerialized("c", "d", "<a><b>x</b></a>").ok());
  for (const std::string file : {"000000.xml", "STRUCT"}) {
    SCOPED_TRACE(file);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fs::create_symlink("/dev/full", dir_ / file);
    const Status status = ExportCollection(db, "c", dir_.string());
    // Reading /dev/full never ends: drop the link before anything can.
    fs::remove(dir_ / file);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
    EXPECT_NE(status.message().find(file), std::string::npos) << status;
  }
}

TEST_F(PersistenceTest, ExportUnknownCollectionFails) {
  Database db;
  EXPECT_FALSE(ExportCollection(db, "nope", dir_.string()).ok());
}

TEST_F(PersistenceTest, ImportWithoutStructSidecarCountsSkippedVerification) {
  // Pre-label exports have no STRUCT sidecar, so structural-label
  // verification cannot run. That must not be silent: the import counts
  // a skipped verification (and warns on stderr) so "verified clean" is
  // distinguishable from "nothing to verify against".
  Database source;
  ASSERT_TRUE(source.CreateCollection("c").ok());
  ASSERT_TRUE(source.StoreSerialized("c", "d", "<a><b>x</b></a>").ok());
  ASSERT_TRUE(ExportCollection(source, "c", dir_.string()).ok());

  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* skipped =
      registry.GetCounter("partix_struct_verify_skipped_total");
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);

  // A modern export carries STRUCT: verification runs, nothing skipped.
  const uint64_t before = skipped->Value();
  Database restored;
  ASSERT_TRUE(ImportCollection(restored, "c", dir_.string()).ok());
  EXPECT_EQ(skipped->Value(), before);

  // Strip the sidecar (a pre-label export) and re-import.
  fs::remove(dir_ / "STRUCT");
  Database legacy;
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(ImportCollection(legacy, "c", dir_.string()).ok());
  const std::string warning = ::testing::internal::GetCapturedStderr();
  registry.set_enabled(was_enabled);

  EXPECT_EQ(skipped->Value(), before + 1);
  EXPECT_NE(warning.find("no STRUCT sidecar"), std::string::npos) << warning;
  EXPECT_NE(warning.find("verification skipped"), std::string::npos);
  // The documents themselves still import fine.
  EXPECT_EQ(*legacy.DocumentCount("c"), 1u);
}

}  // namespace
}  // namespace partix::xdb
