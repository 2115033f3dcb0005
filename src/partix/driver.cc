#include "partix/driver.h"

#include "common/clock.h"
#include "common/strings.h"
#include "telemetry/metrics.h"

namespace partix::middleware {

namespace {

/// Per-sub-query engine timing, recorded at the driver boundary — the
/// point where the middleware hands work to "one DBMS node". Lock wait is
/// reported separately per lock class: read waits show readers queueing
/// behind a bulk load or DDL, write waits show loads queueing behind
/// in-flight queries — the two saturate for different reasons, so they
/// get different histograms.
struct DriverTelemetry {
  telemetry::Counter* executes;
  telemetry::Counter* prepares;
  telemetry::Histogram* engine_ms;
  telemetry::Histogram* read_lock_wait_ms;
  telemetry::Histogram* write_lock_wait_ms;

  static const DriverTelemetry& Get() {
    static const DriverTelemetry t = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      DriverTelemetry out;
      out.executes = registry.GetCounter("partix_driver_executes_total");
      out.prepares = registry.GetCounter("partix_driver_prepares_total");
      out.engine_ms = registry.GetHistogram("partix_engine_execute_ms");
      out.read_lock_wait_ms =
          registry.GetHistogram("partix_driver_read_lock_wait_ms");
      out.write_lock_wait_ms =
          registry.GetHistogram("partix_driver_write_lock_wait_ms");
      return out;
    }();
    return t;
  }
};

/// Exclusive lock with acquisition wait recorded to the write-wait
/// histogram.
class TimedUniqueLock {
 public:
  explicit TimedUniqueLock(std::shared_mutex& mu) {
    Stopwatch watch;
    lock_ = std::unique_lock<std::shared_mutex>(mu);
    DriverTelemetry::Get().write_lock_wait_ms->Observe(watch.ElapsedMillis());
  }

 private:
  std::unique_lock<std::shared_mutex> lock_;
};

/// Shared-lock acquisition with the wait recorded to the read-wait
/// histogram. Movable, so ExecutePreparedStream can hand the lock to the
/// stream object it returns.
std::shared_lock<std::shared_mutex> AcquireTimedSharedLock(
    std::shared_mutex& mu) {
  Stopwatch watch;
  std::shared_lock<std::shared_mutex> lock(mu);
  DriverTelemetry::Get().read_lock_wait_ms->Observe(watch.ElapsedMillis());
  return lock;
}

/// LocalXdbDriver's handle: wraps the engine's shareable prepared plan.
class LocalPreparedSubQuery : public PreparedSubQuery {
 public:
  LocalPreparedSubQuery(xdb::PreparedQueryPtr plan, bool cache_hit,
                        double compile_ms)
      : plan_(std::move(plan)) {
    cache_hit_ = cache_hit;
    compile_ms_ = compile_ms;
  }

  const xdb::PreparedQueryPtr& plan() const { return plan_; }

 private:
  xdb::PreparedQueryPtr plan_;
};

/// LocalXdbDriver's stream: the engine cursor plus the driver's shared
/// lock, both held open-to-destruction. Member order matters — the
/// cursor (which holds the *database's* shared lock) must be destroyed
/// before the driver lock is released, so the driver lock is declared
/// first. Each block is digest-stamped here, node-side, before it
/// crosses the wire; engine time is accumulated across Next() calls and
/// observed once at destruction so the partix_engine_execute_ms histogram
/// sees one sample per (sub-query, node) execution.
class LocalSubQueryStream : public SubQueryStream {
 public:
  LocalSubQueryStream(std::shared_lock<std::shared_mutex> driver_lock,
                      xdb::ResultCursorPtr cursor)
      : driver_lock_(std::move(driver_lock)), cursor_(std::move(cursor)) {}

  ~LocalSubQueryStream() override {
    DriverTelemetry::Get().engine_ms->Observe(engine_ms_);
  }

  Result<bool> Next(xdb::ResultBlock* out) override {
    Stopwatch engine_watch;
    Result<bool> more = cursor_->Next(out);
    engine_ms_ += engine_watch.ElapsedMillis();
    if (more.ok() && *more) out->digest = Fnv1a64(out->serialized);
    return more;
  }

  const xdb::QueryMetrics& metrics() const override {
    return cursor_->metrics();
  }

 private:
  std::shared_lock<std::shared_mutex> driver_lock_;
  xdb::ResultCursorPtr cursor_;
  double engine_ms_ = 0.0;
};

}  // namespace

LocalXdbDriver::LocalXdbDriver(std::string name, xdb::DatabaseOptions options)
    : name_(std::move(name)), db_(options) {}

Status LocalXdbDriver::CreateCollection(const std::string& name,
                                        xdb::CollectionMeta meta) {
  TimedUniqueLock lock(mu_);
  return db_.CreateCollection(name, std::move(meta));
}

Status LocalXdbDriver::StoreDocument(const std::string& collection,
                                     const xml::Document& doc) {
  TimedUniqueLock lock(mu_);
  return db_.StoreDocument(collection, doc);
}

Status LocalXdbDriver::StoreSerializedDocument(
    const std::string& collection, std::string doc_name, std::string xml,
    std::map<std::string, std::string> metadata) {
  TimedUniqueLock lock(mu_);
  return db_.StoreSerializedWithMetadata(collection, std::move(doc_name),
                                         std::move(xml),
                                         std::move(metadata));
}

Result<PreparedSubQueryPtr> LocalXdbDriver::Prepare(
    const xquery::CompiledQueryPtr& compiled) {
  const DriverTelemetry& telemetry = DriverTelemetry::Get();
  std::shared_lock<std::shared_mutex> lock = AcquireTimedSharedLock(mu_);
  telemetry.prepares->Add();
  PARTIX_ASSIGN_OR_RETURN(xdb::PrepareOutcome outcome, db_.Prepare(compiled));
  return PreparedSubQueryPtr(std::make_shared<LocalPreparedSubQuery>(
      std::move(outcome.plan), outcome.cache_hit, outcome.compile_ms));
}

Result<SubQueryStreamPtr> LocalXdbDriver::ExecutePreparedStream(
    const PreparedSubQuery& prepared, const xdb::ExecParams& exec) {
  const auto* local = dynamic_cast<const LocalPreparedSubQuery*>(&prepared);
  if (local == nullptr) {
    return Status::InvalidArgument(
        "prepared handle was not produced by a LocalXdbDriver");
  }
  const DriverTelemetry& telemetry = DriverTelemetry::Get();
  std::shared_lock<std::shared_mutex> lock = AcquireTimedSharedLock(mu_);
  telemetry.executes->Add();
  Stopwatch engine_watch;
  Result<xdb::ResultCursorPtr> cursor =
      db_.ExecutePreparedStream(*local->plan(), exec);
  if (!cursor.ok()) {
    telemetry.engine_ms->Observe(engine_watch.ElapsedMillis());
    return cursor.status();
  }
  return SubQueryStreamPtr(std::make_unique<LocalSubQueryStream>(
      std::move(lock), std::move(*cursor)));
}

void LocalXdbDriver::DropCaches() {
  TimedUniqueLock lock(mu_);
  db_.DropCaches();
}

bool LocalXdbDriver::HasCollection(const std::string& collection) {
  std::shared_lock<std::shared_mutex> lock = AcquireTimedSharedLock(mu_);
  return db_.HasCollection(collection);
}

Result<uint64_t> LocalXdbDriver::CollectionDigest(
    const std::string& collection) {
  std::shared_lock<std::shared_mutex> lock = AcquireTimedSharedLock(mu_);
  return db_.CollectionContentDigest(collection);
}

Result<xdb::CollectionMeta> LocalXdbDriver::CollectionMetaOf(
    const std::string& collection) {
  std::shared_lock<std::shared_mutex> lock = AcquireTimedSharedLock(mu_);
  PARTIX_ASSIGN_OR_RETURN(const xdb::CollectionMeta* meta,
                          db_.Meta(collection));
  return *meta;
}

Result<std::vector<xdb::StoredDoc>> LocalXdbDriver::ExportStoredDocs(
    const std::string& collection) {
  std::shared_lock<std::shared_mutex> lock = AcquireTimedSharedLock(mu_);
  return db_.ExportStoredDocs(collection);
}

Status LocalXdbDriver::DropCollection(const std::string& collection) {
  TimedUniqueLock lock(mu_);
  return db_.DropCollection(collection);
}

std::string LocalXdbDriver::Describe() const {
  return "local-xdb:" + name_;
}

}  // namespace partix::middleware
