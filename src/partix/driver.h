#ifndef PARTIX_PARTIX_DRIVER_H_
#define PARTIX_PARTIX_DRIVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "xquery/compiled_query.h"

namespace partix::middleware {

/// A node-side prepared statement: the driver-specific artifact handed
/// back by Driver::Prepare. Streaming through it skips parse and static
/// analysis entirely, which is what lets the executor pay compilation at
/// most once per (sub-query, node) across retries and replica failovers.
///
/// Thread-safety: immutable once returned; safe to share across threads.
/// A handle is only valid on the driver that produced it (it may wrap
/// engine- or connection-specific state).
class PreparedSubQuery {
 public:
  virtual ~PreparedSubQuery() = default;

  /// True when the node served preparation from its plan cache.
  bool cache_hit() const { return cache_hit_; }
  /// Node-side compile cost (ms); 0 on cache hits.
  double compile_ms() const { return compile_ms_; }

 protected:
  bool cache_hit_ = false;
  double compile_ms_ = 0.0;
};

using PreparedSubQueryPtr = std::shared_ptr<const PreparedSubQuery>;

/// A pull-based streamed sub-query response: the driver-side face of the
/// batched result pipeline. Blocks arrive in result order; their
/// serializations concatenate to exactly what the engine's reference
/// evaluation (xdb::Database::ExecutePrepared) returns, and each block
/// carries a driver-stamped digest so the executor can verify integrity
/// block-by-block. metrics() is complete once Next() has returned false.
///
/// Thread contract: NOT thread-safe, and (for lock-bound drivers like
/// LocalXdbDriver) the stream holds node-side locks from open to
/// destruction — create, drain, and destroy it on ONE thread. Dropping a
/// stream early is legal and releases node resources.
class SubQueryStream {
 public:
  virtual ~SubQueryStream() = default;

  /// Produces the next block into `*out`. Returns false at end of
  /// stream; an error ends the stream.
  virtual Result<bool> Next(xdb::ResultBlock* out) = 0;

  /// Engine-side metrics accumulated so far; complete after the stream
  /// is drained.
  virtual const xdb::QueryMetrics& metrics() const = 0;
};

using SubQueryStreamPtr = std::unique_ptr<SubQueryStream>;

/// The PartiX Driver (paper §4): a uniform interface between the
/// middleware and one XQuery-enabled DBMS node. Any XML DBMS that
/// processes XQuery can participate; the only build here wraps the
/// embedded xdb engine (the eXist stand-in), but the query service is
/// written against this interface.
///
/// The query surface is two calls: Prepare a compiled sub-query into a
/// node-side handle, then open a block stream over it with
/// ExecutePreparedStream. Every sub-query the middleware runs takes this
/// one path.
///
/// Thread-safety contract: implementations must tolerate concurrent
/// Prepare/ExecutePreparedStream/DropCaches calls from executor worker
/// threads — a node is "one DBMS", and one DBMS accepts requests from
/// many connections at once. Under the multi-query scheduler those
/// workers serve *different queries*: queries on the same node may run
/// concurrently (LocalXdbDriver admits readers in parallel and only
/// serializes writes, like a real DBMS's MGL), and per-node fairness is
/// the scheduler's admission gate, not a driver mutex.
class Driver {
 public:
  virtual ~Driver() = default;

  virtual Status CreateCollection(const std::string& name,
                                  xdb::CollectionMeta meta) = 0;
  virtual Status StoreDocument(const std::string& collection,
                               const xml::Document& doc) = 0;

  /// Stores pre-serialized XML with out-of-band metadata, byte-for-byte
  /// as given. This is the replication path: publisher and repair ship
  /// `xdb::StoredDoc` triples so every replica's stored bytes (and
  /// content digest) match the source exactly.
  virtual Status StoreSerializedDocument(
      const std::string& collection, std::string doc_name, std::string xml,
      std::map<std::string, std::string> metadata) = 0;

  /// Compiles (or fetches from the node's plan cache) a prepared handle
  /// for a query the middleware already compiled. The handle is reusable
  /// for any number of ExecutePreparedStream calls on this driver.
  virtual Result<PreparedSubQueryPtr> Prepare(
      const xquery::CompiledQueryPtr& compiled) = 0;

  /// Opens a block stream over a handle obtained from this driver's
  /// Prepare. Pays no parse and no static analysis
  /// (`metrics().compile_ms == 0`). Implementations stamp each block's
  /// digest (XXH64 of its bytes) node-side before it crosses the wire,
  /// so the executor can detect in-flight corruption end to end. `exec`
  /// carries per-call knobs (block size, intra-node morsel parallelism);
  /// drivers that cannot honor morsels run sequentially — results are
  /// identical either way. The handle must outlive the stream.
  virtual Result<SubQueryStreamPtr> ExecutePreparedStream(
      const PreparedSubQuery& prepared, const xdb::ExecParams& exec = {}) = 0;

  /// Drops parsed-document caches (cold-start emulation for benchmarks).
  virtual void DropCaches() = 0;

  // ---- Replica repair / anti-entropy surface ----

  /// True when the node holds `collection`.
  virtual bool HasCollection(const std::string& collection) = 0;

  /// Content digest of a collection's stored bytes (name-ordered FNV-1a,
  /// see xdb::Database::CollectionContentDigest). The scrubber compares
  /// this across replicas against the catalog's published digest.
  virtual Result<uint64_t> CollectionDigest(const std::string& collection) = 0;

  /// The collection's metadata (schema binding), copied — repair recreates
  /// the collection on the target node with the same binding.
  virtual Result<xdb::CollectionMeta> CollectionMetaOf(
      const std::string& collection) = 0;

  /// Every stored document as raw (name, xml, metadata) triples in name
  /// order: the payload replica repair copies between nodes.
  virtual Result<std::vector<xdb::StoredDoc>> ExportStoredDocs(
      const std::string& collection) = 0;

  /// Drops a collection (quarantine-and-rebuild path of the scrubber).
  virtual Status DropCollection(const std::string& collection) = 0;

  /// Human-readable identification for logs.
  virtual std::string Describe() const = 0;
};

/// Driver for an in-process xdb::Database instance.
///
/// Thread-safe for the Driver interface with reader-writer semantics: the
/// query surface (Prepare, every open stream, and the repair-side reads)
/// holds a shared lock, so any number of executor workers — and
/// the morsel workers a query fans out inside the engine — read the node
/// concurrently; DDL and document loading take the lock exclusively.
/// True cross-node parallelism is unchanged: distinct nodes share no
/// mutable state (each engine has its own name pool, stores, caches,
/// indexes). Lock queueing is observable per class via the
/// partix_driver_{read,write}_lock_wait_ms histograms.
class LocalXdbDriver : public Driver {
 public:
  explicit LocalXdbDriver(std::string name,
                          xdb::DatabaseOptions options = {});

  Status CreateCollection(const std::string& name,
                          xdb::CollectionMeta meta) override;
  Status StoreDocument(const std::string& collection,
                       const xml::Document& doc) override;
  Status StoreSerializedDocument(
      const std::string& collection, std::string doc_name, std::string xml,
      std::map<std::string, std::string> metadata) override;
  Result<PreparedSubQueryPtr> Prepare(
      const xquery::CompiledQueryPtr& compiled) override;
  Result<SubQueryStreamPtr> ExecutePreparedStream(
      const PreparedSubQuery& prepared,
      const xdb::ExecParams& exec = {}) override;
  void DropCaches() override;
  bool HasCollection(const std::string& collection) override;
  Result<uint64_t> CollectionDigest(const std::string& collection) override;
  Result<xdb::CollectionMeta> CollectionMetaOf(
      const std::string& collection) override;
  Result<std::vector<xdb::StoredDoc>> ExportStoredDocs(
      const std::string& collection) override;
  Status DropCollection(const std::string& collection) override;
  std::string Describe() const override;

  /// Unsynchronized access to the embedded engine, for deployment
  /// persistence and tests: coordinator-thread-only, and only while no
  /// dispatch is in flight.
  xdb::Database& database() { return db_; }

 private:
  std::string name_;
  /// Readers (queries, repair reads) shared; writers (DDL, loads) exclusive.
  mutable std::shared_mutex mu_;
  xdb::Database db_;
};

}  // namespace partix::middleware

#endif  // PARTIX_PARTIX_DRIVER_H_
