#ifndef PARTIX_ENGINE_DATABASE_H_
#define PARTIX_ENGINE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/plan_cache.h"
#include "memory/governor.h"
#include "storage/document_store.h"
#include "storage/indexes.h"
#include "storage/stats.h"
#include "xml/collection.h"
#include "xml/document.h"
#include "xml/name_pool.h"
#include "xml/schema.h"
#include "xquery/evaluator.h"
#include "xquery/item.h"

namespace partix::xdb {

/// Engine construction options.
struct DatabaseOptions {
  /// Parsed-document cache budget per collection (0 disables caching).
  size_t cache_capacity_bytes = size_t{64} << 20;
  /// Structural label index (XISS/R-style (pre, sub_max, level) intervals,
  /// see docs/structural-index.md): prunes candidate documents by
  /// occurrence level and lets the evaluators answer descendant/child
  /// steps as label-range scans instead of tree walks. Results are
  /// byte-identical on or off; OFF is the navigational ablation measured
  /// by bench/structural_join.
  bool enable_structural_index = true;
  /// Prepared-plan LRU cache capacity in entries, keyed by query text and
  /// invalidated by collection DDL. 0 disables caching: every Prepare
  /// recompiles (the "cache off" ablation of bench/plan_cache_bench).
  size_t plan_cache_capacity = 128;
  /// Additional byte bound on the plan cache (summed per-plan byte
  /// estimates, see PlanCache::EstimatePlanBytes). 0 = entries-only.
  size_t plan_cache_capacity_bytes = 0;
  /// One per-node byte budget shared by the parse caches, the plan
  /// cache, and (through the middleware) in-flight result buffers. 0
  /// (default) disables governance: caches enforce only their own
  /// capacities. When set, the database owns a memory::MemoryGovernor,
  /// every cache charges it, and pressure evicts in priority order
  /// (parse caches first, plan cache next). Results are byte-identical
  /// with the governor on or off. See docs/memory.md.
  size_t memory_budget_bytes = 0;
};

/// Descriptive metadata of a collection (its schema binding).
struct CollectionMeta {
  xml::SchemaPtr schema;        // may be null (schemaless)
  std::string root_path;        // e.g. "/Store/Items/Item"
  xml::RepoKind kind = xml::RepoKind::kMultipleDocuments;
  /// Validate each stored document against the schema root type.
  bool validate_on_store = false;
};

/// Per-execution knobs, separate from the plan (the same prepared plan
/// runs with any ExecParams).
struct ExecParams {
  /// Intra-node morsel parallelism: collection-scale iterations inside
  /// one evaluation are split into fixed-size morsels that up to this
  /// many threads of `morsel_pool` (the calling thread included, and
  /// never more than the pool has) work through. <= 1 (or a null pool) =
  /// sequential evaluation. Results are byte-identical either way (see
  /// docs/intra-node-parallelism.md).
  size_t morsel_parallelism = 1;
  /// The shared worker pool the morsels run on; must outlive the call.
  /// The middleware passes the same process-wide pool the scheduler
  /// admission-controls — never a private one (no second pool, no
  /// oversubscription).
  ThreadPool* morsel_pool = nullptr;
  /// Target items per ResultBlock of ExecutePreparedStream. 0 = the
  /// default (256).
  size_t stream_block_items = 0;
};

/// Execution counters for one query.
struct QueryMetrics {
  double elapsed_ms = 0.0;
  /// Parse + static-analysis cost paid by this call; 0 when the plan came
  /// from the plan cache or a caller-supplied prepared plan.
  double compile_ms = 0.0;
  /// Plan-cache accounting of this call: {1,0} on a hit, {0,1} on a miss,
  /// {0,0} when executed through a caller-supplied prepared plan (the
  /// cache was not consulted).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Estimated bytes held by this node's plan cache after the call (see
  /// PlanCache::total_bytes; surfaced per sub-query by ExplainAnalyze).
  uint64_t plan_cache_bytes = 0;
  uint64_t docs_in_collections = 0;  // total docs in referenced collections
  uint64_t docs_considered = 0;      // after index pruning
  uint64_t docs_parsed = 0;
  uint64_t bytes_parsed = 0;
  uint64_t cache_hits = 0;
  uint64_t nodes_visited = 0;
  /// Axis steps answered by structural label-range scans, and how many of
  /// them matched at least one node (0 when the structural index is
  /// disabled).
  uint64_t index_range_scans = 0;
  uint64_t index_range_hits = 0;
  /// Intra-node morsels the evaluation ran, and how many of them helper
  /// threads claimed (see xquery::EvalStats; 0 when it ran sequentially).
  uint64_t morsels = 0;
  uint64_t helper_morsels = 0;
  uint64_t result_items = 0;
  uint64_t result_bytes = 0;
};

/// A query answer: the result sequence, its serialized form, and metrics.
struct QueryResult {
  xquery::Sequence items;
  std::string serialized;
  QueryMetrics metrics;
};

/// One batch of a streamed query result. Blocks carry both forms the
/// consumers need: serialized bytes (what crosses the wire; block
/// serializations concatenate to exactly QueryResult::serialized) and the
/// items themselves (join composition reads the px-* reconstruction
/// metadata off the documents, not the bytes). Documents stay alive
/// through the items' shared_ptrs.
struct ResultBlock {
  xquery::Sequence items;
  std::string serialized;
  /// XXH64 of `serialized` (common/strings.h Xxh64), stamped by the
  /// driver before the block crosses the simulated wire (0 = no digest).
  /// The executor hashes the bytes it received once: with integrity
  /// checks on, a mismatch with the stamp is a retryable corrupt
  /// response (see docs/fault-tolerance.md); either way its own hash
  /// replaces the stamp before the block enters the BlockChannel, which
  /// keeps it as the replay record.
  uint64_t digest = 0;
};

class ResultCursor;
using ResultCursorPtr = std::unique_ptr<ResultCursor>;

/// One document as the store holds it: name, raw serialized bytes, and
/// out-of-band metadata. This is the unit of replica repair — copying a
/// fragment to another node ships exactly these triples, so the target's
/// stored bytes (and therefore its content digest) match the source.
struct StoredDoc {
  std::string name;
  std::string xml;
  std::map<std::string, std::string> metadata;
};

/// What Prepare() hands back: the (possibly cached) plan plus how it was
/// obtained. `compile_ms` is 0 exactly when `cache_hit` — a hit pays no
/// parse and no analysis.
struct PrepareOutcome {
  PreparedQueryPtr plan;
  bool cache_hit = false;
  double compile_ms = 0.0;
};

/// The XQuery-enabled XML database PartiX coordinates — the role eXist
/// plays in the paper. One Database instance is "one DBMS node" of the
/// distributed setting.
///
/// Documents live in per-collection stores in serialized form, are parsed
/// on demand through an LRU cache, and are indexed (structure, full text,
/// exact values) at store time. Queries are XQuery (see xquery/parser.h
/// for the subset); the planner prunes the documents each collection()
/// call must touch using the indexes.
///
/// Thread-safety: the read path is concurrent, the write path exclusive.
/// Execute/Prepare/ExecutePrepared and the read accessors are const and
/// may be called from any number of threads at once — queries take a
/// shared lock on the instance; the parse caches, plan cache, name pool,
/// and per-collection access stats they touch are internally
/// synchronized. DDL and loading (CreateCollection/DropCollection/
/// Store*/CorruptStoredDocumentText/DropCaches) take the exclusive lock
/// and therefore serialize against all in-flight queries. In the
/// distributed setting, middleware::LocalXdbDriver mirrors exactly this
/// split with its own reader-writer lock; cross-node parallelism remains
/// trivially safe because instances share nothing (each has its own
/// NamePool, stores, caches, and indexes).
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::shared_ptr<xml::NamePool>& pool() const { return pool_; }
  const DatabaseOptions& options() const { return options_; }

  // ---- DDL ----

  Status CreateCollection(const std::string& name,
                          CollectionMeta meta = CollectionMeta());
  Status DropCollection(const std::string& name);
  bool HasCollection(const std::string& name) const;
  std::vector<std::string> CollectionNames() const;

  // ---- Loading ----

  /// Stores (serializes + indexes) a document into a collection.
  Status StoreDocument(const std::string& collection,
                       const xml::Document& doc);

  /// Stores pre-serialized XML (parsed once, for indexing/validation).
  Status StoreSerialized(const std::string& collection, std::string doc_name,
                         std::string xml);

  /// Stores pre-serialized XML with out-of-band document metadata that the
  /// store persists and re-attaches on access.
  Status StoreSerializedWithMetadata(
      const std::string& collection, std::string doc_name, std::string xml,
      std::map<std::string, std::string> metadata);

  /// Loads every document of an in-memory Collection.
  Status StoreCollection(const xml::Collection& collection);

  // ---- Access ----

  /// All documents of a collection (parsing as needed).
  Result<std::vector<xml::DocumentPtr>> AllDocuments(
      const std::string& collection);

  Result<const storage::CollectionStats*> Stats(
      const std::string& collection) const;

  Result<const CollectionMeta*> Meta(const std::string& collection) const;

  /// Number of documents in a collection.
  Result<size_t> DocumentCount(const std::string& collection) const;

  /// Total serialized bytes of a collection.
  Result<uint64_t> SerializedBytes(const std::string& collection) const;

  /// Content digest of a collection: FNV-1a over the (name, serialized
  /// bytes) pairs of every stored document, in name order. Two replicas
  /// holding the same documents byte-for-byte produce the same digest
  /// regardless of store order — the anti-entropy scrubber compares this
  /// against the catalog's published digest to detect divergent copies.
  Result<uint64_t> CollectionContentDigest(const std::string& collection)
      const;

  /// Every stored document of a collection in name order, as raw
  /// (name, serialized XML, metadata) triples. No parsing happens; this
  /// is what replica repair copies between nodes.
  Result<std::vector<StoredDoc>> ExportStoredDocs(
      const std::string& collection) const;

  /// Fault-injection seam (tests, bench): flips one text character of the
  /// serialized bytes of the `doc_index`-th stored document, emulating
  /// silent storage corruption (bit rot). The parse cache entry for the
  /// document is dropped so subsequent reads see the corrupt bytes.
  /// Indexes are deliberately left stale, like real bit rot under an
  /// index built at store time.
  Status CorruptStoredDocumentText(const std::string& collection,
                                   size_t doc_index, uint64_t pick = 0);

  // ---- Query ----

  /// Executes an XQuery: Prepare (served from the plan cache when the
  /// exact text was prepared before and no DDL intervened) followed by
  /// ExecutePrepared. Metrics carry the compile cost actually paid and
  /// the cache hit/miss of this call. Concurrently callable.
  Result<QueryResult> Execute(const std::string& query,
                              const ExecParams& exec = ExecParams()) const;

  /// Compiles `query` into a shareable plan, or returns it from the plan
  /// cache. Parse failures are returned (never cached), so a malformed
  /// query fails identically on every submission. Concurrently callable
  /// (touches only the internally-locked plan cache, never the stores).
  Result<PrepareOutcome> Prepare(const std::string& query) const;

  /// Same, for a query the caller already compiled (e.g. the middleware's
  /// per-sub-query artifact): a cache miss runs static analysis only — no
  /// parse happens on this path.
  Result<PrepareOutcome> Prepare(const xquery::CompiledQueryPtr& compiled)
      const;

  /// Evaluates a prepared plan: computes the data-dependent candidate
  /// sets from the current indexes, evaluates, serializes. Pays no parse
  /// and no static analysis (`metrics.compile_ms == 0`). The plan may
  /// come from this engine, another engine, or PreparedQuery built by the
  /// caller. Concurrently callable; `exec` optionally enables intra-node
  /// morsel parallelism for this one evaluation.
  Result<QueryResult> ExecutePrepared(
      const PreparedQuery& prepared,
      const ExecParams& exec = ExecParams()) const;

  /// Streaming form of ExecutePrepared, and the one the middleware
  /// runs: a pull-based cursor yielding ResultBlocks whose concatenation
  /// is byte-, item-, and metrics-identical to ExecutePrepared (which
  /// stays as the reference evaluation tests compare it against). The
  /// cursor holds this database's shared lock for its whole life (DDL
  /// waits until every open cursor is destroyed), so create, drain, and
  /// destroy it on ONE thread — a shared_mutex must be released by the
  /// locking thread. The plan must outlive the cursor.
  Result<ResultCursorPtr> ExecutePreparedStream(
      const PreparedQuery& prepared,
      const ExecParams& exec = ExecParams()) const;

  /// Plan-cache introspection (tests, benches, DDL-invalidation proofs).
  PlanCacheStats plan_cache_stats() const { return plan_cache_.stats(); }
  size_t plan_cache_size() const { return plan_cache_.size(); }
  size_t plan_cache_bytes() const { return plan_cache_.total_bytes(); }

  /// This node's memory governor, or nullptr when
  /// DatabaseOptions::memory_budget_bytes is 0. The governor itself is
  /// internally synchronized (concurrent Charge/Release are exact).
  memory::MemoryGovernor* governor() { return governor_.get(); }

  // ---- Cache control (benchmarks) ----

  /// Drops all parsed-document caches (serialized data stays), emulating a
  /// cold start.
  void DropCaches();

 private:
  struct CollectionState {
    CollectionMeta meta;
    std::unique_ptr<storage::DocumentStore> store;
    storage::ElementIndex element_index;
    storage::StructuralIndex structural_index;
    /// Guarded by stats_mu for RecordAccess (concurrent shared-lock
    /// queries fold their access deltas in); AddDocument runs under the
    /// database's exclusive lock and needs no extra locking.
    mutable std::mutex stats_mu;
    mutable storage::CollectionStats stats;
  };

  // Both require mu_ held (shared suffices for the const overload).
  Result<CollectionState*> GetState(const std::string& name);
  Result<const CollectionState*> GetState(const std::string& name) const;

  // The *Locked helpers require mu_ held exclusively.
  Status CreateCollectionLocked(const std::string& name, CollectionMeta meta);
  Status StoreDocumentLocked(const std::string& collection,
                             const xml::Document& doc);
  Status IndexDocument(CollectionState* state, storage::DocSlot slot,
                       const xml::Document& doc);

  /// Caches a freshly-built plan and assembles its PrepareOutcome
  /// (miss-path tail shared by both Prepare overloads).
  PrepareOutcome FinishPrepare(std::shared_ptr<PreparedQuery> plan) const;

  /// Clears the plan cache after collection DDL (any cached plan may
  /// reference the changed collection).
  void InvalidatePlans();

  /// Execution body; requires mu_ held (shared).
  Result<QueryResult> ExecutePreparedLocked(const PreparedQuery& prepared,
                                            const ExecParams& exec) const;

  /// Data-dependent candidate planning (index-posting intersection into
  /// sorted per-collection slot lists); requires mu_ held (shared).
  /// Shared by ExecutePrepared and ExecutePreparedStream.
  void PlanCandidates(
      const std::map<std::string, CollectionPlan>& plans,
      std::map<std::string, std::vector<storage::DocSlot>>* candidates,
      std::map<std::string, storage::DocumentStore*>* stores,
      QueryMetrics* metrics) const;

  /// Folds per-collection store-activity deltas into collection stats and
  /// evaluator counters into `metrics` + the process-wide structural-index
  /// counters; requires mu_ held (shared). `delta_for` returns the
  /// store-activity delta this query caused on one collection.
  void FoldExecutionStats(
      const std::map<std::string, CollectionPlan>& plans,
      const std::function<storage::StoreMetrics(const std::string&)>&
          delta_for,
      const xquery::EvalStats& eval_stats, QueryMetrics* metrics) const;

  friend class ResultCursor;

  DatabaseOptions options_;
  std::shared_ptr<xml::NamePool> pool_;
  /// Declared before the caches/stores it governs: consumers detach in
  /// their destructors, so the governor must be destroyed last.
  std::unique_ptr<memory::MemoryGovernor> governor_;
  /// Reader-writer split: queries and read accessors hold shared, DDL and
  /// loading hold exclusive. Guards the collections_ map structure and
  /// the index/meta/raw-byte content of every CollectionState (the store
  /// caches and stats have finer internal locks for the shared-path
  /// mutations queries perform).
  mutable std::shared_mutex mu_;
  std::map<std::string, CollectionState> collections_;
  /// Prepared plans keyed by query text; cleared by collection DDL.
  /// Internally thread-safe; mutable so the const query path can use it.
  mutable PlanCache plan_cache_;
};

/// A pull-based streamed query result, opened by
/// Database::ExecutePreparedStream. Yields fixed-size ResultBlocks whose
/// concatenated items/bytes equal the materialized QueryResult exactly;
/// metrics() is complete (elapsed, result counts, store/evaluator
/// attribution) once Next() has returned false.
///
/// Thread contract: NOT thread-safe, and lock-bound — the cursor holds
/// the database's shared lock from open to destruction, so it must be
/// created, drained, and destroyed on the same thread (shared_mutex
/// ownership is per-thread). Dropping a cursor early releases the lock
/// but skips the final stats fold, exactly like an errored materialized
/// execution.
class ResultCursor {
 public:
  ~ResultCursor();
  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;

  /// Produces the next block (up to ExecParams::stream_block_items
  /// items) into `*block`. Returns false at end of stream; an evaluation
  /// error ends the stream with that error.
  Result<bool> Next(ResultBlock* block);

  /// Metrics accumulated so far; complete after Next() returned false.
  const QueryMetrics& metrics() const;

 private:
  friend class Database;
  struct State;
  explicit ResultCursor(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace partix::xdb

#endif  // PARTIX_ENGINE_DATABASE_H_
