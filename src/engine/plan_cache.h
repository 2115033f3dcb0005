#ifndef PARTIX_ENGINE_PLAN_CACHE_H_
#define PARTIX_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/planner.h"
#include "memory/governor.h"
#include "xquery/compiled_query.h"

namespace partix::xdb {

/// The engine-side prepared statement: the compiled query plus the static
/// planner's per-collection site constraints. Holds no pointers into any
/// Database — the data-dependent part of planning (index-posting
/// intersection into candidate document slots) happens at
/// ExecutePrepared() time, because stored documents change between
/// executions while the query's structure does not.
///
/// Thread-safety: deeply immutable, apart from one relaxed atomic
/// capacity hint that streaming execution reads and writes; safe to share
/// across threads. The hint sizes buffers and never changes a byte of any
/// answer. A plan prepared on one Database may be executed on another
/// (the constraints are derived from the query alone), which is what lets
/// the middleware ship one CompiledQuery to every replica of a fragment.
struct PreparedQuery {
  xquery::CompiledQueryPtr compiled;
  /// PlanCollections(compiled->analysis()): one entry per referenced
  /// collection.
  std::map<std::string, CollectionPlan> plans;
  /// Cost (ms) of building this plan: parse (when compiled locally from
  /// text) + static analysis. Paid once; plan-cache hits report 0.
  double compile_ms = 0.0;

 private:
  friend class ResultCursor;
  /// Serialized bytes of the first block the plan's latest cursor
  /// produced; the next cursor reserves that much for its own first
  /// block. A whole-item answer fits in one block per fragment, so a
  /// cursor-local hint would never fire where the bytes are.
  mutable std::atomic<size_t> first_block_bytes_{0};
};

using PreparedQueryPtr = std::shared_ptr<const PreparedQuery>;

/// Cumulative counters of one PlanCache.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Entries removed: LRU capacity evictions + DDL invalidations.
  uint64_t evictions = 0;
  /// Clear() calls (every collection DDL invalidates the whole cache).
  uint64_t invalidations = 0;
};

/// LRU cache of prepared plans keyed by exact query text, bounded both by
/// entry count and by estimated bytes. Parse errors are never inserted, so
/// a bad query fails identically on every submission.
///
/// Thread-safe: an internal mutex guards the LRU list, index, byte
/// accounting, and stats, so concurrent Execute/Prepare calls on the
/// owning Database may hit the cache in parallel (they contend only for
/// the short LRU-splice critical section). Governor Charge is settled
/// outside the mutex — its pressure path re-enters ShedBytes, which takes
/// the same lock.
class PlanCache {
 public:
  /// `capacity` in entries; 0 disables caching (Lookup always misses,
  /// Insert is a no-op). `capacity_bytes` additionally bounds the summed
  /// per-plan byte estimates; 0 = unbounded by bytes.
  explicit PlanCache(size_t capacity, size_t capacity_bytes = 0)
      : capacity_(capacity), capacity_bytes_(capacity_bytes) {}
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Registers this cache with `governor` (eviction priority
  /// kPriorityPlanCache: plans are cheap to recompile but dearer than
  /// parsed documents, so the parse cache sheds first). Cached plan
  /// bytes are charged to the governor; under pressure it calls back
  /// into ShedBytes. Pass nullptr to detach. Same lifetime rule as
  /// DocumentStore::AttachGovernor: attach before concurrent use.
  void AttachGovernor(memory::MemoryGovernor* governor);

  /// Evicts LRU entries until at least `target` estimated bytes are
  /// freed (or the cache is empty); returns the bytes freed. Thread-safe.
  size_t ShedBytes(size_t target);

  /// Returns the cached plan and promotes it to most-recently-used, or
  /// nullptr on miss. Counts a hit or miss. Thread-safe.
  PreparedQueryPtr Lookup(const std::string& text);

  /// Inserts (or replaces) the plan for `text`, evicting the
  /// least-recently-used entry when over capacity. Returns the number of
  /// entries evicted. Thread-safe.
  size_t Insert(const std::string& text, PreparedQueryPtr plan);

  /// Drops every entry (collection DDL invalidation: any cached plan may
  /// reference the changed collection). Returns the number of entries
  /// dropped; counts them as evictions and the call as an invalidation.
  size_t Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  /// Summed byte estimates of the cached plans.
  size_t total_bytes() const;
  /// Snapshot of the counters (copied under the lock).
  PlanCacheStats stats() const;

  /// Estimated in-memory footprint of one cached plan: the key and
  /// stored text, the constraint containers (counted exactly), and the
  /// compiled AST (estimated from the query text — ~6 expression-tree
  /// bytes per source byte, measured on the workload queries).
  static size_t EstimatePlanBytes(const std::string& text,
                                  const PreparedQuery& plan);

 private:
  struct Entry {
    std::string text;
    PreparedQueryPtr plan;
    size_t bytes = 0;
  };

  // Requires mu_ held; releases the victim's governor charge (Release
  // never runs callbacks, so it is safe under the lock — only Charge may
  // not be called with mu_ held).
  void EvictBack();

  size_t capacity_;
  size_t capacity_bytes_;
  size_t total_bytes_ = 0;
  memory::MemoryGovernor* governor_ = nullptr;
  int governor_id_ = -1;
  /// Guards entries_, index_, total_bytes_, stats_.
  mutable std::mutex mu_;
  /// Front = most recently used. Map values point into the list; list
  /// nodes are address-stable across splices.
  std::list<Entry> entries_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace partix::xdb

#endif  // PARTIX_ENGINE_PLAN_CACHE_H_
