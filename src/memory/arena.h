#ifndef PARTIX_MEMORY_ARENA_H_
#define PARTIX_MEMORY_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

namespace partix::memory {

/// Configuration of an ArenaPool. Chunk capacities are rounded up to
/// power-of-two size classes between `min_chunk_bytes` and
/// `max_chunk_bytes`; oversize requests get an exact-size chunk that is
/// never retained.
struct ArenaPoolOptions {
  /// Small enough that a small document's text (a 16-node Item holds
  /// ~350 bytes) fits one chunk with little left over.
  size_t min_chunk_bytes = 512;
  size_t max_chunk_bytes = size_t{1} << 20;    // 1 MiB
  /// Cap on idle chunk bytes kept on the free lists. Chunks released
  /// beyond the cap are returned to the system allocator immediately.
  size_t max_retained_bytes = size_t{32} << 20;  // 32 MiB
};

/// Point-in-time statistics of an ArenaPool.
struct ArenaPoolStats {
  uint64_t chunks_created = 0;   // fresh system allocations
  uint64_t chunks_reused = 0;    // served from a free list
  uint64_t chunks_recycled = 0;  // released back onto a free list
  uint64_t chunks_freed = 0;     // returned to the system allocator
  size_t retained_bytes = 0;     // idle capacity on the free lists
  size_t outstanding_bytes = 0;  // capacity currently lent to arenas
  /// Cumulative capacity / used bytes of every released chunk chain —
  /// the basis of the internal-fragmentation percentage.
  uint64_t released_capacity_bytes = 0;
  uint64_t released_used_bytes = 0;

  /// Internal fragmentation over everything released so far:
  /// 100 * (1 - used / capacity). 0 when nothing was released yet.
  double fragmentation_pct() const {
    if (released_capacity_bytes == 0) return 0.0;
    return 100.0 * (1.0 - static_cast<double>(released_used_bytes) /
                              static_cast<double>(released_capacity_bytes));
  }
};

/// A thread-safe pool of memory chunks with power-of-two size classes
/// (slab-style free lists). Arenas draw chunks from a pool and hand the
/// whole chain back on destruction, so the bytes backing one parsed
/// document are recycled into the next parse instead of churning through
/// malloc/free. Idle capacity is bounded by `max_retained_bytes`.
///
/// Thread-safety: all methods are safe to call concurrently (one mutex
/// around the free lists; arenas themselves are single-threaded).
class ArenaPool {
 public:
  /// Chunk header; payload bytes follow in the same allocation.
  struct Chunk {
    Chunk* next = nullptr;
    size_t capacity = 0;  // payload bytes at data()
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  explicit ArenaPool(ArenaPoolOptions options = ArenaPoolOptions());
  ~ArenaPool();
  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  /// The process-wide pool backing xml::Document arenas.
  static ArenaPool& Global();

  /// Returns a chunk with capacity >= max(min_bytes, min_chunk_bytes),
  /// reusing a free-listed chunk of the right class when one is idle.
  /// Requests above `max_chunk_bytes` get exactly `min_bytes`.
  Chunk* Acquire(size_t min_bytes);

  /// Takes back a chain of chunks (next-linked, nullptr-terminated).
  /// `used_bytes` is the number of payload bytes the arena actually
  /// consumed across the chain; it feeds the fragmentation gauge.
  /// Chunks beyond the retained cap (and oversize chunks) are freed.
  void Release(Chunk* chain, size_t used_bytes);

  /// Frees every idle chunk, returning retained capacity to the system.
  void Trim();

  ArenaPoolStats stats() const;
  const ArenaPoolOptions& options() const { return options_; }

 private:
  size_t ClassOf(size_t capacity) const;  // free-list index, or npos
  void PublishGauges() const;             // global pool only
  static Chunk* NewChunk(size_t capacity);
  static void DeleteChunk(Chunk* chunk);

  const ArenaPoolOptions options_;
  mutable std::mutex mu_;
  std::vector<Chunk*> free_lists_;  // one per size class, LIFO
  ArenaPoolStats stats_;
};

/// A single-threaded bump allocator. Two modes:
///
///   - *pooled* (constructed with an ArenaPool): memory comes in chunks
///     from the pool and the whole chain is released on destruction —
///     O(1) allocations per parse, recycled across parses.
///   - *direct* (null pool): every Allocate is its own system
///     allocation, mimicking the legacy one-std::string-per-text-node
///     behavior. This is the malloc baseline bench/memory_density
///     compares against, and the fallback when pooling is disabled.
///
/// Byte accounting (used_bytes) is identical in both modes, so document
/// cache eviction behaves the same with pooling on or off.
///
/// Thread-compatible: confine an Arena (like the Document that owns it)
/// to one thread at a time.
class Arena {
 public:
  /// Direct-mode arena.
  Arena() = default;
  /// Pooled arena when `pool` is non-null; direct otherwise.
  explicit Arena(ArenaPool* pool) : pool_(pool) {}
  ~Arena();

  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` bytes aligned to `align` (a power of two).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Copies `s` into the arena; the view stays valid for the arena's
  /// lifetime. Empty input returns an empty view without allocating.
  std::string_view CopyString(std::string_view s);

  /// Drops every allocation. Pooled chunks go back to the pool; direct
  /// blocks are freed.
  void Clear();

  size_t used_bytes() const { return used_; }
  size_t capacity_bytes() const { return capacity_; }
  bool pooled() const { return pool_ != nullptr; }

 private:
  void* AllocateSlow(size_t bytes);

  ArenaPool* pool_ = nullptr;
  ArenaPool::Chunk* chunks_ = nullptr;  // pooled chain; head = current
  char* cursor_ = nullptr;
  char* limit_ = nullptr;
  size_t next_chunk_bytes_ = 0;
  std::vector<void*> direct_blocks_;  // direct mode
  size_t used_ = 0;
  size_t capacity_ = 0;
};

/// Process-wide switch for the arena mode of newly constructed
/// xml::Documents: pooled (default) or direct/malloc-baseline. Existing
/// documents keep the arena they were built with. Thread-safe; benches
/// and the byte-identity tests flip it between phases.
void SetDocumentArenaPooling(bool enabled);
bool DocumentArenaPoolingEnabled();

/// The pool new Documents should draw from: &ArenaPool::Global() when
/// pooling is enabled, nullptr (direct mode) otherwise.
ArenaPool* DocumentArenaPoolOrNull();

}  // namespace partix::memory

#endif  // PARTIX_MEMORY_ARENA_H_
