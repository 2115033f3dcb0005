#include "memory/arena.h"

#include <atomic>
#include <cstring>
#include <new>

#include "telemetry/metrics.h"

namespace partix::memory {

namespace {

/// Telemetry handles for the global pool, registered once. Per-event
/// counters record as they happen; byte gauges are refreshed from pool
/// stats after each acquire/release.
struct ArenaTelemetry {
  telemetry::Counter* chunks_created;
  telemetry::Counter* chunks_reused;
  telemetry::Gauge* retained_bytes;
  telemetry::Gauge* outstanding_bytes;
  telemetry::Gauge* fragmentation_pct;

  static ArenaTelemetry& Get() {
    static ArenaTelemetry t = [] {
      auto& reg = telemetry::MetricsRegistry::Global();
      ArenaTelemetry x;
      x.chunks_created = reg.GetCounter("partix_arena_chunks_created_total");
      x.chunks_reused = reg.GetCounter("partix_arena_chunks_reused_total");
      x.retained_bytes = reg.GetGauge("partix_arena_retained_bytes");
      x.outstanding_bytes = reg.GetGauge("partix_arena_outstanding_bytes");
      x.fragmentation_pct = reg.GetGauge("partix_arena_fragmentation_pct");
      return x;
    }();
    return t;
  }
};

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::atomic<bool> g_document_arena_pooling{true};

}  // namespace

// ---------------------------------------------------------------------------
// ArenaPool

ArenaPool::ArenaPool(ArenaPoolOptions options) : options_(options) {
  size_t classes = 0;
  for (size_t c = RoundUpPow2(options_.min_chunk_bytes);
       c <= options_.max_chunk_bytes; c <<= 1) {
    ++classes;
  }
  free_lists_.assign(classes == 0 ? 1 : classes, nullptr);
}

ArenaPool::~ArenaPool() { Trim(); }

ArenaPool& ArenaPool::Global() {
  // Leaked on purpose: documents (and their arenas) may be destroyed
  // during static teardown in arbitrary order.
  static ArenaPool* pool = new ArenaPool();
  return *pool;
}

size_t ArenaPool::ClassOf(size_t capacity) const {
  size_t base = RoundUpPow2(options_.min_chunk_bytes);
  size_t idx = 0;
  for (size_t c = base; c <= options_.max_chunk_bytes; c <<= 1, ++idx) {
    if (capacity == c) return idx < free_lists_.size() ? idx : free_lists_.size();
  }
  return free_lists_.size();  // oversize / non-class capacity
}

ArenaPool::Chunk* ArenaPool::NewChunk(size_t capacity) {
  void* raw = ::operator new(sizeof(Chunk) + capacity);
  Chunk* chunk = new (raw) Chunk();
  chunk->capacity = capacity;
  return chunk;
}

void ArenaPool::DeleteChunk(Chunk* chunk) {
  chunk->~Chunk();
  ::operator delete(static_cast<void*>(chunk));
}

ArenaPool::Chunk* ArenaPool::Acquire(size_t min_bytes) {
  size_t want = min_bytes < options_.min_chunk_bytes ? options_.min_chunk_bytes
                                                     : min_bytes;
  size_t capacity = want > options_.max_chunk_bytes ? want : RoundUpPow2(want);
  bool reused = false;
  Chunk* chunk = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t cls = ClassOf(capacity);
    // Serve from the exact class, or the next larger one that has an
    // idle chunk (still O(#classes)).
    for (size_t i = cls; i < free_lists_.size(); ++i) {
      if (free_lists_[i] != nullptr) {
        chunk = free_lists_[i];
        free_lists_[i] = chunk->next;
        chunk->next = nullptr;
        stats_.retained_bytes -= chunk->capacity;
        reused = true;
        break;
      }
    }
    if (chunk == nullptr) {
      ++stats_.chunks_created;
    } else {
      ++stats_.chunks_reused;
    }
    if (chunk != nullptr) stats_.outstanding_bytes += chunk->capacity;
  }
  if (chunk == nullptr) {
    chunk = NewChunk(capacity);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.outstanding_bytes += chunk->capacity;
  }
  ArenaTelemetry& t = ArenaTelemetry::Get();
  (reused ? t.chunks_reused : t.chunks_created)->Add(1);
  PublishGauges();
  return chunk;
}

void ArenaPool::Release(Chunk* chain, size_t used_bytes) {
  if (chain == nullptr) return;
  std::vector<Chunk*> to_free;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t chain_capacity = 0;
    Chunk* next = nullptr;
    for (Chunk* c = chain; c != nullptr; c = next) {
      next = c->next;
      c->next = nullptr;
      chain_capacity += c->capacity;
      size_t cls = ClassOf(c->capacity);
      bool retain = cls < free_lists_.size() &&
                    stats_.retained_bytes + c->capacity <=
                        options_.max_retained_bytes;
      if (retain) {
        c->next = free_lists_[cls];
        free_lists_[cls] = c;
        stats_.retained_bytes += c->capacity;
        ++stats_.chunks_recycled;
      } else {
        to_free.push_back(c);
        ++stats_.chunks_freed;
      }
    }
    stats_.outstanding_bytes -= chain_capacity;
    stats_.released_capacity_bytes += chain_capacity;
    stats_.released_used_bytes +=
        used_bytes < chain_capacity ? used_bytes : chain_capacity;
  }
  for (Chunk* c : to_free) DeleteChunk(c);
  PublishGauges();
}

void ArenaPool::Trim() {
  std::vector<Chunk*> to_free;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Chunk*& head : free_lists_) {
      Chunk* next = nullptr;
      for (Chunk* c = head; c != nullptr; c = next) {
        next = c->next;
        to_free.push_back(c);
        ++stats_.chunks_freed;
      }
      head = nullptr;
    }
    stats_.retained_bytes = 0;
  }
  for (Chunk* c : to_free) DeleteChunk(c);
  PublishGauges();
}

ArenaPoolStats ArenaPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ArenaPool::PublishGauges() const {
  // Only the global pool exports gauges: per-test pools would stomp the
  // shared names.
  if (this != &Global()) return;
  ArenaPoolStats s = stats();
  ArenaTelemetry& t = ArenaTelemetry::Get();
  t.retained_bytes->Set(static_cast<double>(s.retained_bytes));
  t.outstanding_bytes->Set(static_cast<double>(s.outstanding_bytes));
  t.fragmentation_pct->Set(s.fragmentation_pct());
}

// ---------------------------------------------------------------------------
// Arena

Arena::~Arena() { Clear(); }

Arena::Arena(Arena&& other) noexcept
    : pool_(other.pool_),
      chunks_(other.chunks_),
      cursor_(other.cursor_),
      limit_(other.limit_),
      next_chunk_bytes_(other.next_chunk_bytes_),
      direct_blocks_(std::move(other.direct_blocks_)),
      used_(other.used_),
      capacity_(other.capacity_) {
  other.chunks_ = nullptr;
  other.cursor_ = other.limit_ = nullptr;
  other.direct_blocks_.clear();
  other.used_ = other.capacity_ = 0;
}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    Clear();
    pool_ = other.pool_;
    chunks_ = other.chunks_;
    cursor_ = other.cursor_;
    limit_ = other.limit_;
    next_chunk_bytes_ = other.next_chunk_bytes_;
    direct_blocks_ = std::move(other.direct_blocks_);
    used_ = other.used_;
    capacity_ = other.capacity_;
    other.chunks_ = nullptr;
    other.cursor_ = other.limit_ = nullptr;
    other.direct_blocks_.clear();
    other.used_ = other.capacity_ = 0;
  }
  return *this;
}

void Arena::Clear() {
  if (pool_ != nullptr) {
    if (chunks_ != nullptr) {
      pool_->Release(chunks_, used_);
      chunks_ = nullptr;
    }
  } else {
    for (void* block : direct_blocks_) ::operator delete(block);
    direct_blocks_.clear();
  }
  cursor_ = limit_ = nullptr;
  next_chunk_bytes_ = 0;
  used_ = 0;
  capacity_ = 0;
}

void* Arena::Allocate(size_t bytes, size_t align) {
  if (bytes == 0) bytes = 1;
  if (pool_ == nullptr) {
    // Direct mode: one system allocation per request — the malloc
    // baseline. Byte accounting matches pooled mode exactly.
    void* block = ::operator new(bytes);
    direct_blocks_.push_back(block);
    used_ += bytes;
    capacity_ += bytes;
    return block;
  }
  uintptr_t p = reinterpret_cast<uintptr_t>(cursor_);
  uintptr_t aligned = (p + (align - 1)) & ~(uintptr_t{align} - 1);
  if (cursor_ == nullptr ||
      aligned + bytes > reinterpret_cast<uintptr_t>(limit_)) {
    void* out = AllocateSlow(bytes + align - 1);
    uintptr_t q = reinterpret_cast<uintptr_t>(out);
    uintptr_t qa = (q + (align - 1)) & ~(uintptr_t{align} - 1);
    used_ += bytes;
    return reinterpret_cast<void*>(qa);
  }
  cursor_ = reinterpret_cast<char*>(aligned + bytes);
  used_ += bytes;
  return reinterpret_cast<void*>(aligned);
}

void* Arena::AllocateSlow(size_t bytes) {
  size_t want = next_chunk_bytes_ == 0 ? pool_->options().min_chunk_bytes
                                       : next_chunk_bytes_;
  if (want < bytes) want = bytes;
  ArenaPool::Chunk* chunk = pool_->Acquire(want);
  chunk->next = chunks_;
  chunks_ = chunk;
  capacity_ += chunk->capacity;
  // Double the request up to the pool's max class so big documents
  // settle into a handful of large chunks.
  size_t doubled = chunk->capacity * 2;
  next_chunk_bytes_ = doubled > pool_->options().max_chunk_bytes
                          ? pool_->options().max_chunk_bytes
                          : doubled;
  cursor_ = chunk->data() + bytes;
  limit_ = chunk->data() + chunk->capacity;
  return chunk->data();
}

std::string_view Arena::CopyString(std::string_view s) {
  if (s.empty()) return std::string_view();
  char* dst = static_cast<char*>(Allocate(s.size(), 1));
  std::memcpy(dst, s.data(), s.size());
  return std::string_view(dst, s.size());
}

// ---------------------------------------------------------------------------
// Document arena mode

void SetDocumentArenaPooling(bool enabled) {
  g_document_arena_pooling.store(enabled, std::memory_order_relaxed);
}

bool DocumentArenaPoolingEnabled() {
  return g_document_arena_pooling.load(std::memory_order_relaxed);
}

ArenaPool* DocumentArenaPoolOrNull() {
  return DocumentArenaPoolingEnabled() ? &ArenaPool::Global() : nullptr;
}

}  // namespace partix::memory
