#ifndef PARTIX_XML_NAME_POOL_H_
#define PARTIX_XML_NAME_POOL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace partix::xml {

/// Identifier of an interned element/attribute name. Name identity is
/// pool-wide, so two nodes (possibly in different documents sharing the
/// pool) have equal names iff their NameIds are equal.
using NameId = uint32_t;

/// Interns element and attribute names so that node labels are one 32-bit
/// comparison instead of a string compare. A pool is typically shared by
/// every document of a database.
///
/// Thread-safe: Intern takes the writer lock (with a reader-locked fast
/// path for already-interned names), Find and size take reader locks, and
/// Get takes no lock at all. Get runs for every node a path step visits,
/// so morsel workers of one query would otherwise serialize on the reader
/// lock's shared counter. Concurrent morsel workers constructing elements
/// and parsing documents may intern against one shared pool without
/// external synchronization.
class NamePool {
 public:
  NamePool() = default;
  NamePool(const NamePool&) = delete;
  NamePool& operator=(const NamePool&) = delete;

  /// Returns the id for `name`, interning it if new.
  NameId Intern(std::string_view name);

  /// Returns the id for `name` if already interned.
  std::optional<NameId> Find(std::string_view name) const;

  /// Returns the name for `id`. Pre: id was returned by this pool's
  /// Intern or Find (or read from a node built against this pool). The
  /// returned view stays valid for the pool's lifetime (names are never
  /// removed and their storage is address-stable). Lock-free: see
  /// `blocks_`.
  std::string_view Get(NameId id) const;

  size_t size() const;

 private:
  mutable std::shared_mutex mu_;  // guards index_, size_ and block growth
  /// Name storage that never moves: ids fill blocks of doubling size (32
  /// of them cover every NameId). A block is allocated (under the writer
  /// lock) before any id in it is handed out, and is never reallocated,
  /// so Get reads it without a lock. Every id a caller holds came out of
  /// Intern/Find, or from a document whose nodes were built by one, so
  /// the block and the name were written before the caller could have
  /// the id. Other blocks may be written concurrently, but those are
  /// other objects.
  std::array<std::unique_ptr<std::string[]>, 32> blocks_;
  size_t size_ = 0;
  std::unordered_map<std::string_view, NameId> index_;
};

}  // namespace partix::xml

#endif  // PARTIX_XML_NAME_POOL_H_
