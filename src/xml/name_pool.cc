#include "xml/name_pool.h"

#include <bit>
#include <mutex>
#include <utility>

namespace partix::xml {

namespace {

/// Names in the first block; block k holds kFirstBlock << k names.
constexpr unsigned kFirstBlockBits = 6;
constexpr uint64_t kFirstBlock = uint64_t{1} << kFirstBlockBits;

/// Block and offset of `id` (ids fill the blocks in order).
std::pair<size_t, size_t> Locate(NameId id) {
  // Shifting by the first block's size makes block k start at
  // 2^(k + kFirstBlockBits): the block is the position of the top bit.
  const uint64_t v = uint64_t{id} + kFirstBlock;
  const size_t block = std::bit_width(v) - 1 - kFirstBlockBits;
  return {block, v - (kFirstBlock << block)};
}

}  // namespace

NameId NamePool::Intern(std::string_view name) {
  {
    // Fast path: most interns hit an existing name (every node of every
    // parsed document goes through here), so probe under the reader lock
    // first and let concurrent interns of known names proceed in parallel.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-check: another thread may have interned the name between locks.
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const NameId id = static_cast<NameId>(size_);
  const auto [block, offset] = Locate(id);
  if (offset == 0) {
    blocks_[block] = std::make_unique<std::string[]>(kFirstBlock << block);
  }
  std::string& slot = blocks_[block][offset];
  slot.assign(name);
  ++size_;
  index_.emplace(std::string_view(slot), id);
  return id;
}

std::optional<NameId> NamePool::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::string_view NamePool::Get(NameId id) const {
  const auto [block, offset] = Locate(id);
  return blocks_[block][offset];
}

size_t NamePool::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return size_;
}

}  // namespace partix::xml
