#include "xml/document.h"

#include <algorithm>
#include <cassert>

namespace partix::xml {

namespace {

/// Heap bytes behind `s`: its buffer once it outgrows the inline
/// (small-string) storage that an empty string's capacity measures.
size_t HeapBytes(const std::string& s) {
  const size_t inline_capacity = std::string().capacity();
  return s.capacity() > inline_capacity ? s.capacity() + 1 : 0;
}

template <typename T>
size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

Document::Document(std::shared_ptr<NamePool> pool, std::string name)
    : Document(std::move(pool), std::move(name),
               memory::DocumentArenaPoolOrNull()) {}

Document::Document(std::shared_ptr<NamePool> pool, std::string name,
                   memory::ArenaPool* arena_pool)
    : pool_(std::move(pool)),
      doc_name_(std::move(name)),
      arena_(arena_pool) {
  assert(pool_ != nullptr);
}

uint32_t Document::AddText(std::string_view value) {
  uint32_t value_idx = static_cast<uint32_t>(texts_.size());
  std::string_view stored = arena_.CopyString(value);
  texts_.push_back(TextRef{stored.data(), static_cast<uint32_t>(stored.size())});
  return value_idx;
}

void Document::ReserveForInputSize(size_t input_bytes) {
  // A serialized node ("<a>v</a>") runs ~20-60 bytes; reserve
  // conservatively so over-reservation never dominates small inputs.
  size_t node_hint = input_bytes / 32 + 8;
  nodes_.reserve(node_hint);
  texts_.reserve(node_hint / 2 + 4);
}

NodeId Document::NewNode(NodeKind kind, NameId name, uint32_t value,
                         NodeId parent) {
  if (!labels_.empty()) ClearLabels();
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeData{kind, name, value, parent, kNullNode, kNullNode,
                            kNullNode});
  if (parent != kNullNode) {
    NodeData& p = nodes_[parent];
    if (p.first_child == kNullNode) {
      p.first_child = id;
    } else {
      nodes_[p.last_child].next_sibling = id;
    }
    p.last_child = id;
  }
  return id;
}

NodeId Document::CreateRoot(std::string_view element_name) {
  assert(nodes_.empty());
  return NewNode(NodeKind::kElement, pool_->Intern(element_name), 0,
                 kNullNode);
}

NodeId Document::AppendElement(NodeId parent, std::string_view name) {
  assert(parent < nodes_.size() &&
         nodes_[parent].kind == NodeKind::kElement);
  return NewNode(NodeKind::kElement, pool_->Intern(name), 0, parent);
}

NodeId Document::AppendAttribute(NodeId parent, std::string_view name,
                                 std::string_view value) {
  assert(parent < nodes_.size() &&
         nodes_[parent].kind == NodeKind::kElement);
  return NewNode(NodeKind::kAttribute, pool_->Intern(name), AddText(value),
                 parent);
}

NodeId Document::AppendText(NodeId parent, std::string_view value) {
  assert(parent < nodes_.size() &&
         nodes_[parent].kind == NodeKind::kElement);
  return NewNode(NodeKind::kText, 0, AddText(value), parent);
}

NodeId Document::CopySubtree(const Document& src, NodeId src_root,
                             NodeId dst_parent,
                             const std::function<bool(NodeId)>& skip) {
  if (skip && skip(src_root)) return kNullNode;
  NodeId copied;
  switch (src.kind(src_root)) {
    case NodeKind::kElement:
      copied = dst_parent == kNullNode
                   ? CreateRoot(src.name(src_root))
                   : AppendElement(dst_parent, src.name(src_root));
      break;
    case NodeKind::kAttribute:
      assert(dst_parent != kNullNode);
      copied = AppendAttribute(dst_parent, src.name(src_root),
                               src.value(src_root));
      break;
    case NodeKind::kText:
      assert(dst_parent != kNullNode);
      copied = AppendText(dst_parent, src.value(src_root));
      break;
    default:
      return kNullNode;
  }
  if (src.kind(src_root) == NodeKind::kElement) {
    for (NodeId c = src.first_child(src_root); c != kNullNode;
         c = src.next_sibling(c)) {
      CopySubtree(src, c, copied, skip);
    }
  }
  return copied;
}

std::vector<NodeId> Document::ElementChildren(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    if (kind(c) == NodeKind::kElement) out.push_back(c);
  }
  return out;
}

std::vector<NodeId> Document::ElementChildren(NodeId n, NameId name) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    if (kind(c) == NodeKind::kElement && name_id(c) == name) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<NodeId> Document::Attributes(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    if (kind(c) == NodeKind::kAttribute) out.push_back(c);
  }
  return out;
}

NodeId Document::FindAttribute(NodeId n, NameId name) const {
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    if (kind(c) == NodeKind::kAttribute && name_id(c) == name) return c;
  }
  return kNullNode;
}

std::string Document::StringValue(NodeId n) const {
  if (kind(n) != NodeKind::kElement) return std::string(value(n));
  std::string out;
  VisitSubtree(n, [&](NodeId d) {
    if (kind(d) == NodeKind::kText) out.append(value(d));
  });
  return out;
}

bool Document::HasSimpleContent(NodeId n) const {
  if (kind(n) != NodeKind::kElement) return true;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    if (kind(c) == NodeKind::kElement) return false;
  }
  return true;
}

void Document::VisitSubtree(NodeId n,
                            const std::function<void(NodeId)>& fn) const {
  fn(n);
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    VisitSubtree(c, fn);
  }
}

size_t Document::ApproxBytes() const {
  // arena_.used_bytes() counts the text characters, not the chunks that
  // hold them: it is identical in pooled and direct mode, and a pooled
  // chunk's capacity depends on which idle chunk the pool handed out, so
  // charging it would make cache eviction depend on pool history.
  size_t bytes = sizeof(Document) + arena_.used_bytes();
  bytes += HeapBytes(doc_name_);
  // A red-black tree node: colour word and three links, then the entry.
  constexpr size_t kMapNodeHeader = 4 * sizeof(void*);
  for (const auto& entry : metadata_) {
    bytes += kMapNodeHeader + sizeof(entry) + HeapBytes(entry.first) +
             HeapBytes(entry.second);
  }
  bytes += CapacityBytes(nodes_) + CapacityBytes(texts_) +
           CapacityBytes(labels_) + CapacityBytes(pre_to_node_) +
           CapacityBytes(occ_pre_) + CapacityBytes(occ_runs_);
  return bytes;
}

void Document::ClearLabels() {
  labels_.clear();
  pre_to_node_.clear();
  occ_pre_.clear();
  occ_runs_.clear();
}

void Document::SealLabels() {
  if (!labels_.empty() || nodes_.empty()) return;
  const size_t n = nodes_.size();
  labels_.resize(n);
  pre_to_node_.resize(n);

  // Occurrence runs by counting, not by sorting: NameIds are dense pool
  // indexes, so count each id in the document's [lo, hi] range, give
  // each present id its run start (a prefix sum), and let the preorder
  // walk below fill every run in ascending order. `slot[id - lo]` is the
  // run's next free slot.
  NameId lo = ~NameId{0};
  NameId hi = 0;
  for (const NodeData& d : nodes_) {
    if (d.kind == NodeKind::kText) continue;
    lo = std::min(lo, d.name);
    hi = std::max(hi, d.name);
  }
  std::vector<uint32_t> slot(hi - lo + 1, 0);
  size_t named = 0;
  size_t distinct = 0;
  for (const NodeData& d : nodes_) {
    if (d.kind == NodeKind::kText) continue;
    if (slot[d.name - lo]++ == 0) ++distinct;
    ++named;
  }
  occ_pre_.resize(named);
  occ_runs_.reserve(distinct);
  uint32_t start = 0;
  for (size_t i = 0; i < slot.size(); ++i) {
    if (slot[i] == 0) continue;
    occ_runs_.push_back(NameRun{static_cast<NameId>(lo + i), start});
    start += slot[i];
    slot[i] = occ_runs_.back().start;
  }

  // One iterative DFS assigns everything: pre/level on entry, sub_max on
  // exit. An explicit stack keeps arbitrarily deep reconstruction outputs
  // safe (the parser caps depth, builders do not).
  struct Frame {
    NodeId node;
    NodeId next_child;  // next child to descend into
  };
  std::vector<Frame> stack;
  uint32_t next_pre = 0;

  auto enter = [&](NodeId id, uint32_t level) {
    NodeLabel& l = labels_[id];
    l.pre = next_pre;
    l.level = level;
    pre_to_node_[next_pre] = id;
    ++next_pre;
    if (nodes_[id].kind != NodeKind::kText) {
      occ_pre_[slot[nodes_[id].name - lo]++] = l.pre;
    }
    stack.push_back(Frame{id, nodes_[id].first_child});
  };

  enter(root(), 1);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child != kNullNode) {
      NodeId child = top.next_child;
      top.next_child = nodes_[child].next_sibling;
      // `top` may dangle once enter() pushes; it is not used after.
      enter(child, labels_[top.node].level + 1);
    } else {
      labels_[top.node].sub_max = next_pre - 1;
      stack.pop_back();
    }
  }
}

std::span<const uint32_t> Document::NameOccurrences(NameId name) const {
  const auto run = std::lower_bound(
      occ_runs_.begin(), occ_runs_.end(), name,
      [](const NameRun& r, NameId id) { return r.name < id; });
  if (run == occ_runs_.end() || run->name != name) return {};
  const uint32_t end = run + 1 == occ_runs_.end()
                           ? static_cast<uint32_t>(occ_pre_.size())
                           : (run + 1)->start;
  return std::span<const uint32_t>(occ_pre_).subspan(run->start,
                                                     end - run->start);
}

bool Document::IsAncestor(NodeId anc, NodeId desc) const {
  if (anc == desc) return false;
  if (!labels_.empty()) {
    const NodeLabel& a = labels_[anc];
    const NodeLabel& d = labels_[desc];
    return a.pre < d.pre && d.pre <= a.sub_max;
  }
  for (NodeId p = parent(desc); p != kNullNode; p = parent(p)) {
    if (p == anc) return true;
  }
  return false;
}

}  // namespace partix::xml
