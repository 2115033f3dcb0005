#ifndef PARTIX_XML_DOCUMENT_H_
#define PARTIX_XML_DOCUMENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "memory/arena.h"
#include "xml/name_pool.h"

namespace partix::xml {

/// Index of a node within its document's arena. Node ids are assigned in
/// creation order; for documents built top-down (parser, generators,
/// projection) this coincides with document (pre-) order.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNullNode = 0xFFFFFFFFu;

/// Sentinel for the virtual *document node* that parents the root element
/// (what collection()/doc() return in XQuery). Only the query layer uses
/// it; Document navigation APIs never accept it.
inline constexpr NodeId kDocumentNode = 0xFFFFFFFEu;

/// Node kinds of the PartiX data model (paper §3.1): an XML data tree has
/// element nodes (labels in L), attribute nodes (labels in A), and leaf
/// value nodes (values in D). Mixed content is not supported: a text node
/// has no siblings.
enum class NodeKind : uint8_t {
  kElement = 0,
  kAttribute = 1,
  kText = 2,
};

/// Structural label of a node in the XISS/R interval scheme. Labels are a
/// pure function of document structure, so re-parsing a serialized document
/// always reproduces them:
///
///   descendant(a, b)  iff  pre(a) < pre(b) <= sub_max(a)
///   child(a, b)       iff  descendant(a, b) && level(b) == level(a) + 1
///   following(a, b)   iff  pre(b) > sub_max(a)
///
/// XISS's 0-based postorder rank is implied, not stored:
/// post = sub_max - level + 1. Because descendants occupy the contiguous
/// preorder interval (pre, sub_max], axis steps become binary-searchable
/// range scans over per-name sorted preorder lists instead of subtree
/// walks.
struct NodeLabel {
  uint32_t pre = 0;      ///< preorder rank, 0-based; the root has pre 0
  uint32_t sub_max = 0;  ///< largest preorder rank inside the subtree
  uint32_t level = 0;    ///< depth; the root is level 1
};

/// An XML document: an arena-backed ordered labeled tree Δ = ⟨t, ℓ, Ψ⟩.
///
/// Nodes are created top-down via the Append* builder methods and addressed
/// by NodeId. Attribute nodes live in the child list of their owner element
/// (by convention before any element/text children) and carry their value
/// inline, which matches the paper's "attribute node with a single value
/// child" up to one indirection.
class Document {
 public:
  /// Creates an empty document. `name` identifies the document within its
  /// collection (the "document URI"). Text payloads land in an arena
  /// drawn from the process-wide ArenaPool (or, when document-arena
  /// pooling is disabled, in per-text direct allocations — the legacy
  /// malloc behavior). See memory::SetDocumentArenaPooling.
  Document(std::shared_ptr<NamePool> pool, std::string name);

  /// Like above but with an explicit arena pool (nullptr = direct
  /// mode). Tests and benches pin the mode per document with this.
  Document(std::shared_ptr<NamePool> pool, std::string name,
           memory::ArenaPool* arena_pool);

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  // ---- Builder API (top-down construction) ----

  /// Creates the root element. Pre: document is empty.
  NodeId CreateRoot(std::string_view element_name);

  /// Appends an element child under `parent`. Pre: parent is an element.
  NodeId AppendElement(NodeId parent, std::string_view name);

  /// Appends an attribute to `parent`. Pre: parent is an element.
  NodeId AppendAttribute(NodeId parent, std::string_view name,
                         std::string_view value);

  /// Appends a text child under `parent`. Pre: parent is an element.
  NodeId AppendText(NodeId parent, std::string_view value);

  /// Capacity hint from the byte size of the serialized input; the
  /// parser calls this once so node/text vectors and the text arena
  /// grow O(1) times instead of O(log n).
  void ReserveForInputSize(size_t input_bytes);

  /// Copies the subtree rooted at `src_root` in `src` under `dst_parent`
  /// (or as this document's root if `dst_parent` is kNullNode). `skip`
  /// (optional) is consulted for every source node; returning true prunes
  /// that node and its subtree. Copies in document order. Returns the id
  /// of the copied root, or kNullNode if the root itself was skipped.
  NodeId CopySubtree(const Document& src, NodeId src_root, NodeId dst_parent,
                     const std::function<bool(NodeId)>& skip = nullptr);

  // ---- Navigation ----

  bool empty() const { return nodes_.empty(); }
  NodeId root() const { return nodes_.empty() ? kNullNode : 0; }
  size_t node_count() const { return nodes_.size(); }

  NodeKind kind(NodeId n) const { return nodes_[n].kind; }
  NameId name_id(NodeId n) const { return nodes_[n].name; }
  std::string_view name(NodeId n) const { return pool_->Get(nodes_[n].name); }

  /// Value of a text or attribute node. Pre: kind is kText or kAttribute.
  std::string_view value(NodeId n) const {
    const TextRef& t = texts_[nodes_[n].value];
    return std::string_view(t.data, t.size);
  }

  NodeId parent(NodeId n) const { return nodes_[n].parent; }
  NodeId first_child(NodeId n) const { return nodes_[n].first_child; }
  NodeId next_sibling(NodeId n) const { return nodes_[n].next_sibling; }

  /// Element children of `n` (attributes and text excluded).
  std::vector<NodeId> ElementChildren(NodeId n) const;

  /// Element children of `n` with the given name.
  std::vector<NodeId> ElementChildren(NodeId n, NameId name) const;

  /// Attribute nodes of `n`.
  std::vector<NodeId> Attributes(NodeId n) const;

  /// The attribute of `n` named `name`, or kNullNode.
  NodeId FindAttribute(NodeId n, NameId name) const;

  /// Concatenation of all descendant text values (the typed string value of
  /// the node). For attribute/text nodes this is just their value.
  std::string StringValue(NodeId n) const;

  /// True if `n` has no element or text children ("simple content").
  bool HasSimpleContent(NodeId n) const;

  /// Visits `n` and all descendants in document order.
  void VisitSubtree(NodeId n, const std::function<void(NodeId)>& fn) const;

  // ---- Structural labels (XISS/R intervals) ----

  /// Computes the (pre, sub_max, level) label of every node, plus the
  /// per-name sorted preorder occurrence runs that back label-range axis
  /// joins. Called by the parser after a successful parse
  /// and by long-lived builders (generators, reconstruction) before the
  /// document is frozen behind a DocumentPtr; sealing after that point
  /// would race with concurrent readers. Idempotent; any later builder
  /// mutation discards the labels.
  void SealLabels();

  /// True once SealLabels() has run (and no mutation followed). Query
  /// layers must fall back to navigation when labels are absent.
  bool has_labels() const { return !labels_.empty(); }

  /// Structural label of `n`. Pre: has_labels().
  const NodeLabel& label(NodeId n) const { return labels_[n]; }

  /// Node with preorder rank `pre`. Pre: has_labels() && pre < node_count().
  NodeId NodeAtPre(uint32_t pre) const { return pre_to_node_[pre]; }

  /// Sorted preorder ranks of element/attribute nodes named `name`;
  /// empty if the name does not occur. O(log distinct names).
  /// Pre: has_labels().
  std::span<const uint32_t> NameOccurrences(NameId name) const;

  /// True if `anc` is a strict ancestor of `desc`. O(1) via labels when
  /// sealed, parent-chain walk otherwise.
  bool IsAncestor(NodeId anc, NodeId desc) const;

  // ---- Identity / metadata ----

  const std::string& doc_name() const { return doc_name_; }
  void set_doc_name(std::string name) { doc_name_ = std::move(name); }

  /// Out-of-band document properties (like eXist's resource metadata):
  /// key/value strings attached to the document, not part of its content.
  /// PartiX ships vertical-fragment reconstruction IDs this way so they
  /// never appear in query results. Stores persist them alongside the
  /// serialized XML.
  void SetMetadata(const std::string& key, std::string value) {
    metadata_[key] = std::move(value);
  }
  const std::map<std::string, std::string>& metadata() const {
    return metadata_;
  }
  /// Returns the value for `key`, or an empty string.
  std::string GetMetadata(const std::string& key) const {
    auto it = metadata_.find(key);
    return it == metadata_.end() ? std::string() : it->second;
  }

  const std::shared_ptr<NamePool>& pool() const { return pool_; }

  /// Heap bytes the document holds: the object itself, the capacity of
  /// every container it owns, heap-allocated strings, metadata entries
  /// and the text bytes in its arena. Deterministic and identical in
  /// pooled and direct arena mode, so cache eviction never depends on
  /// the mode or on pool history; it leaves out arena chunk slack and
  /// malloc headers (docs/memory.md).
  size_t ApproxBytes() const;

 private:
  struct NodeData {
    NodeKind kind;
    NameId name;          // element/attribute label; 0 for text nodes
    uint32_t value;       // index into texts_ for text/attribute nodes
    NodeId parent;
    NodeId first_child;
    NodeId last_child;
    NodeId next_sibling;
  };

  /// A text payload in the document's arena. 16 bytes vs. the 32-byte
  /// std::string header this replaced; the characters live in pooled
  /// arena chunks recycled across parses.
  struct TextRef {
    const char* data = nullptr;
    uint32_t size = 0;
  };

  /// Where one name's run starts in occ_pre_; the run ends where the
  /// next entry's starts (or at occ_pre_.size()).
  struct NameRun {
    NameId name;
    uint32_t start;
  };

  NodeId NewNode(NodeKind kind, NameId name, uint32_t value, NodeId parent);
  uint32_t AddText(std::string_view value);
  void ClearLabels();

  std::shared_ptr<NamePool> pool_;
  std::string doc_name_;
  std::map<std::string, std::string> metadata_;
  memory::Arena arena_;  // text payload storage; outlives texts_ refs
  std::vector<NodeData> nodes_;
  std::vector<TextRef> texts_;

  // Structural labels, indexed by NodeId; empty until SealLabels().
  std::vector<NodeLabel> labels_;
  std::vector<NodeId> pre_to_node_;
  // Preorder ranks of element/attribute nodes grouped by name, ascending
  // within each name, and one run per distinct name sorted by NameId.
  std::vector<uint32_t> occ_pre_;
  std::vector<NameRun> occ_runs_;
};

/// Shared ownership alias used throughout the engine: documents are
/// immutable once built and freely shared between collections, fragments,
/// caches, and query results.
using DocumentPtr = std::shared_ptr<const Document>;

}  // namespace partix::xml

#endif  // PARTIX_XML_DOCUMENT_H_
