#include "fragmentation/algebra.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "xpath/eval.h"

namespace partix::frag {

using xml::Document;
using xml::DocumentPtr;
using xml::kNullNode;
using xml::NodeId;
using xml::NodeKind;

xml::Collection Select(const xml::Collection& c,
                       const xpath::Conjunction& mu,
                       const std::string& result_name) {
  xml::Collection out(result_name, c.schema(), c.root_path(), c.kind());
  for (const DocumentPtr& doc : c.docs()) {
    if (mu.Eval(*doc)) {
      // Result of Add can only fail for empty docs / SD overflow; selection
      // over an MD collection cannot hit either.
      (void)out.Add(doc);
    }
  }
  return out;
}

Result<DocumentPtr> ProjectDocument(const Document& src, const xpath::Path& p,
                                    const std::vector<xpath::Path>& gamma,
                                    const std::string& result_doc_name) {
  std::vector<NodeId> selected = xpath::EvalPath(src, p);
  if (selected.empty()) return DocumentPtr(nullptr);
  if (selected.size() > 1) {
    return Status::FailedPrecondition(
        "projection path " + p.ToString() + " selects " +
        std::to_string(selected.size()) + " nodes in document '" +
        src.doc_name() +
        "'; vertical fragments require a single node (use a positional "
        "index)");
  }
  NodeId projected = selected[0];

  // Nodes whose subtrees the prune criterion removes.
  std::unordered_set<NodeId> pruned_roots;
  for (const xpath::Path& e : gamma) {
    for (NodeId n : xpath::EvalPath(src, e)) pruned_roots.insert(n);
  }

  auto skip = [&pruned_roots](NodeId n) { return pruned_roots.count(n) != 0; };
  auto doc = std::make_shared<Document>(src.pool(), result_doc_name);
  if (doc->CopySubtree(src, projected, kNullNode, skip) == kNullNode) {
    // The projected root itself was pruned: an empty fragment instance.
    return DocumentPtr(nullptr);
  }
  FragmentOrigins origins = OriginsAt(src, projected);
  AddSubtreeOrigins(src, projected, skip, &origins);
  EncodeOrigins(origins, doc.get());
  doc->SealLabels();
  return DocumentPtr(doc);
}

Result<xml::Collection> UnionCollections(
    const std::vector<xml::Collection>& fragments,
    const std::string& result_name) {
  if (fragments.empty()) {
    return Status::InvalidArgument("union of zero fragment collections");
  }
  xml::Collection out(result_name, fragments[0].schema(),
                      fragments[0].root_path(), fragments[0].kind());
  std::set<std::string> seen;
  for (const xml::Collection& frag : fragments) {
    for (const DocumentPtr& doc : frag.docs()) {
      if (!seen.insert(doc->doc_name()).second) {
        return Status::FailedPrecondition(
            "document '" + doc->doc_name() +
            "' appears in more than one fragment (disjointness violation)");
      }
      PARTIX_RETURN_IF_ERROR(out.Add(doc));
    }
  }
  return out;
}

namespace {

/// Flat description of one source node gathered from the fragments.
struct NodeInfo {
  NodeKind kind = NodeKind::kElement;
  std::string name;
  std::string value;
  NodeId parent = kNullNode;
  bool scaffold = false;  // re-created ancestor, not fragment data
};

/// What the merge relies on: the runs cover exactly the document's nodes,
/// and the ids of the ancestor chain, then of the runs, increase and stay
/// below the NodeId sentinels.
Status CheckOrigins(const Document& doc, const FragmentOrigins& origins) {
  uint64_t next = 0;  // the smallest id the next entry may carry
  uint64_t covered = 0;
  bool increasing = true;
  for (const auto& [id, name] : origins.ancestors) {
    increasing = increasing && id >= next;
    next = uint64_t{id} + 1;
  }
  for (const OriginRun& run : origins.runs) {
    increasing = increasing && run.length > 0 && run.first >= next;
    next = uint64_t{run.first} + run.length;
    covered += run.length;
  }
  if (!increasing || next > xml::kDocumentNode) {
    return Status::Corruption("reconstruction IDs of '" + doc.doc_name() +
                              "' do not increase");
  }
  if (covered != doc.node_count()) {
    return Status::Corruption(
        "reconstruction IDs of '" + doc.doc_name() + "' cover " +
        std::to_string(covered) + " of its " +
        std::to_string(doc.node_count()) + " nodes");
  }
  return Status::Ok();
}

}  // namespace

Result<DocumentPtr> JoinFragmentsValueJoin(
    const std::vector<DocumentPtr>& fragment_docs,
    std::shared_ptr<xml::NamePool> pool) {
  if (fragment_docs.empty()) {
    return Status::InvalidArgument("join of zero fragment documents");
  }
  // Gather the node table keyed by source node id. std::map iteration
  // order (increasing id) is pre-order of the source document, so parents
  // precede children when rebuilding.
  std::string source;
  std::map<NodeId, NodeInfo> table;
  for (const DocumentPtr& frag : fragment_docs) {
    PARTIX_ASSIGN_OR_RETURN(FragmentOrigins origins, DecodeOrigins(*frag));
    if (origins.source.empty()) {
      return Status::FailedPrecondition(
          "fragment document '" + frag->doc_name() +
          "' carries no reconstruction IDs");
    }
    if (source.empty()) source = origins.source;
    if (origins.source != source) {
      return Status::InvalidArgument(
          "fragments from different source documents: '" + source +
          "' vs '" + origins.source + "'");
    }
    if (frag->empty()) continue;
    PARTIX_RETURN_IF_ERROR(CheckOrigins(*frag, origins));
    // Ancestor scaffolding: id -> element name chain.
    const auto& ancestors = origins.ancestors;
    for (size_t i = 0; i < ancestors.size(); ++i) {
      auto [id, name] = ancestors[i];
      auto it = table.find(id);
      if (it == table.end()) {
        NodeInfo info;
        info.kind = NodeKind::kElement;
        info.name = name;
        info.parent = i == 0 ? kNullNode : ancestors[i - 1].first;
        info.scaffold = true;
        table.emplace(id, std::move(info));
      }
    }
    std::vector<NodeId> ids;  // origin id of each node, from the runs
    std::vector<bool> scaffold;
    for (const OriginRun& run : origins.runs) {
      for (uint32_t k = 0; k < run.length; ++k) {
        ids.push_back(run.first + k);
        scaffold.push_back(run.scaffold);
      }
    }
    const NodeId root_parent =
        ancestors.empty() ? kNullNode : ancestors.back().first;
    for (NodeId n = 0; n < frag->node_count(); ++n) {
      NodeInfo info;
      info.kind = frag->kind(n);
      if (info.kind != NodeKind::kText) {
        info.name = std::string(frag->name(n));
      }
      if (info.kind != NodeKind::kElement) {
        info.value = std::string(frag->value(n));
      }
      info.parent = n == frag->root() ? root_parent : ids[frag->parent(n)];
      info.scaffold = scaffold[n];
      auto [it, inserted] = table.emplace(ids[n], info);
      if (!inserted) {
        if (it->second.scaffold) {
          // A real fragment node overrides a scaffold entry (a scaffold
          // duplicate keeps the existing one).
          if (!info.scaffold) it->second = std::move(info);
        } else if (!info.scaffold) {
          return Status::FailedPrecondition(
              "source node " + std::to_string(ids[n]) + " of '" + source +
              "' appears in more than one fragment (disjointness "
              "violation)");
        }
      }
    }
  }

  // Rebuild top-down. Source ids are pre-order, so a std::map walk visits
  // parents before children; sibling order is restored because children of
  // one parent appear in increasing id order.
  auto doc = std::make_shared<Document>(std::move(pool), source);
  std::map<NodeId, NodeId> rebuilt;  // source id -> new id
  for (const auto& [src_id, info] : table) {
    NodeId parent_new = kNullNode;
    if (info.parent != kNullNode) {
      auto it = rebuilt.find(info.parent);
      if (it == rebuilt.end()) {
        return Status::Corruption(
            "parent of source node " + std::to_string(src_id) +
            " missing from all fragments of '" + source + "'");
      }
      parent_new = it->second;
    } else if (!doc->empty()) {
      return Status::Corruption("multiple roots while reconstructing '" +
                                source + "'");
    }
    if (info.parent == kNullNode && info.kind != NodeKind::kElement) {
      return Status::Corruption("non-element root while reconstructing '" +
                                source + "'");
    }
    NodeId created = kNullNode;
    switch (info.kind) {
      case NodeKind::kElement:
        created = info.parent == kNullNode
                      ? doc->CreateRoot(info.name)
                      : doc->AppendElement(parent_new, info.name);
        break;
      case NodeKind::kAttribute:
        created = doc->AppendAttribute(parent_new, info.name, info.value);
        break;
      case NodeKind::kText:
        created = doc->AppendText(parent_new, info.value);
        break;
    }
    rebuilt.emplace(src_id, created);
  }
  if (doc->empty()) {
    return Status::Corruption("reconstruction of '" + source +
                              "' produced no nodes");
  }
  return DocumentPtr(doc);
}

namespace {

/// A fragment's claim on one source node: an entry of its ancestor chain
/// (`node` is kNullNode) or one of its nodes.
struct Claim {
  NodeId id;
  size_t fragment;
  size_t chain;  // index into the ancestor chain
  NodeId node;
  bool scaffold;
};

}  // namespace

Result<DocumentPtr> JoinFragments(const std::vector<JoinInput>& fragments,
                                  std::shared_ptr<xml::NamePool> pool) {
  if (fragments.empty()) {
    return Status::InvalidArgument("join of zero fragment documents");
  }
  const std::string& source = fragments[0].origins.source;
  // The node each run starts at, per fragment.
  std::vector<std::vector<NodeId>> starts(fragments.size());
  for (size_t f = 0; f < fragments.size(); ++f) {
    const JoinInput& fragment = fragments[f];
    if (fragment.origins.source.empty()) {
      return Status::FailedPrecondition(
          "fragment document '" + fragment.doc->doc_name() +
          "' carries no reconstruction IDs");
    }
    if (fragment.origins.source != source) {
      return Status::InvalidArgument(
          "fragments from different source documents: '" + source +
          "' vs '" + fragment.origins.source + "'");
    }
    if (fragment.doc->empty()) continue;
    PARTIX_RETURN_IF_ERROR(CheckOrigins(*fragment.doc, fragment.origins));
    NodeId start = 0;
    for (const OriginRun& run : fragment.origins.runs) {
      starts[f].push_back(start);
      start += run.length;
    }
  }
  // The claim fragment `f` makes through its node `n`.
  auto node_claim = [&](size_t f, NodeId n) {
    const std::vector<NodeId>& s = starts[f];
    const size_t r = std::upper_bound(s.begin(), s.end(), n) - s.begin() - 1;
    const OriginRun& run = fragments[f].origins.runs[r];
    return Claim{run.first + (n - s[r]), f, 0, n, run.scaffold};
  };
  // The claim of fragment `f`'s ancestor chain entry `i`, or of its root
  // node past the end of the chain.
  auto chain_claim = [&](size_t f, size_t i) {
    const auto& chain = fragments[f].origins.ancestors;
    return i < chain.size() ? Claim{chain[i].first, f, i, kNullNode, true}
                            : node_claim(f, 0);
  };
  std::vector<Claim> roots;
  for (size_t f = 0; f < fragments.size(); ++f) {
    if (fragments[f].doc->empty()) continue;
    roots.push_back(chain_claim(f, 0));
    if (roots.back().id != roots[0].id) {
      return Status::Corruption("multiple roots while reconstructing '" +
                                source + "'");
    }
  }
  if (roots.empty()) {
    return Status::Corruption("reconstruction of '" + source +
                              "' produced no nodes");
  }

  // Top-down over groups of claims on one source node. Ids are source
  // preorder positions, so sorting a node's children by id restores
  // source order, including subtrees pruned from the middle of a parent
  // and FragMode2 instances spread over several fragments. A node only
  // one fragment claims has all its descendants in that fragment and is
  // copied with its subtree at once. Siblings are pushed in reverse, so
  // the document is built in preorder.
  auto doc = std::make_shared<Document>(std::move(pool), source);
  struct Pending {
    std::vector<Claim> claims;
    NodeId parent;  // kNullNode for the root
  };
  std::vector<Pending> stack;
  stack.push_back(Pending{std::move(roots), kNullNode});
  while (!stack.empty()) {
    Pending pending = std::move(stack.back());
    stack.pop_back();
    const std::vector<Claim>& claims = pending.claims;
    // A real fragment node wins over scaffolding; two real claimants
    // violate disjointness.
    const Claim* winner = &claims[0];
    for (const Claim& c : claims) {
      if (&c != winner && !c.scaffold && !winner->scaffold) {
        return Status::FailedPrecondition(
            "source node " + std::to_string(c.id) + " of '" + source +
            "' appears in more than one fragment (disjointness "
            "violation)");
      }
      if (winner->scaffold && !c.scaffold) winner = &c;
    }
    const Document& from = *fragments[winner->fragment].doc;
    const NodeKind kind = winner->node == kNullNode
                              ? NodeKind::kElement
                              : from.kind(winner->node);
    if (pending.parent == kNullNode && kind != NodeKind::kElement) {
      return Status::Corruption("non-element root while reconstructing '" +
                                source + "'");
    }
    if (claims.size() == 1 && winner->node != kNullNode) {
      doc->CopySubtree(from, winner->node, pending.parent);
      continue;
    }
    const std::string_view name =
        winner->node == kNullNode
            ? std::string_view(fragments[winner->fragment]
                                   .origins.ancestors[winner->chain]
                                   .second)
            : from.name(winner->node);
    NodeId built;
    if (kind == NodeKind::kElement) {
      built = pending.parent == kNullNode
                  ? doc->CreateRoot(name)
                  : doc->AppendElement(pending.parent, name);
    } else if (kind == NodeKind::kAttribute) {
      built = doc->AppendAttribute(pending.parent, name,
                                   from.value(winner->node));
    } else {
      built = doc->AppendText(pending.parent, from.value(winner->node));
    }

    std::vector<Claim> children;
    for (const Claim& c : claims) {
      if (c.node == kNullNode) {
        children.push_back(chain_claim(c.fragment, c.chain + 1));
        continue;
      }
      const Document& d = *fragments[c.fragment].doc;
      for (NodeId ch = d.first_child(c.node); ch != kNullNode;
           ch = d.next_sibling(ch)) {
        children.push_back(node_claim(c.fragment, ch));
      }
    }
    if (children.empty()) continue;
    if (kind != NodeKind::kElement) {
      return Status::Corruption("source node " + std::to_string(winner->id) +
                                " of '" + source +
                                "' is an element in one fragment only");
    }
    std::stable_sort(
        children.begin(), children.end(),
        [](const Claim& a, const Claim& b) { return a.id < b.id; });
    for (size_t end = children.size(); end > 0;) {
      size_t begin = end - 1;
      while (begin > 0 && children[begin - 1].id == children[end - 1].id) {
        --begin;
      }
      stack.push_back(Pending{{children.begin() + begin,
                               children.begin() + end},
                              built});
      end = begin;
    }
  }
  doc->SealLabels();
  return DocumentPtr(doc);
}

Result<DocumentPtr> JoinFragments(
    const std::vector<DocumentPtr>& fragment_docs,
    std::shared_ptr<xml::NamePool> pool) {
  std::vector<JoinInput> fragments;
  fragments.reserve(fragment_docs.size());
  for (const DocumentPtr& doc : fragment_docs) {
    PARTIX_ASSIGN_OR_RETURN(FragmentOrigins origins, DecodeOrigins(*doc));
    fragments.push_back(JoinInput{doc, std::move(origins)});
  }
  return JoinFragments(fragments, std::move(pool));
}

}  // namespace partix::frag
