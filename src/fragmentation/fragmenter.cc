#include "fragmentation/fragmenter.h"

#include <unordered_set>

#include "fragmentation/algebra.h"
#include "fragmentation/origins.h"
#include "xpath/eval.h"

namespace partix::frag {

namespace {

using xml::Document;
using xml::DocumentPtr;
using xml::kNullNode;
using xml::NodeId;
using xml::NodeKind;

/// Applies one vertical (or trivially-hybrid) projection fragment to every
/// document of `c`.
Result<xml::Collection> ApplyProjection(const xml::Collection& c,
                                        const std::string& frag_name,
                                        const xpath::Path& path,
                                        const std::vector<xpath::Path>& prune) {
  xml::Collection out(frag_name, c.schema(), path.ToString(), c.kind());
  for (const DocumentPtr& doc : c.docs()) {
    PARTIX_ASSIGN_OR_RETURN(
        DocumentPtr projected,
        ProjectDocument(*doc, path, prune,
                        doc->doc_name() + "#" + frag_name));
    if (projected != nullptr) {
      PARTIX_RETURN_IF_ERROR(out.Add(std::move(projected)));
    }
  }
  return out;
}

/// Applies one hybrid fragment (non-trivial μ) to one source document,
/// adding the produced fragment documents to `out`.
Status ApplyHybridToDocument(const Document& src, const HybridDef& def,
                             HybridMode mode, xml::Collection* out) {
  std::vector<NodeId> selected = xpath::EvalPath(src, def.path);
  if (selected.empty()) return Status::Ok();
  if (selected.size() > 1) {
    return Status::FailedPrecondition(
        "hybrid projection path " + def.path.ToString() + " selects " +
        std::to_string(selected.size()) + " nodes in document '" +
        src.doc_name() + "'");
  }
  NodeId container = selected[0];

  std::unordered_set<NodeId> pruned_roots;
  for (const xpath::Path& e : def.prune) {
    for (NodeId n : xpath::EvalPath(src, e)) pruned_roots.insert(n);
  }
  if (pruned_roots.count(container) != 0) return Status::Ok();

  auto skip = [&pruned_roots](NodeId n) {
    return pruned_roots.count(n) != 0;
  };

  // The instance subtrees: element children of the projected container.
  std::vector<NodeId> instances;
  for (NodeId ch = src.first_child(container); ch != kNullNode;
       ch = src.next_sibling(ch)) {
    if (src.kind(ch) != NodeKind::kElement) continue;
    if (pruned_roots.count(ch) != 0) continue;
    if (def.mu.EvalRootedAt(src, ch)) instances.push_back(ch);
  }
  if (instances.empty()) return Status::Ok();

  if (mode == HybridMode::kOneDocPerSubtree) {
    // FragMode1: each selected instance becomes an independent document.
    size_t seq = 0;
    for (NodeId inst : instances) {
      auto doc = std::make_shared<Document>(
          src.pool(), src.doc_name() + "#" + def.name + "#" +
                          std::to_string(seq++));
      doc->CopySubtree(src, inst, kNullNode, skip);
      FragmentOrigins origins = OriginsAt(src, inst);
      AddSubtreeOrigins(src, inst, skip, &origins);
      EncodeOrigins(origins, doc.get());
      PARTIX_RETURN_IF_ERROR(out->Add(std::move(doc)));
    }
    return Status::Ok();
  }

  // FragMode2: a single document shaped like the original container, with
  // only the selected instances. The container element (and its
  // attributes) are scaffolding shared by sibling fragments.
  auto doc = std::make_shared<Document>(src.pool(),
                                        src.doc_name() + "#" + def.name);
  FragmentOrigins origins = OriginsAt(src, container);
  NodeId new_container = doc->CreateRoot(src.name(container));
  AddOrigin(container, /*scaffold=*/true, &origins);
  for (NodeId ch = src.first_child(container); ch != kNullNode;
       ch = src.next_sibling(ch)) {
    if (src.kind(ch) == NodeKind::kAttribute) {
      doc->AppendAttribute(new_container, src.name(ch), src.value(ch));
      AddOrigin(ch, /*scaffold=*/true, &origins);
    }
  }
  for (NodeId inst : instances) {
    doc->CopySubtree(src, inst, new_container, skip);
    AddSubtreeOrigins(src, inst, skip, &origins);
  }
  EncodeOrigins(origins, doc.get());
  return out->Add(std::move(doc));
}

}  // namespace

Result<std::vector<xml::Collection>> ApplyFragmentation(
    const xml::Collection& c, const FragmentationSchema& schema) {
  PARTIX_RETURN_IF_ERROR(schema.ValidateStructure());
  // Paper §3.2: "in the case of an MD XML database, we assume that the
  // fragmentation can only be applied to homogeneous collections."
  if (c.schema() != nullptr) {
    Status homogeneous = c.ValidateHomogeneous();
    if (!homogeneous.ok()) {
      return Status::FailedPrecondition(
          "collection '" + c.name() +
          "' is not homogeneous: " + homogeneous.message());
    }
  }
  std::vector<xml::Collection> fragments;
  fragments.reserve(schema.fragments.size());

  for (const FragmentDef& def : schema.fragments) {
    switch (def.kind()) {
      case FragmentKind::kHorizontal: {
        if (c.kind() == xml::RepoKind::kSingleDocument) {
          return Status::FailedPrecondition(
              "SD collection '" + c.name() +
              "' may not be horizontally fragmented (use hybrid "
              "fragmentation)");
        }
        fragments.push_back(Select(c, def.horizontal().mu, def.name()));
        break;
      }
      case FragmentKind::kVertical: {
        PARTIX_ASSIGN_OR_RETURN(
            xml::Collection frag,
            ApplyProjection(c, def.name(), def.vertical().path,
                            def.vertical().prune));
        fragments.push_back(std::move(frag));
        break;
      }
      case FragmentKind::kHybrid: {
        const HybridDef& h = def.hybrid();
        if (h.mu.IsTrue()) {
          PARTIX_ASSIGN_OR_RETURN(
              xml::Collection frag,
              ApplyProjection(c, def.name(), h.path, h.prune));
          fragments.push_back(std::move(frag));
          break;
        }
        xml::RepoKind kind =
            schema.hybrid_mode == HybridMode::kOneDocPerSubtree
                ? xml::RepoKind::kMultipleDocuments
                : c.kind();
        xml::Collection frag(def.name(), c.schema(), h.path.ToString(),
                             kind);
        for (const DocumentPtr& doc : c.docs()) {
          PARTIX_RETURN_IF_ERROR(ApplyHybridToDocument(
              *doc, h, schema.hybrid_mode, &frag));
        }
        fragments.push_back(std::move(frag));
        break;
      }
    }
  }
  return fragments;
}

}  // namespace partix::frag
