#include "partix/publisher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/strings.h"
#include "fragmentation/fragmenter.h"
#include "xml/serializer.h"

namespace partix::middleware {

using xml::Document;
using xml::DocumentPtr;
using xml::kNullNode;
using xml::NodeId;
using xml::NodeKind;

DocumentPtr ToWireFormat(const DocumentPtr& doc) {
  if (!doc->origin_tracking() || doc->empty()) return doc;
  auto out = std::make_shared<Document>(doc->pool(), doc->doc_name());
  out->CopySubtree(*doc, doc->root(), kNullNode);
  out->SetMetadata("px-src", doc->origin_doc());
  out->SetMetadata("px-root", std::to_string(doc->origin(doc->root())));
  std::string anc;
  for (const auto& [id, name] : doc->origin_ancestors()) {
    if (!anc.empty()) anc.push_back(',');
    anc += std::to_string(id) + ":" + name;
  }
  out->SetMetadata("px-anc", anc);
  return out;
}

Status DataPublisher::PublishCentralized(const xml::Collection& c,
                                         size_t node) {
  if (node >= cluster_->node_count()) {
    return Status::OutOfRange("node index out of range");
  }
  xdb::CollectionMeta meta;
  meta.schema = c.schema();
  meta.root_path = c.root_path();
  meta.kind = c.kind();
  PARTIX_RETURN_IF_ERROR(
      cluster_->CreateCollectionOnNode(node, c.name(), meta));
  uint64_t serialized_bytes = 0;
  for (const DocumentPtr& doc : c.docs()) {
    std::string xml_bytes = xml::Serialize(*doc);
    serialized_bytes += xml_bytes.size();
    // Through the cluster's store data plane, like every publish: a store
    // is a write over the wire, subject to the node's fault profile.
    PARTIX_RETURN_IF_ERROR(cluster_->StoreSerializedOnNode(
        node, c.name(), doc->doc_name(), std::move(xml_bytes),
        doc->metadata()));
  }
  return catalog_->RegisterCentralized(c.name(), node, serialized_bytes);
}

Status DataPublisher::StoreFragments(
    const std::vector<xml::Collection>& fragments,
    std::vector<FragmentPlacement>& placements) {
  for (const xml::Collection& frag_coll : fragments) {
    FragmentPlacement* placement = nullptr;
    for (FragmentPlacement& p : placements) {
      if (p.fragment == frag_coll.name()) {
        placement = &p;
        break;
      }
    }
    if (placement == nullptr) {
      return Status::InvalidArgument("fragment '" + frag_coll.name() +
                                     "' has no valid placement");
    }
    // Serialize the wire documents once; every replica stores these exact
    // bytes, and the placement's content digest is computed from them —
    // so digest and stored copies agree by construction.
    std::vector<xdb::StoredDoc> wire_docs;
    wire_docs.reserve(frag_coll.docs().size());
    for (const DocumentPtr& doc : frag_coll.docs()) {
      DocumentPtr wire = ToWireFormat(doc);
      wire_docs.push_back(xdb::StoredDoc{
          wire->doc_name(), xml::Serialize(*wire), wire->metadata()});
    }
    // Digest in name order, matching Database::CollectionContentDigest.
    std::sort(wire_docs.begin(), wire_docs.end(),
              [](const xdb::StoredDoc& a, const xdb::StoredDoc& b) {
                return a.name < b.name;
              });
    uint64_t digest = Fnv1a64("");
    for (const xdb::StoredDoc& doc : wire_docs) {
      digest = Fnv1a64(doc.name, digest);
      digest = Fnv1a64(std::string_view("\0", 1), digest);
      digest = Fnv1a64(doc.xml, digest);
      digest = Fnv1a64(std::string_view("\0", 1), digest);
    }
    placement->content_digest = digest;
    // Record the fragment's serialized size next to the digest; the
    // scheduler's admission control estimates query footprints from it.
    uint64_t serialized_bytes = 0;
    for (const xdb::StoredDoc& doc : wire_docs) {
      serialized_bytes += doc.xml.size();
    }
    placement->serialized_bytes = serialized_bytes;
    // Every replica gets a full copy, so the query service can fail over
    // without data movement.
    for (size_t node : placement->AllNodes()) {
      if (node >= cluster_->node_count()) {
        return Status::InvalidArgument(
            "fragment '" + frag_coll.name() + "' placed at node " +
            std::to_string(node) + ", but the cluster has " +
            std::to_string(cluster_->node_count()) + " node(s)");
      }
      xdb::CollectionMeta meta;
      meta.schema = frag_coll.schema();
      meta.root_path = frag_coll.root_path();
      meta.kind = frag_coll.kind();
      PARTIX_RETURN_IF_ERROR(
          cluster_->CreateCollectionOnNode(node, frag_coll.name(), meta));
      for (const xdb::StoredDoc& doc : wire_docs) {
        PARTIX_RETURN_IF_ERROR(cluster_->StoreSerializedOnNode(
            node, frag_coll.name(), doc.name, doc.xml, doc.metadata));
      }
    }
  }
  return Status::Ok();
}

Status DataPublisher::ReplicateFragment(const std::string& fragment,
                                        size_t source, size_t target) {
  if (source >= cluster_->node_count() || target >= cluster_->node_count()) {
    return Status::OutOfRange("replica node index out of range");
  }
  if (source == target) {
    return Status::InvalidArgument(
        "cannot replicate '" + fragment + "' from node" +
        std::to_string(source) + " onto itself");
  }
  Driver& src = cluster_->node(source);
  if (!src.HasCollection(fragment)) {
    return Status::NotFound("node" + std::to_string(source) +
                            " holds no copy of '" + fragment + "'");
  }
  PARTIX_ASSIGN_OR_RETURN(xdb::CollectionMeta meta,
                          src.CollectionMetaOf(fragment));
  PARTIX_ASSIGN_OR_RETURN(std::vector<xdb::StoredDoc> docs,
                          src.ExportStoredDocs(fragment));
  if (cluster_->node(target).HasCollection(fragment)) {
    PARTIX_RETURN_IF_ERROR(cluster_->node(target).DropCollection(fragment));
  }
  PARTIX_RETURN_IF_ERROR(
      cluster_->CreateCollectionOnNode(target, fragment, std::move(meta)));
  for (xdb::StoredDoc& doc : docs) {
    PARTIX_RETURN_IF_ERROR(cluster_->StoreSerializedOnNode(
        target, fragment, std::move(doc.name), std::move(doc.xml),
        std::move(doc.metadata)));
  }
  return Status::Ok();
}

Status DataPublisher::PublishFragmented(
    const xml::Collection& c, const frag::FragmentationSchema& schema,
    std::vector<FragmentPlacement> placements, size_t replication_factor) {
  if (schema.collection != c.name()) {
    return Status::InvalidArgument(
        "fragmentation schema is for collection '" + schema.collection +
        "', publishing '" + c.name() + "'");
  }
  if (placements.empty()) {
    if (replication_factor == 0 ||
        replication_factor > cluster_->node_count()) {
      return Status::InvalidArgument(
          "replication_factor " + std::to_string(replication_factor) +
          " must be in [1, " + std::to_string(cluster_->node_count()) +
          "]");
    }
    const size_t n = cluster_->node_count();
    for (size_t i = 0; i < schema.fragments.size(); ++i) {
      FragmentPlacement p{.fragment = schema.fragments[i].name(),
                          .node = i % n};
      for (size_t r = 1; r < replication_factor; ++r) {
        p.backups.push_back((i + r) % n);
      }
      placements.push_back(std::move(p));
    }
  }
  PARTIX_ASSIGN_OR_RETURN(std::vector<xml::Collection> fragments,
                          frag::ApplyFragmentation(c, schema));
  PARTIX_RETURN_IF_ERROR(StoreFragments(fragments, placements));
  frag::FragmentationSchema registered = schema;
  return catalog_->Register(std::move(registered), std::move(placements));
}

}  // namespace partix::middleware
