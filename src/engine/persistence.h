#ifndef PARTIX_ENGINE_PERSISTENCE_H_
#define PARTIX_ENGINE_PERSISTENCE_H_

#include <string>

#include "common/result.h"
#include "engine/database.h"

namespace partix::xdb {

/// Directory-based persistence for collections, the way document-oriented
/// XML stores lay data out on disk:
///
///   <dir>/
///     MANIFEST          one line per document:
///                       <file>\t<doc name>\t<k=v;k=v metadata>
///     STRUCT            structural-label summary, one line per document:
///                       <file>\t<node count>\t<max level>\t<checksum hex>
///     000000.xml        serialized documents, one file each
///     000001.xml
///
/// Out-of-band document metadata (including PartiX reconstruction IDs)
/// round-trips through the manifest.
///
/// Structural labels (see docs/structural-index.md) are NOT stored: they
/// are a pure function of document structure, so re-parsing on import
/// reproduces them. STRUCT pins that contract — export writes a checksum
/// of each document's label stream, import recomputes it from the
/// re-parsed document and fails with Corruption on any drift (a serializer
/// or labeling change that would silently invalidate cross-fragment label
/// merges). A missing STRUCT (pre-label exports) skips verification.

/// Writes every document of `collection` under `dir` (created if needed;
/// must be empty of a previous MANIFEST).
Status ExportCollection(Database& db, const std::string& collection,
                        const std::string& dir);

/// Loads an exported directory into `collection` (created with `meta` if
/// absent).
Status ImportCollection(Database& db, const std::string& collection,
                        const std::string& dir,
                        CollectionMeta meta = CollectionMeta());

/// FNV-1a digest of a document's structural label stream — every node's
/// (pre, post, sub_max, level) plus its root path (each ancestor-or-self's
/// 1-based position among its parent's children, root first), in node
/// order. post (= sub_max - level + 1) and the path are derived from the
/// stored labels and the tree. What STRUCT records per document.
/// Pre: doc.has_labels().
uint64_t StructuralLabelChecksum(const xml::Document& doc);

}  // namespace partix::xdb

#endif  // PARTIX_ENGINE_PERSISTENCE_H_
