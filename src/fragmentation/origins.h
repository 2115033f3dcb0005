#ifndef PARTIX_FRAGMENTATION_ORIGINS_H_
#define PARTIX_FRAGMENTATION_ORIGINS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "xml/document.h"

namespace partix::frag {

/// Consecutive nodes, in NodeId order, that came from consecutive source
/// nodes: the i-th node of the run has origin id `first + i`.
struct OriginRun {
  xml::NodeId first = 0;
  uint32_t length = 0;
  bool scaffold = false;  // replicated container structure, not data
};

/// The reconstruction IDs of one fragment document (paper §3.3: "we keep
/// an ID in each vertical fragment for reconstruction purposes"): the
/// source document, the origin id and scaffold flag of each node as runs
/// over NodeId order, and the scaffold chain of the fragment root's
/// strict ancestors as (origin id, element name) pairs, root first.
/// Origin ids are source node ids, which are source preorder positions,
/// so a fragment's ids increase along its node order. An empty `source`
/// means the document carries no IDs: it is a whole source document.
struct FragmentOrigins {
  std::string source;
  std::vector<OriginRun> runs;
  std::vector<std::pair<xml::NodeId, std::string>> ancestors;
};

/// The IDs of a fragment cut from `src` at `root`, before any node is
/// added: the source name and the ancestor chain of `root`.
FragmentOrigins OriginsAt(const xml::Document& src, xml::NodeId root);

/// Adds the fragment's next node, which came from source node `id`.
void AddOrigin(xml::NodeId id, bool scaffold, FragmentOrigins* origins);

/// Adds, as data, the nodes Document::CopySubtree(src, root, ..., skip)
/// copies, in the order it copies them.
void AddSubtreeOrigins(const xml::Document& src, xml::NodeId root,
                       const std::function<bool(xml::NodeId)>& skip,
                       FragmentOrigins* origins);

/// Attaches the IDs to `doc` as out-of-band document metadata, which
/// stores persist beside the serialized XML and queries never see:
///
///   px-src   the source document name
///   px-runs  the origin runs, "first:length:scaffold,..." (scaffold 0|1)
///   px-anc   the ancestor chain, "id:name,..."
///
/// A node's position in the runs is its NodeId, which is its position in
/// document order in the fragmenter's output and in every parse of its
/// serialized bytes.
void EncodeOrigins(const FragmentOrigins& origins, xml::Document* doc);

/// Reads back what EncodeOrigins attached. A document without px-src
/// carries no IDs (empty `source`). Fails with kCorruption naming the
/// document when a key is missing or a value does not parse;
/// JoinFragments checks that the runs increase and cover the document.
Result<FragmentOrigins> DecodeOrigins(const xml::Document& doc);

}  // namespace partix::frag

#endif  // PARTIX_FRAGMENTATION_ORIGINS_H_
