#ifndef PARTIX_FRAGMENTATION_ALGEBRA_H_
#define PARTIX_FRAGMENTATION_ALGEBRA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "fragmentation/origins.h"
#include "xml/collection.h"
#include "xml/document.h"
#include "xpath/path.h"
#include "xpath/predicate.h"

namespace partix::frag {

/// TLC-style operators over collections of documents (paper §3.2 follows
/// the semantics of the TLC algebra): selection σ, projection π with a
/// prune criterion, union ∪ (horizontal reconstruction), and the ID-join ⋈
/// (vertical reconstruction).

/// σμ: the documents of `c` satisfying μ. Documents are shared, not
/// copied.
xml::Collection Select(const xml::Collection& c, const xpath::Conjunction& mu,
                       const std::string& result_name);

/// π_{P,Γ} over one document: the subtree rooted at the node selected by P,
/// minus the subtrees selected by the expressions in Γ.
///
/// Returns nullptr (OK) when P selects nothing in this document (the
/// fragment simply has no instance for it). Fails with kFailedPrecondition
/// when P selects more than one node — the paper's well-formedness
/// restriction: P may not retrieve nodes with cardinality greater than one
/// unless a positional index pins the occurrence.
///
/// The projected document carries its reconstruction IDs as metadata
/// (EncodeOrigins).
Result<xml::DocumentPtr> ProjectDocument(const xml::Document& src,
                                         const xpath::Path& p,
                                         const std::vector<xpath::Path>& gamma,
                                         const std::string& result_doc_name);

/// ∪: the union of fragment collections (horizontal reconstruction).
/// Fails on duplicate document names (a disjointness violation).
Result<xml::Collection> UnionCollections(
    const std::vector<xml::Collection>& fragments,
    const std::string& result_name);

/// One fragment document and its decoded reconstruction IDs.
struct JoinInput {
  xml::DocumentPtr doc;
  FragmentOrigins origins;
};

/// ⋈ by reconstruction ID: rebuilds one source document from the vertical
/// fragment documents that originated from it, reading them without
/// copying them. All inputs must carry reconstruction IDs for the same
/// source document. Missing ancestors are re-created from the recorded
/// scaffold chains. Fails when two fragments claim the same source node
/// (disjointness violation), and with kCorruption when a fragment's
/// origin ids do not increase along its node order or do not cover
/// exactly its nodes, or when the fragments disagree on the root.
///
/// Implementation: a label merge. Origin ids are source preorder
/// positions — prefix labels of the source document — so sorting the
/// children of a shared node by id restores source order, and a node
/// only one fragment claims is copied with its whole subtree at once: no
/// node table, no id map. See docs/structural-index.md.
Result<xml::DocumentPtr> JoinFragments(
    const std::vector<JoinInput>& fragments,
    std::shared_ptr<xml::NamePool> pool);

/// JoinFragments over fragment documents whose metadata holds their
/// reconstruction IDs (the fragmenter's output).
Result<xml::DocumentPtr> JoinFragments(
    const std::vector<xml::DocumentPtr>& fragment_docs,
    std::shared_ptr<xml::NamePool> pool);

/// The pre-label-merge reconstruction: gathers every fragment's nodes into
/// one id-keyed ordered map (the "value join" the paper's Q8/Q9 negative
/// result degenerates into) and rebuilds top-down from it. Byte-identical
/// output to JoinFragments; kept as the measured baseline of
/// bench/structural_join and as a differential-testing oracle.
Result<xml::DocumentPtr> JoinFragmentsValueJoin(
    const std::vector<xml::DocumentPtr>& fragment_docs,
    std::shared_ptr<xml::NamePool> pool);

}  // namespace partix::frag

#endif  // PARTIX_FRAGMENTATION_ALGEBRA_H_
