#ifndef PARTIX_XPATH_EVAL_H_
#define PARTIX_XPATH_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "xml/document.h"
#include "xpath/path.h"

namespace partix::xpath {

/// Evaluation knobs shared by all entry points. Results are byte-identical
/// whichever way a step is answered; the toggle exists for ablation tests
/// and the structural_join bench.
struct EvalOptions {
  /// Answer eligible axis steps by label-range scans when the document is
  /// sealed (see Document::SealLabels); navigate otherwise.
  bool use_structural_index = true;
};

/// Fewest nodes a step's context interval must hold (descendants of the
/// context element, or the whole document for the document node) before
/// MatchStep consults the label index. Below it, child steps walk the
/// sibling list and descendant steps scan the preorder interval, a few
/// integer compares per node; the label path first pays a search of the
/// document's name-occurrence runs and two binary searches, and touches
/// four more arrays per document. Set from the crossover of an
/// engine-level sweep on a 4-vCPU guest, taken while occurrences were
/// still a hash map of vectors (RelWithDebInfo; 4,000 flat
/// records per size, child and descendant steps over a sparse name,
/// eight alternating runs; EXPERIMENTS.md "Labels where they pay"): at
/// 16 nodes the walk is 26% cheaper for a child step; from 24 to 56
/// neither wins consistently; from 64 on the range is 1.2-1.9x faster in
/// every cell. 64 is the smallest size at which the range reliably pays.
inline constexpr size_t kLabelRangeMinSubtree = 64;

/// How MatchStep answered one (document, context, step).
struct StepScan {
  /// Nodes inspected: children walked, interval or subtree nodes scanned,
  /// or name occurrences read inside the label range.
  size_t visited = 0;
  /// True when a label-range scan over the name's sorted occurrence list
  /// answered the step.
  bool label_range = false;
};

/// Appends to `*out`, in document order and without duplicates, the nodes
/// `step` selects from `context`: its children (child axis) or proper
/// descendants (descendant axis). For xml::kDocumentNode, the virtual
/// node above the root, the child axis selects the root element and the
/// descendant axis the root and all its descendants.
///
/// `name` is step.name's id in doc.pool(), resolved once by the caller
/// (ignored for wildcard steps); nullopt means the pool never interned
/// the name, so no node matches and nothing is inspected. Nodes are
/// matched by NameId, never by string.
///
/// The cost rule refines StaticStepStrategy per context, from one O(1)
/// read of the context's label before any occurrence lookup:
/// - labels off (`use_labels` false or the document unsealed), wildcard
///   steps, and contexts below kLabelRangeMinSubtree navigate: child
///   steps walk the sibling list; descendant steps scan the preorder
///   interval when sealed (a subtree walk otherwise);
/// - at or above it, descendant steps scan the name's occurrences inside
///   the interval, and child steps do so only when those occurrences are
///   sparse (occurrences x 4 <= interval size), decided from the same
///   single map lookup and binary-search pair that then serves the scan;
///   dense child names walk the sibling list.
///
/// Pre: step.position == 0 (positional filters count per parent; the
/// path evaluators below navigate them), and `context` is a node of `doc`
/// (text and attribute nodes select nothing) or kDocumentNode.
StepScan MatchStep(const xml::Document& doc, xml::NodeId context,
                   const Step& step, std::optional<xml::NameId> name,
                   bool use_labels, std::vector<xml::NodeId>* out);

/// Evaluates an absolute path against a whole document: the first child-
/// axis step must match the root element; a leading descendant step matches
/// any element in the tree. Returns matches in document order without
/// duplicates.
std::vector<xml::NodeId> EvalPath(const xml::Document& doc, const Path& path,
                                  const EvalOptions& opts = {});

/// Evaluates `path` relative to `context`: the first step applies to the
/// children (or descendants) of `context`. Returns matches in document
/// order without duplicates.
std::vector<xml::NodeId> EvalPathFrom(const xml::Document& doc,
                                      xml::NodeId context, const Path& path,
                                      const EvalOptions& opts = {});

/// Evaluates an absolute path against the subtree rooted at `root`, as if
/// that subtree were a standalone document: the first child-axis step must
/// match `root` itself. Used by hybrid fragmentation, whose selection
/// predicates are absolute over each instance subtree (e.g.
/// /Item/Section = "CD" evaluated per Item).
std::vector<xml::NodeId> EvalPathRootedAt(const xml::Document& doc,
                                          xml::NodeId root, const Path& path,
                                          const EvalOptions& opts = {});

/// True if the path selects at least one node of the document.
bool PathExists(const xml::Document& doc, const Path& path);

}  // namespace partix::xpath

#endif  // PARTIX_XPATH_EVAL_H_
