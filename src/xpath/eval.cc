#include "xpath/eval.h"

#include <algorithm>
#include <span>

namespace partix::xpath {

namespace {

using xml::Document;
using xml::kDocumentNode;
using xml::kNullNode;
using xml::NodeId;
using xml::NodeKind;

/// step.name's id in the document's pool; nullopt for wildcards (which
/// never compare names) and for names the pool never interned.
std::optional<xml::NameId> FindStepName(const Document& doc,
                                        const Step& step) {
  if (step.wildcard) return std::nullopt;
  return doc.pool()->Find(step.name);
}

bool StepMatchesName(const Document& doc, NodeId n, const Step& step,
                     std::optional<xml::NameId> name) {
  const NodeKind want =
      step.is_attribute ? NodeKind::kAttribute : NodeKind::kElement;
  if (doc.kind(n) != want) return false;
  return step.wildcard || (name && doc.name_id(n) == *name);
}

/// Appends the nodes a positional step `e[i]` selects under `context`: the
/// i-th matching child of the context (child axis), or of the context and
/// each of its element descendants (descendant axis). XPath counts the
/// position per parent, which a flat label range cannot, so these steps
/// always navigate. Descendant-axis matches come out grouped by parent;
/// EvalSteps sorts them.
void MatchPositional(const Document& doc, NodeId context, const Step& step,
                     std::optional<xml::NameId> name,
                     std::vector<NodeId>* out) {
  if (step.axis == Axis::kDescendant) {
    for (NodeId c = doc.first_child(context); c != kNullNode;
         c = doc.next_sibling(c)) {
      if (doc.kind(c) == NodeKind::kElement) {
        MatchPositional(doc, c, step, name, out);
      }
    }
  }
  int occurrence = 0;
  for (NodeId c = doc.first_child(context); c != kNullNode;
       c = doc.next_sibling(c)) {
    if (StepMatchesName(doc, c, step, name) &&
        ++occurrence == step.position) {
      out->push_back(c);
      return;
    }
  }
}

/// Appends the matches of `step` under one context, by MatchStep or, for
/// a positional filter, by MatchPositional.
void MatchAny(const Document& doc, NodeId context, const Step& step,
              std::optional<xml::NameId> name, const EvalOptions& opts,
              std::vector<NodeId>* out) {
  if (step.position > 0) {
    MatchPositional(doc, context, step, name, out);
  } else {
    MatchStep(doc, context, step, name, opts.use_structural_index, out);
  }
}

std::vector<NodeId> EvalSteps(const Document& doc,
                              std::vector<NodeId> context,
                              const std::vector<Step>& steps,
                              size_t first_step, const EvalOptions& opts) {
  std::vector<NodeId> current = std::move(context);
  for (size_t si = first_step; si < steps.size(); ++si) {
    const Step& step = steps[si];
    const std::optional<xml::NameId> name = FindStepName(doc, step);
    std::vector<NodeId> next;
    for (NodeId ctx : current) {
      if (doc.kind(ctx) != NodeKind::kElement) continue;
      MatchAny(doc, ctx, step, name, opts, &next);
    }
    // Restore document order and uniqueness (descendant steps from
    // overlapping contexts can produce duplicates out of order).
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

}  // namespace

StepScan MatchStep(const Document& doc, NodeId context, const Step& step,
                   std::optional<xml::NameId> name, bool use_labels,
                   std::vector<NodeId>* out) {
  StepScan scan;
  if (doc.empty() || (!step.wildcard && !name)) return scan;
  const NodeKind want =
      step.is_attribute ? NodeKind::kAttribute : NodeKind::kElement;
  const xml::NameId id = step.wildcard ? 0 : *name;
  const auto matches = [&](NodeId n) {
    return doc.kind(n) == want && (step.wildcard || doc.name_id(n) == id);
  };
  if (context == kDocumentNode && step.axis == Axis::kChild) {
    scan.visited = 1;
    if (matches(doc.root())) out->push_back(doc.root());
    return scan;
  }
  if (use_labels && doc.has_labels()) {
    // The preorder interval [lo, hi) holding every node the step can
    // select, read from the context's label in O(1).
    uint32_t lo = 0;
    uint32_t hi = static_cast<uint32_t>(doc.node_count());
    uint32_t child_level = 0;
    if (context != kDocumentNode) {
      const xml::NodeLabel& c = doc.label(context);
      lo = c.pre + 1;
      hi = c.sub_max + 1;
      child_level = c.level + 1;
    }
    const size_t size = hi - lo;
    const StepStrategy strategy = StaticStepStrategy(step);
    if (strategy != StepStrategy::kNavigate &&
        size >= kLabelRangeMinSubtree) {
      // One occurrence-run lookup and one binary-search pair both decide
      // a child step and serve the scan.
      const std::span<const uint32_t> all = doc.NameOccurrences(id);
      const auto first = std::lower_bound(all.begin(), all.end(), lo);
      const auto last = std::lower_bound(first, all.end(), hi);
      const size_t in_range = static_cast<size_t>(last - first);
      // Child axis: the range reads every occurrence inside the subtree,
      // the walk only the children. The range wins only when the name is
      // sparse (occurrences can never outnumber the subtree, so a 4x
      // margin keeps the scan cheaper than the walk on mixed-content
      // elements, while flat same-named record lists keep the walk).
      if (strategy == StepStrategy::kLabelRange || in_range * 4 <= size) {
        scan.label_range = true;
        scan.visited = in_range;
        for (auto it = first; it != last; ++it) {
          const NodeId n = doc.NodeAtPre(*it);
          if (doc.kind(n) != want) continue;
          if (step.axis == Axis::kChild && doc.label(n).level != child_level) {
            continue;
          }
          out->push_back(n);
        }
        return scan;
      }
    } else if (step.axis == Axis::kDescendant) {
      scan.visited = size;
      for (uint32_t pre = lo; pre < hi; ++pre) {
        const NodeId n = doc.NodeAtPre(pre);
        if (matches(n)) out->push_back(n);
      }
      return scan;
    }
  }
  if (step.axis == Axis::kChild) {
    for (NodeId c = doc.first_child(context); c != kNullNode;
         c = doc.next_sibling(c)) {
      ++scan.visited;
      if (matches(c)) out->push_back(c);
    }
    return scan;
  }
  // Descendants without labels: walk the subtree. From the document node
  // the root itself is a candidate too.
  const NodeId top = context == kDocumentNode ? doc.root() : context;
  doc.VisitSubtree(top, [&](NodeId n) {
    ++scan.visited;
    if (n != context && matches(n)) out->push_back(n);
  });
  return scan;
}

std::vector<NodeId> EvalPath(const Document& doc, const Path& path,
                             const EvalOptions& opts) {
  if (doc.empty()) return {};
  return EvalPathRootedAt(doc, doc.root(), path, opts);
}

std::vector<NodeId> EvalPathRootedAt(const Document& doc, NodeId root,
                                     const Path& path,
                                     const EvalOptions& opts) {
  if (doc.empty() || path.empty()) return {};
  const std::vector<Step>& steps = path.steps();
  const Step& first = steps[0];
  const std::optional<xml::NameId> name = FindStepName(doc, first);
  std::vector<NodeId> initial;
  if (first.axis == Axis::kChild) {
    // The subtree root is the single "child of the virtual document node".
    if (!first.is_attribute && StepMatchesName(doc, root, first, name)) {
      // Positional filter on the root: only [1] can match.
      if (first.position <= 1) initial.push_back(root);
    }
  } else {
    // Descendant from the virtual document node: any matching node of the
    // subtree, including the root itself.
    if (StepMatchesName(doc, root, first, name) && first.position <= 1) {
      initial.push_back(root);
    }
    MatchAny(doc, root, first, name, opts, &initial);
    std::sort(initial.begin(), initial.end());
    initial.erase(std::unique(initial.begin(), initial.end()),
                  initial.end());
  }
  return EvalSteps(doc, std::move(initial), steps, 1, opts);
}

std::vector<NodeId> EvalPathFrom(const Document& doc, NodeId context,
                                 const Path& path, const EvalOptions& opts) {
  if (doc.empty() || path.empty()) return {};
  return EvalSteps(doc, {context}, path.steps(), 0, opts);
}

bool PathExists(const Document& doc, const Path& path) {
  return !EvalPath(doc, path).empty();
}

}  // namespace partix::xpath
