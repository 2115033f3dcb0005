#ifndef PARTIX_ENGINE_PLANNER_H_
#define PARTIX_ENGINE_PLANNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "xquery/analysis.h"
#include "xquery/ast.h"

namespace partix::xdb {

/// One spine step with its derivable depth bound. Levels count from 1 at
/// the root element. While every axis up to a step is the child axis the
/// step's depth is exact; after the first descendant axis only a lower
/// bound survives. The structural index prunes documents whose occurrences
/// of `name` all fall outside the bound.
struct SpineLevel {
  std::string name;
  uint32_t min_level = 1;
  bool exact_level = false;

  bool operator==(const SpineLevel& o) const {
    return name == o.name && min_level == o.min_level &&
           exact_level == o.exact_level;
  }
};

/// Constraints that every document contributing to one collection() call
/// site must satisfy. Derived conservatively from the query: a document
/// failing any constraint cannot produce bindings or path results at that
/// site, so the engine may skip (not even parse) it. The candidate set is
/// a superset of the true matches; evaluation still verifies.
struct SiteConstraints {
  /// Element/attribute names on the path spine and in conjunctive
  /// predicates (checked against the element index).
  std::vector<std::string> required_elements;

  /// Spine names with level bounds (checked against the structural label
  /// index when enabled; a strictly stronger version of the spine subset
  /// of `required_elements`).
  std::vector<SpineLevel> spine_levels;

  /// True when this call site gives no exploitable constraint; the whole
  /// collection must be considered.
  bool unconstrained = false;
};

/// Per-collection analysis result: one entry per collection() call site.
/// The candidate set for the collection is the union over sites.
struct CollectionPlan {
  std::vector<SiteConstraints> sites;
};

/// The index-usable constraints of every collection() / doc() call site of
/// an analyzed query, one CollectionPlan per collection:
///   - path spines: collection("c")/Item/Name requires elements Item, Name
///     (with their levels)
///   - site conjuncts: Item[Section = "CD"], Item[contains(Desc, "x")],
///     and `where` conjuncts over a variable a `for` binds to the site
///     require the elements of their paths
/// Constraints under not()/empty()/or are never mined (kept sound by not
/// pruning on them).
std::map<std::string, CollectionPlan> PlanCollections(
    const xquery::QueryAnalysis& analysis);

/// PlanCollections over a fresh analysis of `root`.
std::map<std::string, CollectionPlan> AnalyzeQuery(const xquery::Expr& root);

}  // namespace partix::xdb

#endif  // PARTIX_ENGINE_PLANNER_H_
