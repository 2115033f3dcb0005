#include "engine/planner.h"

#include <utility>

namespace partix::xdb {

std::map<std::string, CollectionPlan> PlanCollections(
    const xquery::QueryAnalysis& analysis) {
  std::map<std::string, CollectionPlan> plans;
  for (const xquery::CollectionSite& site : analysis.sites) {
    SiteConstraints constraints;
    constraints.unconstrained = site.unconstrained;
    uint32_t depth = 0;
    bool exact = true;
    for (const xpath::Step& step : site.spine) {
      ++depth;
      if (step.axis == xpath::Axis::kDescendant) exact = false;
      if (step.wildcard) continue;
      constraints.required_elements.push_back(step.name);
      constraints.spine_levels.push_back(SpineLevel{step.name, depth, exact});
    }
    for (const xquery::SiteConjunct& conjunct : site.conjuncts) {
      for (const xpath::Step& step : conjunct.path.steps()) {
        if (!step.wildcard) constraints.required_elements.push_back(step.name);
      }
    }
    plans[site.collection].sites.push_back(std::move(constraints));
  }
  return plans;
}

std::map<std::string, CollectionPlan> AnalyzeQuery(const xquery::Expr& root) {
  return PlanCollections(xquery::Analyze(root));
}

}  // namespace partix::xdb
