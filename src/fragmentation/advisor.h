#ifndef PARTIX_FRAGMENTATION_ADVISOR_H_
#define PARTIX_FRAGMENTATION_ADVISOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "fragmentation/fragment_def.h"
#include "xml/collection.h"

namespace partix::frag {

/// A simple predicate observed in the workload, with how often (or how
/// important) it is. Weights drive predicate selection when the fragment
/// budget is tight.
struct WeightedPredicate {
  xpath::Predicate predicate;
  double weight = 1.0;
};

/// Knobs for the design algorithms.
struct AdvisorOptions {
  /// Upper bound on emitted fragments. The minterm algorithm uses the
  /// floor(log2(max_fragments)) highest-weight predicates so the design
  /// never exceeds the budget.
  size_t max_fragments = 8;
};

/// A proposed design plus the reasoning behind it.
struct AdvisorReport {
  FragmentationSchema schema;
  /// Predicates actually used (highest weight first).
  std::vector<std::string> used_predicates;
  /// Documents per emitted fragment, aligned with schema.fragments.
  std::vector<size_t> fragment_sizes;
  /// Human-readable notes (dropped predicates, balance).
  std::vector<std::string> notes;

  /// max(fragment size) / ideal size; 1.0 is perfectly balanced.
  double BalanceFactor() const;
};

/// Designs a horizontal fragmentation of the MD collection `c` from the
/// workload's simple predicates using the classical minterm method the
/// paper inherits from relational distribution design (Özsu & Valduriez
/// [15], the methodology the paper lists as future work):
///
///   1. keep the floor(log2(max_fragments)) highest-weight predicates;
///   2. every document is classified by the bit-vector of predicate
///      outcomes (its *minterm*);
///   3. each non-empty minterm becomes one fragment whose μ is the
///      conjunction of the predicates (asserted or complemented);
///   4. the design is complete and disjoint by construction (each
///      document satisfies exactly one minterm under the single-
///      occurrence assumption).
///
/// Documents that satisfy no observed minterm cannot exist; future
/// documents falling into an unobserved minterm are routed to a catch-all
/// fragment when `emit_catch_all` minterms were unobserved (reported in
/// the notes).
Result<AdvisorReport> DesignHorizontalByMinterms(
    const xml::Collection& c, std::vector<WeightedPredicate> predicates,
    const AdvisorOptions& options = AdvisorOptions());

/// Convenience front-end: compiles each XQuery workload text and feeds the
/// predicates of its analysis (xquery::QueryAnalysis::Constraints — the
/// conjunctive step-predicate and `where` constraints the decomposer
/// localizes on) to the minterm design. Queries contribute weight 1 each
/// (repeat a query to weight it higher).
Result<AdvisorReport> DesignHorizontalFromQueries(
    const xml::Collection& c, const std::vector<std::string>& queries,
    const AdvisorOptions& options = AdvisorOptions());

}  // namespace partix::frag

#endif  // PARTIX_FRAGMENTATION_ADVISOR_H_
