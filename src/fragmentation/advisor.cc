#include "fragmentation/advisor.h"

#include <algorithm>
#include <map>

#include "xquery/compiled_query.h"

namespace partix::frag {

namespace {

using xpath::Conjunction;
using xpath::Predicate;

/// Returns floor(log2(n)), at least 0.
size_t FloorLog2(size_t n) {
  size_t bits = 0;
  while (n > 1) {
    n >>= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

double AdvisorReport::BalanceFactor() const {
  if (fragment_sizes.empty()) return 1.0;
  size_t total = 0;
  size_t largest = 0;
  for (size_t s : fragment_sizes) {
    total += s;
    largest = std::max(largest, s);
  }
  if (total == 0) return 1.0;
  double ideal =
      static_cast<double>(total) / static_cast<double>(fragment_sizes.size());
  return static_cast<double>(largest) / ideal;
}

Result<AdvisorReport> DesignHorizontalByMinterms(
    const xml::Collection& c, std::vector<WeightedPredicate> predicates,
    const AdvisorOptions& options) {
  if (c.kind() == xml::RepoKind::kSingleDocument) {
    return Status::FailedPrecondition(
        "SD collections cannot be horizontally fragmented; use a hybrid "
        "design");
  }
  if (predicates.empty()) {
    return Status::InvalidArgument("no workload predicates supplied");
  }
  if (options.max_fragments < 2) {
    return Status::InvalidArgument("max_fragments must be at least 2");
  }

  AdvisorReport report;

  // Deduplicate predicates (summing weights), then keep the heaviest k.
  std::vector<WeightedPredicate> merged;
  for (WeightedPredicate& wp : predicates) {
    bool found = false;
    for (WeightedPredicate& existing : merged) {
      if (existing.predicate == wp.predicate) {
        existing.weight += wp.weight;
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(std::move(wp));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const WeightedPredicate& a, const WeightedPredicate& b) {
                     return a.weight > b.weight;
                   });
  const size_t budget_bits = std::max<size_t>(1, FloorLog2(options.max_fragments));
  if (merged.size() > budget_bits) {
    for (size_t i = budget_bits; i < merged.size(); ++i) {
      report.notes.push_back("dropped low-weight predicate: " +
                             merged[i].predicate.ToString());
    }
    merged.erase(merged.begin() + budget_bits, merged.end());
  }
  for (const WeightedPredicate& wp : merged) {
    report.used_predicates.push_back(wp.predicate.ToString());
  }

  // Classify every document by its minterm bit-vector.
  std::map<uint64_t, size_t> minterm_counts;
  for (const xml::DocumentPtr& doc : c.docs()) {
    uint64_t mask = 0;
    for (size_t i = 0; i < merged.size(); ++i) {
      if (merged[i].predicate.Eval(*doc)) mask |= uint64_t{1} << i;
    }
    minterm_counts[mask] += 1;
  }

  // Each observed minterm becomes a fragment; unobserved minterms are
  // reported (completeness for future documents is only instance-based,
  // as the paper's correctness procedures are).
  FragmentationSchema schema;
  schema.collection = c.name();
  size_t fragment_index = 0;
  for (const auto& [mask, count] : minterm_counts) {
    Conjunction mu;
    for (size_t i = 0; i < merged.size(); ++i) {
      if (mask & (uint64_t{1} << i)) {
        mu.Add(merged[i].predicate);
      } else {
        mu.Add(merged[i].predicate.Complement());
      }
    }
    schema.fragments.emplace_back(HorizontalDef{
        c.name() + "_m" + std::to_string(fragment_index++), std::move(mu)});
    report.fragment_sizes.push_back(count);
  }
  const size_t possible = size_t{1} << merged.size();
  if (minterm_counts.size() < possible) {
    report.notes.push_back(
        std::to_string(possible - minterm_counts.size()) +
        " minterm(s) hold no current document and were not emitted; "
        "re-run the advisor after bulk loads that change the data "
        "distribution");
  }
  PARTIX_RETURN_IF_ERROR(schema.ValidateStructure());
  report.schema = std::move(schema);
  return report;
}

Result<AdvisorReport> DesignHorizontalFromQueries(
    const xml::Collection& c, const std::vector<std::string>& queries,
    const AdvisorOptions& options) {
  std::vector<WeightedPredicate> predicates;
  for (const std::string& query : queries) {
    // The constraints the decomposer localizes on, so advisor-produced
    // designs localize the very queries they were derived from.
    PARTIX_ASSIGN_OR_RETURN(xquery::CompiledQueryPtr compiled,
                            xquery::CompiledQuery::Compile(query));
    for (Predicate& p : compiled->analysis().Constraints()) {
      predicates.push_back(WeightedPredicate{std::move(p), 1.0});
    }
  }
  if (predicates.empty()) {
    return Status::InvalidArgument(
        "no fragmentation-usable predicates found in the workload");
  }
  return DesignHorizontalByMinterms(c, std::move(predicates), options);
}

}  // namespace partix::frag
