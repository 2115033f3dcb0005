#ifndef PARTIX_PARTIX_DECOMPOSER_H_
#define PARTIX_PARTIX_DECOMPOSER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "partix/catalog.h"
#include "xquery/compiled_query.h"

namespace partix::middleware {

/// How partial results are combined into the final answer.
enum class Composition {
  /// Concatenate the sub-results (horizontal ∪ / disjoint instance sets).
  kUnion,
  /// Sub-results are numbers; the answer is their sum (decomposed count()
  /// or sum() aggregates, fully evaluated in parallel as the paper notes).
  kSumCounts,
  /// Sub-queries fetch fragment documents; the middleware joins them by
  /// reconstruction ID and evaluates the original query over the joined
  /// documents (multi-fragment vertical/hybrid queries — the expensive
  /// path the paper contrasts with the horizontal union).
  kJoinReconstruct,
};

const char* CompositionName(Composition c);

/// One sub-query routed to one fragment's replica set. All members have
/// defaults: hand-built plans name a prefix with designated initializers.
struct SubQuery {
  std::string fragment;  // fragment (= collection) name at the node
  size_t node = 0;       // primary replica
  std::string query;
  /// Every node holding this fragment, primary first, in failover order.
  /// Empty means "primary only" — the executor treats it as {node}.
  std::vector<size_t> replicas{};
  /// The compiled form of `query`, built structurally by the decomposer
  /// (cloned + rewritten AST, never re-parsed from the string). When set,
  /// the executor ships it through the driver's prepared-execution path —
  /// prepared once per (sub-query, node) and reused across retries and
  /// failovers. Null on hand-built plans; the executor then falls back to
  /// string execution.
  xquery::CompiledQueryPtr compiled{};
};

/// A decomposed distributed execution plan.
struct DistributedPlan {
  std::string collection;      // the fragmented collection
  std::string original_query;  // as submitted
  Composition composition = Composition::kUnion;
  std::vector<SubQuery> subqueries;
  /// Fragments skipped by data localization (predicate contradiction).
  size_t pruned_fragments = 0;
  /// Human-readable notes on decomposition decisions (for EXPLAIN-style
  /// output).
  std::vector<std::string> notes;
  /// The compiled original query — the single parse of the whole
  /// middleware execution. Join composition evaluates it over the joined
  /// documents in memory without re-parsing. Null on hand-built plans
  /// (composition then compiles `original_query` once).
  xquery::CompiledQueryPtr compiled;
};

/// Decomposes XQuery queries over fragmented collections into sub-queries
/// with data localization (paper §3.3 "Query Processing" + §4; the
/// automatic rewriting the paper leaves as future work is implemented here
/// for the query shapes of the workloads). It reads every fact about the
/// query from the compiled query's xquery::QueryAnalysis and walks the AST
/// only to rewrite it:
///
///   - horizontal: one sub-query per fragment with the collection name
///     substituted; fragments whose selection predicate contradicts the
///     conjoined constraints of the query's call sites are pruned (data
///     localization). Top-level count()/sum() queries compose by summing;
///     other aggregates and some/every over the collection fetch the
///     fragments and evaluate at the middleware.
///   - vertical: queries whose touched paths all fall inside a single
///     fragment are rewritten (path prefixes dropped) and routed to that
///     fragment alone; queries spanning fragments fall back to fetching
///     the needed fragments and joining at the middleware.
///   - hybrid: instance fragments behave horizontally (union/sum over the
///     needed fragments, with μ-contradiction pruning); pure-projection
///     fragments behave vertically; mixed access falls back to the join.
///
/// A rewrite that must drop a path prefix fails for a path from
/// collection() that stops above the fragment's document roots (or a bare
/// collection() call); those plans fetch and evaluate too.
///
/// The decomposer is conservative: whatever the analysis cannot resolve
/// it routes to every fragment (horizontal/hybrid) or to the join path
/// (vertical), so answers remain correct.
class QueryDecomposer {
 public:
  explicit QueryDecomposer(const DistributionCatalog* catalog)
      : catalog_(catalog) {}

  /// Produces a plan for `query`. Queries referencing no fragmented
  /// collection yield a single-subquery plan against the centralized node
  /// when the catalog knows one.
  Result<DistributedPlan> Decompose(const std::string& query) const;

 private:
  const DistributionCatalog* catalog_;
};

}  // namespace partix::middleware

#endif  // PARTIX_PARTIX_DECOMPOSER_H_
