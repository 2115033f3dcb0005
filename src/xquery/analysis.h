#ifndef PARTIX_XQUERY_ANALYSIS_H_
#define PARTIX_XQUERY_ANALYSIS_H_

#include <optional>
#include <string>
#include <vector>

#include "xpath/path.h"
#include "xpath/predicate.h"
#include "xquery/ast.h"

namespace partix::xquery {

/// The literal name when `e` is collection("name") or doc("name").
std::optional<std::string> AsCollectionCall(const Expr& e);

/// A conjunct that every document read at a collection() call site must
/// satisfy: a comparison, contains(), starts-with(), exists() or bare path
/// over the site's context, reached through `and` only (or, not() and
/// empty() give no sound positive constraint). The context is the context
/// item of a step predicate on the site's path, or the variable a `for`
/// binds to the site, in that FLWOR's `where`.
struct SiteConjunct {
  /// The conjunct's path as written, relative to its context (or
  /// document-root-absolute, inside a step predicate).
  xpath::Path path;
  /// The conjunct over full (document-root-absolute) paths, when it has
  /// the shape of a fragmentation predicate: a comparison with a literal,
  /// contains() with a string literal, exists() or a bare path.
  std::optional<xpath::Predicate> predicate;
};

/// One collection()/doc() call with a literal name.
struct CollectionSite {
  std::string collection;
  /// The steps of the path rooted at the call; empty for a bare call.
  std::vector<xpath::Step> spine;
  std::vector<SiteConjunct> conjuncts;
  /// A bare call that no `for` binds: it reads the whole collection, and
  /// no `where` can constrain it.
  bool unconstrained = false;
};

/// What one walk of a query's AST learns about the data it reads (paper
/// §4: data localization is a static analysis of the query). Computed once
/// per CompiledQuery and read by the decomposer (localization), the engine
/// planner (per-site index constraints) and the fragmentation advisor
/// (workload predicates).
struct QueryAnalysis {
  /// Literal collection()/doc() names, sorted and deduplicated.
  std::vector<std::string> collections;
  /// True when some collection()/doc() call takes a non-literal name, so
  /// `collections` may be incomplete.
  bool dynamic_collections = false;
  /// "count", "sum", "avg", "min" or "max" when the root is a
  /// single-argument call of one; empty otherwise.
  std::string root_aggregate;
  /// Every literal call site, in query order.
  std::vector<CollectionSite> sites;
  /// Every full path the query reads data through. A for/let binding path
  /// only iterates: its data is read through paths extended from the
  /// variable, or through the bare variable.
  std::vector<xpath::Path> touched;
  /// False when some path or variable does not resolve to full paths, or a
  /// quantifier binds variables; `touched` is then incomplete and readers
  /// must assume the query reads everything.
  bool analyzable = true;
  /// True when a some/every binding reads a collection.
  bool quantified_collection = false;

  /// The predicates of every site's conjuncts, in query order.
  std::vector<xpath::Predicate> Constraints() const;
};

/// Walks `root` once, recursing through ForEachChild.
QueryAnalysis Analyze(const Expr& root);

}  // namespace partix::xquery

#endif  // PARTIX_XQUERY_ANALYSIS_H_
