#ifndef PARTIX_XQUERY_COMPILED_QUERY_H_
#define PARTIX_XQUERY_COMPILED_QUERY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "xquery/analysis.h"
#include "xquery/ast.h"

namespace partix::xquery {

class CompiledQuery;

/// Compiled queries are immutable once built and always shared const, so
/// one artifact can be handed to many threads, nodes, and retry attempts.
using CompiledQueryPtr = std::shared_ptr<const CompiledQuery>;

/// The immutable parse + static-analysis artifact of one query text: the
/// AST, its QueryAnalysis (the one walk whose facts the decomposer, the
/// engine planner and the fragmentation advisor read), and the cost of
/// producing them. This is the unit the compile-once pipeline passes between
/// layers — the decomposer compiles the submitted query once, rewritten
/// sub-queries are built from cloned ASTs without re-parsing, and engines
/// execute the AST directly (see engine/plan_cache.h for the engine-side
/// plan built on top of this).
///
/// Thread-safety: deeply immutable after construction; safe to share and
/// read from any number of threads without synchronization. The AST is
/// owned by the artifact and lives exactly as long as it.
class CompiledQuery {
 public:
  /// Parses `text` and analyzes the result. Returns the parse error on
  /// malformed input (never caches failures). `compile_ms()` reports the
  /// measured parse + analysis cost.
  static Result<CompiledQueryPtr> Compile(std::string text);

  /// Wraps an already-built AST (e.g. a decomposer rewrite of a compiled
  /// query) without parsing; `text` must be the rendered form of `ast`.
  /// Analysis still runs, but no parse cost is paid — `compile_ms()` is 0.
  static CompiledQueryPtr FromAst(std::string text, ExprPtr ast);

  CompiledQuery(const CompiledQuery&) = delete;
  CompiledQuery& operator=(const CompiledQuery&) = delete;

  /// The query text this artifact was compiled from (plan-cache key and
  /// Explain display form).
  const std::string& text() const { return text_; }
  const Expr& ast() const { return *ast_; }

  /// The static analysis of `ast()`, computed once at construction.
  const QueryAnalysis& analysis() const { return analysis_; }

  /// Collection/doc names referenced through literal collection()/doc()
  /// calls, sorted and deduplicated.
  const std::vector<std::string>& collections() const {
    return analysis_.collections;
  }

  /// True when some collection()/doc() call takes a non-literal name, so
  /// `collections()` may be incomplete.
  bool has_dynamic_collections() const {
    return analysis_.dynamic_collections;
  }

  /// Measured parse + analysis cost (ms); 0 for FromAst artifacts.
  double compile_ms() const { return compile_ms_; }

 private:
  CompiledQuery(std::string text, ExprPtr ast)
      : text_(std::move(text)),
        ast_(std::move(ast)),
        analysis_(Analyze(*ast_)) {}

  std::string text_;
  ExprPtr ast_;
  QueryAnalysis analysis_;
  double compile_ms_ = 0.0;
};

}  // namespace partix::xquery

#endif  // PARTIX_XQUERY_COMPILED_QUERY_H_
