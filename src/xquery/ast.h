#ifndef PARTIX_XQUERY_AST_H_
#define PARTIX_XQUERY_AST_H_

#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "xpath/path.h"

namespace partix::xquery {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// String literal: "abc".
struct StringLit {
  std::string value;
};

/// Numeric literal: 42, 3.14.
struct NumberLit {
  double value = 0.0;
};

/// Variable reference: $x.
struct VarRef {
  std::string name;
};

/// The context item: `.` inside a step predicate.
struct ContextItem {};

/// Binary operators (logical, comparison, arithmetic, sequence comma).
struct BinaryOp {
  enum class Op {
    kOr,
    kAnd,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kMod,
    kComma,
  };
  Op op;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// Unary minus.
struct UnaryMinus {
  ExprPtr operand;
};

/// One step of a path expression within a query, with optional bracketed
/// predicates. A numeric-literal predicate is positional; any other
/// expression is an effective-boolean filter evaluated with the step result
/// as context item.
struct AxisStep {
  xpath::Step step;
  std::vector<ExprPtr> predicates;
};

/// A path applied to a source expression ($v/a/b) or to the root of the
/// context document when `source` is null (absolute path inside a
/// predicate or against a bound document).
struct PathExpr {
  ExprPtr source;  // may be null
  std::vector<AxisStep> steps;
};

/// Function call: count(...), contains(...), collection("name"), ...
struct FunctionCall {
  std::string name;
  std::vector<ExprPtr> args;
};

/// One for/let binding of a FLWOR expression.
struct ForLetClause {
  bool is_let = false;
  std::string var;
  ExprPtr expr;
};

/// FLWOR: (for | let)+ where? (order by)? return.
struct FlworExpr {
  std::vector<ForLetClause> clauses;
  ExprPtr where;     // may be null
  ExprPtr order_by;  // may be null; sort key per binding tuple
  bool order_descending = false;
  ExprPtr ret;
};

/// Direct element constructor: <r a="1">{...}</r>. Attribute values are
/// literal strings; content interleaves literal text (StringLit) and
/// enclosed expressions.
struct ElementCtor {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<ExprPtr> content;
  /// Marks content entries that were literal text (not enclosed exprs), so
  /// the evaluator does not re-atomize them with separators.
  std::vector<bool> content_is_literal_text;
};

/// Quantified expression: some/every $v in E (, ...) satisfies P.
struct QuantifiedExpr {
  bool is_every = false;
  std::vector<ForLetClause> bindings;  // is_let unused (always for-style)
  ExprPtr satisfies;
};

/// if (cond) then e1 else e2.
struct IfExpr {
  ExprPtr cond;
  ExprPtr then_branch;
  ExprPtr else_branch;
};

/// A query AST node.
struct Expr {
  std::variant<StringLit, NumberLit, VarRef, ContextItem, BinaryOp,
               UnaryMinus, PathExpr, FunctionCall, FlworExpr, ElementCtor,
               IfExpr, QuantifiedExpr>
      node;

  template <typename T>
  bool Is() const {
    return std::holds_alternative<T>(node);
  }
  template <typename T>
  const T& As() const {
    return std::get<T>(node);
  }
  template <typename T>
  T& As() {
    return std::get<T>(node);
  }
};

template <typename T>
ExprPtr MakeExpr(T node) {
  auto e = std::make_unique<Expr>();
  e->node = std::move(node);
  return e;
}

namespace internal {

template <typename T>
inline constexpr bool kChildrenUnnamed = false;

/// `E` is `const Expr` or `Expr`; see ForEachChild.
template <typename E, typename F>
void ForEachChildOf(E& e, F& f) {
  auto each = [&f](auto& child) {
    if (child != nullptr) f(static_cast<E&>(*child));
  };
  std::visit(
      [&](auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, StringLit> ||
                      std::is_same_v<T, NumberLit> ||
                      std::is_same_v<T, VarRef> ||
                      std::is_same_v<T, ContextItem>) {
          // Leaves.
        } else if constexpr (std::is_same_v<T, BinaryOp>) {
          each(node.lhs);
          each(node.rhs);
        } else if constexpr (std::is_same_v<T, UnaryMinus>) {
          each(node.operand);
        } else if constexpr (std::is_same_v<T, PathExpr>) {
          each(node.source);
          for (auto& step : node.steps) {
            for (auto& predicate : step.predicates) each(predicate);
          }
        } else if constexpr (std::is_same_v<T, FunctionCall>) {
          for (auto& arg : node.args) each(arg);
        } else if constexpr (std::is_same_v<T, FlworExpr>) {
          for (auto& clause : node.clauses) each(clause.expr);
          each(node.where);
          each(node.order_by);
          each(node.ret);
        } else if constexpr (std::is_same_v<T, ElementCtor>) {
          for (auto& content : node.content) each(content);
        } else if constexpr (std::is_same_v<T, IfExpr>) {
          each(node.cond);
          each(node.then_branch);
          each(node.else_branch);
        } else if constexpr (std::is_same_v<T, QuantifiedExpr>) {
          for (auto& binding : node.bindings) each(binding.expr);
          each(node.satisfies);
        } else {
          static_assert(kChildrenUnnamed<T>,
                        "ForEachChild must name the children of every Expr "
                        "kind");
        }
      },
      e.node);
}

}  // namespace internal

/// Calls `f(child)` on every direct child expression of `e`, in source
/// order: a path's source, then its step predicates step by step; a
/// FLWOR's clause expressions, `where`, `order by` and `return`; a
/// quantifier's binding expressions, then `satisfies`. This is the one
/// place that knows each kind's children, and every AST walk recurses
/// through it, so an `Expr` kind it does not name fails to compile.
template <typename F>
void ForEachChild(const Expr& e, F&& f) {
  internal::ForEachChildOf<const Expr>(e, f);
}

/// The mutable form, for in-place rewrites.
template <typename F>
void ForEachChild(Expr& e, F&& f) {
  internal::ForEachChildOf<Expr>(e, f);
}

/// Renders the AST back to (approximately) XQuery text, used for
/// diagnostics and for shipping rewritten sub-queries to nodes.
std::string ExprToString(const Expr& e);

/// Deep copy (used by the query decomposer when rewriting).
ExprPtr CloneExpr(const Expr& e);

}  // namespace partix::xquery

#endif  // PARTIX_XQUERY_AST_H_
