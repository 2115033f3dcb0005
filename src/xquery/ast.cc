#include "xquery/ast.h"

#include "common/strings.h"

namespace partix::xquery {

namespace {

const char* OpName(BinaryOp::Op op) {
  switch (op) {
    case BinaryOp::Op::kOr:
      return "or";
    case BinaryOp::Op::kAnd:
      return "and";
    case BinaryOp::Op::kEq:
      return "=";
    case BinaryOp::Op::kNe:
      return "!=";
    case BinaryOp::Op::kLt:
      return "<";
    case BinaryOp::Op::kLe:
      return "<=";
    case BinaryOp::Op::kGt:
      return ">";
    case BinaryOp::Op::kGe:
      return ">=";
    case BinaryOp::Op::kAdd:
      return "+";
    case BinaryOp::Op::kSub:
      return "-";
    case BinaryOp::Op::kMul:
      return "*";
    case BinaryOp::Op::kDiv:
      return "div";
    case BinaryOp::Op::kMod:
      return "mod";
    case BinaryOp::Op::kComma:
      return ",";
  }
  return "?";
}

void StepToString(const AxisStep& s, std::string* out) {
  out->append(s.step.axis == xpath::Axis::kDescendant ? "//" : "/");
  if (s.step.is_attribute) out->push_back('@');
  out->append(s.step.wildcard ? "*" : s.step.name);
  for (const ExprPtr& p : s.predicates) {
    out->push_back('[');
    out->append(ExprToString(*p));
    out->push_back(']');
  }
}

}  // namespace

std::string ExprToString(const Expr& e) {
  std::string out;
  if (e.Is<StringLit>()) {
    out = "\"" + e.As<StringLit>().value + "\"";
  } else if (e.Is<NumberLit>()) {
    out = FormatNumber(e.As<NumberLit>().value);
  } else if (e.Is<VarRef>()) {
    out = "$" + e.As<VarRef>().name;
  } else if (e.Is<ContextItem>()) {
    out = ".";
  } else if (e.Is<BinaryOp>()) {
    const auto& b = e.As<BinaryOp>();
    if (b.op == BinaryOp::Op::kComma) {
      out = "(" + ExprToString(*b.lhs) + ", " + ExprToString(*b.rhs) + ")";
    } else {
      out = "(" + ExprToString(*b.lhs) + " " + OpName(b.op) + " " +
            ExprToString(*b.rhs) + ")";
    }
  } else if (e.Is<UnaryMinus>()) {
    out = "-" + ExprToString(*e.As<UnaryMinus>().operand);
  } else if (e.Is<PathExpr>()) {
    const auto& p = e.As<PathExpr>();
    if (p.source != nullptr) out = ExprToString(*p.source);
    for (const AxisStep& s : p.steps) StepToString(s, &out);
  } else if (e.Is<FunctionCall>()) {
    const auto& f = e.As<FunctionCall>();
    out = f.name + "(";
    for (size_t i = 0; i < f.args.size(); ++i) {
      if (i > 0) out += ", ";
      out += ExprToString(*f.args[i]);
    }
    out += ")";
  } else if (e.Is<FlworExpr>()) {
    const auto& f = e.As<FlworExpr>();
    for (const ForLetClause& c : f.clauses) {
      out += c.is_let ? "let $" + c.var + " := " : "for $" + c.var + " in ";
      out += ExprToString(*c.expr) + " ";
    }
    if (f.where != nullptr) out += "where " + ExprToString(*f.where) + " ";
    if (f.order_by != nullptr) {
      out += "order by " + ExprToString(*f.order_by) +
             (f.order_descending ? " descending " : " ");
    }
    out += "return " + ExprToString(*f.ret);
  } else if (e.Is<ElementCtor>()) {
    const auto& c = e.As<ElementCtor>();
    out = "<" + c.name;
    for (const auto& [name, value] : c.attributes) {
      out += " " + name + "=\"";
      AppendEscapedXml(value, /*attr=*/true, &out);
      out += "\"";
    }
    out += ">";
    for (size_t i = 0; i < c.content.size(); ++i) {
      if (c.content_is_literal_text[i]) {
        out += c.content[i]->As<StringLit>().value;
      } else {
        out += "{" + ExprToString(*c.content[i]) + "}";
      }
    }
    out += "</" + c.name + ">";
  } else if (e.Is<QuantifiedExpr>()) {
    const auto& q = e.As<QuantifiedExpr>();
    out = q.is_every ? "every " : "some ";
    for (size_t i = 0; i < q.bindings.size(); ++i) {
      if (i > 0) out += ", ";
      out += "$" + q.bindings[i].var + " in " +
             ExprToString(*q.bindings[i].expr);
    }
    out += " satisfies " + ExprToString(*q.satisfies);
  } else if (e.Is<IfExpr>()) {
    const auto& i = e.As<IfExpr>();
    out = "if (" + ExprToString(*i.cond) + ") then " +
          ExprToString(*i.then_branch) + " else " +
          ExprToString(*i.else_branch);
  }
  return out;
}

ExprPtr CloneExpr(const Expr& e) {
  if (e.Is<StringLit>()) return MakeExpr(StringLit{e.As<StringLit>().value});
  if (e.Is<NumberLit>()) return MakeExpr(NumberLit{e.As<NumberLit>().value});
  if (e.Is<VarRef>()) return MakeExpr(VarRef{e.As<VarRef>().name});
  if (e.Is<ContextItem>()) return MakeExpr(ContextItem{});
  if (e.Is<BinaryOp>()) {
    const auto& b = e.As<BinaryOp>();
    return MakeExpr(BinaryOp{b.op, CloneExpr(*b.lhs), CloneExpr(*b.rhs)});
  }
  if (e.Is<UnaryMinus>()) {
    return MakeExpr(UnaryMinus{CloneExpr(*e.As<UnaryMinus>().operand)});
  }
  if (e.Is<PathExpr>()) {
    const auto& p = e.As<PathExpr>();
    PathExpr copy;
    copy.source = p.source ? CloneExpr(*p.source) : nullptr;
    for (const AxisStep& s : p.steps) {
      AxisStep sc;
      sc.step = s.step;
      for (const ExprPtr& pred : s.predicates) {
        sc.predicates.push_back(CloneExpr(*pred));
      }
      copy.steps.push_back(std::move(sc));
    }
    return MakeExpr(std::move(copy));
  }
  if (e.Is<FunctionCall>()) {
    const auto& f = e.As<FunctionCall>();
    FunctionCall copy;
    copy.name = f.name;
    for (const ExprPtr& a : f.args) copy.args.push_back(CloneExpr(*a));
    return MakeExpr(std::move(copy));
  }
  if (e.Is<FlworExpr>()) {
    const auto& f = e.As<FlworExpr>();
    FlworExpr copy;
    for (const ForLetClause& c : f.clauses) {
      copy.clauses.push_back(
          ForLetClause{c.is_let, c.var, CloneExpr(*c.expr)});
    }
    copy.where = f.where ? CloneExpr(*f.where) : nullptr;
    copy.order_by = f.order_by ? CloneExpr(*f.order_by) : nullptr;
    copy.order_descending = f.order_descending;
    copy.ret = CloneExpr(*f.ret);
    return MakeExpr(std::move(copy));
  }
  if (e.Is<ElementCtor>()) {
    const auto& c = e.As<ElementCtor>();
    ElementCtor copy;
    copy.name = c.name;
    copy.attributes = c.attributes;
    for (const ExprPtr& item : c.content) {
      copy.content.push_back(CloneExpr(*item));
    }
    copy.content_is_literal_text = c.content_is_literal_text;
    return MakeExpr(std::move(copy));
  }
  if (e.Is<QuantifiedExpr>()) {
    const auto& q = e.As<QuantifiedExpr>();
    QuantifiedExpr copy;
    copy.is_every = q.is_every;
    for (const ForLetClause& b : q.bindings) {
      copy.bindings.push_back(
          ForLetClause{b.is_let, b.var, CloneExpr(*b.expr)});
    }
    copy.satisfies = CloneExpr(*q.satisfies);
    return MakeExpr(std::move(copy));
  }
  const auto& i = e.As<IfExpr>();
  return MakeExpr(IfExpr{CloneExpr(*i.cond), CloneExpr(*i.then_branch),
                         CloneExpr(*i.else_branch)});
}

}  // namespace partix::xquery
