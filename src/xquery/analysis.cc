#include "xquery/analysis.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/strings.h"

namespace partix::xquery {

namespace {

using xpath::CompareOp;
using xpath::Predicate;
using Steps = std::vector<xpath::Step>;

constexpr size_t kNoSite = static_cast<size_t>(-1);

/// The literal string of a string or number literal.
std::optional<std::string> AsLiteral(const Expr& e) {
  if (e.Is<StringLit>()) return e.As<StringLit>().value;
  if (e.Is<NumberLit>()) return FormatNumber(e.As<NumberLit>().value);
  return std::nullopt;
}

/// The comparison `op` denotes with the path on the left: `lit < path` is
/// `path > lit`. Nullopt for operators that are not comparisons.
std::optional<CompareOp> Comparison(BinaryOp::Op op, bool path_on_right) {
  switch (op) {
    case BinaryOp::Op::kEq:
      return CompareOp::kEq;
    case BinaryOp::Op::kNe:
      return CompareOp::kNe;
    case BinaryOp::Op::kLt:
      return path_on_right ? CompareOp::kGt : CompareOp::kLt;
    case BinaryOp::Op::kLe:
      return path_on_right ? CompareOp::kGe : CompareOp::kLe;
    case BinaryOp::Op::kGt:
      return path_on_right ? CompareOp::kLt : CompareOp::kGt;
    case BinaryOp::Op::kGe:
      return path_on_right ? CompareOp::kLe : CompareOp::kGe;
    default:
      return std::nullopt;
  }
}

bool HoldsPredicate(const AxisStep& step, const Expr& e) {
  return std::any_of(step.predicates.begin(), step.predicates.end(),
                     [&e](const ExprPtr& p) { return p.get() == &e; });
}

class Walker {
 public:
  QueryAnalysis Run(const Expr& root) {
    if (root.Is<FunctionCall>()) {
      const auto& f = root.As<FunctionCall>();
      if (f.args.size() == 1 &&
          (f.name == "count" || f.name == "sum" || f.name == "avg" ||
           f.name == "min" || f.name == "max")) {
        out_.root_aggregate = f.name;
      }
    }
    Visit(root);
    for (const CollectionSite& site : out_.sites) {
      out_.collections.push_back(site.collection);
    }
    std::sort(out_.collections.begin(), out_.collections.end());
    out_.collections.erase(
        std::unique(out_.collections.begin(), out_.collections.end()),
        out_.collections.end());
    return std::move(out_);
  }

 private:
  /// A path's full steps (nullopt when its innermost source is not the
  /// context item, a variable in scope or a collection call), and the
  /// site of the collection call it is rooted at directly.
  struct Resolved {
    std::optional<Steps> full;
    size_t site = kNoSite;
  };

  /// A conjunct's path relative to its context, and its full steps.
  struct ConjunctPath {
    Steps relative;
    Steps full;
  };

  void Visit(const Expr& e) {
    if (e.Is<PathExpr>()) {
      Resolved path = VisitPath(e);
      if (path.full) out_.touched.emplace_back(std::move(*path.full));
      return;
    }
    if (e.Is<FlworExpr>()) {
      VisitFlwor(e);
      return;
    }
    if (e.Is<QuantifiedExpr>()) {
      VisitQuantified(e);
      return;
    }
    if (e.Is<VarRef>()) {
      // A bare variable reads whatever it is bound to; bound to a bare
      // collection call, that is whole documents.
      auto it = vars_.find(e.As<VarRef>().name);
      if (it == vars_.end() || it->second.empty()) {
        out_.analyzable = false;
      } else {
        out_.touched.emplace_back(it->second);
      }
      return;
    }
    if (e.Is<ContextItem>()) {
      if (context_ != nullptr) out_.touched.emplace_back(*context_);
      return;
    }
    if (e.Is<FunctionCall>()) {
      const auto& f = e.As<FunctionCall>();
      if (std::optional<std::string> name = AsCollectionCall(e)) {
        AddSite(std::move(*name), {}, /*unconstrained=*/true);
        return;
      }
      if (f.name == "collection" || f.name == "doc") {
        out_.dynamic_collections = true;
      }
    }
    ForEachChild(e, [this](const Expr& child) { Visit(child); });
  }

  /// Resolves a path and visits its source and its step predicates, each
  /// predicate with its step as the context item. The predicates of a path
  /// rooted at a collection call are mined into that call's site. Records
  /// nothing as touched: the caller decides whether the path reads data.
  Resolved VisitPath(const Expr& e) {
    const auto& p = e.As<PathExpr>();
    Resolved out;
    if (p.source == nullptr) {
      // An absolute path starts at the root of its context's document.
      if (context_ != nullptr) {
        out.full.emplace();
      } else {
        out_.analyzable = false;
      }
    }
    size_t step = 0;
    ForEachChild(e, [&](const Expr& child) {
      if (&child == p.source.get()) {
        out.full = ResolveSource(child, p, &out.site);
        return;
      }
      // Predicates arrive in step order.
      while (!HoldsPredicate(p.steps[step], child)) ++step;
      if (!out.full) {
        VisitInContext(child, nullptr);
        return;
      }
      Steps context = *out.full;
      for (size_t i = 0; i <= step; ++i) context.push_back(p.steps[i].step);
      if (out.site != kNoSite) MineConjuncts(child, out.site, context, nullptr);
      VisitInContext(child, &context);
    });
    if (out.full) {
      for (const AxisStep& s : p.steps) out.full->push_back(s.step);
    }
    return out;
  }

  /// The full steps a path's source denotes; registers the site when the
  /// source is a collection call.
  std::optional<Steps> ResolveSource(const Expr& source, const PathExpr& p,
                                     size_t* site) {
    if (source.Is<ContextItem>()) {
      if (context_ != nullptr) return *context_;
      out_.analyzable = false;  // context-item paths outside predicates
      return std::nullopt;
    }
    if (source.Is<VarRef>()) {
      auto it = vars_.find(source.As<VarRef>().name);
      if (it != vars_.end()) return it->second;
      out_.analyzable = false;  // let-bound to a non-path, or unbound
      return std::nullopt;
    }
    if (std::optional<std::string> name = AsCollectionCall(source)) {
      Steps spine;
      for (const AxisStep& s : p.steps) spine.push_back(s.step);
      *site = AddSite(std::move(*name), std::move(spine),
                      /*unconstrained=*/false);
      return Steps{};
    }
    if (source.Is<PathExpr>()) return VisitPath(source).full;
    Visit(source);
    return std::nullopt;
  }

  void VisitInContext(const Expr& e, const Steps* context) {
    const Steps* saved = context_;
    context_ = context;
    Visit(e);
    context_ = saved;
  }

  void VisitFlwor(const Expr& e) {
    const auto& f = e.As<FlworExpr>();
    const std::map<std::string, Steps> saved = vars_;
    // `for` variables of this FLWOR bound directly to a call site.
    std::map<std::string, size_t> sites;
    size_t clause = 0;
    ForEachChild(e, [&](const Expr& child) {
      if (clause < f.clauses.size() &&
          &child == f.clauses[clause].expr.get()) {
        Bind(f.clauses[clause++], child, &sites);
        return;
      }
      if (&child == f.where.get()) {
        for (const auto& [var, site] : sites) {
          MineConjuncts(child, site, vars_.at(var), &var);
        }
      }
      Visit(child);
    });
    vars_ = saved;
  }

  /// Visits a clause's binding expression and binds its variable for what
  /// follows. A binding path only iterates, so it is not touched. A `for`
  /// over a path extending another `for` variable of the same FLWOR reads
  /// that variable's site: its tuples exist only for that site's documents.
  void Bind(const ForLetClause& clause, const Expr& binding,
            std::map<std::string, size_t>* sites) {
    std::optional<Steps> full;
    size_t site = kNoSite;
    if (binding.Is<PathExpr>()) {
      Resolved path = VisitPath(binding);
      full = std::move(path.full);
      site = path.site;
      const Expr* root = &binding;
      while (root->Is<PathExpr>() && root->As<PathExpr>().source != nullptr) {
        root = root->As<PathExpr>().source.get();
      }
      if (root->Is<VarRef>() && sites->count(root->As<VarRef>().name) > 0) {
        site = sites->at(root->As<VarRef>().name);
      }
    } else if (std::optional<std::string> name = AsCollectionCall(binding)) {
      site = AddSite(std::move(*name), {}, /*unconstrained=*/clause.is_let);
      full.emplace();
    } else {
      Visit(binding);
    }
    sites->erase(clause.var);
    if (!clause.is_let && site != kNoSite) (*sites)[clause.var] = site;
    if (full) {
      vars_[clause.var] = std::move(*full);
    } else {
      vars_.erase(clause.var);
    }
  }

  void VisitQuantified(const Expr& e) {
    // Quantifiers bind variables the analysis does not model.
    out_.analyzable = false;
    const Expr* satisfies = e.As<QuantifiedExpr>().satisfies.get();
    ForEachChild(e, [&](const Expr& child) {
      const bool binding = &child != satisfies;
      quantifier_bindings_ += binding ? 1 : 0;
      Visit(child);
      quantifier_bindings_ -= binding ? 1 : 0;
    });
  }

  size_t AddSite(std::string collection, Steps spine, bool unconstrained) {
    if (quantifier_bindings_ > 0) out_.quantified_collection = true;
    out_.sites.push_back(CollectionSite{std::move(collection),
                                        std::move(spine), {}, unconstrained});
    return out_.sites.size() - 1;
  }

  /// The path `e` denotes over the conjunct context: the context item at
  /// `base` inside a step predicate (`var` null, where absolute paths
  /// start at the document root), or variable `*var` bound at `base`.
  std::optional<ConjunctPath> OverContext(const Expr& e, const Steps& base,
                                          const std::string* var) const {
    if (!e.Is<PathExpr>()) return std::nullopt;
    const auto& p = e.As<PathExpr>();
    std::optional<ConjunctPath> out;
    if (p.source == nullptr) {
      if (var == nullptr) out.emplace();
    } else if (p.source->Is<ContextItem>()) {
      if (var == nullptr) out = ConjunctPath{{}, base};
    } else if (p.source->Is<VarRef>()) {
      if (var != nullptr && p.source->As<VarRef>().name == *var) {
        out = ConjunctPath{{}, base};
      }
    } else {
      out = OverContext(*p.source, base, var);  // `A/B` extends path `A`
    }
    if (!out) return std::nullopt;
    for (const AxisStep& s : p.steps) {
      out->relative.push_back(s.step);
      out->full.push_back(s.step);
    }
    return out;
  }

  /// Mines the `and`-conjuncts of `e` over the conjunct context (see
  /// OverContext) into `site`.
  void MineConjuncts(const Expr& e, size_t site, const Steps& base,
                     const std::string* var) {
    const Expr* path = &e;  // a bare path is an existence test
    // The predicate shape, when the conjunct has one.
    std::optional<Predicate::Kind> kind = Predicate::Kind::kExists;
    std::optional<CompareOp> op;
    std::optional<std::string> value;
    if (e.Is<BinaryOp>()) {
      const auto& b = e.As<BinaryOp>();
      if (b.op == BinaryOp::Op::kAnd) {
        MineConjuncts(*b.lhs, site, base, var);
        MineConjuncts(*b.rhs, site, base, var);
        return;
      }
      const bool path_on_right = !b.lhs->Is<PathExpr>();
      op = Comparison(b.op, path_on_right);
      if (!op) return;
      path = path_on_right ? b.rhs.get() : b.lhs.get();
      value = AsLiteral(path_on_right ? *b.lhs : *b.rhs);
      kind = value ? std::optional(Predicate::Kind::kCompare) : std::nullopt;
    } else if (e.Is<FunctionCall>()) {
      const auto& f = e.As<FunctionCall>();
      if (f.name == "contains" && f.args.size() == 2) {
        if (f.args[1]->Is<StringLit>()) value = f.args[1]->As<StringLit>().value;
        kind = value ? std::optional(Predicate::Kind::kContains) : std::nullopt;
      } else if (f.name == "starts-with" && f.args.size() == 2) {
        kind = std::nullopt;
      } else if (f.name != "exists" || f.args.size() != 1) {
        return;
      }
      path = f.args[0].get();
    }
    std::optional<ConjunctPath> resolved = OverContext(*path, base, var);
    if (!resolved) return;
    xpath::Path full(std::move(resolved->full));
    std::optional<Predicate> predicate;
    if (kind == Predicate::Kind::kCompare) {
      predicate = Predicate::Compare(std::move(full), *op, *value);
    } else if (kind == Predicate::Kind::kContains) {
      predicate = Predicate::Contains(std::move(full), *value);
    } else if (kind == Predicate::Kind::kExists) {
      predicate = Predicate::Exists(std::move(full));
    }
    out_.sites[site].conjuncts.push_back(SiteConjunct{
        xpath::Path(std::move(resolved->relative)), std::move(predicate)});
  }

  std::map<std::string, Steps> vars_;
  /// The context item's full steps inside a step predicate, else null.
  const Steps* context_ = nullptr;
  size_t quantifier_bindings_ = 0;
  QueryAnalysis out_;
};

}  // namespace

std::optional<std::string> AsCollectionCall(const Expr& e) {
  if (!e.Is<FunctionCall>()) return std::nullopt;
  const auto& f = e.As<FunctionCall>();
  if (f.name != "collection" && f.name != "doc") return std::nullopt;
  if (f.args.size() != 1 || !f.args[0]->Is<StringLit>()) return std::nullopt;
  return f.args[0]->As<StringLit>().value;
}

std::vector<Predicate> QueryAnalysis::Constraints() const {
  std::vector<Predicate> out;
  for (const CollectionSite& site : sites) {
    for (const SiteConjunct& conjunct : site.conjuncts) {
      if (conjunct.predicate) out.push_back(*conjunct.predicate);
    }
  }
  return out;
}

QueryAnalysis Analyze(const Expr& root) { return Walker().Run(root); }

}  // namespace partix::xquery
