#include "partix/decomposer.h"

#include "common/strings.h"
#include "xpath/predicate.h"
#include "xquery/analysis.h"
#include "xquery/ast.h"
#include "xquery/compiled_query.h"

namespace partix::middleware {

namespace {

using frag::FragmentDef;
using frag::FragmentKind;
using frag::HybridMode;
using xpath::CompareOp;
using xpath::Predicate;
using xquery::AxisStep;
using xquery::Expr;
using xquery::ExprPtr;
using xquery::FunctionCall;
using xquery::PathExpr;
using xquery::StringLit;

// ---------------------------------------------------------------------
// Predicate contradiction (data localization)
// ---------------------------------------------------------------------

/// Three-way comparison of predicate values: numeric when both parse as
/// numbers, lexicographic otherwise (the semantics of xpath::Predicate).
int CompareLiterals(const std::string& a, const std::string& b) {
  double da = 0.0;
  double db = 0.0;
  if (ParseDouble(a, &da) && ParseDouble(b, &db)) {
    return da < db ? -1 : (da > db ? 1 : 0);
  }
  int cmp = a.compare(b);
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

/// True when `value` satisfies the constraint `x op bound`.
bool SatisfiesOp(const std::string& value, CompareOp op,
                 const std::string& bound) {
  int cmp = CompareLiterals(value, bound);
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// True when the constraint sets {x : x opa a} and {x : x opb b} are
/// disjoint under the total order of CompareLiterals.
bool RangesDisjoint(CompareOp opa, const std::string& a, CompareOp opb,
                    const std::string& b) {
  // Point constraints: test the point against the other side.
  if (opa == CompareOp::kEq) return !SatisfiesOp(a, opb, b);
  if (opb == CompareOp::kEq) return !SatisfiesOp(b, opa, a);
  // ≠ leaves everything but one point: never disjoint from another range
  // over an order with more than one value.
  if (opa == CompareOp::kNe || opb == CompareOp::kNe) return false;
  // Both are half-lines. Disjoint iff one is an upper bound, the other a
  // lower bound, and they do not overlap.
  auto is_upper = [](CompareOp op) {
    return op == CompareOp::kLt || op == CompareOp::kLe;
  };
  if (is_upper(opa) == is_upper(opb)) return false;  // same direction
  const std::string& upper = is_upper(opa) ? a : b;
  CompareOp upper_op = is_upper(opa) ? opa : opb;
  const std::string& lower = is_upper(opa) ? b : a;
  CompareOp lower_op = is_upper(opa) ? opb : opa;
  int cmp = CompareLiterals(upper, lower);  // upper bound vs lower bound
  if (cmp < 0) return true;
  if (cmp > 0) return false;
  // Bounds touch: empty unless both ends include the point.
  return upper_op == CompareOp::kLt || lower_op == CompareOp::kGt;
}

/// True when every node `q` can select is also selected by `f` on any
/// document. Conservative: exact step equality, or `f` being a lone
/// descendant step (//X) whose element name matches `q`'s final step.
bool PathSubsumes(const xpath::Path& f, const xpath::Path& q) {
  if (f == q) return true;
  if (f.size() == 1 && f.steps()[0].axis == xpath::Axis::kDescendant &&
      !f.steps()[0].wildcard && !f.steps()[0].is_attribute &&
      f.steps()[0].position == 0 && !q.empty()) {
    const xpath::Step& last = q.steps().back();
    return !last.is_attribute && !last.wildcard &&
           last.name == f.steps()[0].name;
  }
  return false;
}

/// True when a document satisfying query predicate `q` cannot satisfy
/// fragmentation predicate `f` (assuming single-occurrence paths, the
/// standard fragmentation-design assumption).
bool Contradicts(const Predicate& q, const Predicate& f) {
  // empty(P) in the fragment vs any positive q on a path P prefixes.
  if (f.kind() == Predicate::Kind::kExists && f.negated()) {
    if (!q.negated() && f.path().IsPrefixOf(q.path())) return true;
    return false;
  }
  if (q.kind() == Predicate::Kind::kContains ||
      f.kind() == Predicate::Kind::kContains) {
    // Handled below with subsumption instead of exact path equality.
  } else if (!(q.path() == f.path())) {
    return false;
  }
  if (q.kind() == Predicate::Kind::kCompare &&
      f.kind() == Predicate::Kind::kCompare && !q.negated() &&
      !f.negated()) {
    return RangesDisjoint(q.op(), q.value(), f.op(), f.value());
  }
  if (q.kind() == Predicate::Kind::kContains && !q.negated() &&
      f.kind() == Predicate::Kind::kContains && f.negated()) {
    // q requires some node under its path to contain q.value; f forbids
    // every node under its (subsuming) path from containing f.value;
    // contradiction when containing q.value implies containing f.value.
    return PathSubsumes(f.path(), q.path()) &&
           Contains(q.value(), f.value());
  }
  return false;
}

/// True when any query constraint contradicts any conjunct of μ.
bool FragmentPruned(const std::vector<Predicate>& query_constraints,
                    const std::vector<Predicate>& mu) {
  for (const Predicate& q : query_constraints) {
    for (const Predicate& f : mu) {
      if (Contradicts(q, f)) return true;
    }
  }
  return false;
}

/// Localizes a fragment predicate defined over instance subtrees (hybrid):
/// prepends the container path steps, e.g. /Item/Section = "CD" under
/// container /Store/Items becomes /Store/Items/Item/Section = "CD".
Predicate LocalizePredicate(const Predicate& p,
                            const xpath::Path& container) {
  std::vector<xpath::Step> steps = container.steps();
  for (const xpath::Step& s : p.path().steps()) steps.push_back(s);
  xpath::Path full(std::move(steps));
  switch (p.kind()) {
    case Predicate::Kind::kCompare: {
      Predicate out = Predicate::Compare(full, p.op(), p.value());
      return p.negated() ? out.Complement() : out;
    }
    case Predicate::Kind::kContains: {
      Predicate out = Predicate::Contains(full, p.value());
      return p.negated() ? out.Complement() : out;
    }
    case Predicate::Kind::kExists:
    default: {
      Predicate out = Predicate::Exists(full);
      return p.negated() ? out.Complement() : out;
    }
  }
}

// ---------------------------------------------------------------------
// Rewriting
// ---------------------------------------------------------------------

/// Rewrites a query for execution against a fragment: renames every
/// collection("old") call to `new_name` and drops `drop_steps` leading
/// child-axis steps of each path rooted at one (the path prefix that lies
/// above the fragment's document roots). Fails when a dropped step is not
/// a plain child step or carries predicates, and when a path (or a bare
/// call, a path of no steps) stops above the fragment's roots: no
/// fragment document holds the node it selects.
Status RewriteForFragment(Expr* e, const std::string& old_name,
                          const std::string& new_name, size_t drop_steps) {
  if (xquery::AsCollectionCall(*e) == old_name) {
    if (drop_steps > 0) {
      return Status::FailedPrecondition(
          "collection(\"" + old_name + "\") without a path is not "
          "rewritable for fragment '" + new_name + "'");
    }
    e->As<FunctionCall>().args[0]->As<StringLit>().value = new_name;
    return Status::Ok();
  }
  // The renamed call of a path whose prefix was dropped here.
  const Expr* rooted_call = nullptr;
  if (e->Is<PathExpr>() && drop_steps > 0) {
    auto& p = e->As<PathExpr>();
    if (p.source != nullptr &&
        xquery::AsCollectionCall(*p.source) == old_name) {
      if (p.steps.size() < drop_steps) {
        return Status::FailedPrecondition(
            "path of " + std::to_string(p.steps.size()) +
            " step(s) stops above the " + std::to_string(drop_steps) +
            "-step prefix of fragment '" + new_name + "'");
      }
      for (size_t i = 0; i < drop_steps; ++i) {
        const AxisStep& s = p.steps[i];
        if (s.step.axis != xpath::Axis::kChild || s.step.wildcard ||
            s.step.is_attribute || !s.predicates.empty() ||
            s.step.position > 0) {
          return Status::FailedPrecondition(
              "path prefix step '" + s.step.name +
              "' is not rewritable for fragment '" + new_name + "'");
        }
      }
      p.steps.erase(p.steps.begin(), p.steps.begin() + drop_steps);
      rooted_call = p.source.get();
    }
  }
  Status status;
  xquery::ForEachChild(*e, [&](Expr& child) {
    if (status.ok()) {
      status = RewriteForFragment(&child, old_name, new_name,
                                  &child == rooted_call ? 0 : drop_steps);
    }
  });
  return status;
}

/// Produces the rewritten sub-query for one fragment as a compiled
/// artifact, or an error when the query is not rewritable for it. The
/// clone is rewritten structurally and wrapped without ever re-parsing;
/// the rendered text rides along for Explain and error messages.
Result<xquery::CompiledQueryPtr> RewriteCompiled(
    const Expr& ast, const std::string& collection,
    const std::string& fragment, size_t drop_steps) {
  ExprPtr clone = xquery::CloneExpr(ast);
  PARTIX_RETURN_IF_ERROR(
      RewriteForFragment(clone.get(), collection, fragment, drop_steps));
  std::string text = xquery::ExprToString(*clone);
  return xquery::CompiledQuery::FromAst(std::move(text), std::move(clone));
}

/// `collection("fragment")` as a compiled artifact, built structurally
/// (fetch sub-queries of the join-reconstruct path).
xquery::CompiledQueryPtr FetchQuery(const std::string& fragment) {
  FunctionCall call;
  call.name = "collection";
  call.args.push_back(xquery::MakeExpr(StringLit{fragment}));
  return xquery::CompiledQuery::FromAst(
      "collection(\"" + fragment + "\")",
      xquery::MakeExpr(std::move(call)));
}

// ---------------------------------------------------------------------
// Fragment "needed" analysis for projections
// ---------------------------------------------------------------------

/// True when a touched path can reach data held by a projection fragment
/// with path `p` and prune set `gamma`.
bool ProjectionNeeded(const xpath::Path& touched, const xpath::Path& p,
                      const std::vector<xpath::Path>& gamma) {
  // Conservative on descendant/wildcard steps: treat as intersecting.
  for (const xpath::Step& s : touched.steps()) {
    if (s.axis == xpath::Axis::kDescendant || s.wildcard) return true;
  }
  if (!p.IsPrefixOf(touched) && !touched.IsPrefixOf(p)) return false;
  for (const xpath::Path& e : gamma) {
    if (e.IsPrefixOf(touched)) return false;  // pruned out of this fragment
  }
  return true;
}

/// Builds a SubQuery routed to every replica of `fragment` (primary
/// first), so the executor can fail over without re-planning.
Result<SubQuery> MakeSubQuery(const DistributionEntry& entry,
                              const std::string& fragment,
                              xquery::CompiledQueryPtr compiled) {
  PARTIX_ASSIGN_OR_RETURN(std::vector<size_t> replicas,
                          entry.ReplicasOf(fragment));
  SubQuery sub;
  sub.fragment = fragment;
  sub.node = replicas.front();
  sub.replicas = std::move(replicas);
  sub.query = compiled->text();
  sub.compiled = std::move(compiled);
  return sub;
}

}  // namespace

const char* CompositionName(Composition c) {
  switch (c) {
    case Composition::kUnion:
      return "union";
    case Composition::kSumCounts:
      return "sum";
    case Composition::kJoinReconstruct:
      return "join-reconstruct";
  }
  return "?";
}

Result<DistributedPlan> QueryDecomposer::Decompose(
    const std::string& query) const {
  // The single parse of the whole middleware execution: sub-queries are
  // derived from this AST by cloning + structural rewriting, and the
  // compiled artifact travels with the plan so no downstream layer (node
  // engines, retries, join composition) ever re-parses the text.
  PARTIX_ASSIGN_OR_RETURN(xquery::CompiledQueryPtr compiled,
                          xquery::CompiledQuery::Compile(query));
  const Expr& ast = compiled->ast();
  const xquery::QueryAnalysis& analysis = compiled->analysis();

  if (analysis.collections.empty()) {
    return Status::InvalidArgument(
        "query references no collection; nothing to route");
  }

  // Identify the (single) fragmented collection.
  std::string fragmented;
  for (const std::string& coll : analysis.collections) {
    if (catalog_->IsFragmented(coll)) {
      if (!fragmented.empty()) {
        return Status::Unimplemented(
            "queries over multiple fragmented collections are not "
            "supported");
      }
      fragmented = coll;
    }
  }

  DistributedPlan plan;
  plan.original_query = query;
  plan.compiled = compiled;

  if (fragmented.empty()) {
    // Centralized execution at the node holding the collection: the
    // original query ships unchanged, compiled form included.
    const std::string& coll = *analysis.collections.begin();
    PARTIX_ASSIGN_OR_RETURN(size_t node, catalog_->CentralizedNode(coll));
    plan.collection = coll;
    plan.composition = Composition::kUnion;
    SubQuery sub;
    sub.fragment = coll;
    sub.node = node;
    sub.replicas = {node};
    sub.query = query;
    sub.compiled = compiled;
    plan.subqueries.push_back(std::move(sub));
    plan.notes.push_back("collection is centralized; no decomposition");
    return plan;
  }
  if (analysis.collections.size() > 1) {
    return Status::Unimplemented(
        "queries mixing fragmented and other collections are not "
        "supported");
  }

  PARTIX_ASSIGN_OR_RETURN(const DistributionEntry* entry,
                          catalog_->Get(fragmented));
  const frag::FragmentationSchema& schema = entry->schema;
  plan.collection = fragmented;

  const bool decomposable_aggregate =
      analysis.root_aggregate == "count" || analysis.root_aggregate == "sum";
  const bool awkward_aggregate =
      !analysis.root_aggregate.empty() && !decomposable_aggregate;
  // The decomposer conjoins the constraints of every call site.
  const std::vector<Predicate> constraints = analysis.Constraints();

  auto add_fetch_subqueries =
      [&](const std::vector<const FragmentDef*>& defs) -> Status {
    for (const FragmentDef* def : defs) {
      PARTIX_ASSIGN_OR_RETURN(
          SubQuery sub,
          MakeSubQuery(*entry, def->name(), FetchQuery(def->name())));
      plan.subqueries.push_back(std::move(sub));
    }
    plan.composition = Composition::kJoinReconstruct;
    return Status::Ok();
  };

  switch (schema.DominantKind()) {
    case FragmentKind::kHorizontal: {
      std::vector<const FragmentDef*> targets;
      for (const FragmentDef& def : schema.fragments) {
        if (analysis.analyzable &&
            FragmentPruned(constraints,
                           def.horizontal().mu.predicates())) {
          ++plan.pruned_fragments;
          continue;
        }
        targets.push_back(&def);
      }
      if (plan.pruned_fragments > 0) {
        plan.notes.push_back(
            "data localization pruned " +
            std::to_string(plan.pruned_fragments) + " fragment(s)");
      }
      if ((awkward_aggregate || analysis.quantified_collection) &&
          targets.size() > 1) {
        plan.notes.push_back(
            (awkward_aggregate ? "aggregate '" + analysis.root_aggregate + "'"
                               : std::string("a quantifier over the "
                                             "collection")) +
            " is not distributive; fetching fragments");
        PARTIX_RETURN_IF_ERROR(add_fetch_subqueries(targets));
        return plan;
      }
      for (const FragmentDef* def : targets) {
        PARTIX_ASSIGN_OR_RETURN(
            xquery::CompiledQueryPtr sub_compiled,
            RewriteCompiled(ast, fragmented, def->name(), 0));
        PARTIX_ASSIGN_OR_RETURN(
            SubQuery sub,
            MakeSubQuery(*entry, def->name(), std::move(sub_compiled)));
        plan.subqueries.push_back(std::move(sub));
      }
      plan.composition = decomposable_aggregate && plan.subqueries.size() > 1
                             ? Composition::kSumCounts
                             : Composition::kUnion;
      return plan;
    }

    case FragmentKind::kVertical: {
      std::vector<const FragmentDef*> needed;
      for (const FragmentDef& def : schema.fragments) {
        const frag::VerticalDef& v = def.vertical();
        bool used = !analysis.analyzable || analysis.touched.empty();
        for (const xpath::Path& t : analysis.touched) {
          if (ProjectionNeeded(t, v.path, v.prune)) {
            used = true;
            break;
          }
        }
        if (used) needed.push_back(&def);
      }
      if (needed.empty()) {
        return Status::InvalidArgument(
            "query touches no fragment of '" + fragmented + "'");
      }
      if (needed.size() == 1 && analysis.analyzable && !awkward_aggregate) {
        const frag::VerticalDef& v = needed[0]->vertical();
        Result<xquery::CompiledQueryPtr> rewritten = RewriteCompiled(
            ast, fragmented, needed[0]->name(), v.path.size() - 1);
        if (rewritten.ok()) {
          PARTIX_ASSIGN_OR_RETURN(
              SubQuery sub,
              MakeSubQuery(*entry, needed[0]->name(), std::move(*rewritten)));
          plan.subqueries.push_back(std::move(sub));
          plan.composition = Composition::kUnion;
          plan.pruned_fragments = schema.fragments.size() - 1;
          plan.notes.push_back("single-fragment vertical rewrite");
          return plan;
        }
        plan.notes.push_back("rewrite failed: " +
                             rewritten.status().message());
      }
      plan.notes.push_back(needed.size() == 1
                               ? "one vertical fragment; fetched and "
                                 "evaluated at middleware"
                               : "multi-fragment vertical query; join at "
                                 "middleware");
      PARTIX_RETURN_IF_ERROR(add_fetch_subqueries(needed));
      plan.pruned_fragments = schema.fragments.size() - needed.size();
      return plan;
    }

    case FragmentKind::kHybrid: {
      // Partition defs: instance fragments (non-trivial μ) vs pure
      // projections.
      std::vector<const FragmentDef*> instance_defs;
      std::vector<const FragmentDef*> pure_defs;
      for (const FragmentDef& def : schema.fragments) {
        if (def.kind() == FragmentKind::kHybrid &&
            !def.hybrid().mu.IsTrue()) {
          instance_defs.push_back(&def);
        } else {
          pure_defs.push_back(&def);
        }
      }
      auto def_path = [](const FragmentDef* def) -> const xpath::Path& {
        return def->kind() == FragmentKind::kHybrid ? def->hybrid().path
                                                    : def->vertical().path;
      };
      auto def_prune =
          [](const FragmentDef* def) -> const std::vector<xpath::Path>& {
        return def->kind() == FragmentKind::kHybrid ? def->hybrid().prune
                                                    : def->vertical().prune;
      };

      std::vector<const FragmentDef*> needed_instance;
      std::vector<const FragmentDef*> needed_pure;
      for (const FragmentDef* def : instance_defs) {
        bool used = !analysis.analyzable || analysis.touched.empty();
        for (const xpath::Path& t : analysis.touched) {
          if (ProjectionNeeded(t, def_path(def), def_prune(def))) {
            used = true;
            break;
          }
        }
        if (used && analysis.analyzable) {
          // μ-based localization.
          std::vector<Predicate> localized;
          for (const Predicate& p : def->hybrid().mu.predicates()) {
            localized.push_back(LocalizePredicate(p, def_path(def)));
          }
          if (FragmentPruned(constraints, localized)) {
            used = false;
            ++plan.pruned_fragments;
          }
        }
        if (used) needed_instance.push_back(def);
      }
      for (const FragmentDef* def : pure_defs) {
        bool used = !analysis.analyzable || analysis.touched.empty();
        for (const xpath::Path& t : analysis.touched) {
          if (ProjectionNeeded(t, def_path(def), def_prune(def))) {
            used = true;
            break;
          }
        }
        if (used) needed_pure.push_back(def);
      }

      if (plan.pruned_fragments > 0) {
        plan.notes.push_back(
            "data localization pruned " +
            std::to_string(plan.pruned_fragments) + " fragment(s)");
      }

      const bool mode1 =
          schema.hybrid_mode == HybridMode::kOneDocPerSubtree;

      if (!needed_instance.empty() && needed_pure.empty() &&
          analysis.analyzable && !awkward_aggregate) {
        // Horizontal-style plan over the instance fragments.
        bool ok = true;
        std::vector<SubQuery> subs;
        for (const FragmentDef* def : needed_instance) {
          size_t drop = def_path(def).size() - (mode1 ? 0 : 1);
          Result<xquery::CompiledQueryPtr> rewritten =
              RewriteCompiled(ast, fragmented, def->name(), drop);
          if (!rewritten.ok()) {
            plan.notes.push_back("rewrite failed: " +
                                 rewritten.status().message());
            ok = false;
            break;
          }
          PARTIX_ASSIGN_OR_RETURN(
              SubQuery sub,
              MakeSubQuery(*entry, def->name(), std::move(*rewritten)));
          subs.push_back(std::move(sub));
        }
        if (ok) {
          plan.subqueries = std::move(subs);
          plan.composition =
              decomposable_aggregate && plan.subqueries.size() > 1
                  ? Composition::kSumCounts
                  : Composition::kUnion;
          return plan;
        }
      }
      if (needed_instance.empty() && needed_pure.size() == 1 &&
          analysis.analyzable && !awkward_aggregate) {
        const FragmentDef* def = needed_pure[0];
        Result<xquery::CompiledQueryPtr> rewritten = RewriteCompiled(
            ast, fragmented, def->name(), def_path(def).size() - 1);
        if (rewritten.ok()) {
          PARTIX_ASSIGN_OR_RETURN(
              SubQuery sub,
              MakeSubQuery(*entry, def->name(), std::move(*rewritten)));
          plan.subqueries.push_back(std::move(sub));
          plan.composition = Composition::kUnion;
          plan.notes.push_back("single pure-projection fragment");
          return plan;
        }
        plan.notes.push_back("rewrite failed: " +
                             rewritten.status().message());
      }
      // Fallback: fetch every needed fragment and evaluate locally.
      std::vector<const FragmentDef*> all_needed = needed_instance;
      for (const FragmentDef* def : needed_pure) all_needed.push_back(def);
      if (all_needed.empty()) {
        for (const FragmentDef& def : schema.fragments) {
          all_needed.push_back(&def);
        }
      }
      plan.notes.push_back("hybrid fallback: join at middleware");
      PARTIX_RETURN_IF_ERROR(add_fetch_subqueries(all_needed));
      return plan;
    }
  }
  return Status::Internal("unhandled fragmentation kind");
}

}  // namespace partix::middleware
