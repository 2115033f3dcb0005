#include "xquery/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "xpath/eval.h"
#include "xquery/parser.h"

namespace partix::xquery {

namespace {

using xml::Document;
using xml::DocumentPtr;
using xml::NodeId;
using xml::NodeKind;

/// Key for order-preserving dedup of node sequences.
struct NodeKey {
  const Document* doc;
  NodeId node;
  bool operator==(const NodeKey& other) const {
    return doc == other.doc && node == other.node;
  }
};
struct NodeKeyHash {
  size_t operator()(const NodeKey& k) const {
    return std::hash<const void*>()(k.doc) * 31 + k.node;
  }
};

/// step.name's id in `pool` (nullopt for wildcards and for names the pool
/// has not interned), found through the context's StepName cache.
std::optional<xml::NameId> FindStepName(EvalContext& ctx,
                                        const xml::NamePool& pool,
                                        const xpath::Step& step) {
  if (step.wildcard) return std::nullopt;
  for (const EvalContext::StepName& known : ctx.step_names) {
    if (known.step == &step && known.pool == &pool) return known.id;
  }
  const std::optional<xml::NameId> id = pool.Find(step.name);
  // A miss is not kept: the name may be interned later in this evaluation.
  if (id) ctx.step_names.push_back({&pool, &step, *id});
  return id;
}

/// The items [begin, end) of morsel `m` of an iteration over `size` items.
std::pair<size_t, size_t> MorselRange(size_t m, size_t size) {
  const size_t begin = m * Evaluator::kMorselGrain;
  return {begin, std::min(size, begin + Evaluator::kMorselGrain)};
}

/// True when the context items are nodes rooting pairwise-disjoint
/// subtrees in document order: whole documents (each appearing once), or
/// sealed elements whose [pre, sub_max] label ranges do not overlap. Under
/// that condition the remaining steps of a path can be evaluated
/// morsel-by-morsel with byte-identical results — every axis this
/// evaluator supports (child/descendant/attribute) stays inside the
/// context node's subtree, so the per-step dedup set never sees a
/// cross-morsel duplicate and morsel-order concatenation equals the
/// sequential append order.
bool DisjointSubtrees(const Sequence& context) {
  // Per document: sub_max of the last accepted subtree (disjoint +
  // ordered iff each next pre is greater).
  std::unordered_map<const Document*, uint32_t> last_sub_max;
  std::unordered_set<const Document*> whole_doc;
  for (const Item& item : context) {
    if (!item.IsNode()) return false;
    const NodeRef& ref = item.AsNode();
    const Document* d = ref.doc.get();
    if (ref.node == xml::kDocumentNode) {
      // A whole document: disjoint from everything except itself.
      if (whole_doc.count(d) != 0 || last_sub_max.count(d) != 0) return false;
      whole_doc.insert(d);
      continue;
    }
    if (whole_doc.count(d) != 0) return false;
    if (ref.doc->kind(ref.node) != NodeKind::kElement) return false;
    if (!ref.doc->has_labels()) return false;
    const xml::NodeLabel& label = ref.doc->label(ref.node);
    auto it = last_sub_max.find(d);
    if (it != last_sub_max.end() && label.pre <= it->second) return false;
    last_sub_max[d] = label.sub_max;
  }
  return true;
}

/// Seeds a morsel participant's context from the forking context: same
/// dynamic environment, forks disabled below.
EvalContext ForkContext(const EvalContext& ctx) {
  EvalContext out;
  out.variables = ctx.variables;
  out.context_stack = ctx.context_stack;
  out.position_stack = ctx.position_stack;
  out.step_names = ctx.step_names;
  out.in_morsel = true;
  return out;
}

}  // namespace

Evaluator::Evaluator(CollectionResolver* resolver,
                     std::shared_ptr<xml::NamePool> pool)
    : resolver_(resolver), pool_(std::move(pool)) {
  // Silent fallback (documented in the header): callers whose results
  // leave the evaluator must pass a shared pool instead.
  if (pool_ == nullptr) pool_ = std::make_shared<xml::NamePool>();
}

void Evaluator::BindVariable(const std::string& name, Sequence value) {
  variables_[name] = std::move(value);
}

void Evaluator::SetContextItem(Item item) {
  context_stack_.clear();
  context_stack_.push_back(std::move(item));
}

Result<Sequence> Evaluator::Eval(const Expr& query) {
  EvalContext ctx;
  ctx.variables = variables_;
  ctx.context_stack = context_stack_;
  Result<Sequence> out = EvalExpr(ctx, query);
  stats_ = ctx.stats;
  return out;
}

Result<EvalStreamPtr> Evaluator::OpenStream(const Expr& query,
                                            size_t block_items) const {
  auto stream = EvalStreamPtr(new EvalStream(this, &query));
  stream->ctx_.variables = variables_;
  stream->ctx_.context_stack = context_stack_;
  // Lazy only for the relative-path shape: the source (typically
  // collection("...")) is evaluated up front; the steps run per slice.
  // DisjointSubtrees is the same precondition the morsel fork uses, and
  // for the same reason: per-step dedup never crosses disjoint subtrees,
  // so slice-order evaluation of the remaining steps concatenates to the
  // sequential result byte-for-byte.
  if (query.Is<PathExpr>() && query.As<PathExpr>().source != nullptr) {
    const PathExpr& path = query.As<PathExpr>();
    PARTIX_ASSIGN_OR_RETURN(stream->context_,
                            EvalExpr(stream->ctx_, *path.source));
    if (DisjointSubtrees(stream->context_)) {
      stream->lazy_ = true;
      stream->steps_ = &path.steps;
      // A slice holds whole morsels for every worker, and at least one
      // consumer block: a slice any smaller would fork for a handful of
      // items, or not at all.
      stream->slice_ =
          std::max(block_items, MorselWorkers() * kMorselGrain);
      return stream;
    }
    // Non-disjoint source: fall through to materialized batches, reusing
    // the already-evaluated source.
    Result<Sequence> all = EvalSteps(stream->ctx_, std::move(stream->context_),
                                     path.steps, 0);
    stream->context_.clear();
    PARTIX_RETURN_IF_ERROR(all.status());
    stream->context_ = std::move(*all);
    stream->lazy_ = true;  // drain context_ as one batch
    stream->steps_ = nullptr;
    stream->slice_ = 0;
    return stream;
  }
  return stream;
}

Result<bool> EvalStream::Next(Sequence* out) {
  out->clear();
  if (done_) return false;
  if (!lazy_) {
    // Whole-expression fallback: one materialized batch.
    done_ = true;
    Result<Sequence> all = eval_->EvalExpr(ctx_, *query_);
    PARTIX_RETURN_IF_ERROR(all.status());
    *out = std::move(*all);
    return !out->empty();
  }
  if (steps_ == nullptr) {
    // Pre-materialized result parked in context_ (non-disjoint source).
    done_ = true;
    *out = std::move(context_);
    context_.clear();
    return !out->empty();
  }
  while (pos_ < context_.size()) {
    const size_t take = std::min(slice_, context_.size() - pos_);
    Sequence slice(context_.begin() + static_cast<ptrdiff_t>(pos_),
                   context_.begin() + static_cast<ptrdiff_t>(pos_ + take));
    pos_ += take;
    Result<Sequence> batch =
        eval_->EvalSteps(ctx_, std::move(slice), *steps_, 0);
    if (!batch.ok()) {
      done_ = true;
      return batch.status();
    }
    if (!batch->empty()) {
      *out = std::move(*batch);
      return true;
    }
  }
  done_ = true;
  return false;
}

size_t Evaluator::MorselWorkers() const {
  if (morsel_workers_ <= 1 || morsel_pool_ == nullptr) return 1;
  return std::min(morsel_workers_, morsel_pool_->thread_count());
}

void Evaluator::RunMorsels(
    EvalContext& ctx, size_t morsels,
    const std::function<void(EvalContext&, size_t)>& run) const {
  // One slot per participant (0 = the forking thread), cache-line aligned
  // so participants bumping their own stats never share a line.
  struct alignas(64) Participant {
    std::optional<EvalContext> ctx;
  };
  // Shared by the forking thread and the helper tasks; shared_ptr-owned
  // so a helper that wakes up after the fork returned (every morsel
  // claimed) still touches live memory. Such a helper finds the counter
  // exhausted and never reads `parent` or `run`, which live only as long
  // as the fork.
  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<size_t> finished{0};
    size_t morsels = 0;
    const EvalContext* parent = nullptr;
    const std::function<void(EvalContext&, size_t)>* run = nullptr;
    std::vector<Participant> participants;
    Latch done{1};
  };
  const size_t helpers = std::min(MorselWorkers(), morsels) - 1;
  auto st = std::make_shared<Shared>();
  st->morsels = morsels;
  st->parent = &ctx;
  st->run = &run;
  st->participants.resize(helpers + 1);
  auto drain = [](Shared& shared, size_t p) {
    for (size_t m = shared.next.fetch_add(1); m < shared.morsels;
         m = shared.next.fetch_add(1)) {
      // A claimed morsel keeps the fork open, so `parent` is alive here.
      std::optional<EvalContext>& mine = shared.participants[p].ctx;
      if (!mine.has_value()) mine.emplace(ForkContext(*shared.parent));
      if (p != 0) ++mine->stats.helper_morsels;
      (*shared.run)(*mine, m);
      if (shared.finished.fetch_add(1) + 1 == shared.morsels) {
        shared.done.CountDown();
      }
    }
  };
  // Help-while-waiting: the forking thread claims morsels alongside the
  // helpers, so even a saturated (or shut-down) pool cannot deadlock the
  // fork — worst case it drains every morsel itself.
  for (size_t p = 1; p <= helpers; ++p) {
    morsel_pool_->Submit([st, p, drain] { drain(*st, p); });
  }
  drain(*st, 0);
  st->done.Wait();
  for (Participant& participant : st->participants) {
    if (!participant.ctx.has_value()) continue;
    ctx.stats.Merge(participant.ctx->stats);
    // Drop the forked environments now, on this thread, rather than with
    // the last late helper.
    participant.ctx.reset();
  }
  ctx.stats.morsels += morsels;
}

Result<Sequence> Evaluator::EvalExpr(EvalContext& ctx, const Expr& e) const {
  if (e.Is<StringLit>()) return Sequence{Item(e.As<StringLit>().value)};
  if (e.Is<NumberLit>()) return Sequence{Item(e.As<NumberLit>().value)};
  if (e.Is<VarRef>()) {
    auto it = ctx.variables.find(e.As<VarRef>().name);
    if (it == ctx.variables.end()) {
      return Status::InvalidArgument("unbound variable $" +
                                     e.As<VarRef>().name);
    }
    return it->second;
  }
  if (e.Is<ContextItem>()) {
    if (ctx.context_stack.empty()) {
      return Status::InvalidArgument("no context item for '.'");
    }
    return Sequence{ctx.context_stack.back()};
  }
  if (e.Is<BinaryOp>()) return EvalBinary(ctx, e.As<BinaryOp>());
  if (e.Is<UnaryMinus>()) {
    PARTIX_ASSIGN_OR_RETURN(Sequence v,
                            EvalExpr(ctx, *e.As<UnaryMinus>().operand));
    if (v.empty()) return Sequence{};
    double n = 0.0;
    if (v.size() != 1 || !v[0].TryNumber(&n)) {
      return Status::InvalidArgument("unary minus on a non-number");
    }
    return Sequence{Item(-n)};
  }
  if (e.Is<PathExpr>()) return EvalPath(ctx, e.As<PathExpr>());
  if (e.Is<FunctionCall>()) return EvalFunction(ctx, e.As<FunctionCall>());
  if (e.Is<FlworExpr>()) return EvalFlwor(ctx, e.As<FlworExpr>());
  if (e.Is<ElementCtor>()) return EvalElementCtor(ctx, e.As<ElementCtor>());
  if (e.Is<IfExpr>()) {
    const auto& ie = e.As<IfExpr>();
    PARTIX_ASSIGN_OR_RETURN(Sequence cond, EvalExpr(ctx, *ie.cond));
    PARTIX_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
    return EvalExpr(ctx, b ? *ie.then_branch : *ie.else_branch);
  }
  if (e.Is<QuantifiedExpr>()) {
    PARTIX_ASSIGN_OR_RETURN(bool b,
                            EvalQuantified(ctx, e.As<QuantifiedExpr>(), 0));
    return Sequence{Item(b)};
  }
  return Status::Internal("unhandled expression kind");
}

Result<Sequence> Evaluator::EvalBinary(EvalContext& ctx,
                                       const BinaryOp& op) const {
  using Op = BinaryOp::Op;
  switch (op.op) {
    case Op::kComma: {
      PARTIX_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(ctx, *op.lhs));
      PARTIX_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(ctx, *op.rhs));
      for (Item& item : rhs) lhs.push_back(std::move(item));
      return lhs;
    }
    case Op::kOr:
    case Op::kAnd: {
      PARTIX_ASSIGN_OR_RETURN(Sequence lseq, EvalExpr(ctx, *op.lhs));
      PARTIX_ASSIGN_OR_RETURN(bool l, EffectiveBooleanValue(lseq));
      if (op.op == Op::kOr && l) return Sequence{Item(true)};
      if (op.op == Op::kAnd && !l) return Sequence{Item(false)};
      PARTIX_ASSIGN_OR_RETURN(Sequence rseq, EvalExpr(ctx, *op.rhs));
      PARTIX_ASSIGN_OR_RETURN(bool r, EffectiveBooleanValue(rseq));
      return Sequence{Item(r)};
    }
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      PARTIX_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(ctx, *op.lhs));
      PARTIX_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(ctx, *op.rhs));
      PARTIX_ASSIGN_OR_RETURN(bool b, GeneralCompare(op.op, lhs, rhs));
      return Sequence{Item(b)};
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod: {
      PARTIX_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(ctx, *op.lhs));
      PARTIX_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(ctx, *op.rhs));
      if (lhs.empty() || rhs.empty()) return Sequence{};
      double a = 0.0;
      double b = 0.0;
      if (lhs.size() != 1 || rhs.size() != 1 || !lhs[0].TryNumber(&a) ||
          !rhs[0].TryNumber(&b)) {
        return Status::InvalidArgument("arithmetic on non-numeric operands");
      }
      double result = 0.0;
      switch (op.op) {
        case Op::kAdd:
          result = a + b;
          break;
        case Op::kSub:
          result = a - b;
          break;
        case Op::kMul:
          result = a * b;
          break;
        case Op::kDiv:
          result = a / b;
          break;
        case Op::kMod:
          result = std::fmod(a, b);
          break;
        default:
          break;
      }
      return Sequence{Item(result)};
    }
  }
  return Status::Internal("unhandled binary operator");
}

Result<bool> Evaluator::GeneralCompare(BinaryOp::Op op, const Sequence& lhs,
                                       const Sequence& rhs) const {
  // XPath general comparison: existential over all atomized pairs.
  for (const Item& l : lhs) {
    for (const Item& r : rhs) {
      double a = 0.0;
      double b = 0.0;
      int cmp;
      if (l.TryNumber(&a) && r.TryNumber(&b)) {
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      } else {
        std::string ls = l.StringValue();
        std::string rs = r.StringValue();
        cmp = ls.compare(rs);
        cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      }
      bool match = false;
      switch (op) {
        case BinaryOp::Op::kEq:
          match = cmp == 0;
          break;
        case BinaryOp::Op::kNe:
          match = cmp != 0;
          break;
        case BinaryOp::Op::kLt:
          match = cmp < 0;
          break;
        case BinaryOp::Op::kLe:
          match = cmp <= 0;
          break;
        case BinaryOp::Op::kGt:
          match = cmp > 0;
          break;
        case BinaryOp::Op::kGe:
          match = cmp >= 0;
          break;
        default:
          return Status::Internal("non-comparison op in GeneralCompare");
      }
      if (match) return true;
    }
  }
  return false;
}

void Evaluator::MatchStep(EvalContext& ctx, const NodeRef& from,
                          const xpath::Step& step,
                          std::optional<xml::NameId> name,
                          Sequence* out) const {
  std::vector<NodeId>& nodes = ctx.step_matches;
  nodes.clear();
  const xpath::StepScan scan = xpath::MatchStep(
      *from.doc, from.node, step, name, use_structural_index_, &nodes);
  ctx.stats.nodes_visited += scan.visited;
  if (scan.label_range) {
    ++ctx.stats.index_range_scans;
    if (!nodes.empty()) ++ctx.stats.index_range_hits;
  }
  out->reserve(out->size() + nodes.size());
  for (NodeId n : nodes) out->push_back(Item(NodeRef{from.doc, n}));
}

Result<Sequence> Evaluator::EvalPath(EvalContext& ctx,
                                     const PathExpr& path) const {
  Sequence context;
  if (path.source != nullptr) {
    PARTIX_ASSIGN_OR_RETURN(context, EvalExpr(ctx, *path.source));
  } else {
    // Absolute path: root of the context item's document.
    if (ctx.context_stack.empty() || !ctx.context_stack.back().IsNode()) {
      return Status::InvalidArgument(
          "absolute path with no context document");
    }
    const NodeRef& root_ctx = ctx.context_stack.back().AsNode();
    if (path.steps.empty()) {
      context.push_back(Item(NodeRef{root_ctx.doc, root_ctx.doc->root()}));
      return context;
    }
    // The steps start at the virtual document node: a leading child step
    // matches the root element itself, a leading descendant step any node.
    context.push_back(Item(NodeRef{root_ctx.doc, xml::kDocumentNode}));
  }
  return EvalSteps(ctx, std::move(context), path.steps, 0);
}

Result<Sequence> Evaluator::EvalSteps(EvalContext& ctx, Sequence context,
                                      const std::vector<AxisStep>& steps,
                                      size_t first) const {
  Sequence current = std::move(context);
  for (size_t si = first; si < steps.size(); ++si) {
    // Morsel fork: when the context fans out over disjoint subtrees
    // (resolved collection documents, or top-level subtree ranges of one
    // large document via the structural labels), evaluate the remaining
    // steps morsel-by-morsel on the shared pool. Morsel-order stitching
    // preserves document order; see DisjointSubtrees for why results are
    // byte-identical to the sequential run.
    if (const size_t morsels = MorselCount(ctx, current.size());
        morsels > 0 && DisjointSubtrees(current)) {
      std::vector<Result<Sequence>> results(morsels, Sequence{});
      RunMorsels(ctx, morsels, [&](EvalContext& mc, size_t m) {
        const auto [begin, end] = MorselRange(m, current.size());
        results[m] = EvalSteps(
            mc, Sequence(current.begin() + begin, current.begin() + end),
            steps, si);
      });
      Sequence stitched;
      for (Result<Sequence>& result : results) {
        // Morsels cover ascending items, so the first failing morsel holds
        // the error the sequential run would hit first.
        PARTIX_RETURN_IF_ERROR(result.status());
        for (Item& item : *result) stitched.push_back(std::move(item));
      }
      return stitched;
    }
    const AxisStep& axis_step = steps[si];
    // One context node's children and descendants are already distinct;
    // several context nodes may share matches (nested or repeated
    // contexts), so only then does the step dedup.
    const bool dedup = current.size() > 1;
    std::unordered_set<NodeKey, NodeKeyHash> seen;
    // The step's name id in the pool of the documents at hand, re-found
    // only when the pool changes from one context item to the next.
    const xml::NamePool* pool = nullptr;
    std::optional<xml::NameId> name;
    Sequence next;
    for (const Item& item : current) {
      if (!item.IsNode()) {
        return Status::InvalidArgument(
            "path step applied to an atomic value");
      }
      const NodeRef& ref = item.AsNode();
      if (ref.doc->pool().get() != pool) {
        pool = ref.doc->pool().get();
        name = FindStepName(ctx, *pool, axis_step.step);
      }
      Sequence matches;
      MatchStep(ctx, ref, axis_step.step, name, &matches);
      // Apply predicates per context node (XPath positional semantics).
      for (const ExprPtr& pred : axis_step.predicates) {
        PARTIX_ASSIGN_OR_RETURN(
            matches, ApplyPredicate(ctx, *pred, std::move(matches)));
        if (matches.empty()) break;
      }
      if (!dedup) {
        next = std::move(matches);
        continue;
      }
      for (Item& m : matches) {
        NodeKey key{m.AsNode().doc.get(), m.AsNode().node};
        if (seen.insert(key).second) next.push_back(std::move(m));
      }
    }
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

Result<Sequence> Evaluator::ApplyPredicate(EvalContext& ctx,
                                           const Expr& pred,
                                           Sequence matches) const {
  // Fast path: a literal number is a positional filter. The range test
  // comes first, so only an in-range number reaches the conversion.
  if (pred.Is<NumberLit>()) {
    const double want = pred.As<NumberLit>().value;
    Sequence out;
    if (want >= 1 && want <= static_cast<double>(matches.size()) &&
        want == std::floor(want)) {
      out.push_back(matches[static_cast<size_t>(want) - 1]);
    }
    return out;
  }
  Sequence out;
  for (size_t i = 0; i < matches.size(); ++i) {
    ctx.context_stack.push_back(matches[i]);
    ctx.position_stack.emplace_back(i + 1, matches.size());
    Result<Sequence> value = EvalExpr(ctx, pred);
    ctx.position_stack.pop_back();
    ctx.context_stack.pop_back();
    if (!value.ok()) return value.status();
    const Sequence& v = *value;
    // A numeric result selects by position: only the item whose position
    // equals it exactly (so fractions, negatives and NaN select nothing).
    if (v.size() == 1 && v[0].IsNumber()) {
      if (v[0].AsNumber() == static_cast<double>(i + 1)) {
        out.push_back(matches[i]);
      }
      continue;
    }
    PARTIX_ASSIGN_OR_RETURN(bool keep, EffectiveBooleanValue(v));
    if (keep) out.push_back(matches[i]);
  }
  return out;
}

namespace {

/// Orders FLWOR sort keys: numbers numerically when both sides are
/// numeric, strings otherwise; empty keys sort first.
bool KeyLess(const Item& a, const Item& b) {
  double na = 0.0;
  double nb = 0.0;
  if (a.TryNumber(&na) && b.TryNumber(&nb)) return na < nb;
  return a.StringValue() < b.StringValue();
}

}  // namespace

Result<Sequence> Evaluator::EvalFlwor(EvalContext& ctx,
                                      const FlworExpr& flwor) const {
  Sequence out;
  if (flwor.order_by == nullptr) {
    PARTIX_RETURN_IF_ERROR(
        EvalFlworClauses(ctx, flwor, 0, &out, nullptr).status());
    return out;
  }
  std::vector<std::pair<Item, Sequence>> keyed;
  PARTIX_RETURN_IF_ERROR(
      EvalFlworClauses(ctx, flwor, 0, nullptr, &keyed).status());
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const auto& a, const auto& b) {
                     return flwor.order_descending
                                ? KeyLess(b.first, a.first)
                                : KeyLess(a.first, b.first);
                   });
  for (auto& [key, chunk] : keyed) {
    for (Item& item : chunk) out.push_back(std::move(item));
  }
  return out;
}

Result<Sequence> Evaluator::EvalFlworClauses(
    EvalContext& ctx, const FlworExpr& flwor, size_t clause_idx,
    Sequence* out, std::vector<std::pair<Item, Sequence>>* keyed) const {
  if (clause_idx == flwor.clauses.size()) {
    if (flwor.where != nullptr) {
      PARTIX_ASSIGN_OR_RETURN(Sequence cond, EvalExpr(ctx, *flwor.where));
      PARTIX_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
      if (!b) return Sequence{};
    }
    if (keyed != nullptr) {
      PARTIX_ASSIGN_OR_RETURN(Sequence key_seq,
                              EvalExpr(ctx, *flwor.order_by));
      Item key = key_seq.empty() ? Item(std::string()) : key_seq[0];
      PARTIX_ASSIGN_OR_RETURN(Sequence items, EvalExpr(ctx, *flwor.ret));
      keyed->emplace_back(std::move(key), std::move(items));
      return Sequence{};
    }
    PARTIX_ASSIGN_OR_RETURN(Sequence items, EvalExpr(ctx, *flwor.ret));
    for (Item& item : items) out->push_back(std::move(item));
    return Sequence{};
  }
  const ForLetClause& clause = flwor.clauses[clause_idx];
  PARTIX_ASSIGN_OR_RETURN(Sequence binding, EvalExpr(ctx, *clause.expr));

  // Morsel fork: a for-clause binds each item independently, so the
  // binding sequence splits into morsels whose tuple expansions run on
  // the shared pool. Each morsel collects its output (or order-by
  // buffer) locally and parks it in its own slot once; morsel-order
  // stitching reproduces the sequential tuple order exactly.
  const size_t morsels =
      clause.is_let ? 0 : MorselCount(ctx, binding.size());
  if (morsels > 0) {
    std::vector<Status> morsel_status(morsels, Status::Ok());
    std::vector<Sequence> morsel_out(morsels);
    std::vector<std::vector<std::pair<Item, Sequence>>> morsel_keyed(morsels);
    RunMorsels(ctx, morsels, [&](EvalContext& mc, size_t m) {
      const auto [begin, end] = MorselRange(m, binding.size());
      Sequence local_out;
      std::vector<std::pair<Item, Sequence>> local_keyed;
      for (size_t i = begin; i < end; ++i) {
        mc.variables[clause.var] = Sequence{binding[i]};
        Result<Sequence> r = EvalFlworClauses(
            mc, flwor, clause_idx + 1,
            keyed == nullptr ? &local_out : nullptr,
            keyed == nullptr ? nullptr : &local_keyed);
        if (!r.ok()) {
          morsel_status[m] = r.status();
          break;
        }
      }
      morsel_out[m] = std::move(local_out);
      morsel_keyed[m] = std::move(local_keyed);
    });
    for (size_t m = 0; m < morsels; ++m) {
      // Morsels cover ascending binding indexes, so the first failing
      // morsel holds the error the sequential run would hit first.
      PARTIX_RETURN_IF_ERROR(morsel_status[m]);
      if (keyed == nullptr) {
        for (Item& item : morsel_out[m]) out->push_back(std::move(item));
      } else {
        for (auto& kv : morsel_keyed[m]) keyed->push_back(std::move(kv));
      }
    }
    return Sequence{};
  }

  // Save and restore any shadowed variable.
  auto saved = ctx.variables.find(clause.var);
  bool had_saved = saved != ctx.variables.end();
  Sequence saved_value;
  if (had_saved) saved_value = saved->second;

  Status status = Status::Ok();
  if (clause.is_let) {
    ctx.variables[clause.var] = std::move(binding);
    Result<Sequence> r =
        EvalFlworClauses(ctx, flwor, clause_idx + 1, out, keyed);
    if (!r.ok()) status = r.status();
  } else {
    for (Item& item : binding) {
      ctx.variables[clause.var] = Sequence{item};
      Result<Sequence> r =
          EvalFlworClauses(ctx, flwor, clause_idx + 1, out, keyed);
      if (!r.ok()) {
        status = r.status();
        break;
      }
    }
  }
  if (had_saved) {
    ctx.variables[clause.var] = std::move(saved_value);
  } else {
    ctx.variables.erase(clause.var);
  }
  PARTIX_RETURN_IF_ERROR(status);
  return Sequence{};
}

Result<bool> Evaluator::EvalQuantified(EvalContext& ctx,
                                       const QuantifiedExpr& quantified,
                                       size_t binding_idx) const {
  if (binding_idx == quantified.bindings.size()) {
    PARTIX_ASSIGN_OR_RETURN(Sequence value,
                            EvalExpr(ctx, *quantified.satisfies));
    return EffectiveBooleanValue(value);
  }
  const ForLetClause& clause = quantified.bindings[binding_idx];
  PARTIX_ASSIGN_OR_RETURN(Sequence binding, EvalExpr(ctx, *clause.expr));
  auto saved = ctx.variables.find(clause.var);
  bool had_saved = saved != ctx.variables.end();
  Sequence saved_value;
  if (had_saved) saved_value = saved->second;

  // some: true if any tuple satisfies; every: false if any tuple fails.
  bool result = quantified.is_every;
  Status status = Status::Ok();
  for (Item& item : binding) {
    ctx.variables[clause.var] = Sequence{item};
    Result<bool> r = EvalQuantified(ctx, quantified, binding_idx + 1);
    if (!r.ok()) {
      status = r.status();
      break;
    }
    if (*r != quantified.is_every) {
      result = !quantified.is_every;
      break;
    }
  }
  if (had_saved) {
    ctx.variables[clause.var] = std::move(saved_value);
  } else {
    ctx.variables.erase(clause.var);
  }
  PARTIX_RETURN_IF_ERROR(status);
  return result;
}

Status Evaluator::BuildContent(EvalContext& ctx, const Sequence& content,
                               bool literal_text, xml::Document* doc,
                               xml::NodeId parent,
                               bool* last_was_atomic) const {
  (void)ctx;
  for (const Item& item : content) {
    if (item.IsNode()) {
      const NodeRef& ref = item.AsNode();
      if (ref.node == xml::kDocumentNode) {
        if (!ref.doc->empty()) {
          doc->CopySubtree(*ref.doc, ref.doc->root(), parent);
        }
        *last_was_atomic = false;
        continue;
      }
      if (ref.doc->kind(ref.node) == NodeKind::kAttribute) {
        doc->AppendAttribute(parent, ref.doc->name(ref.node),
                             ref.doc->value(ref.node));
      } else {
        doc->CopySubtree(*ref.doc, ref.node, parent);
      }
      *last_was_atomic = false;
    } else {
      std::string text = item.StringValue();
      if (*last_was_atomic && !literal_text) {
        // Adjacent atomics are joined with a single space (XQuery rule).
        text = " " + text;
      }
      doc->AppendText(parent, text);
      *last_was_atomic = true;
    }
  }
  return Status::Ok();
}

Result<Sequence> Evaluator::EvalElementCtor(EvalContext& ctx,
                                            const ElementCtor& ctor) const {
  // pool_ interning is thread-safe, so morsel workers may construct
  // elements against the shared pool concurrently.
  auto doc = std::make_shared<Document>(pool_, "(constructed)");
  NodeId root = doc->CreateRoot(ctor.name);
  for (const auto& [name, value] : ctor.attributes) {
    doc->AppendAttribute(root, name, value);
  }
  bool last_was_atomic = false;
  for (size_t i = 0; i < ctor.content.size(); ++i) {
    bool literal = ctor.content_is_literal_text[i];
    PARTIX_ASSIGN_OR_RETURN(Sequence value, EvalExpr(ctx, *ctor.content[i]));
    PARTIX_RETURN_IF_ERROR(BuildContent(ctx, value, literal, doc.get(), root,
                                        &last_was_atomic));
    if (literal) last_was_atomic = false;
  }
  ++ctx.stats.elements_constructed;
  // Seal before freezing: constructed content can itself be stepped over
  // by enclosing path expressions.
  doc->SealLabels();
  DocumentPtr frozen = doc;
  return Sequence{Item(NodeRef{frozen, root})};
}

Result<Sequence> Evaluator::EvalFunction(EvalContext& ctx,
                                         const FunctionCall& call) const {
  auto eval_args = [&](std::vector<Sequence>* out) -> Status {
    for (const ExprPtr& arg : call.args) {
      PARTIX_ASSIGN_OR_RETURN(Sequence v, EvalExpr(ctx, *arg));
      out->push_back(std::move(v));
    }
    return Status::Ok();
  };

  const std::string& fn = call.name;

  if (fn == "empty-sequence") return Sequence{};

  if (fn == "position" || fn == "last") {
    if (!call.args.empty()) {
      return Status::InvalidArgument(fn + "() takes no arguments");
    }
    if (ctx.position_stack.empty()) {
      return Status::InvalidArgument(fn +
                                     "() outside a predicate context");
    }
    return Sequence{Item(static_cast<double>(
        fn == "position" ? ctx.position_stack.back().first
                         : ctx.position_stack.back().second))};
  }

  if (fn == "collection" || fn == "doc") {
    if (resolver_ == nullptr) {
      return Status::FailedPrecondition("no collection resolver bound");
    }
    std::vector<Sequence> args;
    PARTIX_RETURN_IF_ERROR(eval_args(&args));
    if (args.size() != 1 || args[0].size() != 1) {
      return Status::InvalidArgument(fn + "() takes one string argument");
    }
    std::string name = args[0][0].StringValue();
    ++ctx.stats.collections_resolved;
    PARTIX_ASSIGN_OR_RETURN(std::vector<DocumentPtr> docs,
                            resolver_->Resolve(name));
    if (fn == "doc" && docs.size() != 1) {
      return Status::InvalidArgument("doc('" + name + "') matched " +
                                     std::to_string(docs.size()) +
                                     " documents");
    }
    Sequence out;
    out.reserve(docs.size());
    for (DocumentPtr& d : docs) {
      out.push_back(Item(NodeRef{std::move(d), xml::kDocumentNode}));
    }
    return out;
  }

  std::vector<Sequence> args;
  PARTIX_RETURN_IF_ERROR(eval_args(&args));

  auto require_args = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument(fn + "() expects " + std::to_string(n) +
                                     " argument(s), got " +
                                     std::to_string(args.size()));
    }
    return Status::Ok();
  };

  if (fn == "count") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    return Sequence{Item(static_cast<double>(args[0].size()))};
  }
  if (fn == "empty" || fn == "exists") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    bool empty = args[0].empty();
    return Sequence{Item(fn == "empty" ? empty : !empty)};
  }
  if (fn == "not" || fn == "boolean") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    PARTIX_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(args[0]));
    return Sequence{Item(fn == "not" ? !b : b)};
  }
  if (fn == "sum" || fn == "avg" || fn == "min" || fn == "max") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    if (args[0].empty()) {
      if (fn == "sum") return Sequence{Item(0.0)};
      return Sequence{};
    }
    double acc = fn == "min" ? 1e308 : (fn == "max" ? -1e308 : 0.0);
    for (const Item& item : args[0]) {
      double v = 0.0;
      if (!item.TryNumber(&v)) {
        return Status::InvalidArgument(fn + "() over a non-numeric item");
      }
      if (fn == "min") {
        acc = std::min(acc, v);
      } else if (fn == "max") {
        acc = std::max(acc, v);
      } else {
        acc += v;
      }
    }
    if (fn == "avg") acc /= static_cast<double>(args[0].size());
    return Sequence{Item(acc)};
  }
  if (fn == "contains" || fn == "starts-with") {
    PARTIX_RETURN_IF_ERROR(require_args(2));
    // Empty first argument: no value to search in.
    if (args[0].empty()) return Sequence{Item(false)};
    std::string needle =
        args[1].empty() ? std::string() : args[1][0].StringValue();
    // Existential over the first sequence, mirroring how eXist applies
    // text predicates to node sets.
    bool found = false;
    for (const Item& item : args[0]) {
      std::string hay = item.StringValue();
      if (fn == "contains" ? Contains(hay, needle)
                           : StartsWith(hay, needle)) {
        found = true;
        break;
      }
    }
    return Sequence{Item(found)};
  }
  if (fn == "string-length") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    if (args[0].empty()) return Sequence{Item(0.0)};
    return Sequence{
        Item(static_cast<double>(args[0][0].StringValue().size()))};
  }
  if (fn == "concat") {
    std::string out;
    for (const Sequence& arg : args) {
      for (const Item& item : arg) out += item.StringValue();
    }
    return Sequence{Item(std::move(out))};
  }
  if (fn == "string") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    if (args[0].empty()) return Sequence{Item(std::string())};
    return Sequence{Item(args[0][0].StringValue())};
  }
  if (fn == "number") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    double v = 0.0;
    if (args[0].empty() || !args[0][0].TryNumber(&v)) {
      return Sequence{Item(std::nan(""))};
    }
    return Sequence{Item(v)};
  }
  if (fn == "name") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    if (args[0].empty() || !args[0][0].IsNode()) {
      return Sequence{Item(std::string())};
    }
    const NodeRef& ref = args[0][0].AsNode();
    if (ref.doc->kind(ref.node) == NodeKind::kText) {
      return Sequence{Item(std::string())};
    }
    return Sequence{Item(std::string(ref.doc->name(ref.node)))};
  }
  if (fn == "substring") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::InvalidArgument("substring() takes 2 or 3 arguments");
    }
    std::string s =
        args[0].empty() ? std::string() : args[0][0].StringValue();
    double start = 0.0;
    if (args[1].empty() || !args[1][0].TryNumber(&start)) {
      return Status::InvalidArgument("substring(): bad start");
    }
    // XPath substring is 1-based.
    int64_t begin = static_cast<int64_t>(start) - 1;
    int64_t length = static_cast<int64_t>(s.size());
    if (args.size() == 3) {
      double len = 0.0;
      if (args[2].empty() || !args[2][0].TryNumber(&len)) {
        return Status::InvalidArgument("substring(): bad length");
      }
      length = static_cast<int64_t>(len);
    }
    if (begin < 0) {
      length += begin;
      begin = 0;
    }
    if (begin >= static_cast<int64_t>(s.size()) || length <= 0) {
      return Sequence{Item(std::string())};
    }
    return Sequence{Item(s.substr(static_cast<size_t>(begin),
                                  static_cast<size_t>(length)))};
  }
  if (fn == "string-join") {
    PARTIX_RETURN_IF_ERROR(require_args(2));
    std::string sep =
        args[1].empty() ? std::string() : args[1][0].StringValue();
    std::string out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (i > 0) out += sep;
      out += args[0][i].StringValue();
    }
    return Sequence{Item(std::move(out))};
  }
  if (fn == "normalize-space") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    std::string s =
        args[0].empty() ? std::string() : args[0][0].StringValue();
    std::string out;
    bool in_space = true;  // also strips leading whitespace
    for (char c : s) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!in_space) out.push_back(' ');
        in_space = true;
      } else {
        out.push_back(c);
        in_space = false;
      }
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return Sequence{Item(std::move(out))};
  }
  if (fn == "upper-case" || fn == "lower-case") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    std::string s =
        args[0].empty() ? std::string() : args[0][0].StringValue();
    for (char& c : s) {
      c = fn == "upper-case"
              ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
              : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return Sequence{Item(std::move(s))};
  }
  if (fn == "distinct-values") {
    PARTIX_RETURN_IF_ERROR(require_args(1));
    Sequence out;
    std::unordered_set<std::string> seen;
    for (const Item& item : args[0]) {
      std::string v = item.StringValue();
      if (seen.insert(v).second) out.push_back(Item(std::move(v)));
    }
    return out;
  }
  return Status::Unimplemented("unknown function " + fn + "()");
}

Result<std::vector<DocumentPtr>> MapResolver::Resolve(
    const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name + "' does not exist");
  }
  return it->second;
}

Result<Sequence> EvalQuery(const std::string& query,
                           CollectionResolver* resolver,
                           std::shared_ptr<xml::NamePool> pool) {
  PARTIX_ASSIGN_OR_RETURN(ExprPtr ast, ParseQuery(query));
  Evaluator ev(resolver, std::move(pool));
  return ev.Eval(*ast);
}

}  // namespace partix::xquery
