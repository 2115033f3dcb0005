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
using xml::kNullNode;
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

bool StepMatches(const Document& doc, NodeId n, const xpath::Step& step) {
  if (step.is_attribute) {
    if (doc.kind(n) != NodeKind::kAttribute) return false;
  } else {
    if (doc.kind(n) != NodeKind::kElement) return false;
  }
  return step.wildcard || doc.name(n) == step.name;
}

/// Splits [0, n) into `chunks` contiguous ranges whose sizes differ by at
/// most one. Pre: 1 <= chunks <= n.
std::vector<std::pair<size_t, size_t>> PartitionRanges(size_t n,
                                                       size_t chunks) {
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(chunks);
  const size_t base = n / chunks;
  const size_t rem = n % chunks;
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t len = base + (c < rem ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

/// True when the context items are nodes rooting pairwise-disjoint
/// subtrees in document order: whole documents (each appearing once), or
/// sealed elements whose [pre, sub_max] label ranges do not overlap. Under
/// that condition the remaining steps of a path can be evaluated
/// chunk-by-chunk with byte-identical results — every axis this evaluator
/// supports (child/descendant/attribute) stays inside the context node's
/// subtree, so the per-step dedup set never sees a cross-chunk duplicate
/// and chunk-order concatenation equals the sequential append order.
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

/// Seeds a morsel worker's context from the coordinator's at the fork
/// point: same dynamic environment, forks disabled below.
EvalContext ForkContext(const EvalContext& ctx) {
  EvalContext out;
  out.variables = ctx.variables;
  out.context_stack = ctx.context_stack;
  out.position_stack = ctx.position_stack;
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

Result<EvalStreamPtr> Evaluator::OpenStream(const Expr& query) const {
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
      // One slice still fans out across the morsel workers when enabled.
      stream->slice_ = std::max<size_t>(morsels_, 1);
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

void Evaluator::RunMorsels(size_t chunks,
                           std::function<void(size_t)> run) const {
  // Shared by the coordinator and the helper tasks; shared_ptr-owned so a
  // helper that wakes up after the coordinator has already moved on (all
  // chunks claimed) still touches live memory.
  struct Shared {
    Shared(size_t n, std::function<void(size_t)> r)
        : chunks(n), run(std::move(r)), done(n) {}
    std::atomic<size_t> next{0};
    size_t chunks;
    std::function<void(size_t)> run;
    Latch done;
  };
  auto st = std::make_shared<Shared>(chunks, std::move(run));
  auto drain = [st] {
    for (size_t c = st->next.fetch_add(1); c < st->chunks;
         c = st->next.fetch_add(1)) {
      st->run(c);
      st->done.CountDown();
    }
  };
  // Help-while-waiting: the coordinator claims chunks alongside the pool
  // workers, so even a saturated (or shut-down) pool cannot deadlock the
  // fork — worst case the coordinator drains every chunk itself.
  for (size_t i = 1; i < chunks; ++i) morsel_pool_->Submit(drain);
  drain();
  st->done.Wait();
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
      bool numeric = (l.IsNumber() || r.IsNumber())
                         ? (l.TryNumber(&a) && r.TryNumber(&b))
                         : (l.TryNumber(&a) && r.TryNumber(&b));
      if (numeric) {
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

bool Evaluator::MatchStepByLabels(EvalContext& ctx, const DocumentPtr& docp,
                                  NodeId ctx_node, const xpath::Step& step,
                                  Sequence* out) const {
  const Document& doc = *docp;
  if (!use_structural_index_ || !doc.has_labels()) return false;
  uint32_t lo_pre = 0;
  uint32_t hi_pre = 0;
  uint32_t child_level = 0;  // 0 = no level filter (descendant axis)
  if (ctx_node == xml::kDocumentNode) {
    // Whole-document scan, root included. Only the descendant axis goes
    // through here; the document node's single child is matched directly.
    if (step.axis != xpath::Axis::kDescendant ||
        xpath::StaticStepStrategy(step) != xpath::StepStrategy::kLabelRange) {
      return false;
    }
    lo_pre = 0;
    hi_pre = static_cast<uint32_t>(doc.node_count());
  } else {
    if (xpath::ChooseStepStrategy(doc, ctx_node, step) !=
        xpath::StepStrategy::kLabelRange) {
      return false;
    }
    const xml::NodeLabel& c = doc.label(ctx_node);
    lo_pre = c.pre + 1;
    hi_pre = c.sub_max + 1;
    if (step.axis == xpath::Axis::kChild) child_level = c.level + 1;
  }
  ++ctx.stats.index_range_scans;
  const std::optional<xml::NameId> name_id = doc.pool()->Find(step.name);
  if (!name_id) return true;  // name interned nowhere: empty result
  const std::vector<uint32_t>* occ = doc.NameOccurrences(*name_id);
  if (occ == nullptr) return true;
  auto lo = std::lower_bound(occ->begin(), occ->end(), lo_pre);
  auto hi = std::lower_bound(lo, occ->end(), hi_pre);
  const NodeKind want =
      step.is_attribute ? NodeKind::kAttribute : NodeKind::kElement;
  for (auto it = lo; it != hi; ++it) {
    ++ctx.stats.nodes_visited;
    NodeId n = doc.NodeAtPre(*it);
    if (doc.kind(n) != want) continue;
    if (child_level != 0 && doc.label(n).level != child_level) continue;
    out->push_back(Item(NodeRef{docp, n}));
    ++ctx.stats.index_range_hits;
  }
  return true;
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
    context.push_back(Item(NodeRef{root_ctx.doc, root_ctx.doc->root()}));
    // The first step of an absolute path matches the root element itself
    // (child axis from the virtual document node) or any element
    // (descendant axis); reuse step evaluation by treating the root as
    // context and matching step 0 specially.
    if (path.steps.empty()) return context;
    const AxisStep& first = path.steps[0];
    Sequence initial;
    const Document& doc = *root_ctx.doc;
    if (first.step.axis == xpath::Axis::kChild) {
      if (StepMatches(doc, doc.root(), first.step)) {
        initial.push_back(Item(NodeRef{root_ctx.doc, doc.root()}));
      }
    } else if (!MatchStepByLabels(ctx, root_ctx.doc, xml::kDocumentNode,
                                  first.step, &initial)) {
      doc.VisitSubtree(doc.root(), [&](NodeId n) {
        ++ctx.stats.nodes_visited;
        if (StepMatches(doc, n, first.step)) {
          initial.push_back(Item(NodeRef{root_ctx.doc, n}));
        }
      });
    }
    for (const ExprPtr& pred : first.predicates) {
      PARTIX_ASSIGN_OR_RETURN(
          initial, ApplyPredicate(ctx, *pred, std::move(initial)));
    }
    return EvalSteps(ctx, std::move(initial), path.steps, 1);
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
    // steps chunk-by-chunk on the shared pool. Chunk-order stitching
    // preserves document order; see DisjointSubtrees for why results are
    // byte-identical to the sequential run.
    if (MorselsEligible(ctx, current.size()) && DisjointSubtrees(current)) {
      const size_t chunks = std::min(morsels_, current.size());
      const auto ranges = PartitionRanges(current.size(), chunks);
      std::vector<EvalContext> worker_ctx;
      worker_ctx.reserve(chunks);
      for (size_t c = 0; c < chunks; ++c) {
        worker_ctx.push_back(ForkContext(ctx));
      }
      std::vector<Result<Sequence>> results(chunks, Sequence{});
      RunMorsels(chunks, [&](size_t c) {
        Sequence chunk(current.begin() + ranges[c].first,
                       current.begin() + ranges[c].second);
        results[c] =
            EvalSteps(worker_ctx[c], std::move(chunk), steps, si);
      });
      Sequence stitched;
      Status status = Status::Ok();
      for (size_t c = 0; c < chunks; ++c) {
        ctx.stats.Merge(worker_ctx[c].stats);
        if (!status.ok()) continue;
        if (!results[c].ok()) {
          status = results[c].status();
          continue;
        }
        for (Item& item : *results[c]) stitched.push_back(std::move(item));
      }
      PARTIX_RETURN_IF_ERROR(status);
      return stitched;
    }
    const AxisStep& axis_step = steps[si];
    Sequence next;
    std::unordered_set<NodeKey, NodeKeyHash> seen;
    for (const Item& item : current) {
      if (!item.IsNode()) {
        return Status::InvalidArgument(
            "path step applied to an atomic value");
      }
      const NodeRef& ref = item.AsNode();
      const Document& doc = *ref.doc;
      // Collect matches for this context node.
      Sequence matches;
      if (ref.node == xml::kDocumentNode) {
        // The virtual document node: its only child is the root element.
        if (!doc.empty()) {
          if (axis_step.step.axis == xpath::Axis::kChild) {
            ++ctx.stats.nodes_visited;
            if (StepMatches(doc, doc.root(), axis_step.step)) {
              matches.push_back(Item(NodeRef{ref.doc, doc.root()}));
            }
          } else if (!MatchStepByLabels(ctx, ref.doc, xml::kDocumentNode,
                                        axis_step.step, &matches)) {
            doc.VisitSubtree(doc.root(), [&](NodeId n) {
              ++ctx.stats.nodes_visited;
              if (StepMatches(doc, n, axis_step.step)) {
                matches.push_back(Item(NodeRef{ref.doc, n}));
              }
            });
          }
        }
      } else if (MatchStepByLabels(ctx, ref.doc, ref.node, axis_step.step,
                                   &matches)) {
        // Step answered by a label-range scan; matches already appended
        // in document order.
      } else if (axis_step.step.axis == xpath::Axis::kChild) {
        for (NodeId c = doc.first_child(ref.node); c != kNullNode;
             c = doc.next_sibling(c)) {
          ++ctx.stats.nodes_visited;
          if (StepMatches(doc, c, axis_step.step)) {
            matches.push_back(Item(NodeRef{ref.doc, c}));
          }
        }
      } else {
        doc.VisitSubtree(ref.node, [&](NodeId n) {
          ++ctx.stats.nodes_visited;
          if (n != ref.node && StepMatches(doc, n, axis_step.step)) {
            matches.push_back(Item(NodeRef{ref.doc, n}));
          }
        });
      }
      // Apply predicates per context node (XPath positional semantics).
      for (const ExprPtr& pred : axis_step.predicates) {
        PARTIX_ASSIGN_OR_RETURN(
            matches, ApplyPredicate(ctx, *pred, std::move(matches)));
        if (matches.empty()) break;
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
  // Fast path: a literal number is a positional filter.
  if (pred.Is<NumberLit>()) {
    double want = pred.As<NumberLit>().value;
    size_t idx = static_cast<size_t>(want);
    Sequence out;
    if (want >= 1 && static_cast<double>(idx) == want &&
        idx <= matches.size()) {
      out.push_back(matches[idx - 1]);
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
    // A numeric result selects by position.
    if (v.size() == 1 && v[0].IsNumber()) {
      if (static_cast<size_t>(v[0].AsNumber()) == i + 1) {
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
  // binding sequence is partitioned into contiguous chunks whose
  // tuple expansions run on the shared pool. Chunk-order stitching of the
  // per-chunk outputs (or order-by buffers) reproduces the sequential
  // tuple order exactly; per-chunk stats merge in chunk order.
  if (!clause.is_let && MorselsEligible(ctx, binding.size())) {
    const size_t chunks = std::min(morsels_, binding.size());
    const auto ranges = PartitionRanges(binding.size(), chunks);
    std::vector<EvalContext> worker_ctx;
    worker_ctx.reserve(chunks);
    for (size_t c = 0; c < chunks; ++c) {
      worker_ctx.push_back(ForkContext(ctx));
    }
    std::vector<Status> worker_status(chunks, Status::Ok());
    std::vector<Sequence> worker_out(chunks);
    std::vector<std::vector<std::pair<Item, Sequence>>> worker_keyed(chunks);
    RunMorsels(chunks, [&](size_t c) {
      EvalContext& mc = worker_ctx[c];
      for (size_t i = ranges[c].first; i < ranges[c].second; ++i) {
        mc.variables[clause.var] = Sequence{binding[i]};
        Result<Sequence> r = EvalFlworClauses(
            mc, flwor, clause_idx + 1,
            keyed == nullptr ? &worker_out[c] : nullptr,
            keyed == nullptr ? nullptr : &worker_keyed[c]);
        if (!r.ok()) {
          worker_status[c] = r.status();
          break;
        }
      }
    });
    Status status = Status::Ok();
    for (size_t c = 0; c < chunks; ++c) {
      ctx.stats.Merge(worker_ctx[c].stats);
      if (!status.ok()) continue;
      if (!worker_status[c].ok()) {
        // Chunks cover ascending binding indexes, so the first failing
        // chunk holds the same error the sequential run would hit first.
        status = worker_status[c];
        continue;
      }
      if (keyed == nullptr) {
        for (Item& item : worker_out[c]) out->push_back(std::move(item));
      } else {
        for (auto& kv : worker_keyed[c]) keyed->push_back(std::move(kv));
      }
    }
    PARTIX_RETURN_IF_ERROR(status);
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
