#ifndef PARTIX_XQUERY_EVALUATOR_H_
#define PARTIX_XQUERY_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "xml/document.h"
#include "xml/name_pool.h"
#include "xquery/ast.h"
#include "xquery/item.h"

namespace partix::xquery {

/// Supplies the documents behind collection("name") / doc("name"). The
/// database engine implements this; join composition and tests use the
/// in-memory MapResolver below.
///
/// Thread-safety: when the evaluator runs with morsel parallelism > 1,
/// Resolve may be called from several morsel workers concurrently and the
/// implementation must tolerate that (the engine's planned resolver takes
/// an internal lock; MapResolver is read-only after setup).
class CollectionResolver {
 public:
  virtual ~CollectionResolver() = default;

  /// Returns the documents of the named collection.
  virtual Result<std::vector<xml::DocumentPtr>> Resolve(
      const std::string& name) = 0;
};

/// In-memory collections: each name resolves to its documents in the
/// order they were added; any other name fails with the engine's
/// "collection '<name>' does not exist". Read-only after setup.
class MapResolver : public CollectionResolver {
 public:
  MapResolver() = default;
  explicit MapResolver(
      std::map<std::string, std::vector<xml::DocumentPtr>> collections)
      : collections_(std::move(collections)) {}

  /// Appends `doc` to `collection`, creating the collection on first use.
  void Add(const std::string& collection, xml::DocumentPtr doc) {
    collections_[collection].push_back(std::move(doc));
  }

  Result<std::vector<xml::DocumentPtr>> Resolve(
      const std::string& name) override;

 private:
  std::map<std::string, std::vector<xml::DocumentPtr>> collections_;
};

/// Execution counters exposed after evaluation.
struct EvalStats {
  uint64_t nodes_visited = 0;
  uint64_t collections_resolved = 0;
  uint64_t elements_constructed = 0;
  /// Axis steps answered by a structural label-range scan instead of tree
  /// navigation, and how many of those scans matched at least one node
  /// (so hits <= scans, as for every index probe). Only contexts of at
  /// least xpath::kLabelRangeMinSubtree nodes scan (descendant steps, and
  /// child steps over a sparse name), so on small documents such as the
  /// 16-node ItemsSHor Items both stay 0. The engine folds these into the
  /// partix_structural_index_{probes,hits}_total counters.
  uint64_t index_range_scans = 0;
  uint64_t index_range_hits = 0;
  /// Morsels run by intra-node forks, and how many of them a helper
  /// thread claimed rather than the forking thread. `morsels` depends on
  /// the iteration sizes, the worker count (0 below two workers) and, in
  /// a lazy stream, the block size (which sets a path stream's slice
  /// size and the bindings a FLWOR stream expands first), so it repeats
  /// exactly from run to run when those are fixed; `helper_morsels`
  /// (<= morsels) depends on which threads were free.
  uint64_t morsels = 0;
  uint64_t helper_morsels = 0;

  /// Folds another context's counters into this one (field-wise sum).
  /// Every morsel's work is counted in exactly one participant's context,
  /// so the merged total is identical to a single-threaded run of the
  /// same query — conservation is what keeps QueryMetrics and the
  /// structural-index telemetry exact under intra-node parallelism.
  void Merge(const EvalStats& other) {
    nodes_visited += other.nodes_visited;
    collections_resolved += other.collections_resolved;
    elements_constructed += other.elements_constructed;
    index_range_scans += other.index_range_scans;
    index_range_hits += other.index_range_hits;
    morsels += other.morsels;
    helper_morsels += other.helper_morsels;
  }
};

/// The per-thread, mutable half of evaluation: the dynamic context one
/// chain of Eval* calls threads through. The Evaluator itself is the
/// immutable half (plan environment: resolver, name pool, options, the
/// externally bound variables) — a morsel worker gets its own EvalContext
/// copied from the coordinator's at the fork point and the two never
/// touch each other's stacks.
struct EvalContext {
  std::map<std::string, Sequence> variables;
  std::vector<Item> context_stack;
  /// (position, size) of the predicate context, for position()/last().
  std::vector<std::pair<size_t, size_t>> position_stack;
  EvalStats stats;
  /// True inside a morsel worker: nested expressions must not fork again
  /// (one level of intra-node parallelism; nested forks would oversubscribe
  /// the shared pool and could deadlock a fully drained one).
  bool in_morsel = false;

  /// A named step's NameId in one name pool. NamePool::Find takes a reader
  /// lock and hashes the name, so each (pool, step) pair is found once per
  /// context and then read from here. Only found ids are kept: a name the
  /// pool lacks now may be interned later in the same evaluation, by an
  /// element constructor or a parse. The pool is part of the key because
  /// one collection may mix pools (join composition serves fetched node
  /// documents beside joined ones).
  struct StepName {
    const xml::NamePool* pool = nullptr;
    const xpath::Step* step = nullptr;
    xml::NameId id = 0;
  };
  std::vector<StepName> step_names;
  /// One step's matches for one context node, between xpath::MatchStep
  /// and their conversion to items (reused to keep its capacity).
  std::vector<xml::NodeId> step_matches;
};

class EvalStream;
using EvalStreamPtr = std::unique_ptr<EvalStream>;

/// Evaluates a parsed XQuery expression against a CollectionResolver.
///
/// Split into an immutable per-query environment (this class after setup:
/// resolver, name pool, bound variables, options) and a per-thread
/// EvalContext created by Eval() — every Eval* method is const over the
/// environment and mutates only the context it is handed. That makes one
/// evaluation internally parallelizable (morsels) and the evaluator
/// re-entrant over immutable stores.
///
/// Usage contract: construct, bind (BindVariable/SetContextItem/set_*),
/// then Eval — one query per instance; stats() reports the finished run.
/// The setup calls are not synchronized; do them from one thread before
/// Eval.
class Evaluator {
 public:
  /// `resolver` may be null for queries that never call collection()/doc().
  /// `pool` is used to intern names of constructed elements; if null a
  /// private pool is created. NOTE this fallback is silent: elements
  /// constructed against a private pool carry NameIds that are
  /// meaningless to any shared pool, so results that leave the evaluator
  /// (engine queries, stored documents) must pass the database's shared
  /// pool explicitly — the engine always does.
  Evaluator(CollectionResolver* resolver, std::shared_ptr<xml::NamePool> pool);

  /// Binds an external variable visible to the query.
  void BindVariable(const std::string& name, Sequence value);

  /// Sets the initial context item (what absolute paths `/a/b` and bare
  /// relative steps resolve against at the top level).
  void SetContextItem(Item item);

  /// Enables/disables label-range axis evaluation (default on). Results
  /// are byte-identical either way; the engine threads its
  /// enable_structural_index option through here, and ablation tests flip
  /// it to prove identity.
  void set_use_structural_index(bool v) { use_structural_index_ = v; }

  /// Items per morsel. An iteration forks only when it holds at least
  /// two morsels' worth of items, so a fork always has work for two
  /// threads. Sized from the fork cost against the per-item cost: waking
  /// three idle helpers and forking their contexts costs about 20 us on
  /// a 4-vCPU guest, and the cheapest per-item work at a fork site (a
  /// child step from a document node) about 0.3 us, so 64 items keep
  /// the smallest fork (128 items, ~40 us of work) above its own cost
  /// while a morsel of the costliest per-item work (~3 us) stays short
  /// enough for idle threads to even out uneven lanes.
  static constexpr size_t kMorselGrain = 64;

  /// Enables intra-node morsel parallelism: collection-scale iterations
  /// (FLWOR for-clauses and path expressions over whole documents) are
  /// split into kMorselGrain-item morsels that the forking thread and up
  /// to `workers - 1` helper tasks on `pool` claim from one counter, with
  /// morsel results stitched back in order — results are byte-identical
  /// to the sequential run. The workers are further capped by the pool's
  /// thread count at each fork. `pool` must outlive Eval(); pass
  /// workers <= 1 or a null pool to stay sequential. The forking thread
  /// claims morsels too (help-while-waiting), so a saturated shared pool
  /// degrades to sequential instead of deadlocking.
  void set_morsel_parallelism(size_t workers, ThreadPool* pool) {
    morsel_workers_ = workers;
    morsel_pool_ = pool;
  }

  Result<Sequence> Eval(const Expr& query);

  /// Opens a pull-based batched evaluation of `query`. The batches a
  /// stream yields, concatenated in order, are item-identical to one
  /// Eval() of the same query, and so are the stats except `morsels`
  /// (see EvalStats). Two shapes stream lazily, with their source
  /// evaluated at open:
  ///   - a path expression whose evaluated source items root
  ///     pairwise-disjoint subtrees (the common collection("...")/step...
  ///     shape) runs its remaining steps over slices of
  ///     max(`block_items`, workers x kMorselGrain) source items, so a
  ///     slice covers at least one of the consumer's blocks and, with
  ///     morsels on, a whole morsel for every worker;
  ///   - a FLWOR without order by whose first clause is a for expands
  ///     the first `block_items` bindings through the remaining clauses
  ///     on the first Next(), and all the rest on the second, so the
  ///     first block is out after a block's worth of work while the bulk
  ///     still forks once.
  /// Every other expression materializes on the first Next(). The
  /// evaluator and `query` must outlive the stream; one stream per
  /// thread (create, drain, destroy on the same thread when the resolver
  /// is lock-bound, as the engine's is).
  Result<EvalStreamPtr> OpenStream(const Expr& query,
                                   size_t block_items) const;

  const EvalStats& stats() const { return stats_; }

 private:
  friend class EvalStream;
  Result<Sequence> EvalExpr(EvalContext& ctx, const Expr& e) const;
  Result<Sequence> EvalBinary(EvalContext& ctx, const BinaryOp& op) const;
  Result<Sequence> EvalPath(EvalContext& ctx, const PathExpr& path) const;
  Result<Sequence> EvalSteps(EvalContext& ctx, Sequence context,
                             const std::vector<AxisStep>& steps,
                             size_t first) const;
  Result<Sequence> EvalFlwor(EvalContext& ctx, const FlworExpr& flwor) const;
  /// Recursive clause expansion. When `keyed` is non-null (order by), each
  /// binding tuple's (sort key, result chunk) is buffered there instead of
  /// being appended to `out`.
  Status EvalFlworClauses(
      EvalContext& ctx, const FlworExpr& flwor, size_t clause_idx,
      Sequence* out, std::vector<std::pair<Item, Sequence>>* keyed) const;
  /// Expands the for-clause `clause_idx` over the bindings [begin, end) of
  /// `binding`: binds each in turn and expands the clauses after it into
  /// `out` or `keyed` as EvalFlworClauses does, forking into morsels
  /// when the range is big enough (MorselCount).
  Status ExpandForBindings(
      EvalContext& ctx, const FlworExpr& flwor, size_t clause_idx,
      const Sequence& binding, size_t begin, size_t end, Sequence* out,
      std::vector<std::pair<Item, Sequence>>* keyed) const;
  Result<Sequence> EvalElementCtor(EvalContext& ctx,
                                   const ElementCtor& ctor) const;
  Result<bool> EvalQuantified(EvalContext& ctx,
                              const QuantifiedExpr& quantified,
                              size_t binding_idx) const;
  Result<Sequence> EvalFunction(EvalContext& ctx,
                                const FunctionCall& call) const;

  Result<bool> GeneralCompare(BinaryOp::Op op, const Sequence& lhs,
                              const Sequence& rhs) const;

  /// Applies one bracketed predicate to a step's match list (for one
  /// context node). Numeric results select by position; general results
  /// filter by effective boolean value.
  Result<Sequence> ApplyPredicate(EvalContext& ctx, const Expr& pred,
                                  Sequence matches) const;

  /// Appends to `*out`, in document order, the nodes `step` selects from
  /// the context node `from` (an element, or kDocumentNode for the whole
  /// document), answered by xpath::MatchStep: navigation on small
  /// contexts, label-range scans where the subtree is big enough to pay
  /// (and use_structural_index is on). `name` is step.name's id in the
  /// document's pool, as ctx.step_names holds it. Counts the nodes
  /// inspected and any label-range scan in ctx.stats.
  void MatchStep(EvalContext& ctx, const NodeRef& from,
                 const xpath::Step& step, std::optional<xml::NameId> name,
                 Sequence* out) const;

  Status BuildContent(EvalContext& ctx, const Sequence& content,
                      bool literal_text, xml::Document* doc,
                      xml::NodeId parent, bool* last_was_atomic) const;

  /// Threads that may work on one fork: the configured workers capped by
  /// the pool's thread count; 1 when morsels are off.
  size_t MorselWorkers() const;

  /// The number of kMorselGrain-item morsels an iteration over `items`
  /// forks into at this point, or 0 when it stays sequential: inside a
  /// morsel, below two morsels' worth of items, or with fewer than two
  /// workers. The item count is tested first, so small iterations pay
  /// nothing else.
  size_t MorselCount(const EvalContext& ctx, size_t items) const {
    if (ctx.in_morsel || items < 2 * kMorselGrain) return 0;
    if (MorselWorkers() < 2) return 0;
    return (items + kMorselGrain - 1) / kMorselGrain;
  }

  /// Runs `run(worker_ctx, m)` for every morsel m in [0, morsels): the
  /// calling thread and up to MorselWorkers() - 1 helper tasks on the
  /// shared pool claim morsels from one counter, each participant on its
  /// own context forked from `ctx` on its first claim. Blocks until every
  /// morsel finished, then merges the participants' stats into `ctx`.
  /// `run` must not throw and must confine its writes to per-morsel
  /// slots.
  void RunMorsels(EvalContext& ctx, size_t morsels,
                  const std::function<void(EvalContext&, size_t)>& run) const;

  CollectionResolver* resolver_;
  std::shared_ptr<xml::NamePool> pool_;
  /// Seed environment copied into each Eval's root EvalContext.
  std::map<std::string, Sequence> variables_;
  std::vector<Item> context_stack_;
  EvalStats stats_;
  bool use_structural_index_ = true;
  size_t morsel_workers_ = 1;
  ThreadPool* morsel_pool_ = nullptr;
};

/// A pull-based batched evaluation opened by Evaluator::OpenStream. Not
/// thread-safe; Next() batches are produced in result order and the stats
/// are complete once Next() has returned false (or an error).
class EvalStream {
 public:
  /// Produces the next non-empty batch of result items into `*out`
  /// (cleared first). Returns false at end of stream; an error ends the
  /// stream (identical to what Eval() would have returned for lazily
  /// detectable failures, modulo slice-order error selection — the same
  /// first-failing-morsel rule morsel forks follow).
  Result<bool> Next(Sequence* out);

  /// Counters accumulated so far; equal to Eval()'s stats once the stream
  /// is drained.
  const EvalStats& stats() const { return ctx_.stats; }

 private:
  friend class Evaluator;
  EvalStream(const Evaluator* eval, const Expr* query)
      : eval_(eval), query_(query) {}

  /// What Next() does (see OpenStream): evaluate the whole query once,
  /// hand out a result computed at open, run a path's steps over slices
  /// of its source, or expand a FLWOR's leading for-clause.
  enum class Mode { kWhole, kParked, kPathSlices, kForBindings };

  const Evaluator* eval_;
  const Expr* query_;
  EvalContext ctx_;
  Mode mode_ = Mode::kWhole;
  /// kParked: the result. kPathSlices: the evaluated source items (roots
  /// of disjoint subtrees), of which Next() runs `steps_` over
  /// `slice_`-item slices from `pos_`. kForBindings: the for-clause's
  /// bindings, of which the first Next() expands `slice_` and the second
  /// all the rest, through `flwor_`'s remaining clauses.
  Sequence context_;
  size_t pos_ = 0;
  const std::vector<AxisStep>* steps_ = nullptr;
  const FlworExpr* flwor_ = nullptr;
  size_t slice_ = 1;
  bool done_ = false;
};

/// Convenience: parse + evaluate `query` in one call.
Result<Sequence> EvalQuery(const std::string& query,
                           CollectionResolver* resolver,
                           std::shared_ptr<xml::NamePool> pool = nullptr);

}  // namespace partix::xquery

#endif  // PARTIX_XQUERY_EVALUATOR_H_
