#include "engine/database.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_set>

#include "common/clock.h"
#include "common/strings.h"
#include "engine/planner.h"
#include "telemetry/metrics.h"
#include "xml/parser.h"
#include "xquery/compiled_query.h"
#include "xquery/evaluator.h"

namespace partix::xdb {

namespace {

/// Engine-side compile/plan-cache counters, process-wide across every
/// Database instance (per-query figures stay on QueryMetrics; per-engine
/// exact counts on Database::plan_cache_stats()).
struct EngineTelemetry {
  telemetry::Counter* plan_cache_hits;
  telemetry::Counter* plan_cache_misses;
  telemetry::Counter* plan_cache_evictions;
  telemetry::Histogram* compile_ms;

  static const EngineTelemetry& Get() {
    static const EngineTelemetry t = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      EngineTelemetry out;
      out.plan_cache_hits =
          registry.GetCounter("partix_plan_cache_hits_total");
      out.plan_cache_misses =
          registry.GetCounter("partix_plan_cache_misses_total");
      out.plan_cache_evictions =
          registry.GetCounter("partix_plan_cache_evictions_total");
      out.compile_ms = registry.GetHistogram("xdb_compile_ms");
      return out;
    }();
    return t;
  }
};

/// Resolves collection() calls against the database with planner-derived
/// candidate documents, accumulating the store activity (parses, cache
/// hits, evictions) this one query caused — attribution is per call via
/// DocumentStore::Get's delta parameter, so concurrent queries on the
/// same store never race over shared counters.
///
/// Thread-safe: morsel workers may Resolve concurrently (the candidate
/// and store maps are immutable after construction; delta accumulation
/// takes a private mutex).
class PlannedResolver : public xquery::CollectionResolver {
 public:
  /// `candidates`: per-collection pruned slot lists (absent = error: the
  /// planner sees every call site, so every resolvable name is present).
  PlannedResolver(
      std::map<std::string, std::vector<storage::DocSlot>> candidates,
      std::map<std::string, storage::DocumentStore*> stores)
      : candidates_(std::move(candidates)), stores_(std::move(stores)) {}

  Result<std::vector<xml::DocumentPtr>> Resolve(
      const std::string& name) override {
    auto store_it = stores_.find(name);
    if (store_it == stores_.end()) {
      return Status::NotFound("collection '" + name + "' does not exist");
    }
    storage::DocumentStore* store = store_it->second;
    storage::StoreMetrics delta;
    std::vector<xml::DocumentPtr> docs;
    Status status = Status::Ok();
    auto cand_it = candidates_.find(name);
    if (cand_it == candidates_.end()) {
      // Planner did not see this call site (e.g. dynamic name): full scan.
      docs.reserve(store->size());
      for (storage::DocSlot slot = 0; slot < store->size(); ++slot) {
        Result<xml::DocumentPtr> doc = store->Get(slot, &delta);
        if (!doc.ok()) {
          status = doc.status();
          break;
        }
        docs.push_back(std::move(*doc));
      }
    } else {
      docs.reserve(cand_it->second.size());
      for (storage::DocSlot slot : cand_it->second) {
        Result<xml::DocumentPtr> doc = store->Get(slot, &delta);
        if (!doc.ok()) {
          status = doc.status();
          break;
        }
        docs.push_back(std::move(*doc));
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      deltas_[name].Merge(delta);
    }
    PARTIX_RETURN_IF_ERROR(status);
    return docs;
  }

  /// The store-activity delta attributed to `name` by this query's
  /// Resolve calls (zero metrics if it was never resolved). Read after
  /// evaluation completes.
  storage::StoreMetrics DeltaFor(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = deltas_.find(name);
    return it == deltas_.end() ? storage::StoreMetrics() : it->second;
  }

 private:
  std::map<std::string, std::vector<storage::DocSlot>> candidates_;
  std::map<std::string, storage::DocumentStore*> stores_;
  mutable std::mutex mu_;
  std::map<std::string, storage::StoreMetrics> deltas_;
};

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(options),
      pool_(std::make_shared<xml::NamePool>()),
      plan_cache_(options.plan_cache_capacity,
                  options.plan_cache_capacity_bytes) {
  if (options_.memory_budget_bytes > 0) {
    governor_ = std::make_unique<memory::MemoryGovernor>(
        options_.memory_budget_bytes);
    plan_cache_.AttachGovernor(governor_.get());
  }
}

Status Database::CreateCollection(const std::string& name,
                                  CollectionMeta meta) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return CreateCollectionLocked(name, std::move(meta));
}

Status Database::CreateCollectionLocked(const std::string& name,
                                        CollectionMeta meta) {
  // try_emplace constructs the state in place: CollectionState holds a
  // mutex and cannot be moved into the map after the fact.
  auto [it, inserted] = collections_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists("collection '" + name + "' already exists");
  }
  CollectionState& state = it->second;
  state.meta = std::move(meta);
  state.store = std::make_unique<storage::DocumentStore>(
      pool_, options_.cache_capacity_bytes);
  if (governor_ != nullptr) state.store->AttachGovernor(governor_.get());
  InvalidatePlans();
  return Status::Ok();
}

Status Database::DropCollection(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (collections_.erase(name) == 0) {
    return Status::NotFound("collection '" + name + "' does not exist");
  }
  InvalidatePlans();
  return Status::Ok();
}

void Database::InvalidatePlans() {
  const size_t dropped = plan_cache_.Clear();
  if (dropped > 0) {
    EngineTelemetry::Get().plan_cache_evictions->Add(dropped);
  }
}

bool Database::HasCollection(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return collections_.count(name) != 0;
}

std::vector<std::string> Database::CollectionNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(collections_.size());
  for (const auto& [name, state] : collections_) out.push_back(name);
  return out;
}

Result<Database::CollectionState*> Database::GetState(
    const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name + "' does not exist");
  }
  return &it->second;
}

Result<const Database::CollectionState*> Database::GetState(
    const std::string& name) const {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name + "' does not exist");
  }
  return &it->second;
}

Status Database::IndexDocument(CollectionState* state, storage::DocSlot slot,
                               const xml::Document& doc) {
  if (options_.enable_element_index) state->element_index.AddDocument(slot, doc);
  if (options_.enable_text_index) state->text_index.AddDocument(slot, doc);
  if (options_.enable_value_index) state->value_index.AddDocument(slot, doc);
  if (options_.enable_structural_index) {
    state->structural_index.AddDocument(slot, doc);
  }
  state->stats.AddDocument(doc, state->store->SerializedSize(slot));
  return Status::Ok();
}

Status Database::StoreDocument(const std::string& collection,
                               const xml::Document& doc) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return StoreDocumentLocked(collection, doc);
}

Status Database::StoreDocumentLocked(const std::string& collection,
                                     const xml::Document& doc) {
  PARTIX_ASSIGN_OR_RETURN(CollectionState * state, GetState(collection));
  if (state->meta.validate_on_store && state->meta.schema != nullptr) {
    xml::Collection probe("", state->meta.schema, state->meta.root_path,
                          state->meta.kind);
    PARTIX_RETURN_IF_ERROR(
        state->meta.schema->Validate(doc, probe.RootType()));
  }
  PARTIX_ASSIGN_OR_RETURN(storage::DocSlot slot, state->store->Put(doc));
  return IndexDocument(state, slot, doc);
}

Status Database::StoreSerialized(const std::string& collection,
                                 std::string doc_name, std::string xml) {
  return StoreSerializedWithMetadata(collection, std::move(doc_name),
                                     std::move(xml), {});
}

Status Database::StoreSerializedWithMetadata(
    const std::string& collection, std::string doc_name, std::string xml,
    std::map<std::string, std::string> metadata) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(CollectionState * state, GetState(collection));
  PARTIX_ASSIGN_OR_RETURN(std::shared_ptr<xml::Document> doc,
                          xml::ParseXml(pool_, doc_name, xml));
  if (state->meta.validate_on_store && state->meta.schema != nullptr) {
    xml::Collection probe("", state->meta.schema, state->meta.root_path,
                          state->meta.kind);
    PARTIX_RETURN_IF_ERROR(
        state->meta.schema->Validate(*doc, probe.RootType()));
  }
  PARTIX_ASSIGN_OR_RETURN(
      storage::DocSlot slot,
      state->store->PutSerialized(std::move(doc_name), std::move(xml),
                                  std::move(metadata)));
  return IndexDocument(state, slot, *doc);
}

Status Database::StoreCollection(const xml::Collection& collection) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (collections_.count(collection.name()) == 0) {
    CollectionMeta meta;
    meta.schema = collection.schema();
    meta.root_path = collection.root_path();
    meta.kind = collection.kind();
    PARTIX_RETURN_IF_ERROR(CreateCollectionLocked(collection.name(), meta));
  }
  for (const xml::DocumentPtr& doc : collection.docs()) {
    PARTIX_RETURN_IF_ERROR(StoreDocumentLocked(collection.name(), *doc));
  }
  return Status::Ok();
}

Result<std::vector<xml::DocumentPtr>> Database::AllDocuments(
    const std::string& collection) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(const CollectionState* state,
                          GetState(collection));
  std::vector<xml::DocumentPtr> docs;
  docs.reserve(state->store->size());
  for (storage::DocSlot slot = 0; slot < state->store->size(); ++slot) {
    PARTIX_ASSIGN_OR_RETURN(xml::DocumentPtr doc, state->store->Get(slot));
    docs.push_back(std::move(doc));
  }
  return docs;
}

Result<const storage::CollectionStats*> Database::Stats(
    const std::string& collection) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(const CollectionState* state,
                          GetState(collection));
  return &state->stats;
}

Result<const CollectionMeta*> Database::Meta(
    const std::string& collection) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(const CollectionState* state,
                          GetState(collection));
  return &state->meta;
}

Result<size_t> Database::DocumentCount(const std::string& collection) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(const CollectionState* state,
                          GetState(collection));
  return state->store->size();
}

Result<uint64_t> Database::SerializedBytes(
    const std::string& collection) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(const CollectionState* state,
                          GetState(collection));
  return state->store->total_serialized_bytes();
}

namespace {

/// Store slots in document-name order, so digests and exports are
/// independent of insertion order (replicas repaired doc-by-doc must
/// compare equal to replicas published in one pass).
std::vector<storage::DocSlot> SlotsByName(const storage::DocumentStore& s) {
  std::vector<storage::DocSlot> slots(s.size());
  for (storage::DocSlot i = 0; i < s.size(); ++i) slots[i] = i;
  std::sort(slots.begin(), slots.end(),
            [&s](storage::DocSlot a, storage::DocSlot b) {
              return s.DocName(a) < s.DocName(b);
            });
  return slots;
}

}  // namespace

Result<uint64_t> Database::CollectionContentDigest(
    const std::string& collection) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(const CollectionState* state,
                          GetState(collection));
  const storage::DocumentStore& store = *state->store;
  uint64_t h = Fnv1a64("");  // offset basis
  for (storage::DocSlot slot : SlotsByName(store)) {
    h = Fnv1a64(store.DocName(slot), h);
    h = Fnv1a64(std::string_view("\0", 1), h);
    h = Fnv1a64(store.SerializedXml(slot), h);
    h = Fnv1a64(std::string_view("\0", 1), h);
  }
  return h;
}

Result<std::vector<StoredDoc>> Database::ExportStoredDocs(
    const std::string& collection) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(const CollectionState* state,
                          GetState(collection));
  const storage::DocumentStore& store = *state->store;
  std::vector<StoredDoc> out;
  out.reserve(store.size());
  for (storage::DocSlot slot : SlotsByName(store)) {
    out.push_back(StoredDoc{store.DocName(slot), store.SerializedXml(slot),
                            store.Metadata(slot)});
  }
  return out;
}

Status Database::CorruptStoredDocumentText(const std::string& collection,
                                           size_t doc_index, uint64_t pick) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(CollectionState* state, GetState(collection));
  storage::DocumentStore& store = *state->store;
  if (doc_index >= store.size()) {
    return Status::OutOfRange("document index " + std::to_string(doc_index) +
                              " out of range (collection '" + collection +
                              "' holds " + std::to_string(store.size()) +
                              " document(s))");
  }
  const storage::DocSlot slot = SlotsByName(store)[doc_index];
  std::string xml = store.SerializedXml(slot);
  if (!CorruptXmlText(&xml, pick)) {
    return Status::FailedPrecondition("document '" + store.DocName(slot) +
                                      "' has no text content to corrupt");
  }
  store.ReplaceSerialized(slot, std::move(xml));
  return Status::Ok();
}

Result<PrepareOutcome> Database::Prepare(const std::string& query) const {
  if (PreparedQueryPtr cached = plan_cache_.Lookup(query)) {
    EngineTelemetry::Get().plan_cache_hits->Add();
    PrepareOutcome out;
    out.plan = std::move(cached);
    out.cache_hit = true;
    return out;
  }
  Stopwatch watch;
  PARTIX_ASSIGN_OR_RETURN(xquery::CompiledQueryPtr compiled,
                          xquery::CompiledQuery::Compile(query));
  auto plan = std::make_shared<PreparedQuery>();
  plan->plans = AnalyzeQuery(compiled->ast());
  plan->compiled = std::move(compiled);
  plan->compile_ms = watch.ElapsedMillis();
  return FinishPrepare(std::move(plan));
}

Result<PrepareOutcome> Database::Prepare(
    const xquery::CompiledQueryPtr& compiled) const {
  if (compiled == nullptr) {
    return Status::InvalidArgument("Prepare: null compiled query");
  }
  if (PreparedQueryPtr cached = plan_cache_.Lookup(compiled->text())) {
    EngineTelemetry::Get().plan_cache_hits->Add();
    PrepareOutcome out;
    out.plan = std::move(cached);
    out.cache_hit = true;
    return out;
  }
  Stopwatch watch;
  auto plan = std::make_shared<PreparedQuery>();
  plan->compiled = compiled;
  plan->plans = AnalyzeQuery(compiled->ast());
  plan->compile_ms = watch.ElapsedMillis();
  return FinishPrepare(std::move(plan));
}

PrepareOutcome Database::FinishPrepare(
    std::shared_ptr<PreparedQuery> plan) const {
  const EngineTelemetry& telemetry = EngineTelemetry::Get();
  telemetry.plan_cache_misses->Add();
  telemetry.compile_ms->Observe(plan->compile_ms);
  PrepareOutcome out;
  out.compile_ms = plan->compile_ms;
  out.plan = std::move(plan);
  const size_t evicted =
      plan_cache_.Insert(out.plan->compiled->text(), out.plan);
  if (evicted > 0) telemetry.plan_cache_evictions->Add(evicted);
  return out;
}

Result<QueryResult> Database::Execute(const std::string& query,
                                      const ExecParams& exec) const {
  Stopwatch watch;
  // Prepare touches only the internally-locked plan cache, so it runs
  // outside mu_; the shared lock is taken once for the execution body
  // (no recursive shared acquisition — a writer waiting between two
  // shared locks on one thread would deadlock).
  PARTIX_ASSIGN_OR_RETURN(PrepareOutcome prepared, Prepare(query));
  std::shared_lock<std::shared_mutex> lock(mu_);
  PARTIX_ASSIGN_OR_RETURN(QueryResult out,
                          ExecutePreparedLocked(*prepared.plan, exec));
  lock.unlock();
  out.metrics.compile_ms = prepared.compile_ms;
  out.metrics.plan_cache_hits = prepared.cache_hit ? 1 : 0;
  out.metrics.plan_cache_misses = prepared.cache_hit ? 0 : 1;
  out.metrics.plan_cache_bytes = plan_cache_.total_bytes();
  // elapsed_ms spans prepare + execution, as it always did; on a cache
  // hit the compile component is simply gone.
  out.metrics.elapsed_ms = watch.ElapsedMillis();
  return out;
}

Result<QueryResult> Database::ExecutePrepared(const PreparedQuery& prepared,
                                              const ExecParams& exec) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ExecutePreparedLocked(prepared, exec);
}

void Database::PlanCandidates(
    const std::map<std::string, CollectionPlan>& plans,
    std::map<std::string, std::vector<storage::DocSlot>>* candidates_out,
    std::map<std::string, storage::DocumentStore*>* stores,
    QueryMetrics* metrics_out) const {
  // Plan: compute candidate documents per referenced collection. This
  // part is data-dependent (index postings change as documents are
  // stored), so it stays at execution time; the parse and the static
  // site-constraint analysis live in the prepared plan. Index lookups are
  // const reads — the shared lock excludes the (exclusive) writers.
  std::map<std::string, std::vector<storage::DocSlot>>& candidates =
      *candidates_out;
  QueryMetrics& metrics = *metrics_out;

  for (const auto& [name, state] : collections_) {
    (*stores)[name] = state.store.get();
  }

  for (const auto& [name, plan] : plans) {
    auto it = collections_.find(name);
    if (it == collections_.end()) continue;  // resolver will report
    const CollectionState& state = it->second;
    const size_t total = state.store->size();
    metrics.docs_in_collections += total;

    std::unordered_set<storage::DocSlot> keep;
    bool all = false;
    for (const SiteConstraints& site : plan.sites) {
      if (site.unconstrained) {
        all = true;
        break;
      }
      // Start with the full range; intersect index postings.
      storage::PostingList current;
      bool initialized = false;
      bool dead = false;
      auto intersect = [&](const storage::PostingList* postings) {
        if (postings == nullptr) {
          dead = true;
          return;
        }
        current = initialized ? storage::IntersectPostings(current, *postings)
                              : *postings;
        initialized = true;
        if (current.empty()) dead = true;
      };
      if (options_.enable_element_index) {
        for (const std::string& elem : site.required_elements) {
          intersect(state.element_index.Lookup(elem));
          if (dead) break;
        }
      }
      if (!dead && options_.enable_structural_index) {
        // Level-constrained spine pruning: strictly stronger than the
        // name-presence check above for child-only prefixes (an `Item`
        // nested at the wrong depth no longer keeps its document alive).
        for (const SpineLevel& spine : site.spine_levels) {
          storage::PostingList list = state.structural_index.LookupWithLevel(
              spine.name, spine.min_level, spine.exact_level);
          intersect(&list);
          if (dead) break;
        }
      }
      if (!dead && options_.enable_text_index &&
          options_.text_index_accelerates_contains) {
        for (const std::string& needle : site.contains_needles) {
          std::optional<storage::PostingList> c =
              state.text_index.CandidatesForContains(needle);
          if (c) {
            storage::PostingList list = std::move(*c);
            intersect(&list);
          }
          if (dead) break;
        }
      }
      if (!dead && options_.enable_value_index) {
        for (const auto& [elem, value] : site.value_equals) {
          if (value.size() > storage::ValueIndex::kMaxValueLength) continue;
          intersect(state.value_index.Lookup(elem, value));
          if (dead) break;
        }
      }
      if (dead) continue;  // this site matches no documents
      if (!initialized) {
        // No usable constraint at this site.
        all = true;
        break;
      }
      keep.insert(current.begin(), current.end());
    }

    std::vector<storage::DocSlot>& slots = candidates[name];
    if (all) {
      slots.resize(total);
      for (size_t i = 0; i < total; ++i) {
        slots[i] = static_cast<storage::DocSlot>(i);
      }
    } else {
      slots.assign(keep.begin(), keep.end());
      std::sort(slots.begin(), slots.end());
    }
    metrics.docs_considered += slots.size();
  }
}

void Database::FoldExecutionStats(
    const std::map<std::string, CollectionPlan>& plans,
    const std::function<storage::StoreMetrics(const std::string&)>& delta_for,
    const xquery::EvalStats& eval_stats, QueryMetrics* metrics_out) const {
  QueryMetrics& metrics = *metrics_out;
  // Collect metrics: fold each collection's access delta (attributed to
  // exactly this query by the resolver) into its stats — the
  // per-fragment access counts the fragmentation advisor and
  // EXPERIMENTS.md's SD-vs-MD cost story consume.
  for (const auto& [name, plan] : plans) {
    auto it = collections_.find(name);
    if (it == collections_.end()) continue;
    const storage::StoreMetrics delta = delta_for(name);
    metrics.docs_parsed += delta.parses;
    metrics.bytes_parsed += delta.bytes_parsed;
    metrics.cache_hits += delta.cache_hits;
    std::lock_guard<std::mutex> stats_lock(it->second.stats_mu);
    it->second.stats.RecordAccess(delta);
  }
  metrics.nodes_visited = eval_stats.nodes_visited;
  metrics.index_range_scans = eval_stats.index_range_scans;
  metrics.index_range_hits = eval_stats.index_range_hits;
  metrics.morsels = eval_stats.morsels;
  metrics.helper_morsels = eval_stats.helper_morsels;
  if (metrics.index_range_scans > 0) {
    // Evaluator-side label-range scans are structural-index probes too;
    // fold them into the same process-wide counters the planner-side
    // lookups use. Per-morsel stats merge before this point, so the
    // counts equal a single-threaded run's exactly.
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.GetCounter("partix_structural_index_probes_total")
        ->Add(metrics.index_range_scans);
    registry.GetCounter("partix_structural_index_hits_total")
        ->Add(metrics.index_range_hits);
  }
}

Result<QueryResult> Database::ExecutePreparedLocked(
    const PreparedQuery& prepared, const ExecParams& exec) const {
  if (prepared.compiled == nullptr) {
    return Status::InvalidArgument("ExecutePrepared: plan has no query");
  }
  Stopwatch watch;
  const std::map<std::string, CollectionPlan>& plans = prepared.plans;

  std::map<std::string, std::vector<storage::DocSlot>> candidates;
  std::map<std::string, storage::DocumentStore*> stores;
  QueryMetrics metrics;
  PlanCandidates(plans, &candidates, &stores, &metrics);

  // Evaluate.
  PlannedResolver resolver(std::move(candidates), std::move(stores));
  xquery::Evaluator evaluator(&resolver, pool_);
  evaluator.set_use_structural_index(options_.enable_structural_index);
  if (exec.morsel_parallelism > 1 && exec.morsel_pool != nullptr) {
    evaluator.set_morsel_parallelism(exec.morsel_parallelism,
                                     exec.morsel_pool);
  }
  Result<xquery::Sequence> result = evaluator.Eval(prepared.compiled->ast());
  if (!result.ok()) return result.status();

  FoldExecutionStats(
      plans,
      [&resolver](const std::string& name) { return resolver.DeltaFor(name); },
      evaluator.stats(), &metrics);

  QueryResult out;
  out.items = std::move(*result);
  out.serialized = xquery::SerializeSequence(out.items);
  metrics.result_items = out.items.size();
  metrics.result_bytes = out.serialized.size();
  metrics.plan_cache_bytes = plan_cache_.total_bytes();
  metrics.elapsed_ms = watch.ElapsedMillis();
  out.metrics = metrics;
  return out;
}

// ---------------------------------------------------------------------------
// Streaming execution: ResultCursor
// ---------------------------------------------------------------------------

/// Everything one open stream owns, in destruction order: the evaluator
/// stream and resolver die before the shared lock releases. Defined here
/// so it can hold the file-local PlannedResolver.
struct ResultCursor::State {
  const Database* db = nullptr;
  /// Held from open to destruction; DDL (exclusive) waits for it.
  std::shared_lock<std::shared_mutex> lock;
  /// Owned by the caller, who keeps it alive past the cursor.
  const PreparedQuery* plan = nullptr;
  std::unique_ptr<PlannedResolver> resolver;
  std::unique_ptr<xquery::Evaluator> evaluator;
  xquery::EvalStreamPtr stream;
  /// Carries the '\n'-separator state across blocks so block
  /// concatenation equals SerializeSequence of the whole result.
  xquery::SequenceSerializer serializer;
  /// Items produced by the evaluator stream but not yet emitted.
  xquery::Sequence pending;
  size_t pending_pos = 0;
  size_t block_items = 256;
  QueryMetrics metrics;
  bool done = false;
};

ResultCursor::ResultCursor(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

ResultCursor::~ResultCursor() = default;

const QueryMetrics& ResultCursor::metrics() const { return state_->metrics; }

Result<bool> ResultCursor::Next(ResultBlock* block) {
  State& st = *state_;
  block->items.clear();
  block->serialized.clear();
  block->digest = 0;
  if (st.done) return false;
  Stopwatch watch;
  // Elapsed accumulates over open + every Next, so the drained cursor's
  // metrics mirror ExecutePrepared's elapsed (engine time actually spent).
  Status status = Status::Ok();
  while (block->items.size() < st.block_items) {
    if (st.pending_pos >= st.pending.size()) {
      st.pending.clear();
      st.pending_pos = 0;
      Result<bool> more = st.stream->Next(&st.pending);
      if (!more.ok()) {
        st.done = true;
        status = more.status();
        break;
      }
      if (!*more) break;  // evaluator drained
    }
    while (st.pending_pos < st.pending.size() &&
           block->items.size() < st.block_items) {
      xquery::Item& item = st.pending[st.pending_pos++];
      st.serializer.Append(item, &block->serialized);
      block->items.push_back(std::move(item));
    }
  }
  if (!status.ok()) {
    st.metrics.elapsed_ms += watch.ElapsedMillis();
    return status;
  }
  if (block->items.empty()) {
    // Clean end of stream: fold the per-query attribution under the
    // still-held shared lock (the same fold ExecutePrepared does).
    st.done = true;
    st.db->FoldExecutionStats(
        st.plan->plans,
        [&st](const std::string& name) { return st.resolver->DeltaFor(name); },
        st.stream->stats(), &st.metrics);
    st.metrics.plan_cache_bytes = st.db->plan_cache_.total_bytes();
    st.metrics.elapsed_ms += watch.ElapsedMillis();
    return false;
  }
  st.metrics.result_items += block->items.size();
  st.metrics.result_bytes += block->serialized.size();
  st.metrics.elapsed_ms += watch.ElapsedMillis();
  return true;
}

Result<ResultCursorPtr> Database::ExecutePreparedStream(
    const PreparedQuery& prepared, const ExecParams& exec) const {
  if (prepared.compiled == nullptr) {
    return Status::InvalidArgument("ExecutePrepared: plan has no query");
  }
  auto st = std::make_unique<ResultCursor::State>();
  st->db = this;
  st->lock = std::shared_lock<std::shared_mutex>(mu_);
  Stopwatch watch;
  st->plan = &prepared;
  std::map<std::string, std::vector<storage::DocSlot>> candidates;
  std::map<std::string, storage::DocumentStore*> stores;
  PlanCandidates(prepared.plans, &candidates, &stores, &st->metrics);
  st->resolver = std::make_unique<PlannedResolver>(std::move(candidates),
                                                   std::move(stores));
  st->evaluator = std::make_unique<xquery::Evaluator>(st->resolver.get(),
                                                      pool_);
  st->evaluator->set_use_structural_index(options_.enable_structural_index);
  if (exec.morsel_parallelism > 1 && exec.morsel_pool != nullptr) {
    st->evaluator->set_morsel_parallelism(exec.morsel_parallelism,
                                          exec.morsel_pool);
  }
  if (exec.stream_block_items > 0) st->block_items = exec.stream_block_items;
  Result<xquery::EvalStreamPtr> stream =
      st->evaluator->OpenStream(prepared.compiled->ast(), st->block_items);
  if (!stream.ok()) return stream.status();  // st's destructor unlocks
  st->stream = std::move(*stream);
  st->metrics.elapsed_ms += watch.ElapsedMillis();
  return ResultCursorPtr(new ResultCursor(std::move(st)));
}

void Database::DropCaches() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [name, state] : collections_) state.store->DropCache();
}

}  // namespace partix::xdb
