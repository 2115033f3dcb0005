#include "partix/query_service.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/strings.h"
#include "engine/database.h"
#include "fragmentation/algebra.h"
#include "partix/executor.h"
#include "partix/stream.h"
#include "telemetry/metrics.h"
#include "xml/document.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace partix::middleware {

namespace {

using xml::DocumentPtr;

/// Join-reconstruct composition: joins the fetched fragment documents of
/// each source document, then evaluates the plan's original query once
/// over the joined documents, in source-name order, as its collection.
Result<std::string> ComposeJoin(const std::string& collection,
                                const xquery::CompiledQuery& query,
                                const std::vector<xquery::Sequence>& lanes,
                                uint64_t* result_items) {
  // Group fetched documents by source document; a document without
  // reconstruction IDs is a whole document, grouped under its own name.
  std::map<std::string, std::vector<frag::JoinInput>> groups;
  for (const xquery::Sequence& lane : lanes) {
    for (const xquery::Item& item : lane) {
      if (!item.IsNode()) {
        return Status::Internal(
            "fetch sub-query returned a non-node item");
      }
      const xquery::NodeRef& ref = item.AsNode();
      if (ref.node != xml::kDocumentNode &&
          (ref.doc->empty() || ref.node != ref.doc->root())) {
        return Status::Internal(
            "fetch sub-query returned a non-document node");
      }
      PARTIX_ASSIGN_OR_RETURN(frag::FragmentOrigins origins,
                              frag::DecodeOrigins(*ref.doc));
      std::vector<frag::JoinInput>& group =
          groups[origins.source.empty() ? ref.doc->doc_name()
                                        : origins.source];
      group.push_back(frag::JoinInput{ref.doc, std::move(origins)});
    }
  }

  auto pool = std::make_shared<xml::NamePool>();
  std::map<std::string, std::vector<DocumentPtr>> collections;
  std::vector<DocumentPtr>& docs = collections[collection];
  docs.reserve(groups.size());
  for (auto& [source, fragments] : groups) {
    if (fragments.size() == 1 && fragments[0].origins.source.empty()) {
      // Whole-document fragment (horizontal fetch): served as fetched.
      docs.push_back(std::move(fragments[0].doc));
      continue;
    }
    PARTIX_ASSIGN_OR_RETURN(DocumentPtr joined,
                            frag::JoinFragments(fragments, pool));
    docs.push_back(std::move(joined));
  }

  xquery::MapResolver resolver(std::move(collections));
  xquery::Evaluator evaluator(&resolver, pool);
  PARTIX_ASSIGN_OR_RETURN(xquery::Sequence items, evaluator.Eval(query.ast()));
  *result_items = items.size();
  return xquery::SerializeSequence(items);
}

/// Compiles, once, what a hand-built plan ships as text only: every
/// sub-query without its compiled form and, for a join, the original
/// query the composition re-evaluates. Decomposed plans carry both and
/// pass through untouched.
Status CompileHandBuilt(const DistributedPlan& plan,
                        std::vector<SubQuery>* subqueries,
                        xquery::CompiledQueryPtr* original) {
  for (SubQuery& sub : *subqueries) {
    if (sub.compiled != nullptr) continue;
    PARTIX_ASSIGN_OR_RETURN(sub.compiled,
                            xquery::CompiledQuery::Compile(sub.query));
  }
  *original = plan.compiled;
  if (*original == nullptr &&
      plan.composition == Composition::kJoinReconstruct) {
    PARTIX_ASSIGN_OR_RETURN(
        *original, xquery::CompiledQuery::Compile(plan.original_query));
  }
  return Status::Ok();
}

/// Canonical "fragment at node" token used by every error message and
/// missing-fragment report: `fragment@node<i>`.
std::string FragAtNode(const std::string& fragment, size_t node) {
  return fragment + "@node" + std::to_string(node);
}

/// The replica list of a sub-query (primary-only when unset).
std::vector<size_t> ReplicasOrPrimary(const SubQuery& sub) {
  if (!sub.replicas.empty()) return sub.replicas;
  return {sub.node};
}

/// The union answer: every lane's blocks in plan order, a newline between
/// non-empty lanes, written once into a string of its final size `bytes`.
/// A lone block becomes the answer without a copy. Empties the lanes.
std::string ConcatenateLanes(std::vector<std::vector<std::string>>* lanes,
                             size_t bytes) {
  std::string answer;
  for (std::vector<std::string>& blocks : *lanes) {
    if (blocks.empty()) continue;
    if (answer.empty() && blocks.size() == 1 && blocks[0].size() == bytes) {
      answer = std::move(blocks[0]);
    } else {
      if (answer.empty()) {
        answer.reserve(bytes);
      } else {
        answer.push_back('\n');
      }
      for (const std::string& block : blocks) answer += block;
    }
    blocks.clear();
  }
  return answer;
}

/// Coordinator-side counters and phase latency histograms.
struct ServiceTelemetry {
  telemetry::Counter* queries;
  telemetry::Counter* query_failures;
  telemetry::Counter* partial_results;
  telemetry::Histogram* decompose_ms;
  telemetry::Histogram* compose_ms;
  telemetry::Histogram* query_wall_ms;
  telemetry::Histogram* ttfb_ms;

  static const ServiceTelemetry& Get() {
    static const ServiceTelemetry t = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      ServiceTelemetry out;
      out.queries = registry.GetCounter("partix_queries_total");
      out.query_failures = registry.GetCounter("partix_query_failures_total");
      out.partial_results =
          registry.GetCounter("partix_partial_results_total");
      out.decompose_ms = registry.GetHistogram("partix_decompose_ms");
      out.compose_ms = registry.GetHistogram("partix_compose_ms");
      out.query_wall_ms = registry.GetHistogram("partix_query_wall_ms");
      out.ttfb_ms = registry.GetHistogram("partix_ttfb_ms");
      return out;
    }();
    return t;
  }
};

/// Shifts every span start in a subtree by `delta_ms` (used to splice the
/// decompose phase in front of a span tree recorded by ExecutePlan).
void ShiftSpans(telemetry::TraceSpan* span, double delta_ms) {
  span->start_ms += delta_ms;
  for (telemetry::TraceSpan& child : span->children) {
    ShiftSpans(&child, delta_ms);
  }
}

/// Coordinator-wide gauge of result bytes held by in-flight executions
/// (partial results awaiting composition + composed answers not yet
/// returned). Add()-deltas aggregate across concurrent executions.
telemetry::Gauge* InflightResultBytesGauge() {
  static telemetry::Gauge* g = telemetry::MetricsRegistry::Global().GetGauge(
      "partix_inflight_result_bytes");
  return g;
}

/// RAII accounting of one execution's in-flight result bytes: every
/// Add() moves the gauge and charges the governor's pinned consumer (when
/// attached); the destructor releases everything on every return path.
class InflightResultCharge {
 public:
  InflightResultCharge(memory::MemoryGovernor* governor, int id)
      : governor_(governor), id_(id) {}
  ~InflightResultCharge() {
    InflightResultBytesGauge()->Add(-static_cast<double>(bytes_));
    if (governor_ != nullptr && bytes_ > 0) governor_->Release(id_, bytes_);
  }
  InflightResultCharge(const InflightResultCharge&) = delete;
  InflightResultCharge& operator=(const InflightResultCharge&) = delete;

  void Add(size_t bytes) {
    if (bytes == 0) return;
    bytes_ += bytes;
    InflightResultBytesGauge()->Add(static_cast<double>(bytes));
    if (governor_ != nullptr) governor_->Charge(id_, bytes);
  }

  /// Early release of bytes no longer held (a lane rolled back on
  /// failure).
  void Release(size_t bytes) {
    if (bytes == 0) return;
    bytes = std::min(bytes, bytes_);
    bytes_ -= bytes;
    InflightResultBytesGauge()->Add(-static_cast<double>(bytes));
    if (governor_ != nullptr) governor_->Release(id_, bytes);
  }

 private:
  memory::MemoryGovernor* governor_;
  int id_;
  size_t bytes_ = 0;
};

}  // namespace

QueryService::~QueryService() { set_memory_governor(nullptr); }

void QueryService::set_memory_governor(memory::MemoryGovernor* governor) {
  if (governor_ != nullptr) {
    governor_->UnregisterConsumer(governor_id_);
    governor_id_ = -1;
  }
  governor_ = governor;
  if (governor_ != nullptr) {
    governor_id_ = governor_->RegisterConsumer(
        "inflight_results", memory::MemoryGovernor::kPriorityPinned,
        nullptr);
  }
}

Result<DistributedPlan> QueryService::Decompose(
    const std::string& query,
    std::shared_ptr<const DistributionCatalog>* held) const {
  if (versioned_ == nullptr) return decomposer_.Decompose(query);
  // Versioned mode: plan against one immutable snapshot. The caller
  // parks it in `*held` for the duration of planning; the plan itself
  // carries values (fragment names, node indexes, rewritten queries),
  // so execution needs no catalog at all.
  *held = versioned_->Snapshot();
  return QueryDecomposer(held->get()).Decompose(query);
}

Result<DistributedResult> QueryService::Execute(
    const std::string& query, const ExecutionOptions& options) {
  // Compile-once contract: this coordinator thread parses `query` exactly
  // once, in Decompose. Sub-queries are structural rewrites of that AST
  // and ComposeJoin reuses the compiled original, so ExecutePlan's
  // hand-built-plan compile never runs and nothing below re-parses on
  // this thread. (Thread-local counter: worker-thread
  // parses — none are expected either — would not mask a coordinator
  // regression here.)
  const uint64_t parses_before = xquery::ThreadParseCount();
  Stopwatch watch(clock_);
  std::shared_ptr<const DistributionCatalog> snapshot;
  PARTIX_ASSIGN_OR_RETURN(DistributedPlan plan, Decompose(query, &snapshot));
  const double decompose_ms = watch.ElapsedMillis();
  ServiceTelemetry::Get().decompose_ms->Observe(decompose_ms);
  PARTIX_ASSIGN_OR_RETURN(DistributedResult result,
                          ExecutePlan(plan, options));
  assert(xquery::ThreadParseCount() - parses_before <= 1 &&
         "middleware execution parsed the query more than once");
  (void)parses_before;
  // The paper measures "the time between the moment PartiX receives the
  // query until final result composition": planning is part of it.
  result.decompose_ms = decompose_ms;
  result.response_ms += decompose_ms;
  result.wall_ms += decompose_ms;
  result.ttfb_ms += decompose_ms;
  if (result.traced) {
    // Splice the decompose phase in front of the span tree ExecutePlan
    // recorded: shift its phases right, prepend a decompose span.
    for (telemetry::TraceSpan& child : result.trace.children) {
      ShiftSpans(&child, decompose_ms);
    }
    telemetry::TraceSpan decompose_span;
    decompose_span.name = "decompose";
    decompose_span.start_ms = 0.0;
    decompose_span.duration_ms = decompose_ms;
    decompose_span.AddTag("subqueries",
                          std::to_string(plan.subqueries.size()));
    result.trace.children.insert(result.trace.children.begin(),
                                 std::move(decompose_span));
    result.trace.duration_ms = result.wall_ms;
  }
  return result;
}

Result<std::string> QueryService::Explain(const std::string& query) const {
  std::shared_ptr<const DistributionCatalog> snapshot;
  PARTIX_ASSIGN_OR_RETURN(DistributedPlan plan, Decompose(query, &snapshot));
  std::string out = "collection:   " + plan.collection + "\n";
  out += "composition:  " + std::string(CompositionName(plan.composition)) +
         "\n";
  out += "sub-queries:  " + std::to_string(plan.subqueries.size());
  if (plan.pruned_fragments > 0) {
    out += "  (" + std::to_string(plan.pruned_fragments) +
           " fragment(s) pruned by data localization)";
  }
  out += "\n";
  for (const SubQuery& sub : plan.subqueries) {
    const std::vector<size_t> replicas = ReplicasOrPrimary(sub);
    size_t route = sub.node;
    std::string annotation;
    if (replicas.size() > 1) {
      bool found = false;
      for (size_t r : replicas) {
        if (r < cluster_->node_count() && !cluster_->IsNodeDown(r)) {
          route = r;
          found = true;
          break;
        }
      }
      if (!found) {
        annotation = "  [all replicas down]";
      } else if (route != sub.node) {
        annotation = "  [primary node" + std::to_string(sub.node) +
                     " down -> failover]";
      }
    }
    out += "  node " + std::to_string(route) + "  " + sub.fragment;
    if (replicas.size() > 1) {
      out += "  [replicas:";
      for (size_t i = 0; i < replicas.size(); ++i) {
        out += (i == 0 ? " " : ",") + std::string("node") +
               std::to_string(replicas[i]);
      }
      out += "]";
    }
    out += annotation + "\n    " + sub.query + "\n";
  }
  for (const std::string& note : plan.notes) {
    out += "note: " + note + "\n";
  }
  return out;
}

Result<std::string> QueryService::ExplainAnalyze(
    const std::string& query, const ExecutionOptions& options) {
  PARTIX_ASSIGN_OR_RETURN(std::string plan_text, Explain(query));
  ExecutionOptions traced = options;
  traced.trace = true;
  PARTIX_ASSIGN_OR_RETURN(DistributedResult result, Execute(query, traced));
  std::string out = std::move(plan_text);
  out += "\nexecution (wall " + FormatNumber(result.wall_ms) + " ms, " +
         std::to_string(result.result_items) + " item(s), retries " +
         std::to_string(result.retries) + ", failovers " +
         std::to_string(result.failovers) + ", compile " +
         FormatNumber(result.compile_ms) + " ms, plan cache " +
         std::to_string(result.plan_cache_hits) + " hit(s) / " +
         std::to_string(result.plan_cache_misses) + " miss(es)):\n";
  for (const SubQueryStats& stats : result.subqueries) {
    out += "  " + FragAtNode(stats.fragment, stats.node) + ": plan cache " +
           (stats.plan_cache_hits > 0 ? "hit" : "miss") + " (" +
           std::to_string(stats.plan_cache_bytes) +
           " bytes cached), compile " + FormatNumber(stats.compile_ms) +
           " ms, morsels " + std::to_string(stats.morsels) + " (" +
           std::to_string(stats.helper_morsels) + " by helpers)\n";
  }
  out += telemetry::RenderSpanTree(result.trace);
  return out;
}

Result<DistributedResult> QueryService::ExecutePlan(
    const DistributedPlan& plan, const ExecutionOptions& options) {
  if (plan.subqueries.empty()) {
    return Status::InvalidArgument("plan has no sub-queries");
  }
  const ServiceTelemetry& counters = ServiceTelemetry::Get();
  counters.queries->Add();
  DistributedResult out;
  out.pruned_fragments = plan.pruned_fragments;
  Stopwatch wall_watch(clock_);

  // The tracer (when tracing) anchors every span of this execution to one
  // epoch on the service's clock; the executor's workers time their spans
  // against the same tracer.
  telemetry::Tracer tracer(clock_);
  if (options.trace) {
    out.traced = true;
    out.trace.name = "query";
    out.trace.start_ms = 0.0;
    out.trace.AddTag("composition",
                     std::string(CompositionName(plan.composition)));
  }
  // Finalizes the root span and coordinator metrics on every return path
  // that produced a DistributedResult.
  auto finish = [&] {
    counters.query_wall_ms->Observe(out.wall_ms);
    if (out.traced) {
      out.trace.duration_ms = tracer.NowMs();
      out.trace.AddTag("complete", out.complete ? "true" : "false");
    }
  };

  // Hand-built plans may ship text-only sub-queries: compile them here,
  // once, so everything below runs prepared. An unparsable one fails the
  // query before anything is dispatched.
  std::vector<SubQuery> subqueries = plan.subqueries;
  xquery::CompiledQueryPtr original;
  Status compiled = CompileHandBuilt(plan, &subqueries, &original);
  if (!compiled.ok()) {
    counters.query_failures->Add();
    return compiled;
  }

  if (options.cold_caches) cluster_->DropAllCaches();

  // Validate routing before dispatching anything, and report *every*
  // problem at once: an operator restoring a cluster needs the full
  // picture, not whichever unreachable fragment happened to come first.
  // Tokens are `fragment@node<i>` in every error path.
  std::string out_of_range;
  for (const SubQuery& sub : subqueries) {
    for (size_t node : ReplicasOrPrimary(sub)) {
      if (node >= cluster_->node_count()) {
        if (!out_of_range.empty()) out_of_range += ", ";
        out_of_range += FragAtNode(sub.fragment, node);
      }
    }
  }
  if (!out_of_range.empty()) {
    counters.query_failures->Add();
    return Status::OutOfRange("sub-query node(s) out of range: " +
                              out_of_range);
  }

  // Liveness: a fragment is unreachable only when *every* replica is
  // down — the executor routes around individual down nodes.
  std::vector<SubQuery> live;
  std::string unreachable;
  size_t unreachable_count = 0;
  for (SubQuery& sub : subqueries) {
    bool any_live = false;
    for (size_t node : ReplicasOrPrimary(sub)) {
      if (!cluster_->IsNodeDown(node)) {
        any_live = true;
        break;
      }
    }
    if (any_live) {
      live.push_back(std::move(sub));
      continue;
    }
    ++unreachable_count;
    for (size_t node : ReplicasOrPrimary(sub)) {
      if (!unreachable.empty()) unreachable += ", ";
      unreachable += FragAtNode(sub.fragment, node);
    }
    out.missing_fragments.push_back(sub.fragment);
  }
  if (unreachable_count > 0 &&
      options.partial_results == PartialResultPolicy::kFail) {
    counters.query_failures->Add();
    return Status::Unavailable(std::to_string(unreachable_count) +
                               " needed fragment(s) unreachable: " +
                               unreachable);
  }

  // Fan the live sub-queries out across the executor's worker threads
  // (the response-time *model* stays what it always was; `wall_ms` is
  // what really elapsed).
  DispatchOptions dispatch_options;
  dispatch_options.parallelism = options.parallelism;
  dispatch_options.intra_node_parallelism = options.intra_node_parallelism;
  dispatch_options.retry = options.retry;
  dispatch_options.verify_response_digests = options.verify_integrity;
  dispatch_options.stream_block_items = options.stream_block_items;
  if (options.trace) dispatch_options.tracer = &tracer;
  const double dispatch_start_ms = options.trace ? tracer.NowMs() : 0.0;
  std::vector<SubQueryOutcome> outcomes;

  // In-flight result accounting: result bytes held on this coordinator
  // (staged lanes, the composed answer) are charged against the
  // governor's pinned consumer until this execution returns.
  InflightResultCharge inflight(governor_, governor_id_);

  // Sub-queries push fixed-size result blocks into a channel while this
  // thread drains lanes in plan order and composes incrementally.
  // Sequential dispatch (parallelism 1, or one sub-query) runs on this
  // thread and drains each lane as soon as its sub-query finished: no
  // dispatcher thread, no block handed between threads. Its channel has
  // no byte cap, because its only consumer runs between sub-queries; it
  // holds at most one sub-query's blocks. Parallel dispatch runs on
  // a dedicated thread so this one is free to consume. Deadlock-freedom:
  // the consumer drains lanes in plan order, workers claim sub-queries in
  // ascending index order, and the lane under the consumer's cursor is
  // exempt from the buffer cap (see stream.h).
  const bool sequential =
      SequentialDispatch(options.parallelism, live.size());
  BlockChannel channel(live.size(),
                       sequential ? 0 : options.stream_buffer_bytes,
                       governor_, governor_id_);
  // Union keeps each lane's blocks and concatenates them once at compose,
  // into an answer reserved to its final size; sum stages each lane's
  // digits, join each lane's fetched documents. A lane that fails —
  // possibly mid-stream, after forwarding a prefix — is rolled back, so
  // it contributes nothing (the commit barrier). TTFB is the first
  // committed answer byte: under kFail a union block commits as it lands
  // (a failed lane fails the whole query, so no committed byte can
  // outlive a lane that later fails), under kReturnPartial a union lane
  // commits at its clean end, and every other composition has its answer
  // only at the end of compose. The barrier (streaming off) holds every
  // answer back until then.
  const bool barrier = !options.streaming;
  const bool commit_per_block =
      !barrier && plan.composition == Composition::kUnion &&
      options.partial_results == PartialResultPolicy::kFail;
  double ttfb_ms = -1.0;
  // Union answer size so far: committed block bytes plus the newline
  // that separates non-empty lanes.
  size_t answer_bytes = 0;
  uint64_t answer_items = 0;
  std::vector<std::vector<std::string>> lane_blocks(live.size());
  std::vector<std::string> lane_text(live.size());
  std::vector<xquery::Sequence> lane_items(live.size());
  std::vector<bool> lane_ok(live.size(), false);
  bool stopped = false;
  // Drains lane `i` to its end and composes it; once a failed lane has
  // stopped composition (kFail), discards instead.
  auto compose_lane = [&](size_t i) {
    if (stopped) {
      channel.DrainDiscard(i);
      return;
    }
    const size_t lane_start = answer_bytes;
    uint64_t items = 0;
    for (;;) {
      xdb::ResultBlock block;
      Result<bool> more = channel.Pull(i, &block);
      if (!more.ok() || !*more) {
        lane_ok[i] = more.ok();
        break;
      }
      const size_t bytes = block.serialized.size();
      switch (plan.composition) {
        case Composition::kUnion:
          items += block.items.size();
          if (bytes == 0) break;
          if (answer_bytes == lane_start && lane_start > 0) {
            ++answer_bytes;
            inflight.Add(1);
          }
          inflight.Add(bytes);
          answer_bytes += bytes;
          lane_blocks[i].push_back(std::move(block.serialized));
          if (commit_per_block && ttfb_ms < 0.0) {
            ttfb_ms = wall_watch.ElapsedMillis();
          }
          break;
        case Composition::kSumCounts:
          inflight.Add(bytes);
          lane_text[i] += block.serialized;
          break;
        case Composition::kJoinReconstruct:
          // The join consumes items, not bytes: the staged item trees are
          // not byte-charged.
          for (xquery::Item& item : block.items) {
            lane_items[i].push_back(std::move(item));
          }
          break;
      }
    }
    if (!lane_ok[i]) {
      inflight.Release(answer_bytes - lane_start + lane_text[i].size());
      answer_bytes = lane_start;
      lane_blocks[i].clear();
      lane_text[i].clear();
      lane_items[i].clear();
      // Under kFail the query fails below: stop composing.
      if (options.partial_results == PartialResultPolicy::kFail) {
        stopped = true;
      }
      return;
    }
    // An all-empty union lane contributes neither bytes nor items.
    if (answer_bytes > lane_start) {
      answer_items += items;
      if (!barrier && ttfb_ms < 0.0) {
        ttfb_ms = wall_watch.ElapsedMillis();
      }
    }
  };
  if (sequential) {
    dispatch_options.after_subquery = compose_lane;
    cluster_->executor().Dispatch(live, dispatch_options, &channel,
                                  &outcomes);
  } else {
    std::thread dispatcher([&] {
      cluster_->executor().Dispatch(live, dispatch_options, &channel,
                                    &outcomes);
    });
    for (size_t i = 0; i < live.size(); ++i) compose_lane(i);
    dispatcher.join();
  }
  out.stream_blocks = channel.consumed();
  if (options.trace) {
    // Workers filled disjoint outcome slots; assemble them under one
    // dispatch phase span in plan order.
    telemetry::TraceSpan dispatch_span;
    dispatch_span.name = "dispatch";
    dispatch_span.start_ms = dispatch_start_ms;
    dispatch_span.duration_ms = tracer.NowMs() - dispatch_start_ms;
    dispatch_span.AddTag("parallelism", std::to_string(options.parallelism));
    dispatch_span.children.reserve(outcomes.size());
    for (SubQueryOutcome& o : outcomes) {
      dispatch_span.children.push_back(std::move(o.span));
    }
    out.trace.children.push_back(std::move(dispatch_span));
  }
  out.parallelism = options.parallelism == 0
                        ? std::max<size_t>(1, live.size())
                        : std::max<size_t>(
                              1, std::min(options.parallelism, live.size()));

  // Fault-tolerance accounting, over every dispatched sub-query (failed
  // ones included: their retries happened).
  for (const SubQueryOutcome& o : outcomes) {
    if (o.attempts > 1) out.retries += o.attempts - 1;
    out.failovers += o.failovers;
    if (o.timed_out) ++out.timed_out_subqueries;
    out.corrupt_responses += o.corrupt_responses;
    out.engine_requests += o.engine_requests;
    out.discarded_successes += o.discarded_successes;
    out.compile_ms += o.compile_ms;
    out.plan_cache_hits += o.plan_cache_hits;
    out.plan_cache_misses += o.plan_cache_misses;
  }

  // Per-sub-query error aggregation: one failed node must not hide the
  // others' failures. Each entry names the fragment at the node that
  // produced (or last refused) the result.
  std::string failures;
  StatusCode failure_code = StatusCode::kOk;
  size_t failed = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Status& status = outcomes[i].status;
    if (status.ok()) continue;
    ++failed;
    if (failure_code == StatusCode::kOk) failure_code = status.code();
    if (!failures.empty()) failures += "; ";
    failures += FragAtNode(live[i].fragment, outcomes[i].node) + ": " +
                status.ToString();
  }
  if (failed > 0) {
    if (options.partial_results == PartialResultPolicy::kFail) {
      counters.query_failures->Add();
      return Status(failure_code,
                    std::to_string(failed) + " of " +
                        std::to_string(live.size()) +
                        " sub-queries failed: " + failures);
    }
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].status.ok()) {
        out.missing_fragments.push_back(live[i].fragment);
      }
    }
  }

  uint64_t total_result_bytes = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    const SubQueryOutcome& outcome = outcomes[i];
    if (!outcome.status.ok()) continue;
    SubQueryStats stats;
    stats.fragment = live[i].fragment;
    stats.node = outcome.node;
    stats.elapsed_ms = outcome.metrics.elapsed_ms;
    stats.wall_ms = outcome.wall_ms;
    stats.result_bytes = outcome.metrics.result_bytes;
    stats.docs_parsed = outcome.metrics.docs_parsed;
    stats.attempts = outcome.attempts;
    stats.failovers = outcome.failovers;
    stats.corrupt_responses = outcome.corrupt_responses;
    stats.engine_requests = outcome.engine_requests;
    stats.timed_out_attempts = outcome.timed_out_attempts;
    stats.discarded_successes = outcome.discarded_successes;
    stats.compile_ms = outcome.compile_ms;
    stats.plan_cache_hits = outcome.plan_cache_hits;
    stats.plan_cache_misses = outcome.plan_cache_misses;
    stats.plan_cache_bytes = outcome.metrics.plan_cache_bytes;
    stats.morsels = outcome.metrics.morsels;
    stats.helper_morsels = outcome.metrics.helper_morsels;
    out.slowest_node_ms = std::max(out.slowest_node_ms, stats.elapsed_ms);
    out.sum_node_ms += stats.elapsed_ms;
    total_result_bytes += stats.result_bytes;
    out.subqueries.push_back(std::move(stats));
  }
  if (!out.missing_fragments.empty()) {
    // Report missing fragments in plan order regardless of whether they
    // were skipped (unreachable) or failed after dispatch.
    std::set<std::string> missing(out.missing_fragments.begin(),
                                  out.missing_fragments.end());
    out.missing_fragments.clear();
    for (const SubQuery& sub : plan.subqueries) {
      if (missing.count(sub.fragment) != 0) {
        out.missing_fragments.push_back(sub.fragment);
      }
    }
  }
  out.complete = out.missing_fragments.empty();
  if (!out.complete) counters.partial_results->Add();

  // Transmission: dispatching the sub-queries + shipping partial results
  // to the coordinator.
  const NetworkModel& net = cluster_->network();
  out.transmission_ms =
      1e3 * (static_cast<double>(live.size()) * net.latency_sec +
             static_cast<double>(total_result_bytes) /
                 net.bandwidth_bytes_per_sec);

  // Composition.
  Stopwatch compose_watch(clock_);
  const double compose_start_ms = options.trace ? tracer.NowMs() : 0.0;
  switch (plan.composition) {
    case Composition::kUnion:
      out.serialized = ConcatenateLanes(&lane_blocks, answer_bytes);
      out.result_items = answer_items;
      break;
    case Composition::kSumCounts: {
      double sum = 0.0;
      for (size_t i = 0; i < live.size(); ++i) {
        if (!lane_ok[i]) continue;
        double v = 0.0;
        if (!ParseDouble(lane_text[i], &v)) {
          return Status::Internal(
              "sum composition over a non-numeric partial result: '" +
              lane_text[i] + "'");
        }
        sum += v;
      }
      out.serialized = FormatNumber(sum);
      out.result_items = 1;
      break;
    }
    case Composition::kJoinReconstruct:
      PARTIX_ASSIGN_OR_RETURN(out.serialized,
                              ComposeJoin(plan.collection, *original,
                                          lane_items, &out.result_items));
      break;
  }
  out.result_bytes = out.serialized.size();
  // The composed answer is held until this frame returns; union charged
  // its bytes as they were appended.
  if (plan.composition != Composition::kUnion) inflight.Add(out.result_bytes);
  out.composition_ms = compose_watch.ElapsedMillis();
  counters.compose_ms->Observe(out.composition_ms);
  // TTFB: streamed union stamps the first committed byte up in the
  // consumer loop; everywhere else the answer exists only now.
  if (ttfb_ms < 0.0) ttfb_ms = wall_watch.ElapsedMillis();
  out.ttfb_ms = ttfb_ms;
  counters.ttfb_ms->Observe(out.ttfb_ms);
  if (options.trace) {
    telemetry::TraceSpan compose_span;
    compose_span.name = "compose";
    compose_span.start_ms = compose_start_ms;
    compose_span.duration_ms = tracer.NowMs() - compose_start_ms;
    compose_span.AddTag("kind",
                        std::string(CompositionName(plan.composition)));
    out.trace.children.push_back(std::move(compose_span));
  }

  out.response_ms = out.slowest_node_ms + out.composition_ms +
                    (options.include_transmission ? out.transmission_ms
                                                  : 0.0);
  out.wall_ms = wall_watch.ElapsedMillis();
  finish();
  return out;
}

}  // namespace partix::middleware
