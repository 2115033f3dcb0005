#ifndef PARTIX_PARTIX_QUERY_SERVICE_H_
#define PARTIX_PARTIX_QUERY_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "memory/governor.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/decomposer.h"
#include "partix/executor.h"
#include "telemetry/trace.h"

namespace partix::middleware {

/// What ExecutePlan does when some sub-queries cannot produce a result
/// (every replica down, retries exhausted, deadline exceeded).
enum class PartialResultPolicy {
  /// Fail the whole query (default). The error message names every
  /// failed fragment as `fragment@node<i>`.
  kFail,
  /// Compose the result from the sub-queries that succeeded and report
  /// the rest in `DistributedResult::missing_fragments` with
  /// `complete == false`. The caller decides whether a partial answer is
  /// acceptable (e.g. search-style workloads degrading gracefully).
  kReturnPartial,
};

/// Per-sub-query execution record.
struct SubQueryStats {
  std::string fragment;
  /// The node that produced the result — differs from the plan's primary
  /// when the executor failed over to a replica.
  size_t node = 0;
  double elapsed_ms = 0.0;  // node-side execution time (engine-measured)
  double wall_ms = 0.0;     // measured on the dispatching worker thread
  uint64_t result_bytes = 0;
  uint64_t docs_parsed = 0;
  size_t attempts = 1;      // tries made (1 = first attempt succeeded)
  size_t failovers = 0;     // replica switches
  /// Attempts whose response failed digest verification and was
  /// discarded (the answer ultimately served came from a clean attempt).
  size_t corrupt_responses = 0;
  // --- conservation accounting (see docs/query-scheduling.md) ---
  /// Attempts that reached a node's engine (mirrors
  /// SubQueryOutcome::engine_requests: successes, discarded-late
  /// successes, non-retryable engine errors).
  size_t engine_requests = 0;
  /// Attempts that ended kDeadlineExceeded, even though the sub-query
  /// ultimately succeeded.
  size_t timed_out_attempts = 0;
  /// Engine successes discarded because they beat the budget too late.
  size_t discarded_successes = 0;
  // --- compile-once accounting (see docs/query-compilation.md) ---
  /// Node-side compile cost this sub-query paid (0 when every node served
  /// it from its plan cache).
  double compile_ms = 0.0;
  /// Node-side prepares served from / missed in the plan cache.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Estimated bytes held by the serving node's plan cache after this
  /// sub-query's prepare (see PlanCache::EstimatePlanBytes).
  uint64_t plan_cache_bytes = 0;
  // --- intra-node morsels (see docs/intra-node-parallelism.md) ---
  /// Morsels the serving engine ran, and how many of them helper threads
  /// claimed; both 0 when the sub-query evaluated sequentially.
  uint64_t morsels = 0;
  uint64_t helper_morsels = 0;
};

/// The answer of a distributed execution, with the timing breakdown the
/// experiments report, in two flavours:
///
///   - *modeled* (`response_ms` and its components): the paper's
///     methodology — sub-queries run in parallel at distinct sites, so the
///     node component is the *slowest* site; partial results flow to the
///     coordinator over the modeled link; composition is measured for
///     real. Independent of `ExecutionOptions::parallelism`.
///   - *measured* (`wall_ms`): the observed wall-clock of this execution —
///     planning (Execute only) + the executor's real fan-out across worker
///     threads + composition. This is what actually elapsed, and it is
///     what `bench/parallel_speedup` compares across parallelism levels.
struct DistributedResult {
  std::string serialized;
  uint64_t result_items = 0;
  /// Bytes of the composed answer (= serialized.size()); the figure the
  /// coordinator's in-flight result accounting charged for this query
  /// (partial results were additionally charged while composition ran).
  uint64_t result_bytes = 0;

  double response_ms = 0.0;      // modeled: decompose + max node +
                                 // transmission + composition
  double decompose_ms = 0.0;     // middleware planning (Execute only)
  double slowest_node_ms = 0.0;  // max over sub-queries
  double sum_node_ms = 0.0;      // total work across nodes
  double transmission_ms = 0.0;  // dispatch latency + result transfer
  double composition_ms = 0.0;   // union/sum/join at the middleware

  double wall_ms = 0.0;          // measured: real end-to-end wall-clock
  /// Measured time-to-first-byte: from execution start (Execute adds
  /// planning) until the first byte of the answer was available on the
  /// coordinator. With union composition that is the first committed
  /// result block — typically far before the slowest node finishes; for
  /// other compositions (and under the barrier, `streaming == false`)
  /// the answer exists only once composition completes, so it coincides
  /// with the end of compose.
  double ttfb_ms = 0.0;
  /// Result blocks consumed from the streaming channel.
  uint64_t stream_blocks = 0;
  size_t parallelism = 1;        // executor workers used for this plan

  std::vector<SubQueryStats> subqueries;
  size_t pruned_fragments = 0;

  // --- fault-tolerance accounting (see docs/fault-tolerance.md) ---
  /// Extra tries beyond each sub-query's first attempt, summed.
  size_t retries = 0;
  /// Replica switches across all sub-queries (routing around a down
  /// primary counts).
  size_t failovers = 0;
  /// Sub-queries that hit a per-attempt timeout or their deadline.
  size_t timed_out_subqueries = 0;
  /// Responses that failed end-to-end digest verification across every
  /// sub-query attempt. Each was discarded and retried/failed over — a
  /// corrupt response is never part of the composed answer.
  size_t corrupt_responses = 0;
  /// Attempts that consumed a node-side engine request, summed over every
  /// dispatched sub-query (failed ones included). Conservation: equals
  /// the growth of the cluster's NodeRequestCount totals for this
  /// execution — discarded late successes and non-retryable errors count,
  /// fault-gate rejections don't.
  size_t engine_requests = 0;
  /// Attempts whose engine work succeeded but arrived past the attempt
  /// budget and was discarded (still engine_requests; their compile and
  /// plan-cache figures are folded into the totals below).
  size_t discarded_successes = 0;
  /// Fragments with no result, in plan order (kReturnPartial only; under
  /// kFail the query errors instead).
  std::vector<std::string> missing_fragments;
  /// True when every planned fragment contributed to the answer.
  bool complete = true;

  // --- compile-once accounting (see docs/query-compilation.md) ---
  /// Total node-side compile time across every sub-query prepare (failed
  /// sub-queries included: their compilations happened). 0 when every
  /// node served its sub-query from the plan cache.
  double compile_ms = 0.0;
  /// Plan-cache hits/misses summed over every node-side prepare of this
  /// execution.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;

  // --- tracing (see docs/observability.md) ---
  /// Filled only when `ExecutionOptions::trace` was set: the span tree of
  /// this execution — `query` at the root, `decompose` (Execute only) /
  /// `dispatch` / `compose` phases below it, one `fragment@node<i>` span
  /// per dispatched sub-query with its attempt/backoff children. Span
  /// times come from the service's injected clock, so traces are
  /// deterministic under ManualClock.
  telemetry::TraceSpan trace;
  /// True when `trace` holds a recorded span tree.
  bool traced = false;
};

/// Execution knobs for experiments.
struct ExecutionOptions {
  /// Include the network model in response_ms (Fig. 7(d) reports both
  /// with- and without-transmission series).
  bool include_transmission = true;
  /// Drop node caches before executing (cold start).
  bool cold_caches = false;
  /// Number of sub-queries the executor keeps in flight at once. 1 (the
  /// default) dispatches sequentially on the calling thread; 0 means one
  /// worker per sub-query. Composition is deterministic: the composed
  /// result is byte-identical across parallelism levels.
  size_t parallelism = 1;
  /// Morsel parallelism inside each node's engine: the cap on threads
  /// that work through one sub-query's collection-scale iteration in
  /// fixed-size morsels on the shared worker pool. 0 (the default) caps
  /// it at that pool's thread count and never grows the pool; 1 is
  /// sequential; n > 1 caps it at n. Iterations below two morsels' worth
  /// of items stay sequential at any setting, and results are
  /// byte-identical at every setting. Composes with `parallelism`
  /// (cross-node × intra-node) without a second pool — see
  /// docs/intra-node-parallelism.md.
  size_t intra_node_parallelism = 0;
  /// Retry/backoff/timeout policy applied to every sub-query.
  RetryPolicy retry;
  /// What to do when sub-queries fail despite retries and failover.
  PartialResultPolicy partial_results = PartialResultPolicy::kFail;
  /// End-to-end integrity: verify each sub-query response against its
  /// node-stamped digest; a mismatch is treated as a retryable node
  /// fault (discard, fail over). On by default — the check is one
  /// FNV-1a pass over bytes the coordinator already holds.
  bool verify_integrity = true;
  /// Record a per-query span tree on `DistributedResult::trace`. Tracing
  /// allocates span nodes on the coordinator and in each worker's outcome
  /// slot; leave off (the default) for benchmark series.
  bool trace = false;
  /// Every sub-query streams: each node's engine emits its result as
  /// fixed-size item blocks that flow through a bounded coordinator-side
  /// channel and compose incrementally. This flag only decides when the
  /// answer counts as available. true (the default) commits union blocks
  /// as they arrive; false is the consumer-side barrier — the same
  /// pipeline, but every lane is staged and the answer (and TTFB) exists
  /// only once composition ends. The composed answer is byte-identical
  /// either way.
  bool streaming = true;
  /// Target items per streamed block (0 falls back to the engine default
  /// of 256). Smaller blocks lower time-to-first-byte; larger blocks
  /// amortize per-block overhead.
  size_t stream_block_items = 256;
  /// Cap on unconsumed streamed bytes buffered across a query's
  /// sub-queries. Producers past the cap wait — except the lane being
  /// composed, which is always admitted so composition cannot deadlock
  /// against the cap. Buffered bytes are charged block-by-block to the
  /// memory governor.
  size_t stream_buffer_bytes = size_t{4} << 20;
};

/// Distributed XML Query Service (paper §4): analyzes path expressions,
/// identifies the fragments referenced in each query, ships sub-queries to
/// the corresponding DBMS nodes through the cluster's Executor, and
/// constructs the result.
///
/// Fault tolerance: sub-queries carry their fragment's full replica set,
/// the executor retries transient failures and fails over between
/// replicas (see executor.h), and a fragment is only *unreachable* when
/// every replica is down. Whether an unreachable fragment fails the query
/// or degrades it is the caller's choice via PartialResultPolicy.
///
/// Thread-safety: Execute/ExecutePlan/Explain/ExplainAnalyze are safe to
/// call concurrently from multiple client threads — the multi-query
/// scheduler (scheduler.h) relies on it. Each execution keeps its state
/// (plan, tracer, outcome slots, joined documents) on the calling
/// thread; the shared pieces below it are thread-safe in their own right
/// (executor dispatch and breakers, cluster data plane, node plan
/// caches). set_clock remains control-plane: call it before concurrent
/// executions start.
class QueryService {
 public:
  QueryService(ClusterSim* cluster, const DistributionCatalog* catalog)
      : cluster_(cluster), catalog_(catalog), decomposer_(catalog) {}

  /// Versioned-catalog mode: every Execute/Explain plans against an
  /// immutable snapshot of `versioned` taken at admission, so replica
  /// repair can Install() a successor catalog concurrently — in-flight
  /// queries keep routing on the topology they started with (the
  /// snapshot is only needed during decomposition; the produced plan
  /// holds values, not catalog pointers). The versioned catalog must
  /// outlive the service.
  QueryService(ClusterSim* cluster, const VersionedCatalog* versioned)
      : cluster_(cluster), versioned_(versioned), decomposer_(nullptr) {}

  /// Decomposes and executes `query`.
  Result<DistributedResult> Execute(const std::string& query,
                                    const ExecutionOptions& options =
                                        ExecutionOptions());

  /// Executes a pre-built plan (PartiX's prototype mode: "data location is
  /// provided along with sub-queries"). Sub-queries (and, for a join, the
  /// original query) that the plan ships as text only are compiled once
  /// here; an unparsable one fails the call before anything is
  /// dispatched.
  Result<DistributedResult> ExecutePlan(const DistributedPlan& plan,
                                        const ExecutionOptions& options =
                                            ExecutionOptions());

  const QueryDecomposer& decomposer() const { return decomposer_; }

  ~QueryService();

  /// The cluster this service executes against (the scheduler uses it to
  /// install its shared pool into the cluster's executor).
  ClusterSim* cluster() const { return cluster_; }

  /// Registers the coordinator's in-flight result buffers as a *pinned*
  /// consumer of `governor` ("inflight_results",
  /// MemoryGovernor::kPriorityPinned): partial and composed result bytes
  /// are charged while an execution holds them and released when it
  /// returns, so the governor sees result pressure and makes the caches
  /// shed — results themselves are never evicted. Pass nullptr to
  /// detach. Control-plane: call before concurrent executions start; the
  /// governor must outlive the service. The
  /// `partix_inflight_result_bytes` gauge tracks these bytes whether or
  /// not a governor is attached.
  void set_memory_governor(memory::MemoryGovernor* governor);

  /// EXPLAIN: decomposes `query` and renders the plan (routing, pruning,
  /// composition, rewritten sub-queries) as human-readable text without
  /// executing anything. Replicated fragments list their replica sets,
  /// and routing reflects current node liveness (a down primary shows
  /// the replica that would serve the sub-query).
  Result<std::string> Explain(const std::string& query) const;

  /// EXPLAIN ANALYZE: executes `query` with tracing forced on and renders
  /// the static plan followed by the recorded span tree (what actually
  /// ran: attempts, backoffs, failovers, phase timings). `options.trace`
  /// is implied; other options apply as given.
  Result<std::string> ExplainAnalyze(const std::string& query,
                                     const ExecutionOptions& options =
                                         ExecutionOptions());

  /// Replaces the time source used for this service's own measurements
  /// (wall/decompose/compose watches, trace spans) *and* for the
  /// cluster's executor, so a whole traced execution shares one clock.
  /// Deterministic tests inject a ManualClock. Coordinator-only, between
  /// executions; the clock must outlive the service.
  void set_clock(const Clock* clock) {
    clock_ = clock;
    cluster_->executor().set_clock(clock);
  }
  const Clock* clock() const { return clock_; }

 private:
  /// Decomposes `query` against the fixed catalog or, in versioned mode,
  /// a fresh snapshot — parked in `*held` so it outlives planning.
  Result<DistributedPlan> Decompose(
      const std::string& query,
      std::shared_ptr<const DistributionCatalog>* held) const;

  ClusterSim* cluster_;
  const DistributionCatalog* catalog_ = nullptr;
  const VersionedCatalog* versioned_ = nullptr;
  QueryDecomposer decomposer_;
  const Clock* clock_ = Clock::Monotonic();
  /// Coordinator governor for in-flight result accounting (see
  /// set_memory_governor); charges go through the pinned consumer id.
  memory::MemoryGovernor* governor_ = nullptr;
  int governor_id_ = -1;
};

}  // namespace partix::middleware

#endif  // PARTIX_PARTIX_QUERY_SERVICE_H_
