#ifndef PARTIX_PARTIX_EXECUTOR_H_
#define PARTIX_PARTIX_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "partix/decomposer.h"
#include "telemetry/trace.h"

namespace partix::middleware {

class BlockChannel;
class ClusterSim;
class HealthMonitor;

/// Retry/timeout policy applied to every sub-query of a Dispatch. All
/// randomness (backoff jitter) comes from a per-sub-query RNG derived
/// from `seed` and the sub-query's index, so a fixed seed reproduces the
/// exact retry schedule.
struct RetryPolicy {
  /// Total tries per sub-query, including the first (0 behaves as 1).
  size_t max_attempts = 3;
  /// Exponential backoff between tries: sleep
  /// `min(base * multiplier^k, max) * (1 + U(-jitter, jitter))` ms before
  /// retry k+1. base <= 0 disables the sleep (still counts attempts).
  double base_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 64.0;
  /// Jitter fraction in [0, 1): each backoff is scaled by a uniform
  /// factor in [1-jitter, 1+jitter].
  double jitter = 0.5;
  /// Per-attempt budget (ms). An attempt whose measured wall time exceeds
  /// this — checked after every forwarded block and again at end of
  /// stream — is treated as kDeadlineExceeded: its result is discarded
  /// even if the node eventually answered, and it is retried/failed over
  /// like any transient error. 0 = no per-attempt timeout.
  double attempt_timeout_ms = 0.0;
  /// Total budget (ms) across all attempts of one sub-query, including
  /// backoff sleeps. Once exhausted, the sub-query fails with
  /// kDeadlineExceeded and `SubQueryOutcome::timed_out` is set.
  /// 0 = no deadline.
  double subquery_deadline_ms = 0.0;
  /// Seed for backoff jitter. Sub-query i draws from
  /// Rng(seed ^ golden(i)), so concurrent sub-queries never share a
  /// stream and runs are reproducible.
  uint64_t seed = 0;
};

/// Per-node circuit breaker: after `failure_threshold` consecutive
/// failures a node's breaker opens and the executor stops sending it
/// work. After `open_ms`, exactly one half-open probe request is let
/// through; success closes the breaker, failure re-opens it for another
/// `open_ms`. failure_threshold == 0 disables breakers.
struct CircuitBreakerPolicy {
  size_t failure_threshold = 3;
  double open_ms = 100.0;
};

/// Knobs for one Dispatch call.
struct DispatchOptions {
  /// Caps sub-queries in flight at once: 1 runs them sequentially on the
  /// calling thread, 0 means one worker per sub-query.
  size_t parallelism = 1;
  /// Morsel parallelism *inside* each node's engine: the cap on threads
  /// that work through one sub-query's collection-scale iteration, in
  /// fixed-size morsels on the same shared worker pool the dispatch
  /// itself runs on (no second pool — the scheduler's admission control
  /// keeps governing total thread demand). 0 (the default) leaves the
  /// thread count of that pool (EffectivePool) as the only cap and never
  /// grows it; 1 evaluates sequentially; n > 1 allows n threads and may
  /// grow the pool toward n like `parallelism` does. Results are
  /// byte-identical at every setting. See docs/intra-node-parallelism.md.
  size_t intra_node_parallelism = 0;
  RetryPolicy retry;
  /// End-to-end integrity: recompute each result block's digest and
  /// compare it against the node-stamped `ResultBlock::digest`. A
  /// mismatch is a retryable node fault (the executor fails over to a
  /// replica), never a forwarded block. Blocks carrying no digest
  /// (digest == 0) are not checked.
  bool verify_response_digests = true;
  /// When set, every sub-query fills `SubQueryOutcome::span` with its
  /// span subtree (attempts, backoffs, failovers), timed against the
  /// tracer's epoch/clock. Null (the default) records nothing. The
  /// tracer must outlive the Dispatch call; workers only read it.
  const telemetry::Tracer* tracer = nullptr;
  /// Target items per streamed block (0 = the engine default).
  size_t stream_block_items = 0;
  /// Sequential dispatch only (see SequentialDispatch): called on the
  /// calling thread after each sub-query finished, with its index. The
  /// sub-query's channel lane is complete by then, so the caller can
  /// drain it between sub-queries instead of from a consumer thread.
  std::function<void(size_t)> after_subquery;
};

/// True when Dispatch runs the sub-queries one after another on the
/// calling thread: `parallelism` 1, or at most one sub-query.
inline bool SequentialDispatch(size_t parallelism, size_t subqueries) {
  return parallelism == 1 || subqueries <= 1;
}

/// Outcome of one dispatched sub-query, index-aligned with the plan's
/// sub-query list. The answer itself went through the dispatch's
/// BlockChannel; the outcome carries how it went.
struct SubQueryOutcome {
  /// The sub-query's final status (also the status its channel lane
  /// finished with).
  Status status = Status::Ok();
  /// Engine-side metrics of the attempt that served the answer (elapsed,
  /// parse and result counters); zero when the sub-query failed.
  xdb::QueryMetrics metrics;
  /// Measured wall-clock of this dispatch on its worker, across every
  /// attempt: RPC emulation (if configured on the cluster's NetworkModel),
  /// node execution, and backoff sleeps.
  double wall_ms = 0.0;
  /// Tries actually made (>= 1 whenever a candidate node was reachable).
  size_t attempts = 0;
  /// Times execution moved to a different node than the previous attempt
  /// targeted (0 when the primary answered, or when there was nowhere
  /// else to go).
  size_t failovers = 0;
  /// The node that served the answer (last node targeted on failure).
  /// Defaults to the sub-query's primary when nothing was reachable.
  size_t node = 0;
  /// True when any attempt of this sub-query hit its per-attempt budget
  /// or the overall deadline expired — set even when a later attempt
  /// succeeded (DistributedResult::timed_out_subqueries counts these).
  bool timed_out = false;
  /// Attempts whose response failed digest verification (the node
  /// answered, but the bytes were mangled in flight). Each one was
  /// discarded and retried/failed over like a transient fault.
  size_t corrupt_responses = 0;
  // --- conservation accounting (see docs/query-scheduling.md) ---
  /// Attempts that actually reached a node's engine (the fault gate
  /// admitted them): successes, discarded-late successes, and
  /// non-retryable engine errors. Transient/down rejections and
  /// circuit-open skips consume no engine request, so summing this
  /// across outcomes equals the growth of the cluster's
  /// NodeRequestCount totals — except under fail_first_requests faults,
  /// whose rejections deplete the node-side budget counter without any
  /// engine work happening.
  size_t engine_requests = 0;
  /// Attempts that ended kDeadlineExceeded (per-attempt budget or the
  /// composed deadline), whether or not the sub-query later succeeded.
  size_t timed_out_attempts = 0;
  /// Attempts whose stream the engine *completed successfully* (end of
  /// stream reached) past the attempt budget, so the result was
  /// discarded and the attempt recorded as a timeout. The engine-side
  /// work still happened: these attempts count in `engine_requests`.
  size_t discarded_successes = 0;
  /// Milliseconds between Dispatch admitting the sub-query and a worker
  /// starting it (pool queueing; ~0 under sequential dispatch).
  double queue_wait_ms = 0.0;
  // --- compile-once accounting ---
  /// Node-side Prepare calls made for this sub-query: at most one per
  /// distinct node tried, however many attempts ran there (retries and
  /// failovers reuse the handle).
  size_t prepares = 0;
  /// Of those prepares, how many were served from the node's plan cache.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Node-side compile cost this sub-query actually paid (ms, summed over
  /// prepares; 0 when every prepare hit the plan cache).
  double compile_ms = 0.0;
  /// Filled only when DispatchOptions::tracer was set: this sub-query's
  /// span subtree, named with the canonical `fragment@node<i>` token of
  /// the node that served (or last refused) it, with one child span per
  /// attempt and backoff sleep.
  telemetry::TraceSpan span;
};

/// The middleware's sub-query executor: dispatches each SubQuery of a
/// distributed plan on a worker thread, streams each node's result blocks
/// into a BlockChannel, and reports the measured wall-clock time of the
/// whole fan-out/fan-in. This is what turns the paper's *modeled*
/// parallel response time (max over sites) into an observable property:
/// `DistributedResult` carries both figures.
///
/// Fault tolerance: each sub-query is tried against its replica list in
/// order (primary first). A kUnavailable or kDeadlineExceeded attempt is
/// retried — after exponential backoff — against the next live replica
/// whose circuit breaker admits traffic, wrapping around; any other
/// status is treated as non-retryable and fails the sub-query
/// immediately. Per-node circuit breakers persist across Dispatch calls,
/// so a flapping node stops receiving traffic until its open window
/// elapses and a half-open probe succeeds.
///
/// Worker-pool policy: the executor owns NO pool. Every Dispatch runs on
/// a shared `ThreadPool` — either one injected with set_pool (the
/// `partix::Scheduler` installs its process-wide pool there, see
/// scheduler.h) or, absent that, a lazily created process-wide fallback
/// shared by every Executor in the process. The pool is grown (never
/// shrunk) to at most `max(hardware_concurrency, cluster node_count)`
/// threads per dispatch. Why that cap and not plain
/// `hardware_concurrency`: CPU-bound work cannot use more threads than
/// cores, but workers also *block* (emulated RPC, injected latency,
/// channel backpressure, a loader holding the driver's write lock)
/// holding no core, so one-per-node must stay available even when the
/// host has fewer cores than the cluster has nodes — otherwise blocking
/// waits serialize and the overlap `bench/parallel_speedup` measures
/// disappears. Requests beyond the cap still all complete: tasks claim
/// sub-query indices from a shared counter, so a smaller (or busy) pool
/// simply drains the same work with fewer threads.
///
/// Thread-safety: Dispatch is safe to call concurrently from multiple
/// client threads (the multi-query service requires it). Workers write
/// only to the calling dispatch's disjoint outcome slots; the per-node
/// breaker states are shared across concurrent dispatches (vector growth
/// under breakers_mu_, each node's state under its own mutex) — which is
/// what makes a flapping node back off for *every* query, not just the
/// one that tripped it; the cluster data plane is thread-safe (see
/// cluster.h). set_pool, set_clock, set_breaker_policy and ResetBreakers
/// remain control-plane: call them only while no Dispatch is in flight.
class Executor {
 public:
  explicit Executor(ClusterSim* cluster) : cluster_(cluster) {}

  /// Runs every sub-query against its replica set: prepare the compiled
  /// sub-query on the chosen node (once per node), open a block stream
  /// over the handle, and forward each digest-verified block into
  /// `channel` lane `i` (the sub-query's index) as it arrives. A
  /// mid-stream failure fails over, and the channel's replay
  /// verification keeps the forwarded prefix exact. The channel must
  /// outlive the call and have a consumer draining it, or a cap large
  /// enough for what is not drained: a sequential dispatch that drains
  /// each lane from `after_subquery` needs an uncapped channel, since a
  /// lane fills before anything drains it. Finish(i, status) fires
  /// exactly once per sub-query, after all retries resolved. `outcomes`
  /// is resized and index-aligned with `subqueries`. Returns the
  /// measured wall-clock milliseconds of the fan-out.
  ///
  /// Pre: every node index in every sub-query's replica list is in range
  /// (the query service validates routing before dispatching), and every
  /// sub-query carries its compiled form (a null one fails the sub-query
  /// with the node's kInvalidArgument).
  double Dispatch(const std::vector<SubQuery>& subqueries,
                  const DispatchOptions& options, BlockChannel* channel,
                  std::vector<SubQueryOutcome>* outcomes);

  /// Replaces the breaker policy and resets all breaker state.
  /// Coordinator-only.
  void set_breaker_policy(CircuitBreakerPolicy policy);
  const CircuitBreakerPolicy& breaker_policy() const {
    return breaker_policy_;
  }

  /// Closes every breaker and zeroes failure counters. Coordinator-only.
  void ResetBreakers();

  /// Installs an advisory health monitor (nullptr — the default —
  /// disables health-aware routing). When set, candidate selection
  /// prefers nodes the monitor does not flag (dead/quarantined), and
  /// node-level attempt outcomes (success, retryable failure, corrupt
  /// response) are reported back as failure-detector evidence. Advisory
  /// only: when every replica is flagged, selection retries ignoring
  /// health, so a stale verdict can delay a query but never fail one the
  /// cluster could serve. The monitor must outlive the executor.
  /// Control-plane: set only while no Dispatch is in flight.
  void set_health_monitor(HealthMonitor* monitor) { health_ = monitor; }
  HealthMonitor* health_monitor() const { return health_; }

  /// True when node `i`'s breaker is currently open (no traffic admitted,
  /// half-open probe not yet due or in flight). Introspection for tests.
  bool breaker_open(size_t node) const;

  /// Replaces the time source for every measurement this executor takes
  /// (wall times, backoff deadlines, breaker windows, trace spans when
  /// the dispatch's tracer shares the clock). Deterministic tests inject
  /// a ManualClock; the default is the real monotonic clock. The clock
  /// must outlive the executor. Coordinator-only, between dispatches.
  void set_clock(const Clock* clock) { clock_ = clock; }
  const Clock* clock() const { return clock_; }

  /// Routes every parallel Dispatch through `pool` (non-owning; the pool
  /// must outlive the executor or be reset to nullptr first). nullptr —
  /// the default — falls back to the process-wide shared pool. The
  /// Scheduler installs its pool here so inter- and intra-query
  /// parallelism draw from one set of workers. Control-plane: set only
  /// while no Dispatch is in flight.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// The process-wide fallback pool used by executors with no injected
  /// pool. Created on first use with one thread per hardware thread and
  /// grown on demand; lives until process exit.
  static ThreadPool& SharedProcessPool();

 private:
  /// Breaker state of one node; `mu` guards every field. Workers touching
  /// different nodes never contend.
  struct NodeBreakerState {
    mutable std::mutex mu;
    size_t consecutive_failures = 0;
    bool open = false;
    /// An open breaker whose window elapsed admits exactly one probe;
    /// `probing` marks that the probe has been handed out.
    bool probing = false;
    Stopwatch opened_at;
  };

  void RunOne(const SubQuery& sub, size_t index, const DispatchOptions& options,
              BlockChannel* channel, const Stopwatch& dispatch_watch,
              SubQueryOutcome* out);

  /// The pool this executor actually runs on: the injected scheduler pool
  /// when set, else the process-wide fallback. Morsel workers draw from
  /// the same pool (one set of threads for inter- and intra-query AND
  /// intra-node parallelism).
  ThreadPool& EffectivePool() const {
    return pool_ != nullptr ? *pool_ : SharedProcessPool();
  }

  /// Grows `breakers_` to cover every node index in `subqueries`.
  /// Thread-safe (concurrent dispatches may race to grow it).
  void EnsureBreakers(const std::vector<SubQuery>& subqueries);

  /// The breaker state for `node`, or nullptr when none exists. The
  /// returned pointer is stable (states are heap-allocated and never
  /// freed before the executor), so callers lock only the node's mutex.
  NodeBreakerState* BreakerFor(size_t node) const;

  /// Whether the breaker currently admits a request to `node` (may hand
  /// out the half-open probe as a side effect).
  bool BreakerAllows(size_t node);
  void RecordSuccess(size_t node);
  void RecordFailure(size_t node);

  ClusterSim* cluster_;
  HealthMonitor* health_ = nullptr;
  const Clock* clock_ = Clock::Monotonic();
  CircuitBreakerPolicy breaker_policy_;
  /// Guards the vector structure only; each state has its own mutex.
  mutable std::mutex breakers_mu_;
  std::vector<std::unique_ptr<NodeBreakerState>> breakers_;
  /// Injected shared pool (scheduler-owned); nullptr = process-wide pool.
  ThreadPool* pool_ = nullptr;
};

}  // namespace partix::middleware

#endif  // PARTIX_PARTIX_EXECUTOR_H_
