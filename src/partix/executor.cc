#include "partix/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/strings.h"
#include "partix/cluster.h"
#include "partix/health.h"
#include "partix/stream.h"
#include "telemetry/metrics.h"

namespace partix::middleware {

namespace {

/// Decorrelates per-sub-query jitter streams (splitmix64 finalizer).
uint64_t MixSeed(uint64_t seed, size_t index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool Retryable(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded;
}

/// Dispatch/retry/breaker counters and latency histograms, process-wide
/// (the per-query figures stay on SubQueryOutcome/DistributedResult).
/// Registered once; the record path is a relaxed atomic add.
struct ExecutorTelemetry {
  telemetry::Counter* dispatches;
  telemetry::Counter* subqueries;
  telemetry::Counter* attempts;
  telemetry::Counter* retries;
  telemetry::Counter* failovers;
  telemetry::Counter* timeouts;
  telemetry::Counter* failures;
  telemetry::Counter* backoff_sleeps;
  telemetry::Counter* backoff_sleep_us;
  telemetry::Counter* breaker_opens;
  telemetry::Counter* breaker_closes;
  telemetry::Counter* breaker_probes;
  telemetry::Counter* corrupt_responses;
  telemetry::Histogram* subquery_wall_ms;
  telemetry::Histogram* queue_wait_ms;
  telemetry::Gauge* pool_threads;

  static const ExecutorTelemetry& Get() {
    static const ExecutorTelemetry t = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      ExecutorTelemetry out;
      out.dispatches = registry.GetCounter("partix_dispatches_total");
      out.subqueries = registry.GetCounter("partix_subqueries_total");
      out.attempts = registry.GetCounter("partix_subquery_attempts_total");
      out.retries = registry.GetCounter("partix_subquery_retries_total");
      out.failovers = registry.GetCounter("partix_subquery_failovers_total");
      out.timeouts = registry.GetCounter("partix_subquery_timeouts_total");
      out.failures = registry.GetCounter("partix_subquery_failures_total");
      out.backoff_sleeps = registry.GetCounter("partix_backoff_sleeps_total");
      out.backoff_sleep_us =
          registry.GetCounter("partix_backoff_sleep_us_total");
      out.breaker_opens = registry.GetCounter("partix_breaker_opens_total");
      out.breaker_closes = registry.GetCounter("partix_breaker_closes_total");
      out.breaker_probes =
          registry.GetCounter("partix_breaker_half_open_probes_total");
      out.corrupt_responses =
          registry.GetCounter("partix_corrupt_responses_total");
      out.subquery_wall_ms = registry.GetHistogram("partix_subquery_wall_ms");
      out.queue_wait_ms = registry.GetHistogram("partix_queue_wait_ms");
      out.pool_threads = registry.GetGauge("partix_executor_pool_threads");
      return out;
    }();
    return t;
  }
};

}  // namespace

ThreadPool& Executor::SharedProcessPool() {
  // One pool for every executor in the process: concurrent queries and
  // concurrent clusters draw from the same workers instead of each
  // growing a private, never-shrunk pool. Function-local static so the
  // pool joins its workers cleanly at exit.
  static ThreadPool pool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return pool;
}

void Executor::set_breaker_policy(CircuitBreakerPolicy policy) {
  breaker_policy_ = policy;
  ResetBreakers();
}

void Executor::ResetBreakers() {
  std::lock_guard<std::mutex> vector_lock(breakers_mu_);
  for (auto& b : breakers_) {
    if (b == nullptr) continue;
    std::lock_guard<std::mutex> lock(b->mu);
    b->consecutive_failures = 0;
    b->open = false;
    b->probing = false;
  }
}

Executor::NodeBreakerState* Executor::BreakerFor(size_t node) const {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  if (node >= breakers_.size()) return nullptr;
  return breakers_[node].get();
}

bool Executor::breaker_open(size_t node) const {
  NodeBreakerState* state = BreakerFor(node);
  if (state == nullptr) return false;
  std::lock_guard<std::mutex> lock(state->mu);
  return state->open;
}

void Executor::EnsureBreakers(const std::vector<SubQuery>& subqueries) {
  size_t max_node = 0;
  for (const SubQuery& sub : subqueries) {
    max_node = std::max(max_node, sub.node);
    for (size_t r : sub.replicas) max_node = std::max(max_node, r);
  }
  std::lock_guard<std::mutex> lock(breakers_mu_);
  if (breakers_.size() < max_node + 1) breakers_.resize(max_node + 1);
  for (size_t i = 0; i <= max_node; ++i) {
    if (breakers_[i] == nullptr) {
      breakers_[i] = std::make_unique<NodeBreakerState>();
    }
  }
}

bool Executor::BreakerAllows(size_t node) {
  if (breaker_policy_.failure_threshold == 0) return true;
  NodeBreakerState* state = BreakerFor(node);
  if (state == nullptr) return true;
  NodeBreakerState& b = *state;
  std::lock_guard<std::mutex> lock(b.mu);
  if (!b.open) return true;
  if (!b.probing &&
      b.opened_at.ElapsedMillis() >= breaker_policy_.open_ms) {
    b.probing = true;  // hand out the single half-open probe
    ExecutorTelemetry::Get().breaker_probes->Add();
    return true;
  }
  return false;
}

void Executor::RecordSuccess(size_t node) {
  NodeBreakerState* state = BreakerFor(node);
  if (state == nullptr) return;
  NodeBreakerState& b = *state;
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.open) ExecutorTelemetry::Get().breaker_closes->Add();
  b.consecutive_failures = 0;
  b.open = false;
  b.probing = false;
}

void Executor::RecordFailure(size_t node) {
  if (breaker_policy_.failure_threshold == 0) return;
  NodeBreakerState* state = BreakerFor(node);
  if (state == nullptr) return;
  NodeBreakerState& b = *state;
  std::lock_guard<std::mutex> lock(b.mu);
  ++b.consecutive_failures;
  if (b.probing || b.consecutive_failures >= breaker_policy_.failure_threshold) {
    if (!b.open) ExecutorTelemetry::Get().breaker_opens->Add();
    b.open = true;
    b.probing = false;
    b.opened_at = Stopwatch(clock_);
  }
}

void Executor::RunOne(const SubQuery& sub, size_t index,
                      const DispatchOptions& options, BlockChannel* channel,
                      const Stopwatch& dispatch_watch, SubQueryOutcome* out) {
  const ExecutorTelemetry& counters = ExecutorTelemetry::Get();
  const RetryPolicy& retry = options.retry;
  const telemetry::Tracer* tracer = options.tracer;

  out->queue_wait_ms = dispatch_watch.ElapsedMillis();
  counters.subqueries->Add();
  counters.queue_wait_ms->Observe(out->queue_wait_ms);
  if (tracer != nullptr) out->span.start_ms = tracer->NowMs();

  Stopwatch watch(clock_);
  const std::vector<size_t> candidates =
      sub.replicas.empty() ? std::vector<size_t>{sub.node} : sub.replicas;
  out->node = candidates.front();
  Rng rng(MixSeed(retry.seed, index));

  // Intra-node morsels run on the SAME pool this worker occupies, capped
  // by its thread count by default; the forking thread claims morsels
  // itself (help-while-waiting), so a saturated pool degrades to
  // sequential instead of deadlocking.
  xdb::ExecParams exec;
  exec.stream_block_items = options.stream_block_items;
  if (options.intra_node_parallelism != 1) {
    exec.morsel_pool = &EffectivePool();
    exec.morsel_parallelism = options.intra_node_parallelism == 0
                                  ? exec.morsel_pool->thread_count()
                                  : options.intra_node_parallelism;
  }

  // Compile-once contract: each node is prepared at most once for this
  // sub-query, on first contact; retries and failovers (including
  // wrap-around back to an earlier node) reuse the cached handle, so fault
  // recovery never recompiles.
  std::map<size_t, PreparedSubQueryPtr> prepared_by_node;

  // Finalizes the per-sub-query bookkeeping every return path shares:
  // wall time, aggregate counters, and the span's canonical
  // `fragment@node<i>` name plus summary tags.
  auto finish = [&] {
    // Close this sub-query's channel lane with its final status — every
    // return path runs finish exactly once, which is what guarantees the
    // consumer's Pull() always terminates.
    channel->Finish(index, out->status);
    out->wall_ms = watch.ElapsedMillis();
    counters.subquery_wall_ms->Observe(out->wall_ms);
    if (out->attempts > 1) counters.retries->Add(out->attempts - 1);
    if (out->timed_out) counters.timeouts->Add();
    if (!out->status.ok()) counters.failures->Add();
    if (tracer != nullptr) {
      out->span.name = sub.fragment + "@node" + std::to_string(out->node);
      out->span.duration_ms = tracer->NowMs() - out->span.start_ms;
      out->span.AddTag("attempts", std::to_string(out->attempts));
      out->span.AddTag("failovers", std::to_string(out->failovers));
      if (out->prepares > 0) {
        out->span.AddTag("prepares", std::to_string(out->prepares));
        out->span.AddTag("plan_cache_hits",
                         std::to_string(out->plan_cache_hits));
      }
      out->span.AddTag("status", StatusCodeName(out->status.code()));
    }
  };

  const size_t max_attempts = std::max<size_t>(1, retry.max_attempts);
  const double rpc_sec = cluster_->network().emulated_rpc_sec;
  double backoff_ms = retry.base_backoff_ms;
  size_t cursor = 0;  // next candidate to consider
  Status last_error = Status::Unavailable("not attempted");

  // The one canonical deadline failure every expiry path produces —
  // before an attempt, mid-backoff, or when the budget would be spent
  // sleeping. Downstream code (query service aggregation, scheduler
  // verdicts, tests) matches on this exact shape.
  auto fail_deadline = [&] {
    out->timed_out = true;
    out->status = Status::DeadlineExceeded(
        "sub-query deadline (" + std::to_string(retry.subquery_deadline_ms) +
        " ms) exceeded after " + std::to_string(out->attempts) +
        " attempt(s): " + last_error.message());
    finish();
  };

  // Shared retry tail: advance the candidate cursor and apply one backoff
  // step when attempts remain. Returns false when the deadline would
  // expire mid-backoff — fail_deadline has already written the outcome
  // and the caller must return.
  auto backoff_for_retry = [&]() -> bool {
    cursor = (cursor + 1) % candidates.size();
    if (out->attempts < max_attempts && retry.base_backoff_ms > 0.0) {
      double sleep_ms =
          backoff_ms * (1.0 + rng.UniformDouble(-retry.jitter, retry.jitter));
      sleep_ms = std::max(0.0, sleep_ms);
      if (retry.subquery_deadline_ms > 0.0) {
        // The deadline expires mid-backoff: the mandated sleep would eat
        // the whole remaining budget, so no further attempt can run.
        // Fail fast with the canonical deadline error instead of
        // sleeping up to (or past) a deadline we already know is lost.
        const double remaining =
            retry.subquery_deadline_ms - watch.ElapsedMillis();
        if (remaining <= sleep_ms) {
          fail_deadline();
          return false;
        }
      }
      if (sleep_ms > 0.0) {
        counters.backoff_sleeps->Add();
        counters.backoff_sleep_us->Add(
            static_cast<uint64_t>(sleep_ms * 1e3));
        if (tracer != nullptr) {
          out->span.children.emplace_back("backoff");
          telemetry::TraceSpan& backoff_span = out->span.children.back();
          backoff_span.start_ms = tracer->NowMs();
          backoff_span.duration_ms = sleep_ms;  // scheduled, not measured
          backoff_span.AddTag("sleep_ms", std::to_string(sleep_ms));
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleep_ms / 1e3));
      }
      backoff_ms =
          std::min(backoff_ms * retry.backoff_multiplier, retry.max_backoff_ms);
    }
    return true;
  };

  while (out->attempts < max_attempts) {
    // Remaining sub-query budget, clamped: once the deadline has expired
    // the loop fails fast — a negative remainder must never flow
    // downstream as an attempt budget (<= 0 would read as "no timeout").
    double remaining_ms = std::numeric_limits<double>::infinity();
    if (retry.subquery_deadline_ms > 0.0) {
      remaining_ms = retry.subquery_deadline_ms - watch.ElapsedMillis();
      if (remaining_ms <= 0.0) {
        fail_deadline();
        return;
      }
    }

    // Pick the next candidate replica that is up and whose breaker admits
    // traffic, scanning at most one full cycle from the cursor. Health is
    // consulted first (pass 0 skips nodes the monitor flags as dead or
    // quarantined) and yields if it would leave nothing: pass 1 rescans
    // ignoring health, so an advisory verdict — possibly stale — can
    // never fail a sub-query the cluster could still serve. The health
    // check runs before BreakerAllows so a skipped candidate never
    // consumes a half-open probe.
    size_t node = candidates.front();
    bool found = false;
    const size_t passes = health_ != nullptr ? 2 : 1;
    for (size_t pass = 0; pass < passes && !found; ++pass) {
      for (size_t k = 0; k < candidates.size(); ++k) {
        size_t cand = candidates[(cursor + k) % candidates.size()];
        if (cluster_->IsNodeDown(cand)) continue;
        if (pass == 0 && health_ != nullptr && health_->ShouldAvoid(cand)) {
          continue;
        }
        if (!BreakerAllows(cand)) continue;
        node = cand;
        cursor = (cursor + k) % candidates.size();
        found = true;
        break;
      }
    }
    if (!found) {
      // Every replica is refusing traffic *right now* — down, or behind an
      // open breaker (possibly because another worker holds the one
      // half-open probe). That is a transient routing condition, not a
      // verdict on the sub-query: consume an attempt and retry with
      // backoff, so refused workers drain through the breaker once the
      // probe closes it. A refusal never contacts a node, so it counts no
      // engine request.
      ++out->attempts;
      counters.attempts->Add();
      last_error = Status::Unavailable(
          "all " + std::to_string(candidates.size()) +
          " replica(s) unreachable (down or circuit open)");
      if (out->attempts >= max_attempts) break;
      if (!backoff_for_retry()) return;
      continue;
    }
    // A failover is any move off the node the sub-query last targeted —
    // including a first attempt routed around a down primary.
    const bool failover =
        node != out->node || (out->attempts == 0 && node != sub.node);
    if (failover) {
      ++out->failovers;
      counters.failovers->Add();
    }
    out->node = node;
    ++out->attempts;
    counters.attempts->Add();

    telemetry::TraceSpan* attempt_span = nullptr;
    if (tracer != nullptr) {
      out->span.children.emplace_back(
          "attempt " + std::to_string(out->attempts) + "@node" +
          std::to_string(node));
      attempt_span = &out->span.children.back();
      attempt_span->start_ms = tracer->NowMs();
      if (failover) attempt_span->AddTag("failover", "true");
    }

    // Per-attempt budget: the configured attempt timeout composed with
    // what is left of the sub-query deadline (whichever is tighter).
    // `remaining_ms` is positive here — the loop head failed fast
    // otherwise — so the budget is never zero/negative ("disabled").
    // Computed BEFORE the attempt so the cluster can cap an injected
    // latency stall at it: a spike outlasting the budget stalls the
    // worker only for the budget, then fails fast, instead of sleeping
    // out a stall whose result the deadline has already written off.
    double attempt_budget_ms = retry.attempt_timeout_ms;
    if (remaining_ms != std::numeric_limits<double>::infinity()) {
      attempt_budget_ms = attempt_budget_ms > 0.0
                              ? std::min(attempt_budget_ms, remaining_ms)
                              : remaining_ms;
    }
    const double stall_budget_ms =
        attempt_budget_ms > 0.0 ? attempt_budget_ms : -1.0;

    Stopwatch attempt_watch(clock_);
    bool stream_opened = false;
    Status status = [&]() -> Status {
      auto it = prepared_by_node.find(node);
      if (it == prepared_by_node.end()) {
        const double prepare_start = tracer != nullptr ? tracer->NowMs() : 0.0;
        Result<PreparedSubQueryPtr> prep =
            cluster_->PrepareOnNode(node, sub.compiled);
        if (attempt_span != nullptr) {
          attempt_span->children.emplace_back("prepare");
          telemetry::TraceSpan& prepare_span = attempt_span->children.back();
          prepare_span.start_ms = prepare_start;
          prepare_span.duration_ms = tracer->NowMs() - prepare_start;
          if (prep.ok()) {
            prepare_span.AddTag("cache",
                                (*prep)->cache_hit() ? "hit" : "miss");
            prepare_span.AddTag("compile_ms",
                                std::to_string((*prep)->compile_ms()));
          } else {
            prepare_span.AddTag("status",
                                StatusCodeName(prep.status().code()));
          }
        }
        // A failed prepare (e.g. the node went down after candidate
        // selection) flows through the normal retry/failover handling.
        if (!prep.ok()) return prep.status();
        ++out->prepares;
        if ((*prep)->cache_hit()) {
          ++out->plan_cache_hits;
        } else {
          ++out->plan_cache_misses;
        }
        out->compile_ms += (*prep)->compile_ms();
        it = prepared_by_node.emplace(node, std::move(*prep)).first;
      }
      if (rpc_sec > 0.0) {
        // Emulate the synchronous round trip to a remote DBMS node: the
        // worker blocks (holding no core) the way a real driver would
        // block on the wire. Overlapping these waits is the first win of
        // real parallelism.
        std::this_thread::sleep_for(std::chrono::duration<double>(rpc_sec));
      }
      // Open the node's block stream, then forward blocks into the channel
      // as they arrive. Integrity and the attempt budget are enforced per
      // block; any failure here flows through the normal retry/failover
      // machinery, and the channel's replay verification makes the next
      // attempt's re-produced prefix invisible to the consumer.
      PARTIX_ASSIGN_OR_RETURN(
          SubQueryStreamPtr stream,
          cluster_->ExecutePreparedStreamOnNode(node, *it->second,
                                                stall_budget_ms, exec));
      stream_opened = true;
      channel->BeginAttempt(index);
      for (;;) {
        xdb::ResultBlock block;
        PARTIX_ASSIGN_OR_RETURN(const bool more, stream->Next(&block));
        if (!more) break;
        // One hash of the bytes received both checks the node's stamp and
        // becomes the channel's replay record (BlockChannel::Push).
        const uint64_t received = Xxh64(block.serialized);
        if (options.verify_response_digests && block.digest != 0 &&
            received != block.digest) {
          ++out->corrupt_responses;
          counters.corrupt_responses->Add();
          if (attempt_span != nullptr) attempt_span->AddTag("corrupt", "true");
          return Status::Unavailable("corrupt response from node" +
                                     std::to_string(node) +
                                     " (digest mismatch)");
        }
        block.digest = received;
        // A failed push is non-retryable by design (replay divergence).
        PARTIX_RETURN_IF_ERROR(channel->Push(index, std::move(block)));
        if (attempt_budget_ms > 0.0 &&
            attempt_watch.ElapsedMillis() > attempt_budget_ms) {
          return Status::DeadlineExceeded(
              "attempt to node" + std::to_string(node) +
              " exceeded its budget (" + std::to_string(attempt_budget_ms) +
              " ms) mid-stream");
        }
      }
      // The node answered in full, but the end-of-stream read may itself
      // land past the budget: a real client would have hung up. Discard
      // the answer and treat it as a timeout — the engine work happened
      // (counted below as an engine request).
      const double attempt_ms = attempt_watch.ElapsedMillis();
      if (attempt_budget_ms > 0.0 && attempt_ms > attempt_budget_ms) {
        ++out->discarded_successes;
        return Status::DeadlineExceeded(
            "attempt to node" + std::to_string(node) + " took " +
            std::to_string(attempt_ms) + " ms (budget " +
            std::to_string(attempt_budget_ms) + " ms)");
      }
      out->metrics = stream->metrics();
      return Status::Ok();
    }();

    // An attempt that reached the engine consumed one engine request —
    // track it whether or not the result survives, so node-side request
    // counters and outcome accounting conserve. The fault gate's
    // rejections (transient, down, circuit-open prepares) are retryable
    // kUnavailable and never touched the engine; an attempt whose stream
    // *opened* reached the engine, even if it later died mid-flight.
    if (status.ok() || stream_opened || !Retryable(status)) {
      ++out->engine_requests;
    }

    if (attempt_span != nullptr) {
      attempt_span->duration_ms = tracer->NowMs() - attempt_span->start_ms;
      attempt_span->AddTag("status", StatusCodeName(status.code()));
      if (status.ok()) {
        // Whether idle threads drained this lane: morsels it forked, and
        // how many of them other threads claimed.
        attempt_span->AddTag("morsels", std::to_string(out->metrics.morsels));
        attempt_span->AddTag("helper_morsels",
                             std::to_string(out->metrics.helper_morsels));
      }
    }

    if (status.ok()) {
      RecordSuccess(node);
      if (health_ != nullptr) health_->ReportSuccess(node);
      finish();
      return;
    }

    RecordFailure(node);
    // Health evidence: only faults attributable to the node (transient
    // rejections, timeouts, corrupt responses — the retryable set) raise
    // suspicion. Deterministic engine errors (parse failure, missing
    // collection) say nothing about node liveness.
    if (health_ != nullptr && Retryable(status)) {
      health_->ReportFailure(node);
    }
    last_error = status;
    if (last_error.code() == StatusCode::kDeadlineExceeded) {
      out->timed_out = true;
      ++out->timed_out_attempts;
    }
    if (!Retryable(last_error)) {
      // Deterministic engine errors (parse failure, missing collection,
      // ...) would fail identically on every replica: fail fast.
      out->status = std::move(status);
      finish();
      return;
    }
    if (!backoff_for_retry()) return;
  }

  out->status = Status(last_error.code(),
                       "sub-query failed after " +
                           std::to_string(out->attempts) +
                           " attempt(s): " + last_error.message());
  finish();
}

double Executor::Dispatch(const std::vector<SubQuery>& subqueries,
                          const DispatchOptions& options,
                          BlockChannel* channel,
                          std::vector<SubQueryOutcome>* outcomes) {
  outcomes->clear();
  outcomes->resize(subqueries.size());
  const size_t n = subqueries.size();
  if (n == 0) return 0.0;
  EnsureBreakers(subqueries);
  ExecutorTelemetry::Get().dispatches->Add();
  Stopwatch watch(clock_);

  const size_t parallelism = options.parallelism;
  const size_t workers = parallelism == 0 ? n : std::min(parallelism, n);
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t cap = std::max(hw, cluster_->node_count());
  if (SequentialDispatch(parallelism, n)) {
    if (options.intra_node_parallelism > 1) {
      // Sequential fan-out, parallel nodes: the morsel workers each
      // engine spawns still come from the shared pool — make sure it has
      // threads to hand out (the engine's help-while-waiting coordinator
      // keeps an empty pool correct, just not parallel).
      EffectivePool().EnsureThreads(
          std::min(cap, options.intra_node_parallelism));
    }
    for (size_t i = 0; i < n; ++i) {
      RunOne(subqueries[i], i, options, channel, watch, &(*outcomes)[i]);
      if (options.after_subquery) options.after_subquery(i);
    }
    return watch.ElapsedMillis();
  }

  // Shared-pool policy (see executor.h): run on the injected scheduler
  // pool when one is set, else the process-wide fallback. The pool is
  // grown (never shrunk) to serve this dispatch, bounded by
  // max(hardware threads, cluster nodes) — the index-claiming loop below
  // lets a smaller (or busy) pool drain any number of sub-queries.
  // Intra-node morsels borrow the same threads; growing toward an
  // explicit morsel cap (still under the cap) gives them somewhere to land
  // without a second pool. The default cap (0, the pool's own size)
  // grows nothing.
  ThreadPool& pool = EffectivePool();
  pool.EnsureThreads(
      std::min(cap, std::max(workers, options.intra_node_parallelism)));
  const size_t pool_threads = pool.thread_count();
  ExecutorTelemetry::Get().pool_threads->Set(
      static_cast<double>(pool_threads));
  const size_t tasks = std::max<size_t>(1, std::min(workers, pool_threads));

  // `tasks` pool tasks, each pulling the next unclaimed sub-query index:
  // every outcome slot is written by exactly one thread, and concurrency
  // is capped at min(workers, pool size). Tasks never block on other
  // tasks (no nested Submit/Wait), so concurrent dispatches sharing the
  // pool drain FIFO without deadlock at any pool size.
  std::atomic<size_t> next{0};
  Latch done(tasks);
  for (size_t w = 0; w < tasks; ++w) {
    pool.Submit([this, &subqueries, &next, &done, &options, channel, &watch,
                 outcomes, n] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        RunOne(subqueries[i], i, options, channel, watch, &(*outcomes)[i]);
      }
      done.CountDown();
    });
  }
  done.Wait();
  return watch.ElapsedMillis();
}

}  // namespace partix::middleware
