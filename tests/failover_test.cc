// Fault-tolerant distributed execution: replica failover, bounded
// retries with deterministic backoff, circuit breakers, timeouts, and
// the PartialResultPolicy degraded-execution contract.

#include <atomic>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "gen/virtual_store.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "telemetry/metrics.h"

namespace partix::middleware {
namespace {

/// Fast retry policy for tests: real backoff shape, negligible sleeps.
RetryPolicy FastRetry(size_t max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.base_backoff_ms = 0.01;
  retry.max_backoff_ms = 0.1;
  retry.seed = 42;
  return retry;
}

/// Items collection fragmented by Section over a 4-node cluster with a
/// configurable replication factor (replica r of fragment i at node
/// (i + r) mod 4).
class FailoverTestBase : public ::testing::Test {
 protected:
  explicit FailoverTestBase(size_t replication_factor)
      : cluster_(4, xdb::DatabaseOptions(), NetworkModel()),
        publisher_(&cluster_, &catalog_),
        service_(&cluster_, &catalog_) {
    gen::ItemsGenOptions options;
    options.doc_count = 40;
    options.seed = 11;
    options.sections = {"CD", "DVD", "BOOK", "TOY"};
    auto items = gen::GenerateItems(options, nullptr);
    EXPECT_TRUE(items.ok());
    frag::FragmentationSchema schema;
    schema.collection = "items";
    for (const std::string& s : options.sections) {
      auto mu = xpath::Conjunction::Parse("/Item/Section = \"" + s + "\"");
      EXPECT_TRUE(mu.ok());
      schema.fragments.emplace_back(frag::HorizontalDef{"f_" + s, *mu});
    }
    EXPECT_TRUE(publisher_
                    .PublishFragmented(*items, schema, {},
                                       replication_factor)
                    .ok());
    // f_CD -> node 0, f_DVD -> node 1, f_BOOK -> node 2, f_TOY -> node 3
    // (+ backups on the next node(s) when replicated).
  }

  DistributionCatalog catalog_;
  ClusterSim cluster_;
  DataPublisher publisher_;
  QueryService service_;
};

class ReplicatedFailoverTest : public FailoverTestBase {
 protected:
  ReplicatedFailoverTest() : FailoverTestBase(2) {}
};

class UnreplicatedFailoverTest : public FailoverTestBase {
 protected:
  UnreplicatedFailoverTest() : FailoverTestBase(1) {}
};

const char* const kWorkload[] = {
    "count(collection(\"items\")/Item)",
    "for $i in collection(\"items\")/Item where $i/Section = \"DVD\" "
    "return $i/Name",
    "for $i in collection(\"items\")/Item "
    "where contains($i/Description, \"good\") return $i/Name",
};

TEST_F(ReplicatedFailoverTest, FailoverSurvivesPermanentNodeLoss) {
  ExecutionOptions options;
  options.retry = FastRetry(3);

  // Healthy baseline for every workload query.
  std::vector<std::string> baseline;
  for (const char* q : kWorkload) {
    auto result = service_.Execute(q, options);
    ASSERT_TRUE(result.ok()) << q << ": " << result.status();
    EXPECT_EQ(result->failovers, 0u) << q;
    baseline.push_back(result->serialized);
  }

  // Node 1 (f_DVD primary, f_CD backup) dies permanently. Every query
  // still succeeds, byte-identically, via f_DVD's replica on node 2.
  cluster_.SetNodeDown(1, true);
  for (size_t i = 0; i < std::size(kWorkload); ++i) {
    auto result = service_.Execute(kWorkload[i], options);
    ASSERT_TRUE(result.ok()) << kWorkload[i] << ": " << result.status();
    EXPECT_EQ(result->serialized, baseline[i]) << kWorkload[i];
    EXPECT_TRUE(result->complete);
    EXPECT_GE(result->failovers, 1u) << kWorkload[i];
    // The failed-over sub-query records where it actually ran.
    for (const SubQueryStats& stats : result->subqueries) {
      if (stats.fragment == "f_DVD") {
        EXPECT_EQ(stats.node, 2u);
      }
    }
  }
}

TEST_F(ReplicatedFailoverTest, AllReplicasDownFailsWithCanonicalTokens) {
  cluster_.SetNodeDown(1, true);  // f_DVD primary
  cluster_.SetNodeDown(2, true);  // f_DVD backup (and f_BOOK primary)
  auto result = service_.Execute("count(collection(\"items\")/Item)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  const std::string& message = result.status().message();
  EXPECT_TRUE(Contains(message, "f_DVD@node1")) << message;
  EXPECT_TRUE(Contains(message, "f_DVD@node2")) << message;
  // f_BOOK survives on its backup (node 3): not reported.
  EXPECT_FALSE(Contains(message, "f_BOOK")) << message;
  EXPECT_TRUE(
      std::regex_search(message, std::regex("f_[A-Z]+@node[0-9]+")))
      << message;
}

TEST_F(UnreplicatedFailoverTest, PartialPolicyListsExactlyMissingFragments) {
  cluster_.SetNodeDown(1, true);  // f_DVD
  cluster_.SetNodeDown(3, true);  // f_TOY

  ExecutionOptions fail_options;
  EXPECT_FALSE(
      service_.Execute(kWorkload[0], fail_options).ok());

  ExecutionOptions partial;
  partial.partial_results = PartialResultPolicy::kReturnPartial;
  auto result = service_.Execute(
      "for $i in collection(\"items\")/Item return $i/Name", partial);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(result->missing_fragments,
            (std::vector<std::string>{"f_DVD", "f_TOY"}));
  // Exactly the reachable fragments contributed.
  ASSERT_EQ(result->subqueries.size(), 2u);
  EXPECT_EQ(result->subqueries[0].fragment, "f_CD");
  EXPECT_EQ(result->subqueries[1].fragment, "f_BOOK");
  EXPECT_FALSE(result->serialized.empty());

  // A healthy cluster reports complete results and no missing fragments.
  cluster_.SetNodeDown(1, false);
  cluster_.SetNodeDown(3, false);
  auto healthy = service_.Execute(
      "for $i in collection(\"items\")/Item return $i/Name", partial);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_TRUE(healthy->complete);
  EXPECT_TRUE(healthy->missing_fragments.empty());
}

TEST_F(UnreplicatedFailoverTest, TransientErrorsAreRetriedDeterministically) {
  // The node rejects its first two engine requests, then heals: the
  // executor's bounded retry rides it out.
  FaultProfile profile;
  profile.fail_first_requests = 2;
  cluster_.SetFaultProfile(1, profile);  // f_DVD

  ExecutionOptions options;
  options.retry = FastRetry(4);
  auto result = service_.Execute(kWorkload[1], options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->retries, 2u);
  EXPECT_EQ(result->failovers, 0u);
  ASSERT_EQ(result->subqueries.size(), 1u);
  EXPECT_EQ(result->subqueries[0].attempts, 3u);

  // Retries exhausted before the node heals -> the query fails, naming
  // the fragment at its node.
  cluster_.SetFaultProfile(1, profile);
  options.retry = FastRetry(2);
  auto failed = service_.Execute(kWorkload[1], options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(failed.status().message(), "f_DVD@node1"))
      << failed.status().message();
}

TEST_F(UnreplicatedFailoverTest, CircuitBreakerOpensAndStopsTraffic) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.open_ms = 1e9;  // stays open for the whole test
  cluster_.executor().set_breaker_policy(policy);

  // Every request is rejected (but still counted by the fault gate).
  FaultProfile profile;
  profile.fail_first_requests = 1000000;
  cluster_.SetFaultProfile(1, profile);  // f_DVD

  ExecutionOptions options;
  options.retry = FastRetry(2);
  EXPECT_FALSE(service_.Execute(kWorkload[1], options).ok());
  EXPECT_EQ(cluster_.NodeRequestCount(1), 2u);
  EXPECT_TRUE(cluster_.executor().breaker_open(1));

  // With the breaker open the node is not contacted at all.
  auto blocked = service_.Execute(kWorkload[1], options);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(blocked.status().message(), "circuit open"))
      << blocked.status().message();
  EXPECT_EQ(cluster_.NodeRequestCount(1), 2u);

  // Healthy nodes are unaffected by node 1's breaker.
  auto cd = service_.Execute(
      "for $i in collection(\"items\")/Item where $i/Section = \"CD\" "
      "return $i/Name",
      options);
  EXPECT_TRUE(cd.ok()) << cd.status();
}

TEST_F(UnreplicatedFailoverTest, CircuitBreakerHalfOpenProbeRecovers) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_ms = 0.0;  // probe due immediately
  cluster_.executor().set_breaker_policy(policy);

  FaultProfile profile;
  profile.fail_first_requests = 1;  // one rejection, then healthy
  cluster_.SetFaultProfile(1, profile);

  ExecutionOptions options;
  options.retry = FastRetry(1);
  EXPECT_FALSE(service_.Execute(kWorkload[1], options).ok());
  EXPECT_TRUE(cluster_.executor().breaker_open(1));

  // The half-open probe goes through, succeeds, and closes the breaker.
  auto recovered = service_.Execute(kWorkload[1], options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(cluster_.executor().breaker_open(1));
}

TEST_F(UnreplicatedFailoverTest, HalfOpenAdmitsOneProbeUnderConcurrentDispatch) {
  // The open->half-open transition hands out exactly ONE probe, even
  // when many dispatches race for it: trip node 1's breaker, heal the
  // node, then fire 8 concurrent queries at the due probe window. One
  // worker wins the probe and closes the breaker; the rest are refused
  // at the breaker (never contacting the node), retry, and drain
  // through the closed breaker. The probe counter says one probe, the
  // node-side request counter says trip + one engine request per query
  // — no thundering herd. Run under TSan via the PARTIX_SANITIZE=thread
  // build (scripts/check.sh); everything here is deterministic except
  // thread interleaving, which the invariants don't depend on.
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_ms = 0.0;  // probe due immediately once the breaker opens
  cluster_.executor().set_breaker_policy(policy);

  FaultProfile profile;
  profile.fail_first_requests = 1;  // one rejection trips it; then healthy
  cluster_.SetFaultProfile(1, profile);

  ExecutionOptions trip;
  trip.retry = FastRetry(1);
  EXPECT_FALSE(service_.Execute(kWorkload[1], trip).ok());
  EXPECT_TRUE(cluster_.executor().breaker_open(1));
  const uint64_t node1_after_trip = cluster_.NodeRequestCount(1);

  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* probes =
      registry.GetCounter("partix_breaker_half_open_probes_total");
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const uint64_t probes_before = probes->Value();

  constexpr size_t kThreads = 8;
  ExecutionOptions options;
  options.retry = FastRetry(50);  // losers outlast the winner's probe
  options.retry.base_backoff_ms = 0.2;
  options.retry.max_backoff_ms = 1.0;
  std::atomic<bool> go{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      auto result = service_.Execute(kWorkload[1], options);
      if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  const uint64_t probes_after = probes->Value();
  registry.set_enabled(was_enabled);

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(probes_after - probes_before, 1u);
  EXPECT_FALSE(cluster_.executor().breaker_open(1));
  // Conservation: every query reached the engine exactly once — breaker
  // refusals during the probe never contacted the node.
  EXPECT_EQ(cluster_.NodeRequestCount(1) - node1_after_trip, kThreads);
}

TEST_F(ReplicatedFailoverTest, AttemptTimeoutFailsOverToReplica) {
  // Node 1 answers, but only after a 100 ms stall — slower than the
  // 30 ms per-attempt budget, so the executor hangs up and the replica
  // (node 2, no stall) serves the sub-query.
  FaultProfile profile;
  profile.latency_spike_rate = 1.0;
  profile.latency_spike_ms = 100.0;
  cluster_.SetFaultProfile(1, profile);

  ExecutionOptions options;
  options.retry = FastRetry(3);
  options.retry.attempt_timeout_ms = 30.0;
  auto result = service_.Execute(kWorkload[1], options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->failovers, 1u);
  EXPECT_EQ(result->timed_out_subqueries, 1u);
  ASSERT_EQ(result->subqueries.size(), 1u);
  EXPECT_EQ(result->subqueries[0].node, 2u);
}

TEST_F(UnreplicatedFailoverTest, SubQueryDeadlineBoundsTotalTime) {
  FaultProfile profile;
  profile.latency_spike_rate = 1.0;
  profile.latency_spike_ms = 100.0;
  cluster_.SetFaultProfile(1, profile);

  ExecutionOptions options;
  options.retry = FastRetry(10);
  options.retry.attempt_timeout_ms = 30.0;
  options.retry.subquery_deadline_ms = 50.0;
  auto result = service_.Execute(kWorkload[1], options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(Contains(result.status().message(), "f_DVD@node1"))
      << result.status().message();

  // Under the degraded policy the same deadline yields a partial result
  // naming exactly the timed-out fragment.
  cluster_.SetFaultProfile(1, profile);
  options.partial_results = PartialResultPolicy::kReturnPartial;
  auto partial = service_.Execute(kWorkload[1], options);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_FALSE(partial->complete);
  EXPECT_EQ(partial->missing_fragments,
            (std::vector<std::string>{"f_DVD"}));
  EXPECT_EQ(partial->timed_out_subqueries, 1u);
}

TEST_F(UnreplicatedFailoverTest, ExpiredDeadlineDiscardsLateSuccess) {
  // Regression for the deadline bug: an attempt whose *successful*
  // answer lands after the sub-query deadline has expired must be
  // discarded with the canonical deadline error, not returned as a
  // success that overshot its budget. Before the fix the attempt budget
  // was only attempt_timeout_ms, so with no per-attempt timeout a late
  // success sailed through.
  //
  // ManualClock auto-advance makes this deterministic without sleeping:
  // each clock read advances time 6 ms, so by the time the first attempt
  // is measured, 6 "ms" elapsed against a 10 ms deadline budget of 4 ms.
  auto plan = service_.decomposer().Decompose(kWorkload[1]);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->subqueries.size(), 1u);

  ManualClock clock;
  clock.set_auto_advance_millis(6.0);
  cluster_.executor().set_clock(&clock);

  DispatchOptions options;
  options.parallelism = 1;
  options.retry.max_attempts = 5;
  options.retry.base_backoff_ms = 0.0;  // isolate the budget path
  options.retry.subquery_deadline_ms = 10.0;

  std::vector<SubQueryOutcome> outcomes;
  cluster_.executor().Dispatch(plan->subqueries, options, &outcomes);
  cluster_.executor().set_clock(Clock::Monotonic());

  ASSERT_EQ(outcomes.size(), 1u);
  const SubQueryOutcome& out = outcomes[0];
  ASSERT_FALSE(out.result.ok()) << "late success must not be returned";
  EXPECT_EQ(out.result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(Contains(out.result.status().message(),
                       "sub-query deadline (10"))
      << out.result.status().message();
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.attempts, 1u);
  // The engine really served the discarded attempt — accounting must say
  // so even though the result was thrown away.
  EXPECT_EQ(out.engine_requests, 1u);
  EXPECT_EQ(out.discarded_successes, 1u);
  EXPECT_EQ(out.timed_out_attempts, 1u);
  EXPECT_EQ(cluster_.NodeRequestCount(1), 1u);
}

TEST_F(UnreplicatedFailoverTest, DeadlineExpiryMidBackoffFailsFast) {
  // Regression for the deadline bug's backoff half: when the next
  // backoff sleep would outlive the remaining deadline, the executor
  // must fail immediately instead of sleeping the deadline away and
  // reporting the failure late.
  FaultProfile profile;
  profile.fail_first_requests = 1u << 20;  // every attempt rejected
  cluster_.SetFaultProfile(1, profile);

  ExecutionOptions options;
  options.retry.max_attempts = 5;
  options.retry.base_backoff_ms = 1000.0;  // sleep would dwarf the deadline
  options.retry.max_backoff_ms = 1000.0;
  options.retry.jitter = 0.0;
  options.retry.subquery_deadline_ms = 250.0;
  Stopwatch watch;
  auto result = service_.Execute(kWorkload[1], options);
  const double wall_ms = watch.ElapsedMillis();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(Contains(result.status().message(), "sub-query deadline (250"))
      << result.status().message();
  // Pre-fix the executor clamped the sleep to the remaining ~250 ms and
  // slept it; failing fast returns in a few milliseconds.
  EXPECT_LT(wall_ms, 100.0);
}

TEST_F(ReplicatedFailoverTest, LatencySpikeStallCappedAtAttemptBudget) {
  // Regression for the stall bug: node 1 spikes 30 s on every request
  // while the attempt budget is 25 ms. The worker used to sleep out the
  // whole spike before discarding the late answer — stalling the
  // sub-query far past its own deadline. Now the attempt hangs up at
  // the budget, fails fast with kDeadlineExceeded, and the replica
  // (node 2) answers within milliseconds.
  //
  // A ManualClock pins the executor's budget arithmetic (elapsed always
  // reads 0, so the budget is exactly attempt_timeout_ms); the
  // wall-clock Stopwatch then proves the worker really came back at the
  // ~25 ms budget, not the 30 s spike.
  FaultProfile profile;
  profile.latency_spike_rate = 1.0;
  profile.latency_spike_ms = 30'000.0;
  cluster_.SetFaultProfile(1, profile);

  ManualClock clock;
  service_.set_clock(&clock);
  ExecutionOptions options;
  options.retry = FastRetry(3);
  options.retry.attempt_timeout_ms = 25.0;
  const uint64_t node1_before = cluster_.NodeRequestCount(1);
  const uint64_t node2_before = cluster_.NodeRequestCount(2);
  Stopwatch watch;
  auto result = service_.Execute(kWorkload[1], options);
  const double wall_ms = watch.ElapsedMillis();
  service_.set_clock(Clock::Monotonic());
  ASSERT_TRUE(result.ok()) << result.status();

  // Far below the spike; generous headroom over the 25 ms capped stall.
  EXPECT_LT(wall_ms, 5000.0);

  ASSERT_EQ(result->subqueries.size(), 1u);
  const SubQueryStats& stats = result->subqueries[0];
  EXPECT_EQ(stats.node, 2u);
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.timed_out_attempts, 1u);
  EXPECT_EQ(stats.discarded_successes, 0u);
  // Conservation: the capped attempt hung up before reaching node 1's
  // engine, so only node 2's serving request counts.
  EXPECT_EQ(stats.engine_requests, 1u);
  EXPECT_EQ(cluster_.NodeRequestCount(1) - node1_before, 0u);
  EXPECT_EQ(cluster_.NodeRequestCount(2) - node2_before, 1u);
  EXPECT_EQ(result->engine_requests, 1u);
  EXPECT_EQ(result->timed_out_subqueries, 1u);
}

TEST_F(ReplicatedFailoverTest, EngineRequestAccountingConservesAcrossWorkload) {
  // Under rate-based transient faults (which reject without consuming an
  // engine request) the executor-side engine_requests totals must equal
  // the node-side request counters exactly, across the whole workload.
  for (size_t node = 0; node < cluster_.node_count(); ++node) {
    FaultProfile profile;
    profile.transient_error_rate = 0.3;
    profile.seed = 100 + node;
    cluster_.SetFaultProfile(node, profile);  // also resets the counter
  }
  ExecutionOptions options;
  options.retry = FastRetry(6);
  size_t executor_total = 0;
  for (const char* q : kWorkload) {
    auto result = service_.Execute(q, options);
    ASSERT_TRUE(result.ok()) << q << ": " << result.status();
    executor_total += result->engine_requests;
  }
  uint64_t node_total = 0;
  for (size_t node = 0; node < cluster_.node_count(); ++node) {
    node_total += cluster_.NodeRequestCount(node);
  }
  EXPECT_EQ(executor_total, node_total);
}

TEST_F(UnreplicatedFailoverTest, FaultInjectionIsDeterministicUnderSeed) {
  FaultProfile profile;
  profile.transient_error_rate = 0.5;
  profile.seed = 7;

  auto run = [&]() -> Result<DistributedResult> {
    for (size_t node = 0; node < cluster_.node_count(); ++node) {
      FaultProfile p = profile;
      p.seed = profile.seed + node;
      cluster_.SetFaultProfile(node, p);  // resets counters + reseeds
    }
    cluster_.executor().ResetBreakers();
    ExecutionOptions options;
    options.retry = FastRetry(8);
    options.parallelism = 1;  // sequential: fault draws in plan order
    return service_.Execute(kWorkload[0], options);
  };

  auto first = run();
  auto second = run();
  ASSERT_EQ(first.ok(), second.ok());
  if (first.ok()) {
    EXPECT_EQ(first->serialized, second->serialized);
    EXPECT_EQ(first->retries, second->retries);
    EXPECT_EQ(first->failovers, second->failovers);
  } else {
    EXPECT_EQ(first.status().ToString(), second.status().ToString());
  }
}

TEST_F(ReplicatedFailoverTest, ReplicatedAndPrimaryResultsAgree) {
  // Replication must be invisible when everything is healthy: rf=2
  // results equal an unreplicated deployment's (both equal the healthy
  // baseline by construction, so compare across parallelism too).
  ExecutionOptions sequential;
  ExecutionOptions parallel;
  parallel.parallelism = 0;
  for (const char* q : kWorkload) {
    auto a = service_.Execute(q, sequential);
    auto b = service_.Execute(q, parallel);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->serialized, b->serialized) << q;
  }
}

}  // namespace
}  // namespace partix::middleware
