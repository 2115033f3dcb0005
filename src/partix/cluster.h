#ifndef PARTIX_PARTIX_CLUSTER_H_
#define PARTIX_PARTIX_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "partix/driver.h"
#include "partix/executor.h"

namespace partix::middleware {

/// Network cost model for the simulated cluster. The paper computes
/// communication time as result size divided by the Gigabit Ethernet
/// transmission speed, plus the (negligible) cost of shipping sub-queries;
/// we model both explicitly.
struct NetworkModel {
  /// Payload bandwidth. 1 Gbit/s = 125e6 bytes/s.
  double bandwidth_bytes_per_sec = 125e6;
  /// Fixed per-message latency (sub-query dispatch, TCP round trip).
  /// Enters the *modeled* transmission time only.
  double latency_sec = 100e-6;
  /// When > 0, the executor physically blocks each sub-query dispatch for
  /// this long on its worker thread, emulating the synchronous RPC round
  /// trip a driver pays against a genuinely remote DBMS node (the paper's
  /// prototype spoke XML-RPC to eXist). Off by default — it affects the
  /// *measured* `wall_ms`, never the modeled response time.
  /// `bench/parallel_speedup` uses it for its remote-deployment series.
  double emulated_rpc_sec = 0.0;

  double TransferSeconds(uint64_t bytes) const {
    return latency_sec +
           static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }
};

/// Per-node fault-injection profile. All knobs compose; the default is a
/// healthy node. Every stochastic knob draws from a per-node RNG seeded
/// with `seed`, so a given profile produces the same fault sequence on
/// every run (requests arriving from concurrent workers consume draws in
/// arrival order — use sequential dispatch when a test needs the exact
/// per-request sequence).
struct FaultProfile {
  /// Permanently unreachable: every request is rejected with
  /// kUnavailable until the profile is replaced.
  bool down = false;
  /// Probability that a request is rejected with a transient
  /// kUnavailable error (the node stays up).
  double transient_error_rate = 0.0;
  /// Probability that a served request stalls for `latency_spike_ms`
  /// before executing (emulates GC pauses / IO stalls).
  double latency_spike_rate = 0.0;
  double latency_spike_ms = 0.0;
  /// The node serves this many engine requests, then becomes permanently
  /// down (-1 = never). Transient rejections do not count.
  int64_t fail_after_requests = -1;
  /// The first `fail_first_requests` engine requests are rejected with a
  /// transient kUnavailable, then the node is healthy. Deterministic
  /// counterpart of `transient_error_rate` for retry tests.
  int64_t fail_first_requests = 0;
  /// Probability that the node crash-restarts on a request: the request
  /// is rejected with a transient kUnavailable and the node's caches are
  /// dropped (the restarted process comes back cold). Consumes no
  /// engine-request budget — the engine never saw the request.
  double crash_restart_rate = 0.0;
  /// Probability that a *served* request's response is corrupted in
  /// flight: the engine executes normally, then one text character of the
  /// first non-empty result block is flipped after the node-side digest
  /// was stamped, so integrity verification
  /// (ExecutionOptions::verify_integrity) can detect the mangled response
  /// and fail over.
  double response_corruption_rate = 0.0;
  /// The node's block stream serves this many blocks, then every further
  /// Next() fails with a retryable kUnavailable (-1 = never).
  /// Deterministic — consumes no RNG draw (the open already drew the
  /// gate's stochastic knobs). Models a node dying mid-response after part
  /// of the result crossed the wire, the case failover must handle by
  /// discarding the partial prefix.
  int64_t fail_stream_after_blocks = -1;
  /// Every block Next() — the end-of-stream one included — stalls this
  /// long before the engine produces the block (deterministic, no RNG
  /// draw). Emulates a slow producer for deadline and budget tests.
  double stream_block_stall_ms = 0.0;
  /// Probability that a document *stored* through the cluster's data
  /// plane (publisher, replica repair) is silently corrupted at rest: one
  /// text character of the serialized bytes flips before the store
  /// persists them. Detected by the anti-entropy scrubber's digest
  /// cross-check, never by the write itself.
  double storage_corruption_rate = 0.0;
  /// Seed of this node's fault RNG.
  uint64_t seed = 0;
};

/// A simulated cluster of DBMS nodes. Each node is an independent
/// xdb::Database (its own name pool, stores, caches, indexes) behind a
/// Driver with a reader-writer lock: queries on one node share it, loads
/// and DDL take it exclusively, and distinct nodes share nothing, so
/// sub-queries execute genuinely in parallel (see Executor). The query
/// service reports both the *modeled* parallel response time — the
/// maximum over the involved nodes, the paper's methodology ("we have
/// used the time spent by the slowest site") — and the *measured*
/// wall-clock of the real fan-out.
///
/// Thread-safety contract: the data plane (PrepareOnNode /
/// ExecutePreparedStreamOnNode / IsNodeDown / NodeRequestCount, used by
/// executor workers) is thread-safe — each node's fault state is guarded
/// by its own mutex. The control plane —
/// SetFaultProfile, SetNodeDown, DropAllCaches, database(i),
/// mutable_network, construction — is coordinator-thread-only and must
/// not race a Dispatch in flight.
class ClusterSim {
 public:
  ClusterSim(size_t node_count, xdb::DatabaseOptions node_options,
             NetworkModel network);

  size_t node_count() const { return nodes_.size(); }
  Driver& node(size_t i) { return *nodes_[i]; }

  /// Direct access to a node's embedded engine (local drivers only) —
  /// used by deployment persistence and tests. Bypasses the driver's
  /// serialization: coordinator-thread-only.
  xdb::Database& database(size_t i) { return nodes_[i]->database(); }
  const NetworkModel& network() const { return network_; }
  NetworkModel& mutable_network() { return network_; }

  /// The sub-query executor for this cluster (shared by query services;
  /// its worker pool persists across queries).
  Executor& executor() { return executor_; }

  /// Prepares a compiled query on node `i`'s driver. A down (or
  /// fail-after-exhausted) node rejects with kUnavailable, but the fault
  /// gate's stochastic knobs are NOT consulted: preparation consumes no
  /// fault-RNG draw and no engine-request budget, so fault-injection
  /// schedules (and the tests that pin them) see exactly one draw per
  /// *executed* attempt. Thread-safe.
  Result<PreparedSubQueryPtr> PrepareOnNode(
      size_t i, const xquery::CompiledQueryPtr& compiled);

  /// The query data plane: opens a block stream over `prepared` on node
  /// `i` through its fault profile, then wraps it with the node's
  /// streaming knobs. The fault gate runs ONCE at open — one draw and one
  /// engine request per attempt, however many blocks the stream yields: a
  /// down (or fail-after-exhausted) node rejects with kUnavailable,
  /// transient faults reject without touching the engine, latency spikes
  /// stall the calling worker. The returned stream then applies the
  /// deterministic knobs: per-block stalls (stream_block_stall_ms),
  /// fail-after-N-blocks (fail_stream_after_blocks), and — when the gate
  /// drew response corruption — one flipped character in the first
  /// non-empty block, after the driver stamped that block's digest.
  ///
  /// `stall_budget_ms` caps how long an injected latency spike may stall
  /// the open: when the spike exceeds it, the call stalls only for the
  /// budget and then fails fast with kDeadlineExceeded instead of
  /// sleeping out a stall the caller's deadline has already written off.
  /// < 0 (the default) = uncapped. `exec` forwards per-call execution
  /// knobs (block size, intra-node morsel parallelism) to the driver.
  ///
  /// Thread-safe to open; the returned stream follows the driver stream's
  /// one-thread contract.
  Result<SubQueryStreamPtr> ExecutePreparedStreamOnNode(
      size_t i, const PreparedSubQuery& prepared,
      double stall_budget_ms = -1.0, const xdb::ExecParams& exec = {});

  /// Store data plane: creates a collection on node `i` through its
  /// liveness gate (a down node rejects with kUnavailable). Thread-safe;
  /// the publisher and replica repair route collection DDL through here.
  Status CreateCollectionOnNode(size_t i, const std::string& collection,
                                xdb::CollectionMeta meta);

  /// Store data plane: persists pre-serialized bytes on node `i`. A down
  /// node rejects with kUnavailable; when the node's
  /// `storage_corruption_rate` fires, one text character of `xml` flips
  /// before the store persists it — silent bit rot that only a digest
  /// cross-check can see. Thread-safe.
  Status StoreSerializedOnNode(size_t i, const std::string& collection,
                               std::string doc_name, std::string xml,
                               std::map<std::string, std::string> metadata);

  /// Failure injection: replaces node `i`'s fault profile, resetting its
  /// request counter and reseeding its RNG from `profile.seed`. Data
  /// survives (the node is unreachable, not wiped). Out-of-range `i` is a
  /// no-op. Control plane: must not race a Dispatch in flight.
  void SetFaultProfile(size_t i, FaultProfile profile);

  /// Shorthand for the permanent-down bit of the fault profile (other
  /// knobs are preserved).
  void SetNodeDown(size_t i, bool down);

  /// True when node `i` rejects every request: explicitly down, or its
  /// fail-after-N budget is exhausted. Thread-safe.
  bool IsNodeDown(size_t i) const;

  /// Engine requests node `i` has served or attempted (excludes requests
  /// rejected by the fault gate). Thread-safe; used by tests to prove a
  /// breaker-opened node is no longer contacted.
  uint64_t NodeRequestCount(size_t i) const;

  /// Cold-start all nodes.
  void DropAllCaches();

 private:
  /// Fault state of one node; `mu` guards every field.
  struct NodeFaultState {
    explicit NodeFaultState(FaultProfile p) : profile(p), rng(p.seed) {}
    mutable std::mutex mu;
    FaultProfile profile;
    uint64_t engine_requests = 0;
    Rng rng;
  };

  /// Runs node `i`'s fault gate for one engine request: rejects when the
  /// node is down / budget-exhausted / transiently faulted / crash-
  /// restarting, otherwise counts the request and reports any latency
  /// spike to stall for and whether the response must be corrupted in
  /// flight. Stochastic knobs draw in a fixed order (transient, crash,
  /// spike, corruption) and only when their rate is > 0, so enabling a
  /// new knob never perturbs the draw schedule of profiles that don't
  /// use it. On a crash-restart rejection `*crash_restart` is set and the
  /// caller drops the node's caches outside the fault mutex. A spike
  /// longer than `stall_budget_ms` (when >= 0) fails the gate with
  /// kDeadlineExceeded and `*spike_ms` set to the capped stall — the
  /// request hangs up at the budget and never reaches the engine, so it
  /// does not count as an engine request (the RNG still draws every
  /// knob, keeping the schedule identical to an uncapped run).
  Status FaultGate(size_t i, double stall_budget_ms, double* spike_ms,
                   bool* corrupt_response, bool* crash_restart);

  std::vector<std::unique_ptr<LocalXdbDriver>> nodes_;
  std::vector<std::unique_ptr<NodeFaultState>> faults_;
  NetworkModel network_;
  Executor executor_{this};
};

}  // namespace partix::middleware

#endif  // PARTIX_PARTIX_CLUSTER_H_
