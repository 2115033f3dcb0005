#include "partix/cluster.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/strings.h"

namespace partix::middleware {

namespace {

/// Wraps a driver stream with one node's streaming fault knobs, all
/// deterministic: a per-block stall, a hard fail after N served blocks
/// (the mid-response node death failover must recover from), and — when
/// the open-time gate drew response corruption — one flipped character in
/// the first non-empty block, applied after the driver stamped that
/// block's digest: the wire mangling the bytes, not the engine producing
/// a wrong answer, so the executor's digest check detects it.
class GatedStream : public SubQueryStream {
 public:
  GatedStream(SubQueryStreamPtr inner, size_t node,
              int64_t fail_after_blocks, double block_stall_ms,
              bool corrupt_response)
      : inner_(std::move(inner)),
        node_(node),
        fail_after_blocks_(fail_after_blocks),
        block_stall_ms_(block_stall_ms),
        corrupt_pending_(corrupt_response) {}

  Result<bool> Next(xdb::ResultBlock* out) override {
    if (fail_after_blocks_ >= 0 &&
        served_ >= static_cast<uint64_t>(fail_after_blocks_)) {
      return Status::Unavailable(
          "node" + std::to_string(node_) + " stream failed after " +
          std::to_string(fail_after_blocks_) + " block(s) (injected)");
    }
    if (block_stall_ms_ > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(block_stall_ms_ / 1e3));
    }
    Result<bool> more = inner_->Next(out);
    if (!more.ok() || !*more) return more;
    ++served_;
    if (corrupt_pending_ && !out->serialized.empty()) {
      CorruptXmlText(&out->serialized, out->digest);
      corrupt_pending_ = false;
    }
    return more;
  }

  const xdb::QueryMetrics& metrics() const override {
    return inner_->metrics();
  }

 private:
  SubQueryStreamPtr inner_;
  size_t node_;
  int64_t fail_after_blocks_;
  double block_stall_ms_;
  bool corrupt_pending_;
  uint64_t served_ = 0;
};

}  // namespace

ClusterSim::ClusterSim(size_t node_count, xdb::DatabaseOptions node_options,
                       NetworkModel network)
    : network_(network) {
  nodes_.reserve(node_count);
  faults_.reserve(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    nodes_.push_back(std::make_unique<LocalXdbDriver>(
        "node" + std::to_string(i), node_options));
    faults_.push_back(std::make_unique<NodeFaultState>(FaultProfile{}));
  }
}

Status ClusterSim::FaultGate(size_t i, double stall_budget_ms,
                             double* spike_ms, bool* corrupt_response,
                             bool* crash_restart) {
  NodeFaultState& f = *faults_[i];
  std::lock_guard<std::mutex> lock(f.mu);
  if (f.profile.down) {
    return Status::Unavailable("node" + std::to_string(i) + " is down");
  }
  if (f.profile.fail_after_requests >= 0 &&
      f.engine_requests >=
          static_cast<uint64_t>(f.profile.fail_after_requests)) {
    return Status::Unavailable(
        "node" + std::to_string(i) + " failed after " +
        std::to_string(f.profile.fail_after_requests) + " request(s)");
  }
  if (f.profile.fail_first_requests > 0 &&
      f.engine_requests <
          static_cast<uint64_t>(f.profile.fail_first_requests)) {
    ++f.engine_requests;
    return Status::Unavailable("injected transient error at node" +
                               std::to_string(i) + " (fail-first)");
  }
  if (f.profile.transient_error_rate > 0.0 &&
      f.rng.Bernoulli(f.profile.transient_error_rate)) {
    return Status::Unavailable("injected transient error at node" +
                               std::to_string(i));
  }
  if (f.profile.crash_restart_rate > 0.0 &&
      f.rng.Bernoulli(f.profile.crash_restart_rate)) {
    // The node process dies and restarts: the request is lost (retryable)
    // and the restarted node comes back with cold caches. The caller
    // drops the caches outside this mutex.
    *crash_restart = true;
    return Status::Unavailable("node" + std::to_string(i) +
                               " crash-restarted (injected)");
  }
  double spike = 0.0;
  if (f.profile.latency_spike_rate > 0.0 &&
      f.rng.Bernoulli(f.profile.latency_spike_rate)) {
    spike = f.profile.latency_spike_ms;
  }
  if (f.profile.response_corruption_rate > 0.0 &&
      f.rng.Bernoulli(f.profile.response_corruption_rate)) {
    *corrupt_response = true;
  }
  if (spike > 0.0 && stall_budget_ms >= 0.0 && spike > stall_budget_ms) {
    // The caller's attempt budget expires before the spike ends: a real
    // client hangs up at the budget, so the request never reaches the
    // engine and does not count as an engine request. Every knob above
    // already drew, so a capped run keeps the exact RNG schedule of an
    // uncapped one.
    *spike_ms = stall_budget_ms;
    *corrupt_response = false;  // no response to corrupt
    return Status::DeadlineExceeded(
        "injected latency spike (" + std::to_string(spike) + " ms) at node" +
        std::to_string(i) + " exceeded the attempt budget (" +
        std::to_string(stall_budget_ms) + " ms)");
  }
  *spike_ms = spike;
  ++f.engine_requests;
  return Status::Ok();
}

Result<PreparedSubQueryPtr> ClusterSim::PrepareOnNode(
    size_t i, const xquery::CompiledQueryPtr& compiled) {
  if (i >= nodes_.size()) {
    return Status::OutOfRange("node " + std::to_string(i) +
                              " out of range");
  }
  // Liveness only — no stochastic fault draw, no engine-request count:
  // preparation must not perturb deterministic fault schedules (see
  // header contract).
  if (IsNodeDown(i)) {
    return Status::Unavailable("node" + std::to_string(i) + " is down");
  }
  return nodes_[i]->Prepare(compiled);
}

Result<SubQueryStreamPtr> ClusterSim::ExecutePreparedStreamOnNode(
    size_t i, const PreparedSubQuery& prepared, double stall_budget_ms,
    const xdb::ExecParams& exec) {
  if (i >= nodes_.size()) {
    return Status::OutOfRange("node " + std::to_string(i) +
                              " out of range");
  }
  double spike_ms = 0.0;
  bool corrupt_response = false;
  bool crash_restart = false;
  Status gate = FaultGate(i, stall_budget_ms, &spike_ms, &corrupt_response,
                          &crash_restart);
  // Cache drop and stalls happen outside the fault mutex: a restarting or
  // stalling node must not block fault draws for concurrent requests to
  // the same node. A rejected request with a stall is a budget-capped
  // spike: the client hangs on for the budget, then gives up.
  if (crash_restart) nodes_[i]->DropCaches();
  if (spike_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(spike_ms / 1e3));
  }
  if (!gate.ok()) return gate;
  // Snapshot the deterministic streaming knobs under the fault mutex at
  // open time: a control-plane profile swap mid-stream must not tear them.
  int64_t fail_after_blocks = -1;
  double block_stall_ms = 0.0;
  {
    NodeFaultState& f = *faults_[i];
    std::lock_guard<std::mutex> lock(f.mu);
    fail_after_blocks = f.profile.fail_stream_after_blocks;
    block_stall_ms = f.profile.stream_block_stall_ms;
  }
  PARTIX_ASSIGN_OR_RETURN(SubQueryStreamPtr stream,
                          nodes_[i]->ExecutePreparedStream(prepared, exec));
  return SubQueryStreamPtr(std::make_unique<GatedStream>(
      std::move(stream), i, fail_after_blocks, block_stall_ms,
      corrupt_response));
}

Status ClusterSim::CreateCollectionOnNode(size_t i,
                                          const std::string& collection,
                                          xdb::CollectionMeta meta) {
  if (i >= nodes_.size()) {
    return Status::OutOfRange("node " + std::to_string(i) +
                              " out of range");
  }
  if (IsNodeDown(i)) {
    return Status::Unavailable("node" + std::to_string(i) + " is down");
  }
  return nodes_[i]->CreateCollection(collection, std::move(meta));
}

Status ClusterSim::StoreSerializedOnNode(
    size_t i, const std::string& collection, std::string doc_name,
    std::string xml, std::map<std::string, std::string> metadata) {
  if (i >= nodes_.size()) {
    return Status::OutOfRange("node " + std::to_string(i) +
                              " out of range");
  }
  {
    NodeFaultState& f = *faults_[i];
    std::lock_guard<std::mutex> lock(f.mu);
    if (f.profile.down ||
        (f.profile.fail_after_requests >= 0 &&
         f.engine_requests >=
             static_cast<uint64_t>(f.profile.fail_after_requests))) {
      return Status::Unavailable("node" + std::to_string(i) + " is down");
    }
    if (f.profile.storage_corruption_rate > 0.0 &&
        f.rng.Bernoulli(f.profile.storage_corruption_rate)) {
      // Silent bit rot: the write "succeeds" with flipped bytes and no
      // error — only the scrubber's digest cross-check can notice.
      CorruptXmlText(&xml, f.engine_requests);
    }
  }
  return nodes_[i]->StoreSerializedDocument(collection, std::move(doc_name),
                                            std::move(xml),
                                            std::move(metadata));
}

void ClusterSim::SetFaultProfile(size_t i, FaultProfile profile) {
  if (i >= faults_.size()) return;
  NodeFaultState& f = *faults_[i];
  std::lock_guard<std::mutex> lock(f.mu);
  f.profile = profile;
  f.engine_requests = 0;
  f.rng = Rng(profile.seed);
}

void ClusterSim::SetNodeDown(size_t i, bool down) {
  if (i >= faults_.size()) return;
  NodeFaultState& f = *faults_[i];
  std::lock_guard<std::mutex> lock(f.mu);
  f.profile.down = down;
}

bool ClusterSim::IsNodeDown(size_t i) const {
  if (i >= faults_.size()) return false;
  NodeFaultState& f = *faults_[i];
  std::lock_guard<std::mutex> lock(f.mu);
  return f.profile.down ||
         (f.profile.fail_after_requests >= 0 &&
          f.engine_requests >=
              static_cast<uint64_t>(f.profile.fail_after_requests));
}

uint64_t ClusterSim::NodeRequestCount(size_t i) const {
  if (i >= faults_.size()) return 0;
  NodeFaultState& f = *faults_[i];
  std::lock_guard<std::mutex> lock(f.mu);
  return f.engine_requests;
}

void ClusterSim::DropAllCaches() {
  for (auto& node : nodes_) node->DropCaches();
}

}  // namespace partix::middleware
