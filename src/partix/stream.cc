#include "partix/stream.h"

#include <string>
#include <utility>

#include "telemetry/metrics.h"

namespace partix::middleware {

namespace {

/// Block-flow counters. Conservation invariant: for any completed query,
/// blocks_total == blocks_consumed + blocks_discarded (deltas); the
/// streaming tests assert it around fault-injected runs.
struct StreamTelemetry {
  telemetry::Counter* blocks_total;
  telemetry::Counter* blocks_consumed;
  telemetry::Counter* blocks_discarded;
  telemetry::Gauge* inflight_bytes;

  static const StreamTelemetry& Get() {
    static const StreamTelemetry t = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      StreamTelemetry out;
      out.blocks_total = registry.GetCounter("partix_stream_blocks_total");
      out.blocks_consumed =
          registry.GetCounter("partix_stream_blocks_consumed_total");
      out.blocks_discarded =
          registry.GetCounter("partix_stream_blocks_discarded_total");
      out.inflight_bytes =
          registry.GetGauge("partix_inflight_result_bytes");
      return out;
    }();
    return t;
  }
};

}  // namespace

BlockChannel::BlockChannel(size_t subquery_count, size_t buffer_cap_bytes,
                           memory::MemoryGovernor* governor, int consumer_id)
    : cap_bytes_(buffer_cap_bytes),
      governor_(governor),
      consumer_id_(consumer_id),
      lanes_(subquery_count) {}

BlockChannel::~BlockChannel() {
  // Producers are done by contract; anything still queued was never
  // consumed — count it discarded and release its accounting so the
  // governor ends the query with zero bytes charged to this channel.
  size_t remaining_bytes = 0;
  uint64_t remaining_blocks = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    for (Lane& lane : lanes_) {
      for (const xdb::ResultBlock& block : lane.queue) {
        remaining_bytes += block.serialized.size();
        ++remaining_blocks;
      }
      lane.queue.clear();
    }
    buffered_bytes_ = 0;
    discarded_ += remaining_blocks;
  }
  if (remaining_blocks > 0) {
    StreamTelemetry::Get().blocks_discarded->Add(
        static_cast<double>(remaining_blocks));
  }
  if (remaining_bytes > 0) ReleaseAccounting(remaining_bytes);
}

void BlockChannel::ReleaseAccounting(size_t bytes) {
  StreamTelemetry::Get().inflight_bytes->Add(-static_cast<double>(bytes));
  if (governor_ != nullptr) governor_->Release(consumer_id_, bytes);
}

void BlockChannel::BeginAttempt(size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_[i].replay_pos = 0;
}

Status BlockChannel::Push(size_t i, xdb::ResultBlock block) {
  // The executor's hash of the bytes received (see Push's precondition),
  // never the node's stamp, which a corrupted wire leaves stale: the
  // replay record must pin what the consumer really received.
  const uint64_t digest = block.digest;
  const size_t bytes = block.serialized.size();
  // Charge BEFORE the block can become visible to the pop side. Pull /
  // DrainDiscard / the destructor release a block's bytes as they pop
  // it, and the governor clamps a release against the consumer's
  // current balance — a release that raced ahead of this charge would
  // be swallowed and the late charge would outlive the query. The two
  // paths below that never enqueue (replay duplicate, closed channel)
  // undo the charge themselves; a lane has exactly one producer at a
  // time, so its replay state cannot change between here and the
  // critical section.
  StreamTelemetry::Get().inflight_bytes->Add(static_cast<double>(bytes));
  if (governor_ != nullptr) governor_->Charge(consumer_id_, bytes);
  Status status = Status::Ok();
  bool committed = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Lane& lane = lanes_[i];
    if (lane.replay_pos < lane.committed) {
      // Failover replay: the replacement replica re-produces blocks this
      // lane already committed (some possibly already composed). Verify
      // byte-identity and drop — no charge, no counter.
      if (digest != lane.digests[lane.replay_pos]) {
        status = Status::Internal(
            "replica stream prefix diverged during failover (block " +
            std::to_string(lane.replay_pos) + " of sub-query " +
            std::to_string(i) + ")");
      } else {
        ++lane.replay_pos;
      }
    } else {
      // Backpressure: wait for buffer room unless this is the lane the
      // consumer is draining right now — that lane must always make
      // progress or consumer and producer deadlock against the cap.
      producer_cv_.wait(lock, [&] {
        return closed_ || i == cursor_ || cap_bytes_ == 0 ||
               buffered_bytes_ < cap_bytes_;
      });
      if (closed_) {
        status = Status::Internal("block channel closed under producer");
      } else {
        lane.queue.push_back(std::move(block));
        lane.digests.push_back(digest);
        ++lane.committed;
        lane.replay_pos = lane.committed;
        buffered_bytes_ += bytes;
        ++produced_;
        committed = true;
        consumer_cv_.notify_all();
      }
    }
  }
  if (!committed) {
    ReleaseAccounting(bytes);
    return status;
  }
  StreamTelemetry::Get().blocks_total->Add(1);
  return Status::Ok();
}

void BlockChannel::Finish(size_t i, Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  Lane& lane = lanes_[i];
  lane.finished = true;
  lane.final_status = std::move(status);
  consumer_cv_.notify_all();
}

Result<bool> BlockChannel::Pull(size_t i, xdb::ResultBlock* out) {
  size_t bytes = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cursor_ = i;
    producer_cv_.notify_all();
    Lane& lane = lanes_[i];
    consumer_cv_.wait(lock,
                      [&] { return !lane.queue.empty() || lane.finished; });
    if (lane.queue.empty()) {
      if (!lane.final_status.ok()) return lane.final_status;
      return false;
    }
    *out = std::move(lane.queue.front());
    lane.queue.pop_front();
    bytes = out->serialized.size();
    buffered_bytes_ -= bytes;
    ++consumed_;
    producer_cv_.notify_all();
  }
  StreamTelemetry::Get().blocks_consumed->Add(1);
  ReleaseAccounting(bytes);
  return true;
}

void BlockChannel::DrainDiscard(size_t i) {
  for (;;) {
    size_t bytes = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cursor_ = i;
      producer_cv_.notify_all();
      Lane& lane = lanes_[i];
      consumer_cv_.wait(lock,
                        [&] { return !lane.queue.empty() || lane.finished; });
      if (lane.queue.empty()) return;
      bytes = lane.queue.front().serialized.size();
      lane.queue.pop_front();
      buffered_bytes_ -= bytes;
      ++discarded_;
      producer_cv_.notify_all();
    }
    StreamTelemetry::Get().blocks_discarded->Add(1);
    ReleaseAccounting(bytes);
  }
}

uint64_t BlockChannel::produced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return produced_;
}

uint64_t BlockChannel::consumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consumed_;
}

uint64_t BlockChannel::discarded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return discarded_;
}

}  // namespace partix::middleware
