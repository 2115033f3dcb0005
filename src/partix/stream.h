#ifndef PARTIX_PARTIX_STREAM_H_
#define PARTIX_PARTIX_STREAM_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "memory/governor.h"

namespace partix::middleware {

/// The bounded block buffer between executor workers and the composing
/// coordinator: one producer lane per sub-query (each fed by whichever
/// worker currently runs that sub-query's attempt), one consumer that
/// drains lanes in plan order. This is what makes the streaming result
/// path's memory *bounded*: blocks are charged to the memory governor as
/// they are committed and released as they are consumed, and producers
/// block once `buffer_cap_bytes` of blocks sit unconsumed — except the
/// lane the consumer is currently draining, which is always admitted.
///
/// Deadlock-freedom: the consumer drains lanes in plan order, and the
/// executor's dispatch claims sub-queries in increasing index order, so
/// the lane the consumer waits on always has a worker assigned (or
/// already finished) — and that lane's producer is never blocked by the
/// byte cap. Producers of not-yet-drained lanes may block, which is the
/// point: they hold node-side locks, not coordinator memory.
///
/// Failover replay: when a sub-query's attempt dies mid-stream and the
/// executor retries on a replica, the replacement stream re-produces the
/// result from the beginning. The channel keeps a digest of every block
/// it ever committed for the lane; after BeginAttempt(), Push() verifies
/// each re-produced block against that record and silently drops it —
/// the consumer never sees a duplicate, and bytes already forwarded are
/// never composed twice (the consumed prefix is exactly the replayed
/// prefix). A digest mismatch means the replica's result diverges from
/// the prefix already handed to the consumer, which is not recoverable
/// by retrying: Push fails with a non-retryable kInternal.
///
/// Thread-safety: all methods are thread-safe; lanes are independent.
/// Consumer calls (Pull/DrainDiscard) must come from one thread at a
/// time. Destroy only after every producer has finished (the query
/// service joins the dispatch before dropping the channel).
class BlockChannel {
 public:
  /// `governor` (nullable) is charged for buffered bytes under
  /// `consumer_id`; the channel releases everything it charged by
  /// destruction (zero-leak, whatever path the query took).
  BlockChannel(size_t subquery_count, size_t buffer_cap_bytes,
               memory::MemoryGovernor* governor, int consumer_id);
  ~BlockChannel();
  BlockChannel(const BlockChannel&) = delete;
  BlockChannel& operator=(const BlockChannel&) = delete;

  // ---- Producer side (executor workers) ----

  /// Marks the start of a (re)attempt for lane `i`: subsequent Push()es
  /// replay-verify against the committed prefix before new blocks append.
  void BeginAttempt(size_t i);

  /// Commits one block to lane `i` (or verifies-and-drops it while
  /// replaying a failover prefix). Blocks while the channel is over its
  /// byte cap and `i` is not the lane the consumer is draining. Fails
  /// with kInternal on replay divergence — non-retryable.
  ///
  /// Precondition: `block.digest` is Xxh64 of `block.serialized`, the
  /// bytes being pushed — the channel records it as the replay record
  /// without hashing again. The executor computes it from the bytes it
  /// received, whatever the node stamped.
  Status Push(size_t i, xdb::ResultBlock block);

  /// Ends lane `i` with the sub-query's final status. Called exactly once
  /// per lane, after all retries resolved.
  void Finish(size_t i, Status status);

  // ---- Consumer side (one thread) ----

  /// Takes the next block of lane `i`, blocking until one is available
  /// or the lane finished. Returns false at clean end of lane; returns
  /// the lane's final error (after yielding any already-committed
  /// blocks) when it failed.
  Result<bool> Pull(size_t i, xdb::ResultBlock* out);

  /// Drains and discards the remainder of lane `i`, blocking until the
  /// lane finishes — keeps producers from wedging on the byte cap after
  /// the consumer stops composing (e.g. another lane failed).
  void DrainDiscard(size_t i);

  // ---- Accounting (tests, telemetry cross-checks) ----

  /// Conservation: produced() == consumed() + discarded() once every
  /// lane is finished and drained or the channel is destroyed.
  uint64_t produced() const;
  uint64_t consumed() const;
  uint64_t discarded() const;

 private:
  struct Lane {
    std::deque<xdb::ResultBlock> queue;
    /// The pushed digest (XXH64 of the bytes) of every block ever
    /// committed, in commit order — the replay-verification record for
    /// failover.
    std::vector<uint64_t> digests;
    uint64_t committed = 0;
    uint64_t replay_pos = 0;
    bool finished = false;
    Status final_status = Status::Ok();
  };

  /// Releases `bytes`/`blocks` worth of externally visible accounting
  /// (gauge + governor). Called outside mu_.
  void ReleaseAccounting(size_t bytes);

  const size_t cap_bytes_;
  memory::MemoryGovernor* const governor_;
  const int consumer_id_;

  mutable std::mutex mu_;
  std::condition_variable producer_cv_;
  std::condition_variable consumer_cv_;
  std::vector<Lane> lanes_;
  size_t cursor_ = 0;
  size_t buffered_bytes_ = 0;
  bool closed_ = false;
  uint64_t produced_ = 0;
  uint64_t consumed_ = 0;
  uint64_t discarded_ = 0;
};

}  // namespace partix::middleware

#endif  // PARTIX_PARTIX_STREAM_H_
