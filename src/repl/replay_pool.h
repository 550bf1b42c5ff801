#ifndef SHOREMT_REPL_REPLAY_POOL_H_
#define SHOREMT_REPL_REPLAY_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "log/log_record.h"
#include "sm/storage_manager.h"

namespace shoremt::repl {

/// Partitioned parallel redo: log records are hash-partitioned by page id
/// across N replay workers, so two records touching the same page always
/// land in the same FIFO queue (per-page order preserved) while records of
/// different pages replay concurrently. A single dispatcher thread feeds
/// Dispatch/PublishBarrier; workers drain their queue in batches.
///
/// The pool publishes a `replayed_lsn` visibility horizon through epoch
/// barriers: PublishBarrier(h) enqueues a marker into EVERY partition, and
/// when the last worker consumes its marker, every record dispatched
/// before the barrier has been applied, so the horizon advances to `h`.
/// Readers above the horizon see a consistent committed prefix.
///
/// Records arrive in COMMIT order (the replica's commit-gated dispatcher),
/// which breaks per-page LSN monotonicity, so every apply is forced and the
/// page LSN only ratchets upward.
class ReplayPool {
 public:
  /// `sm` must outlive the pool. `workers` is clamped to >= 1.
  ReplayPool(sm::StorageManager* sm, size_t workers);
  /// Stops and joins the workers; queued records still unapplied at
  /// destruction are dropped (callers that need them applied Drain first).
  ~ReplayPool();

  ReplayPool(const ReplayPool&) = delete;
  ReplayPool& operator=(const ReplayPool&) = delete;

  // --- dispatcher side (single thread) -------------------------------------

  /// Routes one record to its page's partition queue; blocks while that
  /// queue is full. After a sticky error records are accepted and dropped
  /// (the stream keeps flowing so the dispatcher never deadlocks; the
  /// error is surfaced through error() / Drain()).
  void Dispatch(log::LogRecord rec, Lsn end);
  /// Publishes an epoch barrier: once every worker passes it, replayed_lsn
  /// advances to max(current, horizon).
  void PublishBarrier(uint64_t horizon);
  /// Barrier at the highest dispatched end-LSN + wait until it is applied.
  /// Returns the sticky error, if any.
  Status Drain();

  // --- observers (any thread) ----------------------------------------------

  /// Every committed record with end <= this LSN has been applied.
  uint64_t replayed_lsn() const {
    return replayed_.load(std::memory_order_acquire);
  }
  /// Waits until replayed_lsn >= lsn (or error/timeout); true on success.
  bool WaitReplayed(uint64_t lsn, int timeout_ms);
  /// First apply failure (sticky).
  Status error() const;
  /// Worker batch pops (the kReplReplayBatches metric).
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  /// Records applied across all workers.
  uint64_t applied() const { return applied_.load(std::memory_order_relaxed); }

 private:
  /// One queue entry: a record to apply or an epoch barrier marker.
  struct Task {
    bool barrier = false;
    uint64_t barrier_id = 0;   ///< barrier only
    log::LogRecord rec;        ///< record only
    Lsn end;                   ///< record only
  };

  /// Per-partition bounded FIFO.
  struct Partition {
    std::mutex mutex;
    std::condition_variable nonempty;
    std::condition_variable nonfull;
    std::deque<Task> queue;
  };

  void WorkerLoop(size_t idx);
  void Push(size_t idx, Task task);
  void BarrierArrived(uint64_t id);

  sm::StorageManager* sm_;
  size_t nworkers_;
  /// Per-partition queue bound: deep enough to ride out skewed page
  /// distributions, small enough to bound replica memory when replay
  /// falls behind the stream.
  static constexpr size_t kQueueCapacity = 4096;

  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};

  /// Barrier accounting: id -> {horizon, workers yet to pass}.
  struct BarrierState {
    uint64_t horizon = 0;
    size_t remaining = 0;
  };
  std::mutex barrier_mutex_;
  std::unordered_map<uint64_t, BarrierState> barriers_;
  uint64_t next_barrier_id_ = 1;       ///< Dispatcher thread only.
  std::atomic<uint64_t> max_dispatched_end_{0};

  std::atomic<uint64_t> replayed_{0};
  std::condition_variable replayed_cv_;  ///< Waits on barrier_mutex_.

  mutable std::mutex error_mutex_;
  Status error_ = Status::Ok();
  std::atomic<bool> has_error_{false};

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> applied_{0};
};

}  // namespace shoremt::repl

#endif  // SHOREMT_REPL_REPLAY_POOL_H_
