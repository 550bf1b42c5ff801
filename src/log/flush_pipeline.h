#ifndef SHOREMT_LOG_FLUSH_PIPELINE_H_
#define SHOREMT_LOG_FLUSH_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sync/bounded_executor.h"

namespace shoremt::log {

class LogBuffer;
struct LogStats;

/// The group-commit flush daemon behind asynchronous durability: commit
/// paths *submit* a target LSN and return immediately; one daemon thread
/// batches all outstanding targets into a single device flush and wakes
/// every waiter whose LSN the advancing durable horizon has passed. This
/// replaces the old sleep-polling flush daemon — the daemon sleeps on a
/// condition variable and runs only when there is submitted work (plus an
/// optional idle interval for background flushing of unsubmitted bytes).
///
/// Error handling: a failed device flush is recorded as a *sticky* error;
/// every current and future Wait() reports it (durability can no longer be
/// promised once the device misbehaved), and the daemon parks rather than
/// grind a dead device. On destruction the pipeline drains every submitted
/// target with a final flush before joining — unless Abandon() was called
/// (crash simulation), in which case submitted-but-unflushed commits are
/// deliberately lost, exactly like a power failure.
class FlushPipeline {
 public:
  /// `idle_flush_interval_us` > 0 additionally wakes the daemon on that
  /// period to flush *everything* appended so far (the old flush_daemon
  /// behavior); 0 means purely submission-driven. Due OnDurable closures
  /// are dispatched through a one-thread BoundedExecutor with a
  /// kCallbackQueue-deep queue, so a slow closure delays other closures,
  /// never the flush daemon's next group-commit batch, and closures fire
  /// in ascending-LSN order.
  FlushPipeline(LogBuffer* buffer, LogStats* stats,
                uint64_t idle_flush_interval_us);
  ~FlushPipeline();  ///< Final drain of submitted targets, then join.

  FlushPipeline(const FlushPipeline&) = delete;
  FlushPipeline& operator=(const FlushPipeline&) = delete;

  /// Registers `upto` as a durability target and wakes the daemon; returns
  /// immediately. Null / already-durable targets are no-ops.
  void Submit(Lsn upto);

  /// Blocks until everything below `upto` is durable, the pipeline hits a
  /// sticky error, or it shuts down. Submits `upto` itself if nobody has.
  Status Wait(Lsn upto);

  /// Registers a closure the daemon invokes (exactly once, from its own
  /// thread) when the durable LSN passes `upto`; fires inline — before
  /// returning — if `upto` is already durable. Registration submits the
  /// target like Submit(), so no companion flush request is needed. A
  /// sticky pipeline error fires every pending closure with that error;
  /// closures still pending at shutdown fire after the final drain (Ok if
  /// the drain made them durable, the stop/drain error otherwise).
  /// Closures must not block; they may re-enter the pipeline (e.g.
  /// register another callback).
  void OnDurable(Lsn upto, std::function<void(Status)> fn);

  /// True once every byte below `upto` has reached the log device.
  bool IsDurable(Lsn upto) const;

  /// The sticky error (Ok while the pipeline is healthy).
  Status error() const;

  /// Wakes parked waiters to re-check the durable horizon and dispatches
  /// any durability callbacks the new horizon satisfies. Called by the
  /// synchronous flush paths (LogManager::FlushTo/FlushAll), which advance
  /// durability without going through the daemon.
  void NotifyDurableAdvanced();

  /// Crash simulation: the destructor skips the final drain flush, so
  /// submitted-but-unflushed commit records are lost like on power-down.
  void Abandon();

  /// Registers a hook the daemon invokes after every flush it performs
  /// (submission batches AND idle periodic flushes). The log manager
  /// wires a segment-pressure check through it: when the flush just
  /// filled the log past the recycle threshold, the hook wakes the page
  /// cleaner / checkpoint daemon instead of anyone busy-waiting on
  /// segment counts. Invoked under the pipeline's mutex so that
  /// SetPostBatchHook(nullptr) at teardown synchronizes with in-flight
  /// invocations; the hook must therefore be short, must not block, and
  /// must not re-enter the pipeline (cv notifies are fine).
  void SetPostBatchHook(std::function<void()> hook);

 private:
  using Callback = std::function<void(Status)>;

  /// Callback batches (not closures) the executor queues before the
  /// daemon feels backpressure.
  static constexpr size_t kCallbackQueue = 64;

  void DaemonLoop();
  bool HasWorkLocked() const;
  /// True when the durable horizon has passed the lowest registered
  /// callback target (the daemon has dispatch work even with no flush
  /// work — a synchronous FlushTo advanced durability behind its back).
  bool HasDueCallbacksLocked() const;
  /// Moves every callback the durable horizon (or a sticky error) has
  /// satisfied out of callbacks_; the caller invokes them without the
  /// lock. `final_pass` drains everything (shutdown), mapping still-
  /// undurable targets to `fallback`.
  std::vector<std::pair<Callback, Status>> CollectDueCallbacksLocked(
      bool final_pass, const Status& fallback);
  /// Collects due callbacks, drops the lock to hand the whole batch to the
  /// callback executor as one task, re-acquires. The only dispatch entry
  /// point the daemon uses, so every path (batch, error park, shutdown)
  /// shares one unlock discipline. Submitting can block on executor
  /// backpressure (queue full) but never on a callback body.
  void DispatchDue(std::unique_lock<std::mutex>& lk, bool final_pass,
                   const Status& fallback);

  LogBuffer* buffer_;
  LogStats* stats_;
  const uint64_t idle_flush_interval_us_;
  /// Runs OnDurable closure batches off the daemon thread. Destroyed
  /// (drained) in the destructor after the daemon joins, so the final-pass
  /// batch still runs.
  std::unique_ptr<sync::BoundedExecutor> callback_executor_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;     ///< Daemon sleeps here.
  std::condition_variable durable_cv_;  ///< Waiters sleep here.
  uint64_t requested_ = 0;       ///< Highest submitted target LSN value.
  uint64_t pending_submits_ = 0; ///< Submits not yet covered by a batch.
  /// Durability callbacks keyed by target LSN, fired as the durable
  /// horizon passes them (ascending-LSN dispatch order).
  std::multimap<uint64_t, Callback> callbacks_;
  /// Invoked under mutex_ after each daemon flush; see SetPostBatchHook.
  std::function<void()> post_batch_hook_;
  Status error_;                 ///< Sticky; set by the first failed flush.
  bool stop_ = false;
  bool abandoned_ = false;
  bool daemon_exited_ = false;
  std::thread daemon_;
};

}  // namespace shoremt::log

#endif  // SHOREMT_LOG_FLUSH_PIPELINE_H_
