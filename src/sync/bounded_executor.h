#ifndef SHOREMT_SYNC_BOUNDED_EXECUTOR_H_
#define SHOREMT_SYNC_BOUNDED_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace shoremt::sync {

/// One worker thread behind a BOUNDED task queue: Submit blocks the
/// producer while the queue is full, so a slow consumer exerts
/// backpressure instead of growing an unbounded backlog. Built for the
/// flush pipeline's durability-callback dispatch — the group-commit daemon
/// hands each batch of due OnDurable closures to this executor and returns
/// to flushing, so a slow user callback can no longer stall commit
/// acknowledgement — but it is a general primitive. Tasks run in exact
/// submission order.
class BoundedExecutor {
 public:
  explicit BoundedExecutor(size_t queue_capacity);
  /// Drains every queued task, then stops and joins the worker.
  ~BoundedExecutor();

  BoundedExecutor(const BoundedExecutor&) = delete;
  BoundedExecutor& operator=(const BoundedExecutor&) = delete;

  /// Enqueues `task`; blocks while the queue is at capacity. Tasks
  /// submitted after shutdown began run inline on the caller (nothing is
  /// silently dropped).
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and the worker is idle. Tasks
  /// submitted concurrently with Drain may or may not be covered.
  void Drain();

 private:
  void WorkerLoop();

  const size_t capacity_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< The worker sleeps here.
  std::condition_variable space_cv_;  ///< Full-queue producers sleep here.
  std::condition_variable idle_cv_;   ///< Drain sleeps here.
  std::deque<std::function<void()>> queue_;
  bool running_ = false;  ///< The worker is executing a task.
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace shoremt::sync

#endif  // SHOREMT_SYNC_BOUNDED_EXECUTOR_H_
