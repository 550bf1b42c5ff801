#include "sync/bounded_executor.h"

#include <algorithm>
#include <utility>

namespace shoremt::sync {

BoundedExecutor::BoundedExecutor(size_t queue_capacity)
    : capacity_(std::max<size_t>(1, queue_capacity)),
      worker_([this] { WorkerLoop(); }) {}

BoundedExecutor::~BoundedExecutor() {
  Drain();
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

void BoundedExecutor::Submit(std::function<void()> task) {
  if (!task) return;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    space_cv_.wait(lk, [&] { return stop_ || queue_.size() < capacity_; });
    if (!stop_) {
      queue_.push_back(std::move(task));
      lk.unlock();
      work_cv_.notify_one();
      return;
    }
  }
  // Shutting down: run inline rather than drop (durability callbacks must
  // fire exactly once, never zero times).
  task();
}

void BoundedExecutor::Drain() {
  std::unique_lock<std::mutex> lk(mutex_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && !running_; });
}

void BoundedExecutor::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (true) {
    work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) break;  // stop_ with an empty queue.
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    running_ = true;
    lk.unlock();
    space_cv_.notify_one();
    task();
    lk.lock();
    running_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

}  // namespace shoremt::sync
