#include "repl/replay_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace shoremt::repl {

ReplayPool::ReplayPool(sm::StorageManager* sm, size_t workers)
    : sm_(sm), nworkers_(std::max<size_t>(1, workers)) {
  partitions_.reserve(nworkers_);
  for (size_t i = 0; i < nworkers_; ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
  workers_.reserve(nworkers_);
  for (size_t i = 0; i < nworkers_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ReplayPool::~ReplayPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> lk(p->mutex);
    p->nonempty.notify_all();
    p->nonfull.notify_all();
  }
  for (auto& w : workers_) w.join();
}

void ReplayPool::Push(size_t idx, Task task) {
  Partition& p = *partitions_[idx];
  std::unique_lock<std::mutex> lk(p.mutex);
  p.nonfull.wait(lk, [&] {
    return p.queue.size() < kQueueCapacity ||
           stop_.load(std::memory_order_acquire);
  });
  if (stop_.load(std::memory_order_acquire)) return;
  p.queue.push_back(std::move(task));
  p.nonempty.notify_one();
}

void ReplayPool::Dispatch(log::LogRecord rec, Lsn end) {
  uint64_t prev = max_dispatched_end_.load(std::memory_order_relaxed);
  while (end.value > prev &&
         !max_dispatched_end_.compare_exchange_weak(
             prev, end.value, std::memory_order_relaxed)) {
  }
  Task t;
  t.rec = std::move(rec);
  t.end = end;
  Push(t.rec.page % nworkers_, std::move(t));
}

void ReplayPool::PublishBarrier(uint64_t horizon) {
  uint64_t id;
  {
    std::lock_guard<std::mutex> lk(barrier_mutex_);
    id = next_barrier_id_++;
    barriers_[id] = BarrierState{horizon, nworkers_};
  }
  for (size_t i = 0; i < nworkers_; ++i) {
    Task t;
    t.barrier = true;
    t.barrier_id = id;
    Push(i, std::move(t));
  }
}

Status ReplayPool::Drain() {
  uint64_t target =
      std::max(max_dispatched_end_.load(std::memory_order_acquire),
               replayed_.load(std::memory_order_acquire));
  PublishBarrier(target);
  std::unique_lock<std::mutex> lk(barrier_mutex_);
  replayed_cv_.wait(lk, [&] {
    return replayed_.load(std::memory_order_acquire) >= target ||
           stop_.load(std::memory_order_acquire);
  });
  lk.unlock();
  return error();
}

bool ReplayPool::WaitReplayed(uint64_t lsn, int timeout_ms) {
  std::unique_lock<std::mutex> lk(barrier_mutex_);
  return replayed_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), [&] {
    return replayed_.load(std::memory_order_acquire) >= lsn ||
           has_error_.load(std::memory_order_acquire) ||
           stop_.load(std::memory_order_acquire);
  }) && replayed_.load(std::memory_order_acquire) >= lsn;
}

Status ReplayPool::error() const {
  if (!has_error_.load(std::memory_order_acquire)) return Status::Ok();
  std::lock_guard<std::mutex> lk(error_mutex_);
  return error_;
}

void ReplayPool::BarrierArrived(uint64_t id) {
  std::lock_guard<std::mutex> lk(barrier_mutex_);
  auto it = barriers_.find(id);
  if (it == barriers_.end()) return;
  if (--it->second.remaining > 0) return;
  // Last worker through: everything dispatched before this barrier is
  // applied. Horizons are published in ascending order but barriers can
  // complete out of order across partitions, hence the max.
  uint64_t h = it->second.horizon;
  barriers_.erase(it);
  uint64_t prev = replayed_.load(std::memory_order_relaxed);
  while (h > prev && !replayed_.compare_exchange_weak(
                         prev, h, std::memory_order_release)) {
  }
  replayed_cv_.notify_all();
}

void ReplayPool::WorkerLoop(size_t idx) {
  Partition& p = *partitions_[idx];
  std::deque<Task> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(p.mutex);
      p.nonempty.wait(lk, [&] {
        return !p.queue.empty() || stop_.load(std::memory_order_acquire);
      });
      if (p.queue.empty()) return;  // stop with nothing left
      batch.swap(p.queue);
      p.nonfull.notify_all();
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    for (Task& t : batch) {
      if (t.barrier) {
        BarrierArrived(t.barrier_id);
        continue;
      }
      // After a sticky error keep consuming (so the dispatcher and
      // barriers never wedge) but stop mutating pages.
      if (has_error_.load(std::memory_order_acquire)) continue;
      Status st = sm_->ApplyRedo(t.rec, t.end, /*force=*/true);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lk(error_mutex_);
        if (!has_error_.load(std::memory_order_relaxed)) {
          error_ = st;
          has_error_.store(true, std::memory_order_release);
        }
        std::lock_guard<std::mutex> blk(barrier_mutex_);
        replayed_cv_.notify_all();
      } else {
        applied_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    batch.clear();
  }
}

}  // namespace shoremt::repl
