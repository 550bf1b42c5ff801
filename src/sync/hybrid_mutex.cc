#include "sync/hybrid_mutex.h"

#include "common/clock.h"
#include "sync/backoff.h"

namespace shoremt::sync {

void HybridMutex::lock() {
  if (try_lock()) {
    if (stats_ != nullptr) stats_->RecordAcquire(false, 0);
    return;
  }
  uint64_t start = stats_ != nullptr ? NowNanos() : 0;
  // Bounded spin: worth it when critical sections are short.
  for (int i = 0; i < kSpinBudget; ++i) {
    CpuRelax();
    if (try_lock()) {
      if (stats_ != nullptr) stats_->RecordAcquire(true, NowNanos() - start);
      return;
    }
  }
  // Slow path: mark the lock as having sleepers and park. Every wakeup
  // re-marks state 2 before sleeping again: a spinner may have taken the
  // lock 0 -> 1 between our wakeup and this re-check, erasing the mark,
  // and its unlock would then see 1 and never notify us.
  std::unique_lock<std::mutex> guard(os_mutex_);
  while (state_.exchange(2, std::memory_order_acquire) != 0) {
    cv_.wait(guard);
  }
  // We now hold it (in state 2).
  if (stats_ != nullptr) stats_->RecordAcquire(true, NowNanos() - start);
}

bool HybridMutex::try_lock() {
  int expected = 0;
  return state_.compare_exchange_strong(expected, 1,
                                        std::memory_order_acquire);
}

void HybridMutex::unlock() {
  int prev = state_.exchange(0, std::memory_order_release);
  if (prev == 2) {
    // Someone may be parked; wake one under the OS mutex so the wakeup
    // cannot race with the waiter re-checking state.
    std::lock_guard<std::mutex> guard(os_mutex_);
    cv_.notify_one();
  }
}

}  // namespace shoremt::sync
