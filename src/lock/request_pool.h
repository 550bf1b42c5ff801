#ifndef SHOREMT_LOCK_REQUEST_POOL_H_
#define SHOREMT_LOCK_REQUEST_POOL_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/types.h"
#include "lock/lock_mode.h"
#include "sync/lockfree_stack.h"

namespace shoremt::lock {

/// The null index of the lock layer's pools (request, head and bucket
/// links).
inline constexpr uint32_t kNilIndex = UINT32_MAX;

/// One lock request record, owned by the pool and linked by index into a
/// lock head's granted or waiting queue (the queues are intrusive: a
/// request sits in at most one of them, so one link suffices).
struct LockRequest {
  TxnId txn = kInvalidTxnId;
  uint32_t next = kNilIndex;  ///< Next request in the same queue.
  LockMode mode = LockMode::kNone;
  LockMode convert_to = LockMode::kNone;  ///< Upgrade target while waiting.
  bool granted = false;
  bool is_upgrade = false;
};

/// How the pool's freelist is protected — the §7.5 knob: "the pool's mutex
/// became a contention point, so we reimplemented it as a lock-free stack".
enum class RequestPoolKind : uint8_t {
  kMutexFreelist,
  kLockFreeStack,
};

/// Pre-allocated pool of LockRequest records (§2.2.3: "the lock manager
/// maintains a pool of pre-allocated lock requests"). The sharded lock
/// table owns one pool PER SHARD — the single global pool was an
/// allocation funnel (every Lock/Unlock pushed through one lock-free
/// stack head), and per-shard pools also make exhaustion local: a drained
/// shard reports ResourceExhausted without starving the others.
class RequestPool {
 public:
  RequestPool(RequestPoolKind kind, uint32_t capacity)
      : kind_(kind), requests_(capacity), lockfree_(capacity) {
    mutex_freelist_.reserve(capacity);
    for (uint32_t i = 0; i < capacity; ++i) {
      if (kind_ == RequestPoolKind::kLockFreeStack) {
        lockfree_.Push(i);
      } else {
        mutex_freelist_.push_back(i);
      }
    }
  }

  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// Pops a free slot; nullopt when the pool is exhausted.
  std::optional<uint32_t> Acquire() {
    if (kind_ == RequestPoolKind::kLockFreeStack) return lockfree_.Pop();
    std::lock_guard<std::mutex> guard(mutex_);
    if (mutex_freelist_.empty()) return std::nullopt;
    uint32_t idx = mutex_freelist_.back();
    mutex_freelist_.pop_back();
    return idx;
  }

  void Release(uint32_t idx) {
    requests_[idx] = LockRequest{};
    if (kind_ == RequestPoolKind::kLockFreeStack) {
      lockfree_.Push(idx);
    } else {
      std::lock_guard<std::mutex> guard(mutex_);
      mutex_freelist_.push_back(idx);
    }
  }

  LockRequest& operator[](uint32_t idx) { return requests_[idx]; }
  const LockRequest& operator[](uint32_t idx) const { return requests_[idx]; }

  RequestPoolKind kind() const { return kind_; }

 private:
  RequestPoolKind kind_;
  std::vector<LockRequest> requests_;
  sync::LockFreeIndexStack lockfree_;
  std::mutex mutex_;
  std::vector<uint32_t> mutex_freelist_;
};

}  // namespace shoremt::lock

#endif  // SHOREMT_LOCK_REQUEST_POOL_H_
