#ifndef SHOREMT_BUFFER_FRAME_H_
#define SHOREMT_BUFFER_FRAME_H_

#include <atomic>
#include <cstdint>

#include "common/types.h"
#include "sync/hybrid_latch.h"

namespace shoremt::buffer {

/// Control block for one buffer pool frame. The 8 KiB page image itself
/// lives in a separate contiguous arena (better locality for scans and no
/// false sharing with the hot pin-count word).
struct Frame {
  /// Page currently cached here; kInvalidPageNum when the frame is free or
  /// claimed by an evictor.
  std::atomic<PageNum> page{kInvalidPageNum};

  /// Pin count. 0 = evictable. Pinning 0→1 requires the frame-table bucket
  /// lock; pinning n→n+1 (n>0) may use the lock-free PinIfPinned fast path
  /// (§6.2.1: "pinned pages cannot be evicted").
  std::atomic<uint32_t> pins{0};

  /// Dirty since last write-back.
  std::atomic<bool> dirty{false};

  /// CLOCK reference bit; set when a user of the page unpins it, cleared
  /// by the sweeping hand. The cleaner's pins leave it alone
  /// (UnpinUntouched): a page it wrote is no more recently used than
  /// before.
  std::atomic<bool> referenced{false};

  /// LSN of the first update that dirtied the current contents (recovery's
  /// redo must start no later than the minimum rec_lsn over dirty frames).
  std::atomic<uint64_t> rec_lsn{0};

  /// Protects the page image (§2.2.2 page latch). Version-stamped: an
  /// optimistic reader records latch.StampOptimistic() instead of pinning
  /// or latching, reads the image latch-free, and trusts the bytes only if
  /// latch.Validate(stamp) holds afterwards. Every exclusive release bumps
  /// the version — page modification, eviction/reuse (the evictor holds
  /// the latch exclusive from the claim until the successor image is
  /// published) and prefetch install all invalidate stale stamps.
  sync::HybridLatch latch;

  /// Lock-free conditional pin: increments the pin count only if it is
  /// already non-zero. Returns false if the frame was unpinned (caller
  /// must go through the locked path).
  bool PinIfPinned() {
    uint32_t cur = pins.load(std::memory_order_relaxed);
    while (cur != 0) {
      if (pins.compare_exchange_weak(cur, cur + 1,
                                     std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  void Unpin() {
    referenced.store(true, std::memory_order_relaxed);
    UnpinUntouched();
  }

  /// Drops a pin that was not a use of the page (the cleaner's).
  void UnpinUntouched() { pins.fetch_sub(1, std::memory_order_release); }
};

}  // namespace shoremt::buffer

#endif  // SHOREMT_BUFFER_FRAME_H_
