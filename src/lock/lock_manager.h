#ifndef SHOREMT_LOCK_LOCK_MANAGER_H_
#define SHOREMT_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "lock/head_table.h"
#include "lock/lock_id.h"
#include "lock/lock_mode.h"
#include "lock/request_pool.h"

namespace shoremt::lock {

class TxnLockList;

/// How deadlocks are resolved.
enum class DeadlockPolicy : uint8_t {
  /// Waits simply expire (timeout-based detection, as in many production
  /// engines and the original system).
  kTimeoutOnly,
  /// Maintain a waits-for graph and abort the requester that closes a
  /// cycle immediately (no waiting out the timeout). The timeout remains
  /// as a backstop. The graph is partitioned per shard; cycle checks run
  /// over a global epoch-stamped merge of the partitions.
  kWaitsForGraph,
};

/// Upper bound on LockOptions::shards.
inline constexpr size_t kMaxShards = 256;

/// Lock manager configuration; defaults = Shore-MT "final" extended with
/// the sharded table. The baseline presets flip `per_shard_latch` off (the
/// paper found Shore's per-bucket support "statically disabled by a single
/// #define", §7.5), pin `shards` to 1, and use the mutex-protected request
/// pool.
struct LockOptions {
  /// Each shard latches independently; off = one global mutex serializes
  /// the whole table (the pre-§7.5 configuration).
  bool per_shard_latch = true;
  RequestPoolKind pool_kind = RequestPoolKind::kLockFreeStack;
  /// Number of table shards, at most kMaxShards; 0 = one per hardware
  /// context (clamped to [1, 64]). Each shard owns its lock heads, its
  /// request pool, its condition variable, and its waits-for partition.
  size_t shards = 0;
  /// Request-pool capacity PER SHARD (the single global pool was an
  /// allocation funnel; pools are now sized and owned per shard).
  /// 0 = auto: at least the classic 64Ki-request total envelope,
  /// max(8Ki, 64Ki / shards) per shard — so a single-shard table keeps
  /// the old capacity and a many-shard table spreads it out. A lock head
  /// exists only while a request refers to it, so this bounds the shard's
  /// heads too.
  uint32_t pool_capacity = 0;
  /// Lock-wait budget; expiry is treated as a deadlock verdict.
  uint64_t timeout_us = 500'000;
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kTimeoutOnly;
  /// Row locks per store before a transaction's handle escalates to a
  /// store-level lock (escalation lives in the lock layer now — the
  /// handle carries the per-store counters).
  uint32_t escalation_threshold = 1000;
};

struct LockStats {
  std::atomic<uint64_t> acquired{0};
  std::atomic<uint64_t> waits{0};
  std::atomic<uint64_t> timeouts{0};
  std::atomic<uint64_t> upgrades{0};
  std::atomic<uint64_t> releases{0};
  std::atomic<uint64_t> cycles_detected{0};
  std::atomic<uint64_t> escalations{0};
  /// ReleaseAll calls (each touches every shard the txn used exactly
  /// once, regardless of how many locks it held there).
  std::atomic<uint64_t> bulk_releases{0};
};

/// One lock a transaction holds, as its TxnLockList records it: the
/// object, the granted mode, and where the grant lives in the shared table
/// (shard, head and request index), so an upgrade or the release finds it
/// without a lookup. A store entry also carries the transaction's row
/// count and escalation state for that store.
struct HeldLock {
  LockId id;
  LockMode mode = LockMode::kNone;  ///< kNone: not yet granted.
  bool escalated = false;           ///< Store entries: escalated here.
  uint16_t shard = 0;
  uint32_t rows = 0;                ///< Store entries: row locks taken.
  uint32_t head = kNilIndex;
  uint32_t req = kNilIndex;
};

/// Transaction-duration lock table (§2.2.3): hierarchical modes, FIFO
/// queuing with upgrade priority, and timeout-based deadlock resolution —
/// split into per-core shards (§7.5 extended). Each shard owns its table of
/// pooled lock heads, its pre-allocated request pool, its condition
/// variable and its waits-for partition, so disjoint traffic never shares
/// a cache line and a drained pool in one shard cannot starve another.
/// Heads and requests are pool records linked by index (intrusive queues),
/// so acquiring and releasing a lock allocates nothing.
///
/// All acquisition goes through a per-transaction TxnLockList handle
/// (txn_lock_list.h), vended by Attach(): the handle's private cache of
/// held modes absorbs re-grants (the overwhelmingly common case for
/// volume/store intents) without touching the shared table, and records
/// where each grant lives so ReleaseAll drops everything with one latch
/// acquisition per touched shard and no lookups.
class LockManager {
 public:
  explicit LockManager(LockOptions options);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Vends the per-transaction lock handle — the only way to acquire
  /// locks. The handle must not outlive the manager; a transaction's
  /// handle is used by one thread at a time (the storage-manager
  /// threading model).
  TxnLockList Attach(TxnId txn);

  /// The mode `txn` currently holds on `id` in the shared table (kNone if
  /// none). Diagnostics/tests: the hot path answers this from the
  /// transaction's private cache (TxnLockList::HeldMode) for free.
  LockMode HeldMode(TxnId txn, const LockId& id) const;

  /// Number of distinct objects currently locked (diagnostics).
  size_t LockedObjectCount() const;

  /// The shard `id` hashes to (stable for the manager's lifetime).
  size_t ShardIndex(const LockId& id) const {
    return ShardOf(LockIdHash()(id));
  }
  size_t shard_count() const { return shards_.size(); }

  const LockStats& stats() const { return stats_; }
  const LockOptions& options() const { return options_; }

 private:
  friend class TxnLockList;

  /// One table shard: heads, request pool, parking and waits-for state.
  struct Shard {
    Shard(RequestPoolKind kind, uint32_t capacity) : pool(kind, capacity) {}
    mutable std::mutex mutex;  ///< Used when per_shard_latch is on.
    std::condition_variable cv;
    /// Threads parked on `cv`; releases notify only when it is nonzero.
    /// Guarded by the shard's latch (MutexFor).
    uint32_t parked = 0;
    HeadTable heads;
    RequestPool pool;
    /// Waits-for partition: edges whose waiter parked in this shard.
    mutable std::mutex wfg_mutex;
    std::unordered_map<TxnId, std::vector<TxnId>> waits_for;
  };

  size_t ShardOf(uint64_t hash) const { return hash % shards_.size(); }

  /// The mutex guarding `shard` under the current latching strategy.
  std::mutex& MutexFor(Shard& shard) {
    return options_.per_shard_latch ? shard.mutex : global_mutex_;
  }

  /// Acquires `mode` on `held->id` (whose LockIdHash is `hash`) for `txn`
  /// in shard `held->shard`, or upgrades the grant `held` records when
  /// `held->mode` is set. On success `held` holds the granted mode and
  /// where the grant lives. Blocks up to the configured timeout; returns
  /// Deadlock on expiry, ResourceExhausted when the shard's request pool
  /// is drained (recoverable: abort and retry). `waits_out` is incremented
  /// once if the request had to park. Called by TxnLockList on cache miss.
  Status Acquire(TxnId txn, uint64_t hash, HeldLock* held, LockMode mode,
                 uint64_t* waits_out);

  /// Parks the caller until request `slot` is granted or the timeout
  /// expires; on expiry dequeues and frees the request and wakes whoever
  /// it was blocking. Returns whether the request was granted.
  bool Park(Shard& shard, std::unique_lock<std::mutex>& lk, uint32_t head,
            uint32_t slot, TxnId txn);

  /// Releases every lock `handle` recorded, one latch acquisition per
  /// touched shard, waking grantable waiters per shard. Called by
  /// TxnLockList::ReleaseAll.
  void ReleaseAll(TxnLockList* handle);

  /// True if `mode` is compatible with every granted request on `head`,
  /// ignoring `self` (for upgrades).
  bool CompatibleWithGranted(const Shard& shard, const LockHead& head,
                             LockMode mode, uint32_t self) const;
  /// Wakes up grantable waiters at the queue front (upgrades first).
  void ProcessQueue(Shard& shard, LockHead& head);
  /// Removes request `idx` from `head`'s waiting queue.
  void Dequeue(Shard& shard, LockHead& head, uint32_t idx);

  /// Waits-for maintenance (kWaitsForGraph policy). Registers `waiter` →
  /// each holder and each conflicting request queued ahead of it in
  /// `home`'s partition; returns false if doing so closes a cycle through
  /// `waiter` (nothing is then published). The check locks every
  /// partition in index order and queries an epoch-stamped merge of them,
  /// rebuilt only when some partition changed since the last check.
  bool AddWaitEdges(Shard& home, TxnId waiter, const LockHead& head,
                    uint32_t self);
  void RemoveWaitEdges(Shard& home, TxnId waiter);
  /// DFS over the merged waits-for graph: can `from` reach `target`?
  /// Caller holds every partition mutex.
  bool Reaches(TxnId from, TxnId target,
               std::unordered_map<TxnId, int>* visited) const;

  LockOptions options_;
  std::mutex global_mutex_;  ///< Used when per_shard_latch is off.
  std::vector<std::unique_ptr<Shard>> shards_;
  LockStats stats_;

  /// Bumped on every waits-for partition mutation; the merged graph below
  /// is rebuilt only when it advanced. Both are touched exclusively while
  /// holding ALL partition mutexes (cycle checks serialize on partition
  /// 0's mutex), so they need no lock of their own.
  std::atomic<uint64_t> wfg_epoch_{1};
  mutable uint64_t merged_epoch_ = 0;
  mutable std::unordered_map<TxnId, std::vector<TxnId>> merged_wfg_;
};

}  // namespace shoremt::lock

#endif  // SHOREMT_LOCK_LOCK_MANAGER_H_
