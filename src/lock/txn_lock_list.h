#ifndef SHOREMT_LOCK_TXN_LOCK_LIST_H_
#define SHOREMT_LOCK_TXN_LOCK_LIST_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "lock/lock_id.h"
#include "lock/lock_manager.h"
#include "lock/lock_mode.h"

namespace shoremt::lock {

/// A transaction's private view of the lock table — the only way to
/// acquire locks. Owned by the Transaction, vended by
/// LockManager::Attach(TxnId), used by one thread at a time (the
/// storage-manager threading model: a transaction runs on one thread).
///
/// The handle keeps its held locks in a flat acquisition-order array with
/// a small open-addressing index over it; the first kInlineLocks entries
/// live inside the handle, so a typical transaction's bookkeeping
/// allocates nothing. Each entry carries:
///  - the held mode, so re-granting an equal-or-weaker mode (the
///    overwhelmingly common case for volume/store intention locks — every
///    row operation re-requests them) never touches the shared table;
///  - for store entries, the row-lock count and escalation state that
///    drive lock escalation in the lock layer;
///  - where the grant lives (shard, head, request), so an upgrade needs no
///    lookup and ReleaseAll bulk-releases with one latch acquisition per
///    touched shard.
///
/// A default-constructed handle is detached: every Lock call fails with
/// InvalidArgument until a real handle is move-assigned over it.
class TxnLockList {
 public:
  TxnLockList() = default;
  /// Moves detach the source: a moved-from handle rejects every Lock call
  /// with InvalidArgument instead of lying about being attached over
  /// emptied bookkeeping.
  TxnLockList(TxnLockList&& other) noexcept { *this = std::move(other); }
  TxnLockList& operator=(TxnLockList&& other) noexcept;
  TxnLockList(const TxnLockList&) = delete;
  TxnLockList& operator=(const TxnLockList&) = delete;

  /// Acquires (or upgrades to) `mode` on `id`. Served from the private
  /// cache when the held mode already covers `mode`; otherwise goes to
  /// the shared table (blocking up to the manager's timeout) and updates
  /// the cache. Errors: Deadlock (victim), ResourceExhausted (shard
  /// request pool drained — abort and retry), InvalidArgument (detached).
  Status Lock(const LockId& id, LockMode mode);

  /// Acquires a store-level lock plus the volume intention above it
  /// (table scan / escalation / DDL).
  Status LockStore(StoreId store, LockMode mode);

  /// Acquires a record lock plus the intention locks above it, escalating
  /// to a store lock past the manager's threshold. After escalation the
  /// store lock covers every record and further calls are free — except a
  /// write after a read-escalation, which upgrades the store lock S → X
  /// through the shared table first.
  Status LockRecord(StoreId store, RecordId rid, LockMode mode);

  /// The mode this transaction holds on `id` — a handle-local lookup that
  /// never touches the shared table.
  LockMode HeldMode(const LockId& id) const {
    const HeldLock* e = Find(id, LockIdHash()(id));
    return e == nullptr ? LockMode::kNone : e->mode;
  }

  /// Releases every held lock (strict 2PL end-of-transaction), one shard
  /// latch per touched shard, and resets the cache. The statistics
  /// counters survive so they can be harvested afterwards.
  void ReleaseAll();

  bool attached() const { return mgr_ != nullptr; }
  TxnId txn() const { return txn_; }
  /// Distinct objects currently held (cache size).
  size_t held() const { return count_; }

  // --- thread-private statistics (harvested into TxnCounters) -------------
  /// Lock requests that had to park in the shared table.
  uint64_t waits() const { return waits_; }
  /// Requests served entirely from the private cache.
  uint64_t cache_hits() const { return cache_hits_; }
  /// Row→store escalations performed through this handle.
  uint64_t escalations() const { return escalations_; }

 private:
  friend class LockManager;

  /// Held locks kept inside the handle before the array spills to the
  /// heap (tpcc's transactions take ~26).
  static constexpr uint32_t kInlineLocks = 64;
  static constexpr uint32_t kInlineSlots = 2 * kInlineLocks;

  TxnLockList(LockManager* mgr, TxnId txn) : mgr_(mgr), txn_(txn) {}

  const HeldLock* entries() const {
    return count_ > kInlineLocks ? spill_.data() : inline_.data();
  }
  HeldLock* entries() {
    return count_ > kInlineLocks ? spill_.data() : inline_.data();
  }
  const uint32_t* slots() const {
    return slots_spill_.empty() ? inline_slots_.data() : slots_spill_.data();
  }
  uint32_t* slots() {
    return slots_spill_.empty() ? inline_slots_.data() : slots_spill_.data();
  }
  uint32_t FirstSlot(uint64_t hash) const {
    return static_cast<uint32_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32) &
           slot_mask_;
  }
  bool Touched(size_t shard) const {
    return (touched_[shard / 64] >> (shard % 64)) & 1;
  }

  /// The entry for `id` (whose LockIdHash is `hash`), or nullptr.
  const HeldLock* Find(const LockId& id, uint64_t hash) const;
  HeldLock* Find(const LockId& id, uint64_t hash) {
    return const_cast<HeldLock*>(std::as_const(*this).Find(id, hash));
  }
  /// Records a newly granted lock.
  void Append(const HeldLock& held, uint64_t hash);
  /// Indexes entry `i` (whose LockIdHash is `hash`).
  void IndexEntry(uint32_t i, uint64_t hash);
  /// Forgets every entry (the locks must already be released).
  void Clear();

  LockManager* mgr_ = nullptr;
  TxnId txn_ = kInvalidTxnId;
  uint32_t count_ = 0;
  uint32_t slot_mask_ = kInlineSlots - 1;
  /// Bit per shard holding at least one entry.
  std::array<uint64_t, kMaxShards / 64> touched_{};
  /// Entries in acquisition order: inline_ while count_ <= kInlineLocks,
  /// else all of them in spill_. Exact, because every acquisition goes
  /// through this handle and locks drop only at ReleaseAll (strict 2PL).
  std::array<HeldLock, kInlineLocks> inline_;
  std::vector<HeldLock> spill_;
  /// Open-addressing index: entry position + 1, 0 = empty; inline until
  /// the entries outgrow half of it.
  std::array<uint32_t, kInlineSlots> inline_slots_{};
  std::vector<uint32_t> slots_spill_;
  uint64_t waits_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t escalations_ = 0;
};

}  // namespace shoremt::lock

#endif  // SHOREMT_LOCK_TXN_LOCK_LIST_H_
