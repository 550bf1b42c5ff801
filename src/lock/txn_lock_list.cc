#include "lock/txn_lock_list.h"

#include <algorithm>

namespace shoremt::lock {

TxnLockList& TxnLockList::operator=(TxnLockList&& other) noexcept {
  if (this == &other) return *this;
  Clear();
  mgr_ = other.mgr_;
  txn_ = other.txn_;
  count_ = other.count_;
  slot_mask_ = other.slot_mask_;
  touched_ = other.touched_;
  std::copy_n(other.inline_.begin(), std::min(count_, kInlineLocks),
              inline_.begin());
  spill_ = std::move(other.spill_);
  if (count_ > 0) inline_slots_ = other.inline_slots_;
  slots_spill_ = std::move(other.slots_spill_);
  waits_ = other.waits_;
  cache_hits_ = other.cache_hits_;
  escalations_ = other.escalations_;
  other.Clear();
  other.mgr_ = nullptr;
  other.txn_ = kInvalidTxnId;
  return *this;
}

const HeldLock* TxnLockList::Find(const LockId& id, uint64_t hash) const {
  const HeldLock* e = entries();
  const uint32_t* s = slots();
  for (uint32_t pos = FirstSlot(hash);; pos = (pos + 1) & slot_mask_) {
    if (s[pos] == 0) return nullptr;
    if (e[s[pos] - 1].id == id) return &e[s[pos] - 1];
  }
}

void TxnLockList::IndexEntry(uint32_t i, uint64_t hash) {
  uint32_t* s = slots();
  uint32_t pos = FirstSlot(hash);
  while (s[pos] != 0) pos = (pos + 1) & slot_mask_;
  s[pos] = i + 1;
}

void TxnLockList::Append(const HeldLock& held, uint64_t hash) {
  if (count_ < kInlineLocks) {
    inline_[count_] = held;
  } else {
    if (count_ == kInlineLocks) {
      spill_.assign(inline_.begin(), inline_.end());
    }
    spill_.push_back(held);
  }
  ++count_;
  touched_[held.shard / 64] |= uint64_t{1} << (held.shard % 64);
  if (2 * count_ <= slot_mask_ + 1) {
    IndexEntry(count_ - 1, hash);
    return;
  }
  // Keep the index at most half full: double it and re-index everything.
  slots_spill_.assign(2 * (size_t{slot_mask_} + 1), 0);
  slot_mask_ = static_cast<uint32_t>(slots_spill_.size() - 1);
  const HeldLock* e = entries();
  for (uint32_t i = 0; i < count_; ++i) IndexEntry(i, LockIdHash()(e[i].id));
}

void TxnLockList::Clear() {
  if (count_ > 0) inline_slots_.fill(0);
  count_ = 0;
  slot_mask_ = kInlineSlots - 1;
  touched_.fill(0);
  spill_.clear();
  slots_spill_.clear();
}

Status TxnLockList::Lock(const LockId& id, LockMode mode) {
  if (mgr_ == nullptr) {
    return Status::InvalidArgument("detached lock handle");
  }
  uint64_t hash = LockIdHash()(id);
  if (HeldLock* held = Find(id, hash); held != nullptr) {
    if (Supremum(held->mode, mode) == held->mode) {
      // Equal-or-weaker re-request: the held mode already covers it. This
      // is every volume/store intention re-grant after the first row
      // operation — served without touching the shared table.
      ++cache_hits_;
      return Status::Ok();
    }
    // Upgrade: the table strengthens the recorded grant in place.
    return mgr_->Acquire(txn_, hash, held, mode, &waits_);
  }
  HeldLock fresh;
  fresh.id = id;
  fresh.shard = static_cast<uint16_t>(mgr_->ShardOf(hash));
  SHOREMT_RETURN_NOT_OK(mgr_->Acquire(txn_, hash, &fresh, mode, &waits_));
  Append(fresh, hash);
  return Status::Ok();
}

Status TxnLockList::LockStore(StoreId store, LockMode mode) {
  LockMode vol_mode = IntentionFor(mode);
  if (vol_mode != LockMode::kNone) {
    SHOREMT_RETURN_NOT_OK(Lock(LockId::Volume(), vol_mode));
  }
  return Lock(LockId::Store(store), mode);
}

Status TxnLockList::LockRecord(StoreId store, RecordId rid, LockMode mode) {
  if (mgr_ == nullptr) {
    return Status::InvalidArgument("detached lock handle");
  }
  LockMode store_mode = (mode == LockMode::kS) ? LockMode::kS : LockMode::kX;
  const LockId store_id = LockId::Store(store);
  const uint64_t store_hash = LockIdHash()(store_id);
  const HeldLock* held_store = Find(store_id, store_hash);
  // After escalation the store-level lock covers every record — but only
  // in the mode it was escalated to: the first write after a
  // read-escalation must strengthen the store lock (S → X), or a
  // concurrent reader compatible with store-S could be overwritten
  // unseen.
  if (held_store != nullptr && held_store->escalated) {
    if (Supremum(held_store->mode, store_mode) == held_store->mode) {
      ++cache_hits_;
      return Status::Ok();
    }
    return LockStore(store, store_mode);  // Upgrade; may wait or deadlock.
  }
  uint32_t rows = held_store == nullptr ? 0 : held_store->rows;
  if (rows >= mgr_->options().escalation_threshold) {
    Status st = LockStore(store, store_mode);
    if (st.ok()) {
      Find(store_id, store_hash)->escalated = true;
      ++escalations_;
      mgr_->stats_.escalations.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    // Escalation denied (someone else holds rows): fall through to the
    // plain row lock.
  }
  LockMode intent = IntentionFor(mode);
  SHOREMT_RETURN_NOT_OK(Lock(LockId::Volume(), intent));
  SHOREMT_RETURN_NOT_OK(Lock(store_id, intent));
  SHOREMT_RETURN_NOT_OK(Lock(LockId::Record(store, rid), mode));
  ++Find(store_id, store_hash)->rows;
  return Status::Ok();
}

void TxnLockList::ReleaseAll() {
  if (mgr_ != nullptr && count_ > 0) mgr_->ReleaseAll(this);
  Clear();
}

}  // namespace shoremt::lock
