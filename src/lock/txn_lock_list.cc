#include "lock/txn_lock_list.h"

namespace shoremt::lock {

TxnLockList::TxnLockList(LockManager* mgr, TxnId txn)
    : mgr_(mgr), txn_(txn), shard_ids_(mgr->shard_count()) {}

Status TxnLockList::Lock(const LockId& id, LockMode mode) {
  if (mgr_ == nullptr) {
    return Status::InvalidArgument("detached lock handle");
  }
  auto it = held_.find(id);
  if (it != held_.end() && Supremum(it->second, mode) == it->second) {
    // Equal-or-weaker re-request: the held mode already covers it. This
    // is every volume/store intention re-grant after the first row
    // operation — served without touching the shared table.
    ++cache_hits_;
    return Status::Ok();
  }
  SHOREMT_RETURN_NOT_OK(mgr_->Acquire(txn_, id, mode, &waits_));
  if (it != held_.end()) {
    // Upgrade: the table granted Supremum(held, mode); mirror it.
    it->second = Supremum(it->second, mode);
  } else {
    held_.emplace(id, mode);
    shard_ids_[mgr_->ShardIndex(id)].push_back(id);
  }
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
  // After escalation the store-level lock covers every record — but only
  // in the mode it was escalated to: the first write after a
  // read-escalation must strengthen the store lock (S → X), or a
  // concurrent reader compatible with store-S could be overwritten
  // unseen.
  if (escalated_.contains(store)) {
    LockMode held_store = HeldMode(LockId::Store(store));
    if (Supremum(held_store, store_mode) == held_store) {
      ++cache_hits_;
      return Status::Ok();
    }
    return LockStore(store, store_mode);  // Upgrade; may wait or deadlock.
  }
  if (row_counts_[store] >= mgr_->options().escalation_threshold) {
    Status st = LockStore(store, store_mode);
    if (st.ok()) {
      escalated_.insert(store);
      ++escalations_;
      mgr_->stats_.escalations.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    // Escalation denied (someone else holds rows): fall through to the
    // plain row lock.
  }
  LockMode intent = IntentionFor(mode);
  SHOREMT_RETURN_NOT_OK(Lock(LockId::Volume(), intent));
  SHOREMT_RETURN_NOT_OK(Lock(LockId::Store(store), intent));
  SHOREMT_RETURN_NOT_OK(Lock(LockId::Record(store, rid), mode));
  ++row_counts_[store];
  return Status::Ok();
}

void TxnLockList::ReleaseAll() {
  if (mgr_ == nullptr || held_.empty()) {
    held_.clear();
    row_counts_.clear();
    escalated_.clear();
    return;
  }
  mgr_->ReleaseAll(this);
  held_.clear();
  for (auto& ids : shard_ids_) ids.clear();
  row_counts_.clear();
  escalated_.clear();
}

}  // namespace shoremt::lock
