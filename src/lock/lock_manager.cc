#include "lock/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "lock/txn_lock_list.h"

namespace shoremt::lock {

namespace {

size_t ResolveShardCount(size_t requested) {
  if (requested > 0) return std::min(requested, kMaxShards);
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min<size_t>(hw, 64);
}

}  // namespace

LockManager::LockManager(LockOptions options) : options_(options) {
  size_t n = ResolveShardCount(options.shards);
  uint32_t capacity = options.pool_capacity;
  if (capacity == 0) {
    capacity = static_cast<uint32_t>(
        std::max<size_t>(size_t{1} << 13, (size_t{1} << 16) / n));
  }
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.pool_kind, capacity));
  }
}

TxnLockList LockManager::Attach(TxnId txn) { return TxnLockList(this, txn); }

bool LockManager::CompatibleWithGranted(const Shard& shard,
                                        const LockHead& head, LockMode mode,
                                        uint32_t self) const {
  for (uint32_t g = head.granted; g != kNilIndex; g = shard.pool[g].next) {
    if (g == self) continue;
    if (!Compatible(shard.pool[g].mode, mode)) return false;
  }
  return true;
}

void LockManager::Dequeue(Shard& shard, LockHead& head, uint32_t idx) {
  uint32_t prev = kNilIndex;
  for (uint32_t w = head.waiting; w != kNilIndex; w = shard.pool[w].next) {
    if (w != idx) {
      prev = w;
      continue;
    }
    uint32_t next = shard.pool[w].next;
    (prev == kNilIndex ? head.waiting : shard.pool[prev].next) = next;
    if (head.waiting_tail == w) head.waiting_tail = prev;
    shard.pool[w].next = kNilIndex;
    return;
  }
}

void LockManager::ProcessQueue(Shard& shard, LockHead& head) {
  // Strict FIFO with upgrade priority (upgrades are enqueued at the
  // front): grant from the head of the queue until the first request that
  // must keep waiting.
  while (head.waiting != kNilIndex) {
    uint32_t idx = head.waiting;
    LockRequest& req = shard.pool[idx];
    if (req.is_upgrade) {
      // Find the requester's granted entry and try to strengthen it.
      uint32_t self = head.granted;
      while (self != kNilIndex && shard.pool[self].txn != req.txn) {
        self = shard.pool[self].next;
      }
      if (self == kNilIndex) {
        // Holder vanished (aborted): drop the stale upgrade request.
        Dequeue(shard, head, idx);
        shard.pool.Release(idx);
        continue;
      }
      if (!CompatibleWithGranted(shard, head, req.convert_to, self)) return;
      shard.pool[self].mode = req.convert_to;
      Dequeue(shard, head, idx);
      req.granted = true;  // Waiter observes success and frees the slot.
      continue;
    }
    if (!CompatibleWithGranted(shard, head, req.mode, kNilIndex)) return;
    Dequeue(shard, head, idx);
    req.granted = true;
    req.next = head.granted;
    head.granted = idx;
  }
}

bool LockManager::Reaches(TxnId from, TxnId target,
                          std::unordered_map<TxnId, int>* visited) const {
  if (from == target) return true;
  auto [it, inserted] = visited->emplace(from, 1);
  if (!inserted) return false;  // Already explored.
  auto edges = merged_wfg_.find(from);
  if (edges == merged_wfg_.end()) return false;
  for (TxnId next : edges->second) {
    if (Reaches(next, target, visited)) return true;
  }
  return false;
}

bool LockManager::AddWaitEdges(Shard& home, TxnId waiter,
                               const LockHead& head, uint32_t self) {
  std::vector<TxnId> holders;
  for (uint32_t g = head.granted; g != kNilIndex; g = home.pool[g].next) {
    if (g == self) continue;
    TxnId holder = home.pool[g].txn;
    if (holder != waiter) holders.push_back(holder);
  }
  // Grants are FIFO, so a conflicting request queued ahead of ours will
  // block us once granted: without an edge to it, a hand-off to an earlier
  // waiter hides a cycle through the new holder until the timeout. A
  // compatible one may be granted with us, and its edge would fake cycles.
  auto wanted = [](const LockRequest& r) {
    return r.is_upgrade ? r.convert_to : r.mode;
  };
  // Both callers queue the waiter's request before calling here.
  uint32_t own = head.waiting;
  while (home.pool[own].txn != waiter) own = home.pool[own].next;
  LockMode mode = wanted(home.pool[own]);
  for (uint32_t w = head.waiting; w != own; w = home.pool[w].next) {
    const LockRequest& ahead = home.pool[w];
    if (!Compatible(wanted(ahead), mode)) holders.push_back(ahead.txn);
  }
  // Lock every partition in index order (shard mutexes are never acquired
  // while a wfg mutex is held, so the order is deadlock-free) and query a
  // consistent merged snapshot. Holding all partition mutexes serializes
  // cycle checks, which also makes the merge cache safe to touch.
  std::vector<std::unique_lock<std::mutex>> guards;
  guards.reserve(shards_.size());
  for (auto& s : shards_) guards.emplace_back(s->wfg_mutex);
  uint64_t epoch = wfg_epoch_.load(std::memory_order_relaxed);
  if (merged_epoch_ != epoch) {
    merged_wfg_.clear();
    for (auto& s : shards_) {
      for (const auto& [w, hs] : s->waits_for) {
        auto& dst = merged_wfg_[w];
        dst.insert(dst.end(), hs.begin(), hs.end());
      }
    }
    merged_epoch_ = epoch;
  }
  // Would any holder (transitively) wait on us? Then this edge closes a
  // cycle and the requester is the victim.
  for (TxnId holder : holders) {
    std::unordered_map<TxnId, int> visited;
    if (Reaches(holder, waiter, &visited)) {
      stats_.cycles_detected.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Publish into the partition AND mirror into the merged cache: we hold
  // every partition mutex, so no other mutator can interleave — stamping
  // the cache with the post-publish epoch keeps it hot for the next
  // check instead of invalidating it with our own edge.
  merged_wfg_[waiter] = holders;
  home.waits_for[waiter] = std::move(holders);
  merged_epoch_ = wfg_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  return true;
}

void LockManager::RemoveWaitEdges(Shard& home, TxnId waiter) {
  std::lock_guard<std::mutex> guard(home.wfg_mutex);
  if (home.waits_for.erase(waiter) > 0) {
    wfg_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
}

Status LockManager::Acquire(TxnId txn, uint64_t hash, HeldLock* held,
                            LockMode mode, uint64_t* waits_out) {
  if (txn == kInvalidTxnId || mode == LockMode::kNone) {
    return Status::InvalidArgument("bad lock request");
  }
  Shard& shard = *shards_[held->shard];
  std::unique_lock<std::mutex> lk(MutexFor(shard));
  // A held mode means an upgrade of the grant the handle recorded (the
  // handle cache absorbs equal-or-weaker re-requests before this point).
  const bool upgrade = held->mode != LockMode::kNone;
  const LockMode target = upgrade ? Supremum(held->mode, mode) : mode;
  if (upgrade && shard.heads[held->head].waiting == kNilIndex &&
      CompatibleWithGranted(shard, shard.heads[held->head], target,
                            held->req)) {
    shard.pool[held->req].mode = target;
    held->mode = target;
    stats_.upgrades.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  // Take the request slot before touching the heads, so a drained pool
  // (an expected, recoverable path) never leaves an empty head behind.
  auto slot = shard.pool.Acquire();
  if (!slot) {
    return Status::ResourceExhausted("lock request pool exhausted (shard)");
  }
  const uint32_t hi =
      upgrade ? held->head : shard.heads.FindOrInsert(held->id, hash);
  LockHead& head = shard.heads[hi];
  LockRequest& req = shard.pool[*slot];
  req.txn = txn;
  if (upgrade) {
    // Upgrade must wait — at the front of the queue, ahead of new locks.
    req.mode = held->mode;
    req.convert_to = target;
    req.is_upgrade = true;
    req.next = head.waiting;
    head.waiting = *slot;
    if (head.waiting_tail == kNilIndex) head.waiting_tail = *slot;
  } else {
    req.mode = mode;
    held->head = hi;
    held->req = *slot;
    if (head.waiting == kNilIndex &&
        CompatibleWithGranted(shard, head, mode, kNilIndex)) {
      req.granted = true;
      req.next = head.granted;
      head.granted = *slot;
      held->mode = mode;
      stats_.acquired.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    (head.waiting_tail == kNilIndex ? head.waiting
                                    : shard.pool[head.waiting_tail].next) =
        *slot;
    head.waiting_tail = *slot;
  }
  stats_.waits.fetch_add(1, std::memory_order_relaxed);
  if (waits_out != nullptr) ++*waits_out;
  if (options_.deadlock_policy == DeadlockPolicy::kWaitsForGraph &&
      !AddWaitEdges(shard, txn, head, upgrade ? held->req : kNilIndex)) {
    Dequeue(shard, head, *slot);
    shard.pool.Release(*slot);
    return Status::Deadlock(upgrade ? "waits-for cycle (upgrade victim)"
                                    : "waits-for cycle (victim)");
  }
  if (!Park(shard, lk, hi, *slot, txn)) {
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    return Status::Deadlock(upgrade ? "upgrade timed out (deadlock victim)"
                                    : "lock wait timed out (deadlock victim)");
  }
  if (upgrade) {
    shard.pool.Release(*slot);  // The grant lives in the original request.
    stats_.upgrades.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.acquired.fetch_add(1, std::memory_order_relaxed);
  }
  held->mode = target;
  return Status::Ok();
}

bool LockManager::Park(Shard& shard, std::unique_lock<std::mutex>& lk,
                       uint32_t head, uint32_t slot, TxnId txn) {
  ++shard.parked;
  bool granted =
      shard.cv.wait_for(lk, std::chrono::microseconds(options_.timeout_us),
                        [&] { return shard.pool[slot].granted; });
  --shard.parked;
  if (options_.deadlock_policy == DeadlockPolicy::kWaitsForGraph) {
    RemoveWaitEdges(shard, txn);
  }
  if (granted) return true;
  LockHead& h = shard.heads[head];
  Dequeue(shard, h, slot);
  shard.pool.Release(slot);
  // Our queue slot may have been blocking others; re-drain and wake.
  ProcessQueue(shard, h);
  shard.heads.EraseIfUnused(head);
  if (shard.parked > 0) shard.cv.notify_all();
  return false;
}

void LockManager::ReleaseAll(TxnLockList* handle) {
  uint64_t released = 0;
  const HeldLock* entries = handle->entries();
  for (size_t si = 0; si < shards_.size(); ++si) {
    if (!handle->Touched(si)) continue;
    Shard& shard = *shards_[si];
    std::unique_lock<std::mutex> lk(MutexFor(shard));
    // Newest first (strict 2PL: everything goes at once anyway).
    for (uint32_t i = handle->count_; i-- > 0;) {
      const HeldLock& e = entries[i];
      if (e.shard != si) continue;
      LockHead& head = shard.heads[e.head];
      uint32_t* link = &head.granted;
      while (*link != e.req) link = &shard.pool[*link].next;
      *link = shard.pool[e.req].next;
      shard.pool.Release(e.req);
      ++released;
      ProcessQueue(shard, head);
      shard.heads.EraseIfUnused(e.head);
    }
    if (shard.parked > 0) shard.cv.notify_all();
  }
  stats_.releases.fetch_add(released, std::memory_order_relaxed);
  stats_.bulk_releases.fetch_add(1, std::memory_order_relaxed);
}

LockMode LockManager::HeldMode(TxnId txn, const LockId& id) const {
  auto& self = const_cast<LockManager&>(*this);
  uint64_t hash = LockIdHash()(id);
  Shard& shard = *self.shards_[ShardOf(hash)];
  std::unique_lock<std::mutex> lk(self.MutexFor(shard));
  uint32_t hi = shard.heads.Find(id, hash);
  if (hi == kNilIndex) return LockMode::kNone;
  for (uint32_t g = shard.heads[hi].granted; g != kNilIndex;
       g = shard.pool[g].next) {
    if (shard.pool[g].txn == txn) return shard.pool[g].mode;
  }
  return LockMode::kNone;
}

size_t LockManager::LockedObjectCount() const {
  auto& self = const_cast<LockManager&>(*this);
  size_t n = 0;
  for (auto& s : self.shards_) {
    std::unique_lock<std::mutex> lk(self.MutexFor(*s));
    n += s->heads.size();
  }
  return n;
}

}  // namespace shoremt::lock
