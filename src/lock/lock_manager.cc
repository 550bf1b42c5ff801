#include "lock/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "lock/txn_lock_list.h"

namespace shoremt::lock {

namespace {

size_t ResolveShardCount(size_t requested) {
  if (requested > 0) return std::min<size_t>(requested, 256);
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
  for (uint32_t g : head.granted) {
    if (g == self) continue;
    if (!Compatible(shard.pool[g].mode, mode)) return false;
  }
  return true;
}

void LockManager::ProcessQueue(Shard& shard, LockHead& head) {
  // Strict FIFO with upgrade priority (upgrades are enqueued at the
  // front): grant from the head of the queue until the first request that
  // must keep waiting.
  while (!head.waiting.empty()) {
    uint32_t idx = head.waiting.front();
    LockRequest& req = shard.pool[idx];
    if (req.is_upgrade) {
      // Find the requester's granted entry and try to strengthen it.
      uint32_t self = UINT32_MAX;
      for (uint32_t g : head.granted) {
        if (shard.pool[g].txn == req.txn) {
          self = g;
          break;
        }
      }
      if (self == UINT32_MAX) {
        // Holder vanished (aborted): drop the stale upgrade request.
        head.waiting.pop_front();
        shard.pool.Release(idx);
        continue;
      }
      if (!CompatibleWithGranted(shard, head, req.convert_to, self)) return;
      shard.pool[self].mode = req.convert_to;
      head.waiting.pop_front();
      req.granted = true;  // Waiter observes success and frees the slot.
      continue;
    }
    if (!CompatibleWithGranted(shard, head, req.mode, UINT32_MAX)) return;
    head.waiting.pop_front();
    req.granted = true;
    head.granted.push_back(idx);
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
  for (uint32_t g : head.granted) {
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
  auto own = std::find_if(
      head.waiting.begin(), head.waiting.end(),
      [&](uint32_t w) { return home.pool[w].txn == waiter; });
  LockMode mode = wanted(home.pool[*own]);
  for (auto it = head.waiting.begin(); it != own; ++it) {
    const LockRequest& ahead = home.pool[*it];
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

Status LockManager::Acquire(TxnId txn, const LockId& id, LockMode mode,
                            uint64_t* waits_out) {
  if (txn == kInvalidTxnId || mode == LockMode::kNone) {
    return Status::InvalidArgument("bad lock request");
  }
  Shard& shard = ShardFor(id);
  std::unique_lock<std::mutex> lk(MutexFor(shard));
  LockHead& head = shard.heads[id];
  head.id = id;

  // Re-request or upgrade? (The handle cache absorbs equal-or-weaker
  // re-requests before this point; reaching here with an entry means a
  // genuine upgrade, or a raw re-probe from diagnostics.)
  for (uint32_t g : head.granted) {
    if (shard.pool[g].txn != txn) continue;
    LockMode needed = Supremum(shard.pool[g].mode, mode);
    if (needed == shard.pool[g].mode) {
      stats_.acquired.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    if (head.waiting.empty() &&
        CompatibleWithGranted(shard, head, needed, g)) {
      shard.pool[g].mode = needed;
      stats_.upgrades.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    // Upgrade must wait — at the front of the queue, ahead of new locks.
    auto slot = shard.pool.Acquire();
    if (!slot) {
      return Status::ResourceExhausted("lock request pool exhausted (shard)");
    }
    LockRequest& req = shard.pool[*slot];
    req.txn = txn;
    req.mode = shard.pool[g].mode;
    req.convert_to = needed;
    req.is_upgrade = true;
    head.waiting.push_front(*slot);
    stats_.waits.fetch_add(1, std::memory_order_relaxed);
    if (waits_out != nullptr) ++*waits_out;
    if (options_.deadlock_policy == DeadlockPolicy::kWaitsForGraph &&
        !AddWaitEdges(shard, txn, head, g)) {
      head.waiting.pop_front();
      shard.pool.Release(*slot);
      return Status::Deadlock("waits-for cycle (upgrade victim)");
    }
    bool granted = shard.cv.wait_for(
        lk, std::chrono::microseconds(options_.timeout_us),
        [&] { return shard.pool[*slot].granted; });
    if (options_.deadlock_policy == DeadlockPolicy::kWaitsForGraph) {
      RemoveWaitEdges(shard, txn);
    }
    if (granted) {
      shard.pool.Release(*slot);
      stats_.upgrades.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
    for (size_t i = 0; i < head.waiting.size(); ++i) {
      if (head.waiting[i] == *slot) {
        head.waiting.erase(head.waiting.begin() + static_cast<long>(i));
        break;
      }
    }
    shard.pool.Release(*slot);
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    // Our queue slot may have been blocking others; re-drain and wake.
    ProcessQueue(shard, head);
    shard.cv.notify_all();
    return Status::Deadlock("upgrade timed out (deadlock victim)");
  }

  // Fresh request.
  auto slot = shard.pool.Acquire();
  if (!slot) {
    // Exhaustion is an expected, recoverable path: drop the head the
    // heads[id] probe above may have just created, or retry-heavy
    // workloads over fresh ids would grow the map unboundedly.
    if (head.granted.empty() && head.waiting.empty()) shard.heads.erase(id);
    return Status::ResourceExhausted("lock request pool exhausted (shard)");
  }
  LockRequest& req = shard.pool[*slot];
  req.txn = txn;
  req.mode = mode;
  if (head.waiting.empty() &&
      CompatibleWithGranted(shard, head, mode, UINT32_MAX)) {
    req.granted = true;
    head.granted.push_back(*slot);
    stats_.acquired.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  head.waiting.push_back(*slot);
  stats_.waits.fetch_add(1, std::memory_order_relaxed);
  if (waits_out != nullptr) ++*waits_out;
  if (options_.deadlock_policy == DeadlockPolicy::kWaitsForGraph &&
      !AddWaitEdges(shard, txn, head, UINT32_MAX)) {
    head.waiting.pop_back();
    shard.pool.Release(*slot);
    return Status::Deadlock("waits-for cycle (victim)");
  }
  bool granted =
      shard.cv.wait_for(lk, std::chrono::microseconds(options_.timeout_us),
                        [&] { return shard.pool[*slot].granted; });
  if (options_.deadlock_policy == DeadlockPolicy::kWaitsForGraph) {
    RemoveWaitEdges(shard, txn);
  }
  if (granted) {
    stats_.acquired.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  for (size_t i = 0; i < head.waiting.size(); ++i) {
    if (head.waiting[i] == *slot) {
      head.waiting.erase(head.waiting.begin() + static_cast<long>(i));
      break;
    }
  }
  shard.pool.Release(*slot);
  stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
  ProcessQueue(shard, head);
  shard.cv.notify_all();
  return Status::Deadlock("lock wait timed out (deadlock victim)");
}

void LockManager::ReleaseAll(TxnLockList* handle) {
  uint64_t released = 0;
  for (size_t si = 0; si < shards_.size(); ++si) {
    const std::vector<LockId>& ids = handle->shard_ids_[si];
    if (ids.empty()) continue;
    Shard& shard = *shards_[si];
    std::unique_lock<std::mutex> lk(MutexFor(shard));
    // Newest first (strict 2PL: everything goes at once anyway).
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      auto hit = shard.heads.find(*it);
      if (hit == shard.heads.end()) continue;
      LockHead& head = hit->second;
      for (size_t i = 0; i < head.granted.size(); ++i) {
        if (shard.pool[head.granted[i]].txn == handle->txn_) {
          shard.pool.Release(head.granted[i]);
          head.granted.erase(head.granted.begin() + static_cast<long>(i));
          ++released;
          break;
        }
      }
      ProcessQueue(shard, head);
      if (head.granted.empty() && head.waiting.empty()) {
        shard.heads.erase(hit);
      }
    }
    shard.cv.notify_all();
  }
  stats_.releases.fetch_add(released, std::memory_order_relaxed);
  stats_.bulk_releases.fetch_add(1, std::memory_order_relaxed);
}

LockMode LockManager::HeldMode(TxnId txn, const LockId& id) const {
  auto& self = const_cast<LockManager&>(*this);
  Shard& shard = self.ShardFor(id);
  std::unique_lock<std::mutex> lk(self.MutexFor(shard));
  auto it = shard.heads.find(id);
  if (it == shard.heads.end()) return LockMode::kNone;
  for (uint32_t g : it->second.granted) {
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
