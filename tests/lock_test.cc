#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "lock/lock_id.h"
#include "lock/lock_manager.h"
#include "lock/lock_mode.h"
#include "lock/request_pool.h"
#include "lock/txn_lock_list.h"

// Counts every heap allocation in the process, so a test can show that a
// window of lock-layer work allocates nothing.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler does not pair an inlined malloc()/free()
// with operator new/delete at a call site and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace shoremt::lock {
namespace {

using enum LockMode;

TEST(LockModeTest, CompatibilityMatrix) {
  // Spot-check the canonical multigranularity matrix.
  EXPECT_TRUE(Compatible(kIS, kIS));
  EXPECT_TRUE(Compatible(kIS, kIX));
  EXPECT_TRUE(Compatible(kIS, kS));
  EXPECT_TRUE(Compatible(kIS, kSIX));
  EXPECT_FALSE(Compatible(kIS, kX));
  EXPECT_TRUE(Compatible(kIX, kIX));
  EXPECT_FALSE(Compatible(kIX, kS));
  EXPECT_FALSE(Compatible(kIX, kSIX));
  EXPECT_TRUE(Compatible(kS, kS));
  EXPECT_FALSE(Compatible(kS, kIX));
  EXPECT_FALSE(Compatible(kSIX, kSIX));
  EXPECT_TRUE(Compatible(kSIX, kIS));
  EXPECT_FALSE(Compatible(kX, kIS));
  EXPECT_FALSE(Compatible(kX, kX));
}

TEST(LockModeTest, SupremumLattice) {
  EXPECT_EQ(Supremum(kS, kS), kS);
  EXPECT_EQ(Supremum(kIS, kIX), kIX);
  EXPECT_EQ(Supremum(kS, kIX), kSIX);
  EXPECT_EQ(Supremum(kIX, kS), kSIX);
  EXPECT_EQ(Supremum(kS, kX), kX);
  EXPECT_EQ(Supremum(kSIX, kIX), kSIX);
  EXPECT_EQ(Supremum(kIS, kX), kX);
}

TEST(LockModeTest, IntentionMapping) {
  EXPECT_EQ(IntentionFor(kS), kIS);
  EXPECT_EQ(IntentionFor(kX), kIX);
  EXPECT_EQ(IntentionFor(kSIX), kIX);
  EXPECT_EQ(IntentionFor(kIS), kIS);
}

TEST(LockIdTest, HierarchyAndEquality) {
  LockId rec = LockId::Record(4, RecordId{10, 2});
  EXPECT_EQ(rec.Parent(), LockId::Store(4));
  EXPECT_EQ(LockId::Store(4).Parent(), LockId::Volume());
  EXPECT_EQ(LockId::Volume().Parent(), LockId::Volume());
  EXPECT_NE(LockIdHash()(rec), LockIdHash()(LockId::Store(4)));
  EXPECT_EQ(rec, LockId::Record(4, RecordId{10, 2}));
  EXPECT_NE(rec, LockId::Record(4, RecordId{10, 3}));
}

TEST(RequestPoolTest, AcquireReleaseBothKinds) {
  for (auto kind :
       {RequestPoolKind::kMutexFreelist, RequestPoolKind::kLockFreeStack}) {
    RequestPool pool(kind, 4);
    std::vector<uint32_t> got;
    for (int i = 0; i < 4; ++i) {
      auto idx = pool.Acquire();
      ASSERT_TRUE(idx.has_value());
      got.push_back(*idx);
    }
    EXPECT_FALSE(pool.Acquire().has_value()) << "pool must exhaust";
    pool.Release(got[0]);
    auto again = pool.Acquire();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, got[0]);
  }
}

TEST(TxnLockListTest, DetachedHandleRejectsRequests) {
  TxnLockList detached;
  EXPECT_FALSE(detached.attached());
  EXPECT_EQ(detached.Lock(LockId::Store(1), kS).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(detached.LockRecord(1, RecordId{1, 0}, kX).code(),
            StatusCode::kInvalidArgument);
  detached.ReleaseAll();  // No-op, must not crash.
}

TEST(TxnLockListTest, MoveDetachesTheSource) {
  LockOptions o;
  o.timeout_us = 50'000;
  LockManager mgr(o);
  TxnLockList a = mgr.Attach(1);
  ASSERT_TRUE(a.Lock(LockId::Store(1), kX).ok());
  TxnLockList b = std::move(a);
  EXPECT_FALSE(a.attached());
  EXPECT_EQ(a.Lock(LockId::Store(2), kS).code(),
            StatusCode::kInvalidArgument)
      << "a moved-from handle must reject requests, not corrupt state";
  EXPECT_TRUE(b.attached());
  EXPECT_EQ(b.HeldMode(LockId::Store(1)), kX);
  b.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

LockOptions FastTimeout() {
  LockOptions o;
  o.timeout_us = 50'000;  // Keep deadlock tests quick.
  return o;
}

class LockManagerTest : public ::testing::TestWithParam<bool> {
 protected:
  LockManagerTest() : mgr_(MakeOptions()) {}
  LockOptions MakeOptions() {
    LockOptions o = FastTimeout();
    o.per_shard_latch = GetParam();
    o.shards = 4;
    return o;
  }
  LockManager mgr_;
};

TEST_P(LockManagerTest, GrantAndBulkRelease) {
  LockId id = LockId::Store(1);
  TxnLockList h = mgr_.Attach(1);
  ASSERT_TRUE(h.Lock(id, kX).ok());
  EXPECT_EQ(h.HeldMode(id), kX);
  EXPECT_EQ(mgr_.HeldMode(1, id), kX) << "cache and table must agree";
  EXPECT_EQ(mgr_.LockedObjectCount(), 1u);
  h.ReleaseAll();
  EXPECT_EQ(h.HeldMode(id), kNone);
  EXPECT_EQ(mgr_.HeldMode(1, id), kNone);
  EXPECT_EQ(mgr_.LockedObjectCount(), 0u);
  EXPECT_GE(mgr_.stats().bulk_releases.load(), 1u);
}

TEST_P(LockManagerTest, SharedLocksCoexist) {
  LockId id = LockId::Store(1);
  TxnLockList h1 = mgr_.Attach(1);
  TxnLockList h2 = mgr_.Attach(2);
  TxnLockList h3 = mgr_.Attach(3);
  ASSERT_TRUE(h1.Lock(id, kS).ok());
  ASSERT_TRUE(h2.Lock(id, kS).ok());
  ASSERT_TRUE(h3.Lock(id, kIS).ok());
  EXPECT_EQ(mgr_.HeldMode(2, id), kS);
  h1.ReleaseAll();
  h2.ReleaseAll();
  h3.ReleaseAll();
}

TEST_P(LockManagerTest, ConflictTimesOutAsDeadlock) {
  LockId id = LockId::Store(1);
  TxnLockList h1 = mgr_.Attach(1);
  TxnLockList h2 = mgr_.Attach(2);
  ASSERT_TRUE(h1.Lock(id, kX).ok());
  Status st = h2.Lock(id, kS);
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  EXPECT_EQ(mgr_.stats().timeouts.load(), 1u);
  h1.ReleaseAll();
}

TEST_P(LockManagerTest, ReacquireServedFromCache) {
  LockId id = LockId::Store(1);
  TxnLockList h = mgr_.Attach(1);
  ASSERT_TRUE(h.Lock(id, kX).ok());
  uint64_t acquired_before = mgr_.stats().acquired.load();
  ASSERT_TRUE(h.Lock(id, kS).ok());  // Weaker: already covered.
  ASSERT_TRUE(h.Lock(id, kX).ok());  // Equal: already covered.
  EXPECT_EQ(h.cache_hits(), 2u) << "re-grants must not touch the table";
  EXPECT_EQ(mgr_.stats().acquired.load(), acquired_before);
  EXPECT_EQ(mgr_.HeldMode(1, id), kX);
  h.ReleaseAll();
}

TEST_P(LockManagerTest, UpgradeAfterCachedWeakerMode) {
  // Cache re-grant correctness: the upgrade must go to the shared table
  // (it is NOT covered by the cached S), and afterwards both the cache
  // and the table must report the stronger mode.
  LockId id = LockId::Store(1);
  TxnLockList h = mgr_.Attach(1);
  ASSERT_TRUE(h.Lock(id, kS).ok());
  EXPECT_EQ(h.cache_hits(), 0u);
  ASSERT_TRUE(h.Lock(id, kX).ok());  // Genuine upgrade: cache miss.
  EXPECT_EQ(h.cache_hits(), 0u);
  EXPECT_GE(mgr_.stats().upgrades.load(), 1u);
  EXPECT_EQ(h.HeldMode(id), kX);
  EXPECT_EQ(mgr_.HeldMode(1, id), kX);
  // And the now-cached X absorbs further re-requests of anything weaker.
  ASSERT_TRUE(h.Lock(id, kS).ok());
  EXPECT_EQ(h.cache_hits(), 1u);
  h.ReleaseAll();
}

TEST_P(LockManagerTest, SIXComposition) {
  LockId id = LockId::Store(1);
  TxnLockList h = mgr_.Attach(1);
  ASSERT_TRUE(h.Lock(id, kS).ok());
  ASSERT_TRUE(h.Lock(id, kIX).ok());
  EXPECT_EQ(h.HeldMode(id), kSIX);
  EXPECT_EQ(mgr_.HeldMode(1, id), kSIX);
  h.ReleaseAll();
}

TEST_P(LockManagerTest, WaiterGrantedAfterBulkRelease) {
  LockId id = LockId::Store(1);
  TxnLockList h1 = mgr_.Attach(1);
  ASSERT_TRUE(h1.Lock(id, kX).ok());
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    TxnLockList h2 = mgr_.Attach(2);
    ASSERT_TRUE(h2.Lock(id, kX).ok());
    got.store(true);
    h2.ReleaseAll();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(got.load());
  h1.ReleaseAll();
  waiter.join();
  EXPECT_TRUE(got.load());
  EXPECT_GE(mgr_.stats().waits.load(), 1u);
}

TEST_P(LockManagerTest, FifoPreventsWriterStarvationByNewReaders) {
  LockId id = LockId::Store(1);
  TxnLockList h1 = mgr_.Attach(1);
  ASSERT_TRUE(h1.Lock(id, kS).ok());
  // Writer queues behind the reader.
  std::thread writer([&] {
    TxnLockList h2 = mgr_.Attach(2);
    ASSERT_TRUE(h2.Lock(id, kX).ok());
    h2.ReleaseAll();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // A new reader must queue behind the waiting writer (FIFO), not barge.
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    TxnLockList h3 = mgr_.Attach(3);
    ASSERT_TRUE(h3.Lock(id, kS).ok());
    reader_done.store(true);
    h3.ReleaseAll();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(reader_done.load());
  h1.ReleaseAll();  // Writer goes, then reader.
  writer.join();
  reader.join();
  EXPECT_TRUE(reader_done.load());
}

TEST_P(LockManagerTest, UpgradeDeadlockResolvedByTimeout) {
  // Two readers both try to upgrade: classic unresolvable conflict; the
  // timeout must break it.
  LockId id = LockId::Store(1);
  TxnLockList h1 = mgr_.Attach(1);
  TxnLockList h2 = mgr_.Attach(2);
  ASSERT_TRUE(h1.Lock(id, kS).ok());
  ASSERT_TRUE(h2.Lock(id, kS).ok());
  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status st = h1.Lock(id, kX);
    if (st.IsDeadlock()) deadlocks.fetch_add(1);
  });
  std::thread t2([&] {
    Status st = h2.Lock(id, kX);
    if (st.IsDeadlock()) deadlocks.fetch_add(1);
  });
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1);
  h1.ReleaseAll();
  h2.ReleaseAll();
}

TEST_P(LockManagerTest, HierarchicalWorkflowIntentThenRow) {
  // Typical row update: IX on store, X on row; a full-table reader (S on
  // store) must conflict, a row reader of another row must not.
  LockId store = LockId::Store(7);
  LockId row1 = LockId::Record(7, RecordId{5, 1});
  LockId row2 = LockId::Record(7, RecordId{5, 2});
  TxnLockList h1 = mgr_.Attach(1);
  TxnLockList h2 = mgr_.Attach(2);
  TxnLockList h3 = mgr_.Attach(3);
  ASSERT_TRUE(h1.Lock(store, kIX).ok());
  ASSERT_TRUE(h1.Lock(row1, kX).ok());
  // Row-level reader on a different row proceeds.
  ASSERT_TRUE(h2.Lock(store, kIS).ok());
  ASSERT_TRUE(h2.Lock(row2, kS).ok());
  // Table scanner blocks (S vs IX) until writer finishes.
  EXPECT_TRUE(h3.Lock(store, kS).IsDeadlock());  // Times out.
  h1.ReleaseAll();
  h2.ReleaseAll();
}

TEST_P(LockManagerTest, ConcurrentDisjointLocking) {
  constexpr int kThreads = 4;
  constexpr int kRows = 200;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      TxnLockList h = mgr_.Attach(t + 1);
      for (int i = 0; i < kRows; ++i) {
        LockId row = LockId::Record(1, RecordId{static_cast<PageNum>(t + 1),
                                                static_cast<uint16_t>(i)});
        if (!h.Lock(row, kX).ok()) failures.fetch_add(1);
      }
      if (h.held() != kRows) failures.fetch_add(1);
      h.ReleaseAll();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mgr_.LockedObjectCount(), 0u);
}

TEST_P(LockManagerTest, ContendedRowMutualExclusion) {
  // N threads take turns holding X on one row; a shared counter checks
  // mutual exclusion end to end.
  LockId row = LockId::Record(1, RecordId{1, 0});
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::vector<std::thread> workers;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // One short transaction per iteration; retry on deadlock
        // timeouts (heavy contention on 1 core).
        TxnLockList h =
            mgr_.Attach(static_cast<TxnId>(t * 10'000 + i + 1));
        for (;;) {
          Status st = h.Lock(row, kX);
          if (st.ok()) break;
          if (!st.IsDeadlock()) {
            errors.fetch_add(1);
            return;
          }
        }
        ++counter;
        h.ReleaseAll();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST_P(LockManagerTest, BulkReleaseWakesWaitersAcrossShards) {
  // Bulk-release-vs-waiter-wakeup race: one transaction holds X rows
  // spread over every shard while a waiter blocks on each; a single
  // ReleaseAll must wake and grant all of them (no lost wakeup, no
  // waiter left parked on a shard whose cv never fired).
  constexpr int kRows = 8;
  std::vector<LockId> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back(LockId::Record(1, RecordId{static_cast<PageNum>(i + 1),
                                              static_cast<uint16_t>(i)}));
  }
  TxnLockList holder = mgr_.Attach(1);
  for (const LockId& r : rows) ASSERT_TRUE(holder.Lock(r, kX).ok());
  std::atomic<int> granted{0};
  std::atomic<int> started{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kRows; ++i) {
    waiters.emplace_back([&, i] {
      TxnLockList h = mgr_.Attach(static_cast<TxnId>(100 + i));
      started.fetch_add(1);
      if (h.Lock(rows[static_cast<size_t>(i)], kX).ok()) {
        granted.fetch_add(1);
      }
      h.ReleaseAll();
    });
  }
  while (started.load() < kRows) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  holder.ReleaseAll();  // One latch per touched shard; must wake everyone.
  for (auto& w : waiters) w.join();
  EXPECT_EQ(granted.load(), kRows);
  EXPECT_EQ(mgr_.LockedObjectCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(LatchStrategies, LockManagerTest,
                         ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "PerShard" : "GlobalMutex";
                         });

// ------------------------------------------------------------ escalation --

TEST(LockEscalationTest, EscalatesThroughCacheAfterThreshold) {
  LockOptions o = FastTimeout();
  o.escalation_threshold = 10;
  LockManager mgr(o);
  TxnLockList h = mgr.Attach(1);
  for (uint16_t i = 0; i < 15; ++i) {
    ASSERT_TRUE(h.LockRecord(1, RecordId{1, i}, kX).ok());
  }
  EXPECT_EQ(h.escalations(), 1u);
  EXPECT_EQ(mgr.stats().escalations.load(), 1u);
  EXPECT_EQ(mgr.HeldMode(1, LockId::Store(1)), kX)
      << "store lock must be escalated in the shared table";
  // Escalation-through-cache semantics: every row lock after the store
  // escalation is served from the handle (no new table objects appear).
  size_t objects = mgr.LockedObjectCount();
  uint64_t hits = h.cache_hits();
  for (uint16_t i = 15; i < 40; ++i) {
    ASSERT_TRUE(h.LockRecord(1, RecordId{2, i}, kX).ok());
  }
  EXPECT_EQ(mgr.LockedObjectCount(), objects);
  EXPECT_EQ(h.cache_hits(), hits + 25);
  h.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(LockEscalationTest, WriteAfterReadEscalationUpgradesStoreLock) {
  LockOptions o = FastTimeout();
  o.escalation_threshold = 5;
  LockManager mgr(o);
  TxnLockList h = mgr.Attach(1);
  for (uint16_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(h.LockRecord(1, RecordId{1, i}, kS).ok());
  }
  EXPECT_EQ(mgr.HeldMode(1, LockId::Store(1)), kS)
      << "read workload escalates to store-S";
  // A write after the read-escalation must strengthen the store lock —
  // returning Ok under only store-S would let a concurrent reader be
  // overwritten unseen.
  ASSERT_TRUE(h.LockRecord(1, RecordId{2, 0}, kX).ok());
  EXPECT_EQ(mgr.HeldMode(1, LockId::Store(1)), kX);
  TxnLockList h2 = mgr.Attach(2);
  EXPECT_TRUE(h2.LockRecord(1, RecordId{3, 0}, kS).IsDeadlock())
      << "store-X must now exclude readers";
  h.ReleaseAll();
  h2.ReleaseAll();
}

TEST(LockEscalationTest, DeniedEscalationFallsBackToRowLocks) {
  LockOptions o = FastTimeout();
  o.escalation_threshold = 5;
  LockManager mgr(o);
  // Txn 2 holds one row in the store: txn 1's escalation to store-X is
  // denied (IX vs X conflict) and it must keep taking row locks.
  TxnLockList h2 = mgr.Attach(2);
  ASSERT_TRUE(h2.LockRecord(1, RecordId{99, 0}, kX).ok());
  TxnLockList h1 = mgr.Attach(1);
  for (uint16_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(h1.LockRecord(1, RecordId{1, i}, kX).ok());
  }
  EXPECT_EQ(h1.escalations(), 0u);
  EXPECT_EQ(mgr.HeldMode(1, LockId::Store(1)), kIX);
  h1.ReleaseAll();
  h2.ReleaseAll();
}

TEST(LockEscalationTest, IntentLocksServedFromCache) {
  // The tentpole's common case: every row operation re-requests the
  // volume and store intention locks; after the first row they must all
  // be cache hits (2 per LockRecord).
  LockManager mgr(FastTimeout());
  TxnLockList h = mgr.Attach(1);
  constexpr uint16_t kRows = 50;
  for (uint16_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(h.LockRecord(1, RecordId{1, i}, kX).ok());
  }
  EXPECT_EQ(h.cache_hits(), uint64_t{2} * (kRows - 1));
  EXPECT_EQ(h.waits(), 0u);
  h.ReleaseAll();
}

// ------------------------------------------------------------- the pools --

TEST(LockManagerPoolTest, ExhaustedPoolIsRecoverableResourceExhausted) {
  LockOptions o = FastTimeout();
  o.pool_capacity = 2;
  o.shards = 1;
  LockManager mgr(o);
  TxnLockList h = mgr.Attach(1);
  ASSERT_TRUE(h.Lock(LockId::Store(1), kS).ok());
  ASSERT_TRUE(h.Lock(LockId::Store(2), kS).ok());
  Status st = h.Lock(LockId::Store(3), kS);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_EQ(mgr.LockedObjectCount(), 2u)
      << "a failed fresh request must not leak an empty lock head";
  // Recoverable: releasing (aborting) frees the slots and the same
  // request then succeeds.
  h.ReleaseAll();
  TxnLockList retry = mgr.Attach(2);
  EXPECT_TRUE(retry.Lock(LockId::Store(3), kS).ok());
  retry.ReleaseAll();
}

TEST(LockManagerPoolTest, PoolsAreSizedAndDrainedPerShard) {
  // Exhaustion is shard-local: draining one shard's pool must not affect
  // locks that hash to a different shard.
  LockOptions o = FastTimeout();
  o.pool_capacity = 2;
  o.shards = 4;
  LockManager mgr(o);
  // Find three store ids in one shard and one in a different shard.
  std::vector<StoreId> same;
  StoreId other = 0;
  size_t target = mgr.ShardIndex(LockId::Store(1));
  for (StoreId s = 1; s < 1000 && (same.size() < 3 || other == 0); ++s) {
    if (mgr.ShardIndex(LockId::Store(s)) == target) {
      if (same.size() < 3) same.push_back(s);
    } else if (other == 0) {
      other = s;
    }
  }
  ASSERT_EQ(same.size(), 3u);
  ASSERT_NE(other, 0u);
  TxnLockList h = mgr.Attach(1);
  ASSERT_TRUE(h.Lock(LockId::Store(same[0]), kS).ok());
  ASSERT_TRUE(h.Lock(LockId::Store(same[1]), kS).ok());
  EXPECT_TRUE(h.Lock(LockId::Store(same[2]), kS).IsResourceExhausted());
  EXPECT_TRUE(h.Lock(LockId::Store(other), kS).ok())
      << "a different shard's pool must be unaffected";
  h.ReleaseAll();
}

TEST(LockManagerPoolTest, BothPoolKindsFunctionUnderLoad) {
  for (auto kind :
       {RequestPoolKind::kMutexFreelist, RequestPoolKind::kLockFreeStack}) {
    LockOptions o = FastTimeout();
    o.pool_kind = kind;
    LockManager mgr(o);
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < 300; ++i) {
          TxnLockList h =
              mgr.Attach(static_cast<TxnId>(t * 10'000 + i + 1));
          LockId id = LockId::Record(
              1, RecordId{static_cast<PageNum>(i % 7 + 1),
                          static_cast<uint16_t>(t)});
          if (!h.Lock(id, kS).ok()) failures.fetch_add(1);
          h.ReleaseAll();
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mgr.LockedObjectCount(), 0u);
  }
}

// ------------------------------------------------- allocation-free path --

/// One transaction of ~40 locks: volume and store intents, record locks
/// over several stores (so several shards), and one S→X upgrade.
void RunFortyLockTxn(LockManager& mgr, TxnId txn) {
  TxnLockList h = mgr.Attach(txn);
  for (StoreId store = 1; store <= 4; ++store) {
    for (uint16_t slot = 0; slot < 9; ++slot) {
      ASSERT_TRUE(h.LockRecord(store, RecordId{7, slot}, kX).ok());
    }
  }
  LockId upgraded = LockId::Record(9, RecordId{1, 1});
  ASSERT_TRUE(h.Lock(upgraded, kS).ok());
  ASSERT_TRUE(h.Lock(upgraded, kX).ok());
  ASSERT_EQ(h.HeldMode(upgraded), kX);
  h.ReleaseAll();
}

TEST(LockAllocationTest, SteadyStateTransactionAllocatesNothing) {
  LockOptions o = FastTimeout();
  o.shards = 4;
  LockManager mgr(o);
  std::set<size_t> shards;
  for (StoreId store = 1; store <= 4; ++store) {
    for (uint16_t slot = 0; slot < 9; ++slot) {
      shards.insert(mgr.ShardIndex(LockId::Record(store, RecordId{7, slot})));
    }
  }
  ASSERT_GE(shards.size(), 2u) << "the transaction must span shards";
  uint64_t before = g_allocations.load();
  RunFortyLockTxn(mgr, 1);  // Warm-up: head chunks and buckets grow.
  EXPECT_GT(g_allocations.load(), before) << "the hook must see the warm-up";
  uint64_t acquired = mgr.stats().acquired.load();
  before = g_allocations.load();
  RunFortyLockTxn(mgr, 2);
  uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_GE(mgr.stats().acquired.load() - acquired, 40u);
  EXPECT_EQ(mgr.stats().upgrades.load(), 2u);
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(LockAllocationTest, HandleSpillsPastItsInlineEntries) {
  // More locks than the handle keeps inline: the entries and their index
  // move to the heap, and lookups, upgrades and release keep working.
  LockOptions o = FastTimeout();
  o.shards = 4;
  LockManager mgr(o);
  TxnLockList h = mgr.Attach(1);
  constexpr uint16_t kRows = 300;
  for (uint16_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(h.Lock(LockId::Record(1, RecordId{1, i}), kS).ok());
  }
  EXPECT_EQ(h.held(), kRows);
  for (uint16_t i = 0; i < kRows; i += 7) {
    LockId id = LockId::Record(1, RecordId{1, i});
    ASSERT_TRUE(h.Lock(id, kX).ok());
    EXPECT_EQ(h.HeldMode(id), kX);
    EXPECT_EQ(mgr.HeldMode(1, id), kX);
  }
  EXPECT_EQ(h.HeldMode(LockId::Record(1, RecordId{1, 1})), kS);
  EXPECT_EQ(h.HeldMode(LockId::Record(1, RecordId{2, 0})), kNone);
  TxnLockList moved = std::move(h);
  EXPECT_EQ(moved.held(), kRows);
  EXPECT_EQ(moved.HeldMode(LockId::Record(1, RecordId{1, 299})), kS);
  moved.ReleaseAll();
  EXPECT_EQ(moved.held(), 0u);
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(LockManagerPoolTest, DrainedPoolLeavesNoHeadBehind) {
  LockOptions o = FastTimeout();
  o.pool_capacity = 2;
  o.shards = 1;
  LockManager mgr(o);
  // Two readers take the shard's only two request slots.
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  ASSERT_TRUE(h1.Lock(LockId::Store(1), kS).ok());
  ASSERT_TRUE(h2.Lock(LockId::Store(1), kS).ok());
  // A fresh request and an upgrade that must queue both need a slot.
  TxnLockList h3 = mgr.Attach(3);
  EXPECT_TRUE(h3.Lock(LockId::Store(2), kS).IsResourceExhausted());
  EXPECT_TRUE(h1.Lock(LockId::Store(1), kX).IsResourceExhausted());
  EXPECT_EQ(h1.HeldMode(LockId::Store(1)), kS);
  EXPECT_EQ(mgr.HeldMode(1, LockId::Store(1)), kS);
  EXPECT_EQ(mgr.LockedObjectCount(), 1u);
  h1.ReleaseAll();
  h2.ReleaseAll();
  h3.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(LockManagerPoolTest, TimedOutWaiterFreesItsRequestAndHead) {
  LockOptions o = FastTimeout();
  o.timeout_us = 5'000;
  o.pool_capacity = 2;
  o.shards = 1;
  LockManager mgr(o);
  LockId id = LockId::Store(1);
  TxnLockList holder = mgr.Attach(1);
  ASSERT_TRUE(holder.Lock(id, kX).ok());
  // Each timed-out waiter must give its request slot back, or the second
  // round would find the two-slot pool drained.
  for (TxnId t = 2; t < 5; ++t) {
    TxnLockList waiter = mgr.Attach(t);
    EXPECT_TRUE(waiter.Lock(id, kS).IsDeadlock());
    EXPECT_EQ(mgr.LockedObjectCount(), 1u);
  }
  EXPECT_EQ(mgr.stats().timeouts.load(), 3u);
  holder.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
  TxnLockList after = mgr.Attach(9);
  EXPECT_TRUE(after.Lock(id, kX).ok());
  after.ReleaseAll();
}

TEST(LockManagerQueueTest, UpgradeGrantedAheadOfEarlierFreshWaiter) {
  LockOptions o;
  o.timeout_us = 10'000'000;  // Ordering, not timeouts, is under test.
  o.shards = 1;
  LockManager mgr(o);
  LockId id = LockId::Store(1);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  ASSERT_TRUE(h1.Lock(id, kS).ok());
  ASSERT_TRUE(h2.Lock(id, kS).ok());
  auto await_waits = [&](uint64_t n) {
    while (mgr.stats().waits.load() < n) std::this_thread::yield();
  };
  // A fresh writer queues first...
  std::atomic<bool> fresh_granted{false};
  std::thread fresh([&] {
    TxnLockList h3 = mgr.Attach(3);
    EXPECT_TRUE(h3.Lock(id, kX).ok());
    fresh_granted.store(true);
    h3.ReleaseAll();
  });
  await_waits(1);
  // ...then h1's upgrade, which goes to the front of the queue.
  std::atomic<bool> upgraded{false};
  std::thread upgrade([&] {
    EXPECT_TRUE(h1.Lock(id, kX).ok());
    upgraded.store(true);
  });
  await_waits(2);
  // h2's release makes both grantable in principle; the upgrade wins.
  h2.ReleaseAll();
  upgrade.join();
  EXPECT_TRUE(upgraded.load());
  EXPECT_FALSE(fresh_granted.load());
  EXPECT_EQ(mgr.HeldMode(1, id), kX);
  h1.ReleaseAll();
  fresh.join();
  EXPECT_TRUE(fresh_granted.load());
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

}  // namespace
}  // namespace shoremt::lock
