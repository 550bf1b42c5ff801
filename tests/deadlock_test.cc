#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "lock/lock_manager.h"
#include "lock/txn_lock_list.h"

namespace shoremt::lock {
namespace {

using enum LockMode;

LockOptions WfgOptions(size_t shards = 0) {
  LockOptions o;
  o.deadlock_policy = DeadlockPolicy::kWaitsForGraph;
  o.timeout_us = 2'000'000;  // Long timeout: detection must not rely on it.
  o.shards = shards;
  return o;
}

TEST(DeadlockDetectorTest, TwoTxnCycleDetectedImmediately) {
  LockManager mgr(WfgOptions());
  LockId a = LockId::Store(1);
  LockId b = LockId::Store(2);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  ASSERT_TRUE(h1.Lock(a, kX).ok());
  ASSERT_TRUE(h2.Lock(b, kX).ok());

  std::atomic<bool> t1_blocked{false};
  std::thread t1([&] {
    t1_blocked.store(true);
    // Txn 1 waits for b (held by 2).
    Status st = h1.Lock(b, kX);
    // Eventually granted once txn 2 is aborted by the detector.
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  while (!t1_blocked.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // Txn 2 requesting a closes the cycle: it must be chosen as victim
  // promptly (well under the 2s timeout).
  uint64_t t0 = NowNanos();
  Status st = h2.Lock(a, kX);
  uint64_t elapsed_ms = (NowNanos() - t0) / 1'000'000;
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  EXPECT_LT(elapsed_ms, 500u) << "cycle must not wait out the timeout";
  EXPECT_GE(mgr.stats().cycles_detected.load(), 1u);

  // Victim releases its locks (bulk); the waiter drains.
  h2.ReleaseAll();
  t1.join();
  h1.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(DeadlockDetectorTest, ThreeTxnCycleDetected) {
  LockManager mgr(WfgOptions());
  LockId a = LockId::Store(1), b = LockId::Store(2), c = LockId::Store(3);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  TxnLockList h3 = mgr.Attach(3);
  ASSERT_TRUE(h1.Lock(a, kX).ok());
  ASSERT_TRUE(h2.Lock(b, kX).ok());
  ASSERT_TRUE(h3.Lock(c, kX).ok());

  std::thread t1([&] { EXPECT_TRUE(h1.Lock(b, kX).ok()); });   // 1→2
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread t2([&] { EXPECT_TRUE(h2.Lock(c, kX).ok()); });   // 2→3
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // 3→1 closes the 3-cycle.
  Status st = h3.Lock(a, kX);
  EXPECT_TRUE(st.IsDeadlock());

  h3.ReleaseAll();  // Victim unwinds; 2 gets c...
  t2.join();
  h2.ReleaseAll();  // ...then 1 gets b.
  t1.join();
  h1.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(DeadlockDetectorTest, CycleThroughHandedOffLockDetected) {
  // T1 holds a, T2 holds b. T3 waits for a, then T2 queues behind T3.
  // T1's release hands a to T3, which then requests b: T3 → T2 → T3.
  // T2's edges were registered while T1 still held a, so only its edge to
  // the request queued ahead of it (T3's) reveals the cycle.
  LockManager mgr(WfgOptions());
  LockId a = LockId::Store(1);
  LockId b = LockId::Store(2);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  TxnLockList h3 = mgr.Attach(3);
  ASSERT_TRUE(h1.Lock(a, kX).ok());
  ASSERT_TRUE(h2.Lock(b, kX).ok());
  // A waiter bumps `waits` under the shard mutex before it parks, and
  // the release below takes that mutex, so the queue order is fixed.
  auto await_waiters = [&](uint64_t n) {
    while (mgr.stats().waits.load() < n) std::this_thread::yield();
  };

  Status t3_st;
  uint64_t t3_ms = 0;
  std::thread t3([&] {
    EXPECT_TRUE(h3.Lock(a, kX).ok());
    uint64_t t0 = NowNanos();
    t3_st = h3.Lock(b, kX);
    t3_ms = (NowNanos() - t0) / 1'000'000;
    h3.ReleaseAll();  // The victim unwinds; T2 then gets a.
  });
  await_waiters(1);
  std::thread t2([&] { EXPECT_TRUE(h2.Lock(a, kX).ok()); });
  await_waiters(2);
  h1.ReleaseAll();
  t3.join();
  EXPECT_TRUE(t3_st.IsDeadlock()) << t3_st.ToString();
  EXPECT_LT(t3_ms, 500u) << "cycle must not wait out the timeout";
  EXPECT_GE(mgr.stats().cycles_detected.load(), 1u);
  t2.join();
  h2.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

/// Finds `n` store ids mapping to pairwise-distinct shards.
std::vector<StoreId> DistinctShardStores(const LockManager& mgr, size_t n) {
  std::vector<StoreId> stores;
  std::vector<size_t> shards;
  for (StoreId s = 1; s < 10'000 && stores.size() < n; ++s) {
    size_t shard = mgr.ShardIndex(LockId::Store(s));
    bool seen = false;
    for (size_t used : shards) seen = seen || used == shard;
    if (!seen) {
      stores.push_back(s);
      shards.push_back(shard);
    }
  }
  return stores;
}

TEST(DeadlockDetectorTest, CrossShardTwoTxnCycleDetected) {
  // The two locks live in different shards, so each edge sits in a
  // different waits-for partition: only the merged-graph check can see
  // the cycle.
  LockManager mgr(WfgOptions(/*shards=*/4));
  ASSERT_EQ(mgr.shard_count(), 4u);
  auto stores = DistinctShardStores(mgr, 2);
  ASSERT_EQ(stores.size(), 2u);
  LockId a = LockId::Store(stores[0]);
  LockId b = LockId::Store(stores[1]);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  ASSERT_TRUE(h1.Lock(a, kX).ok());
  ASSERT_TRUE(h2.Lock(b, kX).ok());

  std::atomic<bool> t1_blocked{false};
  std::thread t1([&] {
    t1_blocked.store(true);
    EXPECT_TRUE(h1.Lock(b, kX).ok());  // Granted after the victim unwinds.
  });
  while (!t1_blocked.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  uint64_t t0 = NowNanos();
  Status st = h2.Lock(a, kX);
  uint64_t elapsed_ms = (NowNanos() - t0) / 1'000'000;
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  EXPECT_LT(elapsed_ms, 500u) << "cross-shard cycle must not wait out the "
                                 "timeout";
  EXPECT_GE(mgr.stats().cycles_detected.load(), 1u);
  h2.ReleaseAll();
  t1.join();
  h1.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(DeadlockDetectorTest, CrossShardThreeTxnCycleDetected) {
  // Three transactions, three locks, three distinct shards: the cycle is
  // visible only through the epoch-stamped merge of all partitions.
  LockManager mgr(WfgOptions(/*shards=*/4));
  auto stores = DistinctShardStores(mgr, 3);
  ASSERT_EQ(stores.size(), 3u);
  LockId a = LockId::Store(stores[0]);
  LockId b = LockId::Store(stores[1]);
  LockId c = LockId::Store(stores[2]);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  TxnLockList h3 = mgr.Attach(3);
  ASSERT_TRUE(h1.Lock(a, kX).ok());
  ASSERT_TRUE(h2.Lock(b, kX).ok());
  ASSERT_TRUE(h3.Lock(c, kX).ok());

  std::thread t1([&] { EXPECT_TRUE(h1.Lock(b, kX).ok()); });   // 1→2
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread t2([&] { EXPECT_TRUE(h2.Lock(c, kX).ok()); });   // 2→3
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  uint64_t t0 = NowNanos();
  Status st = h3.Lock(a, kX);  // 3→1 closes the cycle.
  uint64_t elapsed_ms = (NowNanos() - t0) / 1'000'000;
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  EXPECT_LT(elapsed_ms, 500u);

  h3.ReleaseAll();
  t2.join();
  h2.ReleaseAll();
  t1.join();
  h1.ReleaseAll();
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(DeadlockDetectorTest, WaitChainWithoutCycleIsNotAVictim) {
  LockManager mgr(WfgOptions());
  LockId a = LockId::Store(1), b = LockId::Store(2);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  TxnLockList h3 = mgr.Attach(3);
  ASSERT_TRUE(h1.Lock(a, kX).ok());
  ASSERT_TRUE(h2.Lock(b, kX).ok());

  // 3 waits on a, 2 waits on a: a chain, no cycle — nobody may be killed.
  std::atomic<int> granted{0};
  std::thread t3([&] {
    if (h3.Lock(a, kS).ok()) granted.fetch_add(1);
  });
  std::thread t2([&] {
    if (h2.Lock(a, kS).ok()) granted.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(mgr.stats().cycles_detected.load(), 0u);
  h1.ReleaseAll();
  t3.join();
  t2.join();
  EXPECT_EQ(granted.load(), 2);
  h2.ReleaseAll();
  h3.ReleaseAll();
}

TEST(DeadlockDetectorTest, UpgradeCycleDetected) {
  LockManager mgr(WfgOptions());
  LockId a = LockId::Store(1);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  ASSERT_TRUE(h1.Lock(a, kS).ok());
  ASSERT_TRUE(h2.Lock(a, kS).ok());

  std::atomic<bool> t1_done{false};
  std::thread t1([&] {
    Status st = h1.Lock(a, kX);  // Upgrade: waits on txn 2's S.
    t1_done.store(true);
    // Granted after txn 2 (the victim) releases.
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  Status st = h2.Lock(a, kX);  // Second upgrade closes the cycle.
  EXPECT_TRUE(st.IsDeadlock());
  h2.ReleaseAll();
  t1.join();
  EXPECT_TRUE(t1_done.load());
  h1.ReleaseAll();
}

TEST(DeadlockDetectorTest, StressNoHangsManyTxns) {
  LockManager mgr(WfgOptions());
  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  std::atomic<int> commits{0};
  std::atomic<int> victims{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < kRounds; ++i) {
        TxnLockList h =
            mgr.Attach(static_cast<TxnId>(t * 10'000 + i + 1));
        LockId first = LockId::Store(1 + rng.Uniform(3));
        LockId second = LockId::Store(1 + rng.Uniform(3));
        Status s1 = h.Lock(first, kX);
        if (!s1.ok()) {
          victims.fetch_add(1);
          h.ReleaseAll();
          continue;
        }
        Status s2 = first == second ? Status::Ok() : h.Lock(second, kX);
        if (s2.ok()) {
          commits.fetch_add(1);
        } else {
          victims.fetch_add(1);
        }
        h.ReleaseAll();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_GT(commits.load(), 0);
  EXPECT_EQ(mgr.LockedObjectCount(), 0u);
}

TEST(DeadlockDetectorTest, TimeoutPolicyUnaffected) {
  LockOptions o;
  o.deadlock_policy = DeadlockPolicy::kTimeoutOnly;
  o.timeout_us = 30'000;
  LockManager mgr(o);
  LockId a = LockId::Store(1);
  TxnLockList h1 = mgr.Attach(1);
  TxnLockList h2 = mgr.Attach(2);
  ASSERT_TRUE(h1.Lock(a, kX).ok());
  Status st = h2.Lock(a, kX);
  EXPECT_TRUE(st.IsDeadlock());
  EXPECT_EQ(mgr.stats().cycles_detected.load(), 0u);
  h1.ReleaseAll();
}

}  // namespace
}  // namespace shoremt::lock
