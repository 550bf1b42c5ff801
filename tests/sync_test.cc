#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "sync/backoff.h"
#include "sync/clh_lock.h"
#include "sync/hybrid_mutex.h"
#include "sync/lockfree_stack.h"
#include "sync/mcs_lock.h"
#include "sync/rw_latch.h"
#include "sync/spinlock.h"
#include "sync/sync_stats.h"
#include "sync/ticket_lock.h"

namespace shoremt::sync {
namespace {

// Number of threads for concurrency tests; kept small because the test
// machine may have a single hardware context.
constexpr int kThreads = 4;
constexpr int kItersPerThread = 2000;

/// Hammers `lock` from kThreads threads incrementing an unprotected
/// counter; mutual exclusion holds iff the final count is exact.
template <typename Lock>
void CheckMutualExclusion(Lock& lock) {
  int64_t counter = 0;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kItersPerThread; ++j) {
        std::lock_guard<Lock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kItersPerThread);
}

TEST(TatasLockTest, MutualExclusion) {
  TatasLock lock;
  CheckMutualExclusion(lock);
}

TEST(TatasLockTest, TryLockSemantics) {
  TatasLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_TRUE(lock.IsLocked());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_FALSE(lock.IsLocked());
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TtasLockTest, MutualExclusion) {
  TtasLock lock;
  CheckMutualExclusion(lock);
}

TEST(TtasLockTest, TryLockSemantics) {
  TtasLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
}

TEST(TicketLockTest, MutualExclusion) {
  TicketLock lock;
  CheckMutualExclusion(lock);
}

TEST(TicketLockTest, TryLockOnlyWhenFree) {
  TicketLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(HybridMutexTest, MutualExclusion) {
  HybridMutex lock;
  CheckMutualExclusion(lock);
}

TEST(HybridMutexTest, TryLockSemantics) {
  HybridMutex lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(HybridMutexTest, ContendedSleepersWakeUp) {
  HybridMutex lock;
  std::atomic<int> entered{0};
  lock.lock();
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      lock.lock();
      entered.fetch_add(1);
      lock.unlock();
    });
  }
  // Hold long enough that waiters take the parking slow path.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(entered.load(), 0);
  lock.unlock();
  for (auto& w : workers) w.join();
  EXPECT_EQ(entered.load(), kThreads);
}

// Regression: a parked waiter that wakes while a try_lock thief holds the
// lock must re-mark "sleepers" before parking again, or the thief's
// unlock sees a plain "held" state, skips the notify, and the waiter
// sleeps forever. More threads than CPUs force the slow path; a hang
// fails the test at the deadline instead of stalling the suite.
TEST(HybridMutexTest, ParkedWaitersSurviveTryLockThief) {
  HybridMutex lock;
  const int threads =
      2 * static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) +
      2;
  constexpr int kIters = 20000;
  int64_t counter = 0;
  int64_t stolen = 0;
  std::atomic<int> finished{0};
  std::atomic<bool> stop_thief{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        std::lock_guard<HybridMutex> guard(lock);
        ++counter;
      }
      finished.fetch_add(1);
    });
  }
  std::thread thief([&] {
    while (!stop_thief.load(std::memory_order_relaxed)) {
      if (lock.try_lock()) {
        ++counter;
        ++stolen;
        lock.unlock();
      }
    }
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < threads) {
    if (std::chrono::steady_clock::now() > deadline) {
      // Hung waiters cannot be joined; fail loudly instead of blocking.
      ADD_FAILURE() << "lost wakeup: " << threads - finished.load()
                    << " waiters still parked after the deadline";
      std::fflush(nullptr);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop_thief.store(true);
  thief.join();
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, int64_t{threads} * kIters + stolen);
}

TEST(McsLockTest, MutualExclusion) {
  McsLock lock;
  int64_t counter = 0;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kItersPerThread; ++j) {
        McsGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kItersPerThread);
}

TEST(McsLockTest, TryAcquireFailsWhenHeld) {
  McsLock lock;
  McsLock::QNode a, b;
  EXPECT_TRUE(lock.TryAcquire(&a));
  EXPECT_TRUE(lock.IsLocked());
  EXPECT_FALSE(lock.TryAcquire(&b));
  lock.Release(&a);
  EXPECT_FALSE(lock.IsLocked());
}

TEST(McsLockTest, HandoffToQueuedWaiter) {
  McsLock lock;
  McsLock::QNode a;
  lock.Acquire(&a);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    McsLock::QNode b;
    lock.Acquire(&b);
    got.store(true);
    lock.Release(&b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(got.load());
  lock.Release(&a);
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(RwLatchTest, SharedHoldersCoexist) {
  RwLatch latch;
  latch.AcquireShared();
  latch.AcquireShared();
  EXPECT_EQ(latch.ReaderCount(), 2u);
  EXPECT_FALSE(latch.TryAcquire(LatchMode::kExclusive));
  latch.ReleaseShared();
  latch.ReleaseShared();
  EXPECT_EQ(latch.ReaderCount(), 0u);
}

TEST(RwLatchTest, ExclusiveExcludesAll) {
  RwLatch latch;
  latch.AcquireExclusive();
  EXPECT_TRUE(latch.IsHeldExclusive());
  EXPECT_FALSE(latch.TryAcquire(LatchMode::kShared));
  EXPECT_FALSE(latch.TryAcquire(LatchMode::kExclusive));
  latch.ReleaseExclusive();
  EXPECT_FALSE(latch.IsHeldExclusive());
}

TEST(RwLatchTest, UpgradeOnlyForSoleReader) {
  RwLatch latch;
  latch.AcquireShared();
  latch.AcquireShared();
  EXPECT_FALSE(latch.TryUpgrade());  // Two readers: no upgrade.
  latch.ReleaseShared();
  EXPECT_TRUE(latch.TryUpgrade());  // Sole reader upgrades.
  EXPECT_TRUE(latch.IsHeldExclusive());
  latch.ReleaseExclusive();
}

TEST(RwLatchTest, DowngradeKeepsHold) {
  RwLatch latch;
  latch.AcquireExclusive();
  latch.Downgrade();
  EXPECT_FALSE(latch.IsHeldExclusive());
  EXPECT_EQ(latch.ReaderCount(), 1u);
  // Another reader can now join.
  EXPECT_TRUE(latch.TryAcquire(LatchMode::kShared));
  latch.ReleaseShared();
  latch.ReleaseShared();
}

TEST(RwLatchTest, WriterExclusionUnderConcurrency) {
  RwLatch latch;
  int64_t value = 0;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      for (int j = 0; j < kItersPerThread; ++j) {
        if (j % 4 == 0) {
          latch.AcquireExclusive();
          ++value;
          latch.ReleaseExclusive();
        } else {
          latch.AcquireShared();
          // Readers must never observe a torn value; hard to check
          // directly, but the counter math below validates writer mutual
          // exclusion.
          latch.ReleaseShared();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(value, int64_t{kThreads} * (kItersPerThread / 4));
}

TEST(RwLatchTest, LatchGuardReleasesOnScopeExit) {
  RwLatch latch;
  {
    LatchGuard guard(latch, LatchMode::kExclusive);
    EXPECT_TRUE(latch.IsHeldExclusive());
  }
  EXPECT_FALSE(latch.IsHeldExclusive());
  {
    LatchGuard guard(latch, LatchMode::kShared);
    EXPECT_EQ(latch.ReaderCount(), 1u);
    guard.Release();
    EXPECT_EQ(latch.ReaderCount(), 0u);
  }
}

TEST(LockFreeStackTest, PushPopSingleThread) {
  LockFreeIndexStack stack(8);
  EXPECT_TRUE(stack.Empty());
  EXPECT_FALSE(stack.Pop().has_value());
  stack.Push(3);
  stack.Push(5);
  EXPECT_FALSE(stack.Empty());
  EXPECT_EQ(stack.Pop().value(), 5u);  // LIFO.
  EXPECT_EQ(stack.Pop().value(), 3u);
  EXPECT_FALSE(stack.Pop().has_value());
}

TEST(LockFreeStackTest, ConcurrentPushPopPreservesSet) {
  constexpr uint32_t kSlots = 64;
  LockFreeIndexStack stack(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) stack.Push(i);

  // Each thread repeatedly pops a slot and pushes it back; at the end every
  // slot must still be present exactly once.
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto idx = stack.Pop();
        if (idx.has_value()) stack.Push(*idx);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::set<uint32_t> seen;
  while (auto idx = stack.Pop()) {
    EXPECT_TRUE(seen.insert(*idx).second) << "duplicate slot " << *idx;
  }
  EXPECT_EQ(seen.size(), kSlots);
}

TEST(SyncStatsTest, RecordsAcquisitions) {
  SyncStats stats("test");
  stats.RecordAcquire(false, 0);
  stats.RecordAcquire(true, 500);
  stats.RecordHold(1000);
  stats.RecordHold(2000);
  EXPECT_EQ(stats.acquires(), 2u);
  EXPECT_EQ(stats.contended(), 1u);
  EXPECT_EQ(stats.total_wait_ns(), 500u);
  EXPECT_EQ(stats.total_hold_ns(), 3000u);
  EXPECT_DOUBLE_EQ(stats.ContentionRate(), 0.5);
  EXPECT_DOUBLE_EQ(stats.MeanHoldNs(), 1500.0);
  stats.Reset();
  EXPECT_EQ(stats.acquires(), 0u);
}

TEST(SyncStatsTest, StatsHookedIntoLock) {
  SyncStats stats("hooked");
  TtasLock lock(&stats);
  {
    std::lock_guard<TtasLock> g(lock);
  }
  EXPECT_EQ(stats.acquires(), 1u);
  EXPECT_EQ(stats.contended(), 0u);
}

TEST(SyncStatsRegistryTest, RegisterReportUnregister) {
  SyncStats stats("registry_probe");
  auto& reg = SyncStatsRegistry::Instance();
  reg.Register(&stats);
  stats.RecordAcquire(false, 0);
  std::string report = reg.Report();
  EXPECT_NE(report.find("registry_probe"), std::string::npos);
  reg.ResetAll();
  EXPECT_EQ(stats.acquires(), 0u);
  reg.Unregister(&stats);
  auto all = reg.All();
  for (auto* s : all) EXPECT_NE(s, &stats);
}

TEST(BackoffTest, PauseDoesNotCrashAndResets) {
  Backoff b;
  for (int i = 0; i < 50; ++i) b.Pause();
  b.Reset();
  b.Pause();
}

TEST(ClhLockTest, MutualExclusion) {
  ClhLock lock;
  CheckMutualExclusion(lock);
}

TEST(ClhLockTest, TryLockSemantics) {
  ClhLock lock;
  EXPECT_FALSE(lock.IsLocked());
  EXPECT_TRUE(lock.try_lock());
  EXPECT_TRUE(lock.IsLocked());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_FALSE(lock.IsLocked());
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(ClhLockTest, ReacquireManyTimesRecyclesNodes) {
  ClhLock lock;
  for (int i = 0; i < 10000; ++i) {
    lock.lock();
    lock.unlock();
  }
  EXPECT_FALSE(lock.IsLocked());
}

TEST(ClhLockTest, TwoLocksHeldSimultaneously) {
  // Per-lock thread slots: holding A must not corrupt B's queue.
  ClhLock a, b;
  a.lock();
  b.lock();
  EXPECT_TRUE(a.IsLocked());
  EXPECT_TRUE(b.IsLocked());
  b.unlock();
  EXPECT_TRUE(a.IsLocked());
  EXPECT_FALSE(b.IsLocked());
  a.unlock();
}

TEST(ClhLockTest, HandoffToQueuedWaiter) {
  ClhLock lock;
  lock.lock();
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    lock.lock();
    got.store(true);
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(got.load());
  lock.unlock();
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(ClhLockTest, FreshInstanceAfterDestroyIsClean) {
  // Exercises the instance-id keyed thread slots: destroy a lock, create
  // another (likely at the same address), and use it from this thread.
  for (int round = 0; round < 50; ++round) {
    auto lock = std::make_unique<ClhLock>();
    lock->lock();
    lock->unlock();
  }
}

}  // namespace
}  // namespace shoremt::sync
