#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/frame_table.h"
#include "buffer/in_transit.h"
#include "common/random.h"
#include "common/types.h"
#include "io/volume.h"
#include "page/page.h"
#include "page/slotted_page.h"

namespace shoremt::buffer {
namespace {

using sync::LatchMode;

// ----------------------------------------------------------- FrameTable ---

class FrameTableTest : public ::testing::TestWithParam<TableKind> {
 protected:
  std::unique_ptr<FrameTable> Make(size_t cap = 256) {
    return MakeFrameTable(GetParam(), cap);
  }
};

TEST_P(FrameTableTest, InsertFindErase) {
  auto t = Make();
  EXPECT_TRUE(t->Insert(10, 1));
  EXPECT_TRUE(t->Insert(20, 2));
  EXPECT_FALSE(t->Insert(10, 3)) << "duplicate insert must fail";

  int pinned = -1;
  EXPECT_EQ(t->FindAndPin(10, [&](int f) { pinned = f; }), 1);
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(t->FindAndPin(99, [&](int) { FAIL(); }), -1);

  EXPECT_TRUE(t->EraseIf(10, [](int) { return true; }));
  EXPECT_EQ(t->FindAndPin(10, [&](int) {}), -1);
  EXPECT_FALSE(t->EraseIf(10, [](int) { return true; }));
}

TEST_P(FrameTableTest, EraseVetoedByCheck) {
  auto t = Make();
  ASSERT_TRUE(t->Insert(5, 7));
  EXPECT_FALSE(t->EraseIf(5, [](int) { return false; }));
  EXPECT_EQ(t->FindAndPin(5, [](int) {}), 7);
}

TEST_P(FrameTableTest, SizeTracksMappings) {
  auto t = Make();
  for (PageNum p = 1; p <= 100; ++p) {
    ASSERT_TRUE(t->Insert(p, static_cast<int>(p)));
  }
  EXPECT_EQ(t->Size(), 100u);
  for (PageNum p = 1; p <= 50; ++p) {
    ASSERT_TRUE(t->EraseIf(p, [](int) { return true; }));
  }
  EXPECT_EQ(t->Size(), 50u);
}

TEST_P(FrameTableTest, DenseFillStressesCollisions) {
  // Fill to table capacity; every mapping must remain findable (the cuckoo
  // strategy must relocate or overflow, never lose entries).
  constexpr size_t kN = 256;
  auto t = Make(kN);
  for (PageNum p = 1; p <= kN; ++p) {
    ASSERT_TRUE(t->Insert(p * 977, static_cast<int>(p)));
  }
  for (PageNum p = 1; p <= kN; ++p) {
    EXPECT_EQ(t->FindAndPin(p * 977, [](int) {}), static_cast<int>(p));
  }
}

TEST_P(FrameTableTest, ConcurrentMixedOperations) {
  auto t = Make(1024);
  std::atomic<bool> stop{false};
  // Writer threads churn distinct key ranges; a reader thread hammers
  // lookups. No crashes, no lost updates within a range.
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 300; ++round) {
        PageNum base = static_cast<PageNum>(w) * 10000 + 1;
        for (PageNum p = base; p < base + 20; ++p) {
          t->Insert(p, static_cast<int>(p % 997));
        }
        for (PageNum p = base; p < base + 20; ++p) {
          t->EraseIf(p, [](int) { return true; });
        }
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      for (PageNum p = 1; p < 60; ++p) {
        t->FindOptimistic(p);
        t->FindAndPin(p * 10000 + 3, [](int) {});
      }
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(t->Size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FrameTableTest,
                         ::testing::Values(TableKind::kGlobalChained,
                                           TableKind::kPerBucketChained,
                                           TableKind::kCuckoo),
                         [](const auto& info) {
                           switch (info.param) {
                             case TableKind::kGlobalChained:
                               return "GlobalChained";
                             case TableKind::kPerBucketChained:
                               return "PerBucket";
                             case TableKind::kCuckoo:
                               return "Cuckoo";
                           }
                           return "Unknown";
                         });

// ------------------------------------------------------------ InTransit ---

TEST(InTransitTest, WaitBlocksUntilRemove) {
  InTransitTable transit(4);
  transit.Add(42);
  std::atomic<bool> cleared{false};
  std::thread waiter([&] {
    transit.WaitUntilClear(42);
    cleared.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(cleared.load());
  transit.Remove(42);
  waiter.join();
  EXPECT_TRUE(cleared.load());
  EXPECT_EQ(transit.adds(), 1u);
  EXPECT_EQ(transit.waits(), 1u);
}

TEST(InTransitTest, ClearPageDoesNotWait) {
  InTransitTable transit(1);
  transit.Add(7);
  transit.WaitUntilClear(8);  // Different page: returns immediately.
  EXPECT_EQ(transit.waits(), 0u);
  transit.Remove(7);
}

// ----------------------------------------------------------- BufferPool ---

BufferPoolOptions SmallPool(size_t frames, TableKind kind = TableKind::kCuckoo) {
  BufferPoolOptions o;
  o.frame_count = frames;
  o.table_kind = kind;
  return o;
}

class BufferPoolTest : public ::testing::TestWithParam<TableKind> {
 protected:
  BufferPoolTest() {
    EXPECT_TRUE(vol_.Extend(512).ok());
  }
  io::MemVolume vol_;
};

TEST_P(BufferPoolTest, NewPageWriteReadBack) {
  BufferPool pool(&vol_, SmallPool(16, GetParam()));
  {
    auto h = pool.NewPage(3);
    ASSERT_TRUE(h.ok());
    page::SlottedPage sp(h->data());
    sp.Init(3, 1, page::PageType::kData);
    uint8_t rec[] = {1, 2, 3};
    ASSERT_TRUE(sp.Insert(rec).ok());
    h->MarkDirty(Lsn{100}, Lsn{100});
  }
  {
    auto h = pool.FixPage(3, LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    page::SlottedPage sp(const_cast<uint8_t*>(h->data()));
    auto rec = sp.Read(0);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ((*rec)[2], 3);
    EXPECT_EQ(sp.header()->page_lsn, 100u);
  }
  EXPECT_EQ(pool.stats().hits.load(), 1u);
}

TEST_P(BufferPoolTest, EvictionPersistsDirtyPages) {
  // Pool of 8 frames; touch 64 pages so each is evicted multiple times.
  BufferPool pool(&vol_, SmallPool(8, GetParam()));
  for (PageNum p = 1; p <= 64; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    page::SlottedPage sp(h->data());
    sp.Init(p, 1, page::PageType::kData);
    std::vector<uint8_t> rec(8, static_cast<uint8_t>(p));
    ASSERT_TRUE(sp.Insert(rec).ok());
    h->MarkDirty(Lsn{p}, Lsn{p});
  }
  EXPECT_GT(pool.stats().evictions.load(), 0u);
  EXPECT_GT(pool.stats().dirty_writebacks.load(), 0u);
  // Re-read everything; contents must have survived eviction round trips.
  for (PageNum p = 1; p <= 64; ++p) {
    auto h = pool.FixPage(p, LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    page::SlottedPage sp(const_cast<uint8_t*>(h->data()));
    auto rec = sp.Read(0);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ((*rec)[0], static_cast<uint8_t>(p));
  }
}

TEST_P(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(&vol_, SmallPool(4, GetParam()));
  auto pinned = pool.NewPage(1);
  ASSERT_TRUE(pinned.ok());
  std::memset(pinned->data(), 0xEE, 64);
  // Churn through many other pages, forcing eviction pressure.
  for (PageNum p = 2; p <= 20; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
    h->MarkDirty(Lsn{p}, Lsn{p});
  }
  // The pinned frame still holds our bytes.
  EXPECT_EQ(pinned->data()[10], 0xEE);
}

TEST_P(BufferPoolTest, AllFramesPinnedReportsBusy) {
  BufferPool pool(&vol_, SmallPool(4, GetParam()));
  std::vector<PageHandle> held;
  for (PageNum p = 1; p <= 4; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    held.push_back(std::move(*h));
  }
  auto fifth = pool.FixPage(5, LatchMode::kShared);
  EXPECT_TRUE(fifth.status().IsBusy());
  held.clear();
  auto again = pool.FixPage(1, LatchMode::kShared);
  EXPECT_TRUE(again.ok());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BufferPoolTest,
                         ::testing::Values(TableKind::kGlobalChained,
                                           TableKind::kPerBucketChained,
                                           TableKind::kCuckoo),
                         [](const auto& info) {
                           switch (info.param) {
                             case TableKind::kGlobalChained:
                               return "GlobalChained";
                             case TableKind::kPerBucketChained:
                               return "PerBucket";
                             case TableKind::kCuckoo:
                               return "Cuckoo";
                           }
                           return "Unknown";
                         });

TEST(BufferPoolSingleTest, OptimisticPinCountsHotHits) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(16));
  // First fix: miss. Keep one pin so the page stays "hot" (pinned).
  auto keeper = pool.NewPage(1);
  ASSERT_TRUE(keeper.ok());
  keeper->DowngradeLatch();  // Keep the pin; shared fixes must coexist.
  for (int i = 0; i < 100; ++i) {
    auto h = pool.FixPage(1, LatchMode::kShared);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_GE(pool.stats().optimistic_hits.load(), 100u);
}

TEST(BufferPoolSingleTest, PinIfPinnedDisabledUsesLockedPath) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPoolOptions o = SmallPool(16);
  o.pin_if_pinned = false;
  BufferPool pool(&vol, o);
  auto keeper = pool.NewPage(1);
  ASSERT_TRUE(keeper.ok());
  keeper->DowngradeLatch();  // Keep the pin; shared fixes must coexist.
  for (int i = 0; i < 10; ++i) {
    auto h = pool.FixPage(1, LatchMode::kShared);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.stats().optimistic_hits.load(), 0u);
}

TEST(BufferPoolSingleTest, WalHookRunsBeforeDirtyWriteback) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(256).ok());
  std::vector<uint64_t> flushed_lsns;
  BufferPool pool(&vol, SmallPool(4), [&](Lsn lsn) {
    flushed_lsns.push_back(lsn.value);
    return Status::Ok();
  });
  for (PageNum p = 1; p <= 12; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
    h->MarkDirty(Lsn{p * 10}, Lsn{p * 10});
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_GE(flushed_lsns.size(), 12u);
  // Every flushed LSN matches the page LSN stamped by MarkDirty.
  for (uint64_t lsn : flushed_lsns) EXPECT_EQ(lsn % 10, 0u);
}

TEST(BufferPoolSingleTest, FlushPageClearsDirty) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(8));
  {
    auto h = pool.NewPage(2);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), 2, 1, page::PageType::kData);
    h->MarkDirty(Lsn{5}, Lsn{5});
  }
  EXPECT_EQ(pool.ScanMinRecLsn().value, 5u);
  ASSERT_TRUE(pool.FlushPage(2).ok());
  EXPECT_EQ(pool.ScanMinRecLsn().value, 0u);
  // Flushing an uncached page is a no-op.
  EXPECT_TRUE(pool.FlushPage(200).ok());
}

TEST(BufferPoolSingleTest, ScanMinRecLsnFindsOldest) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(8));
  for (PageNum p = 1; p <= 3; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
    h->MarkDirty(Lsn{100 - p * 10}, Lsn{100 - p * 10});  // 90, 80, 70.
  }
  EXPECT_EQ(pool.ScanMinRecLsn().value, 70u);
}

TEST(BufferPoolSingleTest, CleanerSweepWritesEveryDirtyPage) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(8));
  for (PageNum p = 1; p <= 4; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
    h->MarkDirty(Lsn{p * 7}, Lsn{p * 7});
  }
  ASSERT_TRUE(pool.CleanerSweep().ok());
  EXPECT_EQ(pool.stats().cleaner_writes.load(), 4u);
  EXPECT_EQ(pool.ScanMinRecLsn().value, 0u);  // Everything clean.
}

TEST(BufferPoolSingleTest, BackgroundCleanerRuns) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPoolOptions o = SmallPool(8);
  o.enable_cleaner = true;
  o.cleaner_interval_us = 500;
  BufferPool pool(&vol, o);
  {
    auto h = pool.NewPage(1);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), 1, 1, page::PageType::kData);
    h->MarkDirty(Lsn{1}, Lsn{1});
  }
  // Wait for at least one sweep to pick it up.
  for (int i = 0; i < 200 && pool.stats().cleaner_writes.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(pool.stats().cleaner_writes.load(), 0u);
}

TEST(BufferPoolSingleTest, HandleMoveTransfersOwnership) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(8));
  auto h = pool.NewPage(1);
  ASSERT_TRUE(h.ok());
  PageHandle moved = std::move(*h);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(h->valid());
  moved.Unfix();
  EXPECT_FALSE(moved.valid());
  // Page is evictable again: churn succeeds.
  for (PageNum p = 2; p <= 12; ++p) {
    ASSERT_TRUE(pool.NewPage(p).ok());
  }
}

TEST(BufferPoolSingleTest, DowngradeLatchAllowsReaders) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(8));
  auto w = pool.NewPage(1);
  ASSERT_TRUE(w.ok());
  w->DowngradeLatch();
  // A concurrent shared fix must now succeed without blocking.
  auto r = pool.FixPage(1, LatchMode::kShared);
  EXPECT_TRUE(r.ok());
}

TEST(BufferPoolSingleTest, ConcurrentFixStormKeepsDataIntact) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(256).ok());
  BufferPool pool(&vol, SmallPool(32));
  // Seed 64 pages, each holding a counter record.
  for (PageNum p = 1; p <= 64; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::SlottedPage sp(h->data());
    sp.Init(p, 1, page::PageType::kData);
    uint64_t zero = 0;
    ASSERT_TRUE(
        sp.Insert({reinterpret_cast<uint8_t*>(&zero), sizeof(zero)}).ok());
    h->MarkDirty(Lsn{1}, Lsn{1});
  }
  // 4 threads increment counters on random pages under EX latches.
  std::vector<std::thread> workers;
  constexpr int kOpsPerThread = 500;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        PageNum p = 1 + rng.Uniform(64);
        auto h = pool.FixPage(p, LatchMode::kExclusive);
        ASSERT_TRUE(h.ok());
        page::SlottedPage sp(h->data());
        auto rec = sp.Read(0);
        ASSERT_TRUE(rec.ok());
        uint64_t v;
        std::memcpy(&v, rec->data(), sizeof(v));
        ++v;
        ASSERT_TRUE(
            sp.Update(0, {reinterpret_cast<uint8_t*>(&v), sizeof(v)}).ok());
        h->MarkDirty(Lsn{v}, Lsn{v});
      }
    });
  }
  for (auto& w : workers) w.join();
  // Sum of all counters equals total increments (no lost updates through
  // latching + eviction round trips).
  uint64_t total = 0;
  for (PageNum p = 1; p <= 64; ++p) {
    auto h = pool.FixPage(p, LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    page::SlottedPage sp(const_cast<uint8_t*>(h->data()));
    uint64_t v;
    std::memcpy(&v, sp.Read(0)->data(), sizeof(v));
    total += v;
  }
  EXPECT_EQ(total, 4u * kOpsPerThread);
}

TEST(BufferPoolSingleTest, PrefetchInstallsAndDedupesAgainstMisses) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(256).ok());
  // Seed fingerprinted pages straight on the volume.
  std::vector<uint8_t> img(kPageSize);
  for (PageNum p = 1; p <= 128; ++p) {
    page::FormatPage(img.data(), p, 1, page::PageType::kData);
    img[kPageSize - 1] = static_cast<uint8_t>(p);
    ASSERT_TRUE(vol.WritePage(p, img.data()).ok());
  }
  BufferPoolOptions o = SmallPool(64);
  o.prefetch_window = 32;
  BufferPool pool(&vol, o);

  // Concurrent prefetchers and fixers over the same page set: every fix
  // must observe the correct image, whichever side loaded it first.
  std::vector<PageNum> ids;
  for (PageNum p = 1; p <= 128; ++p) ids.push_back(p);
  std::thread prefetcher([&] {
    for (int round = 0; round < 8; ++round) {
      for (size_t at = 0; at < ids.size(); at += 16) {
        pool.PrefetchPages(
            std::span<const PageNum>(ids.data() + at,
                                     std::min<size_t>(16, ids.size() - at)));
      }
    }
  });
  std::vector<std::thread> fixers;
  for (int t = 0; t < 3; ++t) {
    fixers.emplace_back([&, t] {
      Rng rng(t + 7);
      for (int i = 0; i < 400; ++i) {
        PageNum p = 1 + rng.Uniform(128);
        auto h = pool.FixPage(p, LatchMode::kShared);
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        ASSERT_EQ(h->data()[kPageSize - 1], static_cast<uint8_t>(p));
      }
    });
  }
  prefetcher.join();
  for (auto& f : fixers) f.join();
  // Every submitted read completed (the pool is being destroyed next, so
  // the scheduler must be drained), and installs never exceed issues.
  EXPECT_GE(pool.stats().prefetch_issued.load(),
            pool.stats().prefetch_installed.load());
  EXPECT_GT(pool.stats().prefetch_issued.load(), 0u);
}

TEST(BufferPoolSingleTest, PrefetchedPagesBecomeHitsNotDuplicateReads) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  std::vector<uint8_t> img(kPageSize);
  for (PageNum p = 1; p <= 16; ++p) {
    page::FormatPage(img.data(), p, 1, page::PageType::kData);
    ASSERT_TRUE(vol.WritePage(p, img.data()).ok());
  }
  BufferPool pool(&vol, SmallPool(32));
  std::vector<PageNum> ids = {1, 2, 3, 4, 5, 6, 7, 8};
  pool.PrefetchPages(ids);
  // Wait for the detached reads to land (installed count is published by
  // the worker after the table insert).
  while (pool.stats().prefetch_installed.load() < ids.size()) {
    std::this_thread::yield();
  }
  uint64_t misses_before = pool.stats().misses.load();
  for (PageNum p : ids) {
    auto h = pool.FixPage(p, LatchMode::kShared);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.stats().misses.load(), misses_before)
      << "prefetched pages must fix as hits";
}

TEST(BufferPoolSingleTest, BatchedCleanerSurvivesEvictionRaces) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(512).ok());
  BufferPoolOptions o = SmallPool(16);  // Small pool: constant eviction.
  BufferPool pool(&vol, o);
  // Writers dirty pages while cleaner passes run concurrently; eviction
  // pressure makes the cleaner and the eviction write-back race for the
  // same dirty pages (arbitrated by the in-transit claims).
  std::atomic<bool> stop{false};
  std::thread cleaner([&] {
    while (!stop.load()) {
      (void)pool.CleanerPass(8);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(t + 11);
      for (int i = 0; i < 300; ++i) {
        PageNum p = 1 + rng.Uniform(96);
        auto h = pool.FixPage(p, LatchMode::kExclusive);
        if (!h.ok()) {
          // First touch may race another first toucher; format via NewPage.
          auto nh = pool.NewPage(p);
          ASSERT_TRUE(nh.ok()) << nh.status().ToString();
          page::SlottedPage sp(nh->data());
          sp.Init(p, 1, page::PageType::kData);
          uint64_t zero = 0;
          ASSERT_TRUE(sp.Insert({reinterpret_cast<uint8_t*>(&zero),
                                 sizeof(zero)})
                          .ok());
          nh->MarkDirty(Lsn{1}, Lsn{1});
          continue;
        }
        page::SlottedPage sp(h->data());
        if (sp.header()->magic != page::kPageMagic) {
          sp.Init(p, 1, page::PageType::kData);
          uint64_t zero = 0;
          ASSERT_TRUE(sp.Insert({reinterpret_cast<uint8_t*>(&zero),
                                 sizeof(zero)})
                          .ok());
          h->MarkDirty(Lsn{1}, Lsn{1});
          continue;
        }
        auto rec = sp.Read(0);
        ASSERT_TRUE(rec.ok());
        uint64_t v;
        std::memcpy(&v, rec->data(), sizeof(v));
        ++v;
        ASSERT_TRUE(
            sp.Update(0, {reinterpret_cast<uint8_t*>(&v), sizeof(v)}).ok());
        h->MarkDirty(Lsn{v + 1}, Lsn{v + 1});
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  cleaner.join();
  // Under full contention every concurrent pass may legitimately come up
  // empty (eviction wrote the page first, or a writer held the latch and
  // TryAcquire refused to block) — so assert on a quiesced final pass:
  // the writers' last updates left resident dirty frames nothing evicted.
  ASSERT_TRUE(pool.CleanerPass(64).ok());
  EXPECT_GT(pool.stats().cleaner_writes.load(), 0u);
  // Everything the cleaner and eviction wrote must still read back
  // intact — no torn images, no lost updates from double write-back.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageNum p = 1; p <= 96; ++p) {
    auto h = pool.FixPage(p, LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    page::SlottedPage sp(const_cast<uint8_t*>(h->data()));
    if (sp.header()->magic != page::kPageMagic) continue;  // Never written.
    EXPECT_EQ(sp.header()->page_num, p);
  }
}

TEST(BufferPoolSingleTest, CleanerBatchesCoalesceAdjacentPages) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(256).ok());
  BufferPoolOptions o = SmallPool(64);
  BufferPool pool(&vol, o);
  // Dirty an adjacent page range, then run one cleaner pass: the batch
  // sorts by page id and must coalesce into far fewer device calls than
  // pages written.
  for (PageNum p = 10; p < 42; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
    h->MarkDirty(Lsn{p}, Lsn{p});
  }
  uint64_t calls_before = vol.stats().writes.load();
  uint64_t pages_before = vol.stats().pages_written.load();
  ASSERT_TRUE(pool.CleanerSweep().ok());
  uint64_t calls = vol.stats().writes.load() - calls_before;
  uint64_t pages = vol.stats().pages_written.load() - pages_before;
  EXPECT_EQ(pages, 32u);
  EXPECT_LT(calls, pages) << "adjacent dirty pages must coalesce";
  EXPECT_EQ(pool.stats().cleaner_writes.load(), 32u);
  EXPECT_GE(pool.stats().cleaner_batches.load(), 1u);
}

}  // namespace
}  // namespace shoremt::buffer
