#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "io/volume.h"
#include "page/page.h"
#include "page/slotted_page.h"
#include "space/space_manager.h"

namespace shoremt {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string ToString(std::span<const uint8_t> s) {
  return std::string(s.begin(), s.end());
}

// ---------------------------------------------------------------- page ----

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : sp_(buf_) {
    sp_.Init(7, 3, page::PageType::kData);
  }
  alignas(8) uint8_t buf_[kPageSize] = {};
  page::SlottedPage sp_;
};

TEST_F(SlottedPageTest, InitSetsHeader) {
  const page::PageHeader* h = sp_.header();
  EXPECT_EQ(h->magic, page::kPageMagic);
  EXPECT_EQ(h->page_num, 7u);
  EXPECT_EQ(h->store, 3u);
  EXPECT_EQ(h->type, page::PageType::kData);
  EXPECT_EQ(sp_.SlotCount(), 0u);
  EXPECT_TRUE(page::PageLooksValid(buf_, 7));
  EXPECT_FALSE(page::PageLooksValid(buf_, 8));
}

TEST_F(SlottedPageTest, InsertAndRead) {
  auto payload = Bytes("hello world");
  auto slot = sp_.Insert(payload);
  ASSERT_TRUE(slot.ok());
  auto read = sp_.Read(*slot);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(*read), "hello world");
  EXPECT_EQ(sp_.LiveCount(), 1u);
}

TEST_F(SlottedPageTest, MultipleRecordsKeepDistinctSlots) {
  for (int i = 0; i < 10; ++i) {
    auto slot = sp_.Insert(Bytes("record-" + std::to_string(i)));
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, i);
  }
  for (int i = 0; i < 10; ++i) {
    auto read = sp_.Read(static_cast<uint16_t>(i));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(ToString(*read), "record-" + std::to_string(i));
  }
}

TEST_F(SlottedPageTest, DeleteTombstonesAndReuses) {
  auto s0 = sp_.Insert(Bytes("aaa"));
  auto s1 = sp_.Insert(Bytes("bbb"));
  ASSERT_TRUE(s0.ok() && s1.ok());
  ASSERT_TRUE(sp_.Delete(*s0).ok());
  EXPECT_FALSE(sp_.IsLive(*s0));
  EXPECT_TRUE(sp_.Read(*s0).status().IsNotFound());
  EXPECT_TRUE(sp_.Delete(*s0).IsNotFound());
  // New insert reuses the tombstoned slot 0.
  auto s2 = sp_.Insert(Bytes("ccc"));
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, *s0);
  EXPECT_EQ(ToString(*sp_.Read(*s2)), "ccc");
}

TEST_F(SlottedPageTest, UpdateInPlaceAndGrow) {
  auto slot = sp_.Insert(Bytes("0123456789"));
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(sp_.Update(*slot, Bytes("short")).ok());
  EXPECT_EQ(ToString(*sp_.Read(*slot)), "short");
  ASSERT_TRUE(sp_.Update(*slot, Bytes(std::string(200, 'x'))).ok());
  EXPECT_EQ(sp_.Read(*slot)->size(), 200u);
}

TEST_F(SlottedPageTest, FillsUntilOutOfSpace) {
  std::vector<uint8_t> rec(100);
  int inserted = 0;
  for (;;) {
    auto slot = sp_.Insert(rec);
    if (!slot.ok()) {
      EXPECT_EQ(slot.status().code(), StatusCode::kOutOfSpace);
      break;
    }
    ++inserted;
  }
  // 8KB page, 100-byte records + 4-byte slots: ~78 fit.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  EXPECT_FALSE(sp_.Fits(100));
  EXPECT_TRUE(sp_.Fits(1));
}

TEST_F(SlottedPageTest, CompactionRecoversDeletedSpace) {
  std::vector<uint8_t> rec(500);
  std::vector<uint16_t> slots;
  while (true) {
    auto s = sp_.Insert(rec);
    if (!s.ok()) break;
    slots.push_back(*s);
  }
  // Delete every other record, then insert records that only fit after
  // compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp_.Delete(slots[i]).ok());
  }
  auto big = sp_.Insert(std::vector<uint8_t>(900));
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  // Survivors are intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_TRUE(sp_.IsLive(slots[i]));
    EXPECT_EQ(sp_.Read(slots[i])->size(), 500u);
  }
}

TEST_F(SlottedPageTest, RejectsOversizeRecord) {
  auto r = sp_.Insert(std::vector<uint8_t>(kPageSize));
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SlottedPageTest, InsertAtForRedo) {
  ASSERT_TRUE(sp_.InsertAt(0, Bytes("redo")).ok());
  EXPECT_TRUE(sp_.InsertAt(0, Bytes("dup")).code() ==
              StatusCode::kAlreadyExists);
  // Commit-order replicated replay can materialize slot 5 before 1-4:
  // the gap becomes tombstones a later InsertAt (or Insert reuse) fills.
  ASSERT_TRUE(sp_.InsertAt(5, Bytes("gap")).ok());
  EXPECT_TRUE(sp_.IsLive(5));
  EXPECT_EQ(sp_.Read(5)->size(), Bytes("gap").size());
  for (uint16_t s = 1; s < 5; ++s) EXPECT_FALSE(sp_.IsLive(s));
  ASSERT_TRUE(sp_.InsertAt(3, Bytes("fill")).ok());
  EXPECT_TRUE(sp_.IsLive(3));
}

// ------------------------------------------------------------------ io ----

TEST(MemVolumeTest, ExtendReadWriteRoundtrip) {
  io::MemVolume vol;
  EXPECT_EQ(vol.NumPages(), 0u);
  ASSERT_TRUE(vol.Extend(16).ok());
  EXPECT_EQ(vol.NumPages(), 16u);

  alignas(8) uint8_t out[kPageSize];
  alignas(8) uint8_t in[kPageSize];
  std::memset(out, 0xab, sizeof(out));
  ASSERT_TRUE(vol.WritePage(5, out).ok());
  ASSERT_TRUE(vol.ReadPage(5, in).ok());
  EXPECT_EQ(std::memcmp(out, in, kPageSize), 0);
  EXPECT_EQ(vol.stats().reads.load(), 1u);
  EXPECT_EQ(vol.stats().writes.load(), 1u);
}

TEST(MemVolumeTest, FreshPagesAreZero) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(4).ok());
  uint8_t in[kPageSize];
  ASSERT_TRUE(vol.ReadPage(3, in).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(in[i], 0);
}

TEST(MemVolumeTest, OutOfRangeAccessFails) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(2).ok());
  uint8_t buf[kPageSize] = {};
  EXPECT_EQ(vol.ReadPage(2, buf).code(), StatusCode::kIOError);
  EXPECT_EQ(vol.WritePage(9, buf).code(), StatusCode::kIOError);
}

TEST(MemVolumeTest, GrowthKeepsOldData) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(1).ok());
  uint8_t buf[kPageSize];
  std::memset(buf, 0x77, sizeof(buf));
  ASSERT_TRUE(vol.WritePage(0, buf).ok());
  ASSERT_TRUE(vol.Extend(5000).ok());  // Crosses chunk boundaries.
  uint8_t in[kPageSize];
  ASSERT_TRUE(vol.ReadPage(0, in).ok());
  EXPECT_EQ(in[100], 0x77);
}

TEST(MemVolumeTest, ConcurrentWritersDistinctPages) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&vol, t] {
      uint8_t buf[kPageSize];
      std::memset(buf, static_cast<uint8_t>(t + 1), sizeof(buf));
      for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(vol.WritePage(t * 16 + i, buf).ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  uint8_t in[kPageSize];
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(vol.ReadPage(t * 16 + 7, in).ok());
    EXPECT_EQ(in[0], t + 1);
  }
}

TEST(FileVolumeTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/shoremt_vol_test.db";
  ::unlink(path.c_str());
  {
    auto vol = io::FileVolume::Open(path);
    ASSERT_TRUE(vol.ok());
    ASSERT_TRUE((*vol)->Extend(8).ok());
    uint8_t buf[kPageSize];
    std::memset(buf, 0x5c, sizeof(buf));
    ASSERT_TRUE((*vol)->WritePage(3, buf).ok());
  }
  {
    auto vol = io::FileVolume::Open(path);
    ASSERT_TRUE(vol.ok());
    EXPECT_EQ((*vol)->NumPages(), 8u);
    uint8_t in[kPageSize];
    ASSERT_TRUE((*vol)->ReadPage(3, in).ok());
    EXPECT_EQ(in[4000], 0x5c);
  }
  ::unlink(path.c_str());
}

// --------------------------------------------------------------- space ----

class SpaceManagerTest : public ::testing::Test {
 protected:
  SpaceManagerTest() : sm_(&vol_, space::SpaceOptions{}) {}
  io::MemVolume vol_;
  space::SpaceManager sm_;
};

TEST_F(SpaceManagerTest, CreateStore) {
  EXPECT_FALSE(sm_.StoreExists(1));
  EXPECT_TRUE(sm_.CreateStore(1).ok());
  EXPECT_TRUE(sm_.StoreExists(1));
  EXPECT_EQ(sm_.CreateStore(1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(sm_.CreateStore(kInvalidStoreId).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SpaceManagerTest, AllocationFillsExtentsSequentially) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  std::vector<PageNum> pages;
  for (int i = 0; i < 12; ++i) {
    auto p = sm_.AllocatePage(1, nullptr);
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  // First 8 pages fill extent 1 (extent 0 is reserved), contiguously.
  for (int i = 1; i < 8; ++i) EXPECT_EQ(pages[i], pages[i - 1] + 1);
  EXPECT_EQ(ExtentOf(pages[0]), 1u);
  EXPECT_EQ(ExtentOf(pages[8]), 2u);
  EXPECT_EQ(*sm_.PageCountOf(1), 12u);
  EXPECT_GE(vol_.NumPages(), pages.back() + 1);
}

TEST_F(SpaceManagerTest, InitCallbackReceivesPage) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  PageNum seen = kInvalidPageNum;
  auto p = sm_.AllocatePage(1, [&](PageNum page) {
    seen = page;
    return Status::Ok();
  });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(seen, *p);
}

TEST_F(SpaceManagerTest, OwnershipTracking) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  ASSERT_TRUE(sm_.CreateStore(2).ok());
  auto p1 = sm_.AllocatePage(1, nullptr);
  auto p2 = sm_.AllocatePage(2, nullptr);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(*sm_.OwnerOf(*p1), 1u);
  EXPECT_EQ(*sm_.OwnerOf(*p2), 2u);
  EXPECT_TRUE(sm_.OwnerOf(*p1 + kPagesPerExtent * 50).status().IsNotFound());
}

TEST_F(SpaceManagerTest, ExtentCacheHitsOnRepeatedChecks) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  auto p = sm_.AllocatePage(1, nullptr);
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(sm_.OwnerOf(*p).ok());
  // First check misses, the rest hit (same thread, hot extent).
  EXPECT_GE(sm_.stats().ownership_cache_hits.load(), 99u);
}

TEST_F(SpaceManagerTest, LastPageTracksAppends) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  EXPECT_TRUE(sm_.LastPageOf(1).status().IsNotFound());
  PageNum last = kInvalidPageNum;
  for (int i = 0; i < 20; ++i) {
    auto p = sm_.AllocatePage(1, nullptr);
    ASSERT_TRUE(p.ok());
    last = *p;
  }
  EXPECT_EQ(*sm_.LastPageOf(1), last);
}

TEST(SpaceManagerStagedTest, NoLastPageCacheWalksChain) {
  io::MemVolume vol;
  space::SpaceOptions opts;
  opts.last_page_cache = false;
  space::SpaceManager sm(&vol, opts);
  ASSERT_TRUE(sm.CreateStore(1).ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(sm.AllocatePage(1, nullptr).ok());
  ASSERT_TRUE(sm.LastPageOf(1).ok());
  EXPECT_EQ(sm.stats().last_page_scan_steps.load(), 50u);
  ASSERT_TRUE(sm.LastPageOf(1).ok());
  EXPECT_EQ(sm.stats().last_page_scan_steps.load(), 100u);
}

TEST(SpaceManagerStagedTest, NoExtentCacheAlwaysMisses) {
  io::MemVolume vol;
  space::SpaceOptions opts;
  opts.extent_cache = false;
  space::SpaceManager sm(&vol, opts);
  ASSERT_TRUE(sm.CreateStore(1).ok());
  auto p = sm.AllocatePage(1, nullptr);
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(sm.OwnerOf(*p).ok());
  EXPECT_EQ(sm.stats().ownership_cache_hits.load(), 0u);
}

TEST(SpaceManagerStagedTest, FullScanOwnershipStillCorrect) {
  io::MemVolume vol;
  space::SpaceOptions opts;
  opts.extent_cache = false;
  opts.full_scan_ownership = true;
  space::SpaceManager sm(&vol, opts);
  ASSERT_TRUE(sm.CreateStore(1).ok());
  ASSERT_TRUE(sm.CreateStore(2).ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(sm.AllocatePage(1, nullptr).ok());
  auto p = sm.AllocatePage(2, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*sm.OwnerOf(*p), 2u);
}

TEST(SpaceManagerStagedTest, NonRefactoredRunsInitInsideCs) {
  // Behavioural contract only (timing covered by benches): init callback
  // still runs and failures propagate.
  io::MemVolume vol;
  space::SpaceOptions opts;
  opts.refactored_alloc = false;
  space::SpaceManager sm(&vol, opts);
  ASSERT_TRUE(sm.CreateStore(1).ok());
  auto p = sm.AllocatePage(
      1, [](PageNum) { return Status::IOError("injected"); });
  EXPECT_EQ(p.status().code(), StatusCode::kIOError);
}

TEST(SpaceManagerStagedTest, MutexKindsAllWork) {
  for (auto kind : {sync::MutexKind::kPthread, sync::MutexKind::kTtas,
                    sync::MutexKind::kMcs}) {
    io::MemVolume vol;
    space::SpaceOptions opts;
    opts.mutex_kind = kind;
    space::SpaceManager sm(&vol, opts);
    ASSERT_TRUE(sm.CreateStore(1).ok());
    ASSERT_TRUE(sm.CreateStore(2).ok());
    // Two stores allocate side by side while every thread checks the
    // owner of each page it was handed, through its extent cache.
    std::vector<std::thread> workers;
    std::vector<std::vector<PageNum>> got(4);
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        StoreId store = 1 + t % 2;
        for (int i = 0; i < 50; ++i) {
          auto p = sm.AllocatePage(store, nullptr);
          if (!p.ok()) {
            failures.fetch_add(1);
            continue;
          }
          got[t].push_back(*p);
          auto owner = sm.OwnerOf(*p);
          if (!owner.ok() || *owner != store) failures.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(*sm.PageCountOf(1), 100u);
    EXPECT_EQ(*sm.PageCountOf(2), 100u);
    // All pages distinct, and each still owned by the store that got it.
    std::set<PageNum> unique;
    for (int t = 0; t < 4; ++t) {
      for (PageNum p : got[t]) {
        unique.insert(p);
        EXPECT_EQ(*sm.OwnerOf(p), StoreId(1 + t % 2));
      }
    }
    EXPECT_EQ(unique.size(), 200u);
  }
}

TEST_F(SpaceManagerTest, RedoHooksRebuildState) {
  // Extent 3 holds pages 24..31: pages 24 and 25 allocated to store 9.
  ASSERT_TRUE(sm_.ApplyCreateStore(9).ok());
  for (int round = 0; round < 2; ++round) {  // Applying twice is a no-op.
    ASSERT_TRUE(sm_.ApplyExtent(3, {9, 0b01}).ok());
    ASSERT_TRUE(sm_.ApplyExtent(3, {9, 0b11}).ok());
    EXPECT_EQ(*sm_.PageCountOf(9), 2u);
    EXPECT_EQ(*sm_.OwnerOf(24), 9u);
    EXPECT_EQ(*sm_.OwnerOf(25), 9u);
    EXPECT_EQ(*sm_.LastPageOf(9), 25u);
  }
  EXPECT_GE(vol_.NumPages(), 32u);
  // A store whose creation record was recycled is created by the apply.
  ASSERT_TRUE(sm_.ApplyExtent(1, {4, 0b100}).ok());
  EXPECT_TRUE(sm_.StoreExists(4));
  EXPECT_EQ(*sm_.LastPageOf(4), 10u);
  // A conflicting owner and malformed entries are rejected.
  ASSERT_TRUE(sm_.ApplyCreateStore(10).ok());
  EXPECT_EQ(sm_.ApplyExtent(3, {10, 0b100}).code(), StatusCode::kCorruption);
  EXPECT_EQ(sm_.ApplyExtent(0, {10, 0b1}).code(), StatusCode::kCorruption);
  EXPECT_EQ(sm_.ApplyExtent(5, {kInvalidStoreId, 0b1}).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(sm_.ApplyExtent(5, {10, 0}).code(), StatusCode::kCorruption);
  EXPECT_EQ(*sm_.PageCountOf(9), 2u);
  // New extents continue past the applied ones.
  auto p = sm_.AllocatePage(10, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(ExtentOf(*p), 4u);
}

TEST_F(SpaceManagerTest, SnapshotReplaysIntoAnEqualMap) {
  ASSERT_TRUE(sm_.CreateStore(1).ok());
  ASSERT_TRUE(sm_.CreateStore(2).ok());
  ASSERT_TRUE(sm_.CreateStore(3).ok());  // Never gets a page.
  for (int i = 0; i < 11; ++i) ASSERT_TRUE(sm_.AllocatePage(1, nullptr).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sm_.AllocatePage(2, nullptr).ok());
  std::vector<StoreId> stores;
  std::vector<ExtentEntry> extents;
  sm_.Snapshot(&stores, &extents);
  EXPECT_EQ(std::set<StoreId>(stores.begin(), stores.end()),
            (std::set<StoreId>{1, 2, 3}));
  ASSERT_EQ(extents.size(), 4u);  // Reserved extent 0, then 1, 2 and 3.
  EXPECT_EQ(extents[1], (ExtentEntry{1, 0xff}));
  EXPECT_EQ(extents[2], (ExtentEntry{1, 0b111}));
  EXPECT_EQ(extents[3], (ExtentEntry{2, 0b111}));

  io::MemVolume vol;
  space::SpaceManager copy(&vol, space::SpaceOptions{});
  for (StoreId s : stores) ASSERT_TRUE(copy.ApplyCreateStore(s).ok());
  for (ExtentId x = 1; x < extents.size(); ++x) {
    ASSERT_TRUE(copy.ApplyExtent(x, extents[x]).ok());
  }
  EXPECT_TRUE(copy.StoreExists(3));
  EXPECT_EQ(*copy.PageCountOf(1), 11u);
  EXPECT_EQ(*copy.PageCountOf(2), 3u);
  EXPECT_EQ(*copy.PageCountOf(3), 0u);
  EXPECT_EQ(*copy.LastPageOf(1), *sm_.LastPageOf(1));
  EXPECT_EQ(*copy.LastPageOf(2), *sm_.LastPageOf(2));
  // Both hand out the same next page.
  EXPECT_EQ(*copy.AllocatePage(1, nullptr), *sm_.AllocatePage(1, nullptr));
  EXPECT_EQ(*copy.AllocatePage(3, nullptr), *sm_.AllocatePage(3, nullptr));
}

}  // namespace
}  // namespace shoremt
