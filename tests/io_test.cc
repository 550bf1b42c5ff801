#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "io/io_scheduler.h"
#include "io/volume.h"

namespace shoremt::io {
namespace {

/// A volume filled with per-page fingerprints so reads are verifiable.
std::unique_ptr<MemVolume> MakeVolume(PageNum pages,
                                      VolumeOptions options = {}) {
  auto vol = std::make_unique<MemVolume>(options);
  EXPECT_TRUE(vol->Extend(pages).ok());
  std::vector<uint8_t> buf(kPageSize);
  for (PageNum p = 0; p < pages; ++p) {
    std::memset(buf.data(), static_cast<int>(p % 251), kPageSize);
    EXPECT_TRUE(vol->WritePage(p, buf.data()).ok());
  }
  return vol;
}

bool PageHasFingerprint(const uint8_t* buf, PageNum p) {
  uint8_t want = static_cast<uint8_t>(p % 251);
  for (size_t i = 0; i < kPageSize; ++i) {
    if (buf[i] != want) return false;
  }
  return true;
}

// ----------------------------------------------------------- vectored ops --

TEST(VolumeVectored, MemVolumeReadWriteRoundTrip) {
  auto vol = MakeVolume(16);
  uint64_t calls_before = vol->stats().reads.load();

  std::vector<std::vector<uint8_t>> bufs(4, std::vector<uint8_t>(kPageSize));
  uint8_t* ptrs[4];
  for (int i = 0; i < 4; ++i) ptrs[i] = bufs[i].data();
  ASSERT_TRUE(vol->ReadPagesV(3, ptrs, 4).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(PageHasFingerprint(ptrs[i], 3 + i)) << "page " << 3 + i;
  }
  // One device call for four pages — the accounting must say so.
  EXPECT_EQ(vol->stats().reads.load(), calls_before + 1);
  EXPECT_EQ(vol->stats().batched_reads.load(), 1u);

  for (int i = 0; i < 4; ++i) std::memset(ptrs[i], 0xAB, kPageSize);
  const uint8_t* cptrs[4] = {ptrs[0], ptrs[1], ptrs[2], ptrs[3]};
  ASSERT_TRUE(vol->WritePagesV(8, cptrs, 4).ok());
  std::vector<uint8_t> check(kPageSize);
  for (PageNum p = 8; p < 12; ++p) {
    ASSERT_TRUE(vol->ReadPage(p, check.data()).ok());
    EXPECT_EQ(check[0], 0xAB);
    EXPECT_EQ(check[kPageSize - 1], 0xAB);
  }
}

TEST(VolumeVectored, BoundsCheckedAsAWhole) {
  auto vol = MakeVolume(4);
  std::vector<uint8_t> a(kPageSize), b(kPageSize);
  uint8_t* ptrs[2] = {a.data(), b.data()};
  // First page valid, second past the end: the whole run must fail.
  EXPECT_FALSE(vol->ReadPagesV(3, ptrs, 2).ok());
  const uint8_t* cptrs[2] = {a.data(), b.data()};
  EXPECT_FALSE(vol->WritePagesV(3, cptrs, 2).ok());
}

TEST(VolumeVectored, MemVolumeExtendRacesReadsAndWrites) {
  // I/O workers index the chunk directory without the growth mutex, so
  // growth must never move it. Readers verify fingerprints and the
  // zero-filled tail the extender just published; the writer rewrites
  // its own pages in place.
  constexpr PageNum kBase = 64;
  constexpr PageNum kStep = 1024;  // One chunk per Extend.
  constexpr int kSteps = 15;
  auto vol = MakeVolume(kBase);
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> io;
  for (int r = 0; r < 2; ++r) {
    io.emplace_back([&, r] {
      std::vector<uint8_t> buf(kPageSize);
      for (PageNum i = r; !done.load(); ++i) {
        PageNum p = i % (kBase / 2);
        if (!vol->ReadPage(p, buf.data()).ok() ||
            !PageHasFingerprint(buf.data(), p)) {
          bad.fetch_add(1);
        }
        PageNum tail = vol->NumPages() - 1;
        if (tail >= kBase && (!vol->ReadPage(tail, buf.data()).ok() ||
                              buf[0] != 0 || buf[kPageSize - 1] != 0)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  io.emplace_back([&] {
    std::vector<uint8_t> buf(kPageSize);
    for (PageNum i = 0; !done.load(); ++i) {
      PageNum p = kBase / 2 + i % (kBase / 2);
      std::memset(buf.data(), static_cast<int>(p % 251), kPageSize);
      if (!vol->WritePage(p, buf.data()).ok()) bad.fetch_add(1);
    }
  });
  for (int s = 1; s <= kSteps; ++s) {
    EXPECT_TRUE(vol->Extend(kBase + s * kStep).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  for (auto& t : io) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(vol->NumPages(), kBase + kSteps * kStep);
  std::vector<uint8_t> buf(kPageSize);
  for (PageNum p = 0; p < kBase; ++p) {
    ASSERT_TRUE(vol->ReadPage(p, buf.data()).ok());
    EXPECT_TRUE(PageHasFingerprint(buf.data(), p)) << "page " << p;
  }
}

TEST(VolumeVectored, FileVolumePreadvPwritev) {
  std::string path = testing::TempDir() + "/io_test_vol.bin";
  std::remove(path.c_str());
  auto opened = FileVolume::Open(path);
  ASSERT_TRUE(opened.ok());
  auto vol = std::move(*opened);
  ASSERT_TRUE(vol->Extend(8).ok());

  std::vector<std::vector<uint8_t>> bufs(3, std::vector<uint8_t>(kPageSize));
  for (int i = 0; i < 3; ++i) {
    std::memset(bufs[i].data(), 0x30 + i, kPageSize);
  }
  const uint8_t* w[3] = {bufs[0].data(), bufs[1].data(), bufs[2].data()};
  ASSERT_TRUE(vol->WritePagesV(2, w, 3).ok());

  std::vector<std::vector<uint8_t>> in(3, std::vector<uint8_t>(kPageSize));
  uint8_t* r[3] = {in[0].data(), in[1].data(), in[2].data()};
  ASSERT_TRUE(vol->ReadPagesV(2, r, 3).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(std::memcmp(in[i].data(), bufs[i].data(), kPageSize), 0);
  }
  std::remove(path.c_str());
}

TEST(VolumeVectored, DirectIoRequestFallsBackGracefully) {
  // On tmpfs O_DIRECT is rejected; the open must still succeed buffered
  // and I/O must work either way.
  std::string path = testing::TempDir() + "/io_test_direct.bin";
  std::remove(path.c_str());
  VolumeOptions options;
  options.direct_io = true;
  auto opened = FileVolume::Open(path, options);
  ASSERT_TRUE(opened.ok());
  auto vol = std::move(*opened);
  ASSERT_TRUE(vol->Extend(4).ok());
  // Deliberately misaligned buffer: the direct path must bounce, the
  // buffered path doesn't care.
  std::vector<uint8_t> raw(kPageSize + 64);
  uint8_t* misaligned = raw.data() + 1;
  std::memset(misaligned, 0x77, kPageSize);
  ASSERT_TRUE(vol->WritePage(1, misaligned).ok());
  std::vector<uint8_t> check(kPageSize);
  ASSERT_TRUE(vol->ReadPage(1, check.data()).ok());
  EXPECT_EQ(check[0], 0x77);
  EXPECT_EQ(check[kPageSize - 1], 0x77);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- scheduler ---

TEST(IoScheduler, RingSubmitPollHarvestsEveryCompletion) {
  auto vol = MakeVolume(64);
  IoScheduler sched(vol.get());
  auto ring = sched.CreateRing();

  std::mutex mu;
  std::map<PageNum, bool> seen;  // page -> fingerprint ok
  std::vector<std::vector<uint8_t>> bufs(32, std::vector<uint8_t>(kPageSize));
  for (PageNum p = 0; p < 32; ++p) {
    ring->QueueRead(p, bufs[p].data(), [&, p](PageNum page, Status st) {
      ASSERT_TRUE(st.ok());
      ASSERT_EQ(page, p);
      std::lock_guard<std::mutex> g(mu);
      seen[p] = PageHasFingerprint(bufs[p].data(), p);
    });
  }
  ring->Submit();
  size_t harvested = 0;
  while (harvested < 32) {
    harvested += ring->Poll();
    std::this_thread::yield();
  }
  EXPECT_EQ(harvested, 32u);
  EXPECT_EQ(ring->in_flight(), 0u);
  EXPECT_TRUE(ring->Drain().ok());
  std::lock_guard<std::mutex> g(mu);
  ASSERT_EQ(seen.size(), 32u);
  for (const auto& [page, ok] : seen) EXPECT_TRUE(ok) << "page " << page;
}

TEST(IoScheduler, CoalescesAdjacentRunsIntoSingleDeviceCalls) {
  auto vol = MakeVolume(64);
  IoSchedulerOptions options;
  options.workers = 1;  // Deterministic device-call accounting.
  options.max_run_pages = 16;
  IoScheduler sched(vol.get(), options);
  auto ring = sched.CreateRing();

  // Three adjacent runs with gaps: [4..9], [20..21], [40].
  std::vector<std::vector<uint8_t>> bufs(9, std::vector<uint8_t>(kPageSize));
  size_t i = 0;
  for (PageNum p : {4, 5, 6, 7, 8, 9, 20, 21, 40}) {
    ring->QueueRead(p, bufs[i++].data());
  }
  EXPECT_EQ(ring->Submit(), 3u);
  ASSERT_TRUE(ring->Drain().ok());

  EXPECT_EQ(sched.stats().device_calls.load(), 3u);
  EXPECT_EQ(sched.stats().batched_calls.load(), 2u);       // 6-run + 2-run.
  EXPECT_EQ(sched.stats().coalesced_pages.load(), 6u);     // (6-1) + (2-1).
  EXPECT_EQ(sched.stats().submitted.load(), 9u);
  EXPECT_EQ(sched.stats().completed.load(), 9u);
  i = 0;
  for (PageNum p : {4, 5, 6, 7, 8, 9, 20, 21, 40}) {
    EXPECT_TRUE(PageHasFingerprint(bufs[i++].data(), p)) << "page " << p;
  }
}

TEST(IoScheduler, CoalescingRespectsKindAndRunCap) {
  auto vol = MakeVolume(64);
  IoSchedulerOptions options;
  options.workers = 1;
  options.max_run_pages = 4;
  IoScheduler sched(vol.get(), options);
  auto ring = sched.CreateRing();

  // 8 adjacent pages with a 4-page cap -> 2 runs; a write wedged between
  // adjacent reads always breaks the run.
  std::vector<std::vector<uint8_t>> bufs(11, std::vector<uint8_t>(kPageSize));
  for (int k = 0; k < 8; ++k) ring->QueueRead(k, bufs[k].data());
  EXPECT_EQ(ring->Submit(), 2u);

  ring->QueueRead(20, bufs[8].data());
  ring->QueueWrite(21, bufs[9].data());
  ring->QueueRead(22, bufs[10].data());
  EXPECT_EQ(ring->Submit(), 3u);
  ASSERT_TRUE(ring->Drain().ok());
}

TEST(IoScheduler, BoundedWindowExertsBackpressure) {
  VolumeOptions vol_options;
  vol_options.write_latency_ns = 200'000;  // 200us per device call.
  auto vol = MakeVolume(64, vol_options);
  IoSchedulerOptions options;
  options.workers = 1;
  options.ring_window = 2;
  options.max_run_pages = 1;  // Every request is its own run.
  IoScheduler sched(vol.get(), options);
  auto ring = sched.CreateRing();

  std::vector<uint8_t> buf(kPageSize, 0x11);
  // Non-adjacent writes so nothing coalesces: 8 requests through a
  // window of 2 must block Submit at least once.
  for (PageNum p = 0; p < 16; p += 2) ring->QueueWrite(p, buf.data());
  ring->Submit();
  ASSERT_TRUE(ring->Drain().ok());
  EXPECT_GT(sched.stats().backpressure_waits.load(), 0u);
  EXPECT_EQ(sched.stats().completed.load(), 8u);
}

TEST(IoScheduler, ErrorsAreStickyPerRequestNotPerBatch) {
  auto vol = MakeVolume(8);  // Pages 0..7 valid.
  IoSchedulerOptions options;
  options.workers = 1;
  IoScheduler sched(vol.get(), options);
  auto ring = sched.CreateRing();

  std::vector<uint8_t> buf(kPageSize, 0x22);
  std::mutex mu;
  std::map<PageNum, bool> ok_by_page;
  auto record = [&](PageNum page, Status st) {
    std::lock_guard<std::mutex> g(mu);
    ok_by_page[page] = st.ok();
  };
  // Three separate runs (gaps force the split): valid, past-the-end
  // (fails), valid. The middle failure must not poison its neighbors.
  ring->QueueWrite(2, buf.data(), record);
  ring->QueueWrite(100, buf.data(), record);
  ring->QueueWrite(5, buf.data(), record);
  EXPECT_EQ(ring->Submit(), 3u);

  Status st = ring->Drain();
  EXPECT_FALSE(st.ok()) << "drain must surface the sticky first error";
  std::lock_guard<std::mutex> g(mu);
  EXPECT_TRUE(ok_by_page[2]);
  EXPECT_FALSE(ok_by_page[100]);
  EXPECT_TRUE(ok_by_page[5]);
  EXPECT_EQ(sched.stats().errors.load(), 1u);
  // A second drain after the error was consumed reports clean.
  EXPECT_TRUE(ring->Drain().ok());
}

TEST(IoScheduler, DetachedSubmissionRecyclesSlotsAndShedsWhenFull) {
  auto vol = MakeVolume(16);
  IoSchedulerOptions options;
  options.workers = 2;
  options.slots = 4;
  IoScheduler sched(vol.get(), options);

  std::atomic<size_t> done{0};
  std::vector<std::vector<uint8_t>> bufs(64, std::vector<uint8_t>(kPageSize));
  size_t accepted = 0;
  for (size_t k = 0; k < 64; ++k) {
    Status st = sched.TrySubmitDetached(
        IoOpKind::kRead, k % 16, bufs[k].data(),
        [&](PageNum, Status s) {
          ASSERT_TRUE(s.ok());
          done.fetch_add(1);
        });
    if (st.ok()) {
      ++accepted;
    } else {
      EXPECT_TRUE(st.IsBusy()) << st.ToString();
    }
  }
  EXPECT_GT(accepted, 0u);
  while (done.load() < accepted) std::this_thread::yield();
  // Slots recycled: a fresh submission after the storm must fit again.
  EXPECT_TRUE(sched
                  .TrySubmitDetached(IoOpKind::kRead, 0, bufs[0].data(),
                                     [&](PageNum, Status) { done.fetch_add(1); })
                  .ok());
  while (done.load() < accepted + 1) std::this_thread::yield();
}

TEST(IoScheduler, TeardownWithInFlightOpsExecutesEverythingQueued) {
  VolumeOptions vol_options;
  vol_options.write_latency_ns = 100'000;
  auto vol = MakeVolume(32, vol_options);
  std::atomic<size_t> done{0};
  std::vector<uint8_t> buf(kPageSize, 0x33);
  {
    IoSchedulerOptions options;
    options.workers = 1;
    options.max_run_pages = 1;
    IoScheduler sched(vol.get(), options);
    auto ring = sched.CreateRing();
    for (PageNum p = 0; p < 24; p += 2) {
      ring->QueueWrite(p, buf.data(),
                       [&](PageNum, Status) { done.fetch_add(1); });
    }
    ring->Submit();
    // Destroy ring + scheduler immediately: the ring drains, the
    // scheduler executes whatever is still queued before stopping.
  }
  EXPECT_EQ(done.load(), 12u);
  std::vector<uint8_t> check(kPageSize);
  for (PageNum p = 0; p < 24; p += 2) {
    ASSERT_TRUE(vol->ReadPage(p, check.data()).ok());
    EXPECT_EQ(check[0], 0x33) << "page " << p;
  }
}

}  // namespace
}  // namespace shoremt::io
