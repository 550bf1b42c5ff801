/// Tests for the persistence spine's log-lifecycle loop: segmented log
/// storage with recycling, the dirty-page table's incremental low-water
/// mark, the background page cleaner, and fuzzy checkpoints that bound
/// recovery's redo scan. The concurrency cases (cleaner/checkpoint racing
/// a live workload) run under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/random.h"
#include "io/volume.h"
#include "log/log_manager.h"
#include "log/log_storage.h"
#include "page/page.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt {
namespace {

using buffer::BufferPool;
using buffer::BufferPoolOptions;
using log::LogStorage;

// ------------------------------------------------------ segmented storage --

TEST(SegmentedLogTest, AppendsSpanSegments) {
  LogStorage storage(0, /*segment_bytes=*/64);
  std::vector<uint8_t> rec(40);
  for (uint8_t round = 0; round < 10; ++round) {
    for (auto& b : rec) b = round;
    ASSERT_TRUE(storage.Append(rec).ok());
  }
  EXPECT_EQ(storage.size(), 400u);
  EXPECT_EQ(storage.segments_allocated(), (400 + 63) / 64);
  EXPECT_EQ(storage.live_segments(), storage.segments_allocated());
  // Reads cross segment boundaries transparently.
  std::vector<uint8_t> out;
  ASSERT_TRUE(storage.Read(35, 10, &out).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}));
  ASSERT_TRUE(storage.Read(0, 400, &out).ok());
  EXPECT_EQ(out.size(), 400u);
  EXPECT_EQ(storage.Read(395, 10, &out).code(), StatusCode::kIOError);
  // AppendV across a boundary is still one device call.
  uint64_t calls = storage.flush_calls();
  std::vector<uint8_t> a(50, 7), b(50, 8);
  std::span<const uint8_t> parts[2] = {a, b};
  ASSERT_TRUE(storage.AppendV(parts).ok());
  EXPECT_EQ(storage.flush_calls(), calls + 1);
  ASSERT_TRUE(storage.Read(400, 100, &out).ok());
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[99], 8);
}

TEST(SegmentedLogTest, RecycleFreesWholeSegmentsBelowHorizon) {
  LogStorage storage(0, 64);
  ASSERT_TRUE(storage.Append(std::vector<uint8_t>(256, 0xaa)).ok());
  EXPECT_EQ(storage.live_segments(), 4u);
  // Horizon mid-segment: only fully-covered segments go.
  EXPECT_EQ(storage.Recycle(Lsn{97}), 1u);  // offset 96: frees [0,64).
  EXPECT_EQ(storage.live_segments(), 3u);
  EXPECT_EQ(storage.segments_recycled(), 1u);
  EXPECT_EQ(storage.reclaim_horizon(), Lsn{97});
  // Bytes at/above the horizon stay readable, even in the straddling
  // segment; bytes in freed segments are gone.
  std::vector<uint8_t> out;
  ASSERT_TRUE(storage.Read(96, 32, &out).ok());
  ASSERT_TRUE(storage.Read(64, 32, &out).ok());  // Straddling segment kept.
  EXPECT_EQ(storage.Read(32, 16, &out).code(), StatusCode::kIOError);
  // Recycle is monotonic: a lower horizon is a no-op.
  EXPECT_EQ(storage.Recycle(Lsn{10}), 0u);
  EXPECT_EQ(storage.reclaim_horizon(), Lsn{97});
  // A partially-filled tail segment is never freed (it is still being
  // appended to); full segments below the horizon all go.
  ASSERT_TRUE(storage.Append(std::vector<uint8_t>(8, 0xcc)).ok());
  EXPECT_EQ(storage.Recycle(Lsn{storage.size() + 1}), 3u);
  EXPECT_EQ(storage.live_segments(), 1u);
  // Appends continue at the same absolute offsets.
  uint64_t before = storage.size();
  ASSERT_TRUE(storage.Append(std::vector<uint8_t>(8, 0xbb)).ok());
  ASSERT_TRUE(storage.Read(before, 8, &out).ok());
  EXPECT_EQ(out[0], 0xbb);
}

TEST(SegmentedLogTest, HorizonSurvivesManagerReattach) {
  LogStorage storage(0, 64);
  {
    log::LogManager mgr(&storage, log::LogOptions{});
    log::LogRecord rec;
    rec.type = log::LogRecordType::kPageInsert;
    rec.after.assign(100, 0xcd);
    Lsn cut;
    for (int i = 0; i < 10; ++i) {
      auto a = mgr.Append(rec);
      ASSERT_TRUE(a.ok());
      if (i == 4) cut = a->end;
    }
    ASSERT_TRUE(mgr.FlushAll().ok());
    EXPECT_GT(mgr.Recycle(cut), 0u);
    EXPECT_GT(mgr.stats().segments_recycled.load(), 0u);
  }
  // A fresh manager (post-crash attach) sees the persisted horizon and
  // scans only live records.
  log::LogManager mgr2(&storage, log::LogOptions{});
  EXPECT_EQ(mgr2.reclaim_horizon(), storage.reclaim_horizon());
  EXPECT_GT(mgr2.reclaim_horizon(), Lsn{1});
  size_t seen = 0;
  Lsn first_seen;
  ASSERT_TRUE(mgr2.Scan([&](const log::LogRecord& r, Lsn) {
                    if (seen++ == 0) first_seen = r.lsn;
                    return Status::Ok();
                  }).ok());
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(first_seen, mgr2.reclaim_horizon());
}

// ------------------------------------------------- dirty-page table / DPT --

BufferPoolOptions SmallPool(size_t frames) {
  BufferPoolOptions o;
  o.frame_count = frames;
  return o;
}

TEST(DirtyPageTableTest, IncrementalMinMatchesFullScan) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(16));
  EXPECT_TRUE(pool.DirtyMinRecLsn().IsNull());
  for (PageNum p = 1; p <= 5; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
    h->MarkDirty(Lsn{100 - p * 10}, Lsn{100 - p * 10});  // 90, 80, 70, 60, 50.
  }
  EXPECT_EQ(pool.DirtyPageCount(), 5u);
  EXPECT_EQ(pool.DirtyMinRecLsn(), pool.ScanMinRecLsn());
  EXPECT_EQ(pool.DirtyMinRecLsn().value, 50u);
  // Writing back the oldest page advances the incremental min.
  ASSERT_TRUE(pool.FlushPage(5).ok());
  EXPECT_EQ(pool.DirtyMinRecLsn().value, 60u);
  EXPECT_EQ(pool.DirtyMinRecLsn(), pool.ScanMinRecLsn());
  // Re-dirtying keeps the FIRST dirty LSN while dirty.
  {
    auto h = pool.FixPage(4, sync::LatchMode::kExclusive);
    ASSERT_TRUE(h.ok());
    h->MarkDirty(Lsn{500}, Lsn{500});
  }
  EXPECT_EQ(pool.DirtyMinRecLsn().value, 60u);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.DirtyPageCount(), 0u);
  EXPECT_TRUE(pool.DirtyMinRecLsn().IsNull());
}

TEST(DirtyPageTableTest, EvictionWritebackErasesEntry) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(4));
  // Dirty every frame, then fix enough new pages to force evictions.
  for (PageNum p = 1; p <= 4; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
    h->MarkDirty(Lsn{p}, Lsn{p});
  }
  EXPECT_EQ(pool.DirtyPageCount(), 4u);
  for (PageNum p = 10; p < 14; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
  }
  // The evicted dirty pages were written back and left the table.
  EXPECT_LT(pool.DirtyPageCount(), 4u);
  EXPECT_GT(pool.stats().dirty_writebacks.load(), 0u);
}

TEST(CleanerTest, IncrementalPassDrainsOldestFirst) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPool pool(&vol, SmallPool(16));
  for (PageNum p = 1; p <= 8; ++p) {
    auto h = pool.NewPage(p);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), p, 1, page::PageType::kData);
    h->MarkDirty(Lsn{p * 10}, Lsn{p * 10});
  }
  // A batch of 3 writes back the three OLDEST rec_lsns (10, 20, 30).
  ASSERT_TRUE(pool.CleanerPass(3).ok());
  EXPECT_EQ(pool.stats().cleaner_writes.load(), 3u);
  EXPECT_EQ(pool.DirtyPageCount(), 5u);
  EXPECT_EQ(pool.DirtyMinRecLsn().value, 40u);
  ASSERT_TRUE(pool.CleanerPass(0).ok());
  EXPECT_EQ(pool.DirtyPageCount(), 0u);
}

TEST(CleanerTest, WakeCleanerDrainsWithoutWaitingForInterval) {
  io::MemVolume vol;
  ASSERT_TRUE(vol.Extend(64).ok());
  BufferPoolOptions o = SmallPool(16);
  o.enable_cleaner = true;
  o.cleaner_interval_us = 60'000'000;  // Never ticks within the test.
  BufferPool pool(&vol, o);
  {
    auto h = pool.NewPage(1);
    ASSERT_TRUE(h.ok());
    page::FormatPage(h->data(), 1, 1, page::PageType::kData);
    h->MarkDirty(Lsn{7}, Lsn{7});
  }
  pool.WakeCleaner();
  for (int i = 0; i < 2000 && pool.DirtyPageCount() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.DirtyPageCount(), 0u);
  EXPECT_GE(pool.stats().cleaner_writes.load(), 1u);
}

// --------------------------------------- checkpoint + recycle + recovery --

sm::StorageOptions BoundedLogOptions(bool cleaner_daemon,
                                     bool checkpoint_daemon) {
  sm::StorageOptions o = sm::StorageOptions::ForStage(sm::Stage::kFinal);
  o.log.segment_bytes = 4096;
  o.log.recycle_pressure_segments = 4;
  o.buffer.enable_cleaner = cleaner_daemon;
  o.buffer.cleaner_interval_us = 500;
  o.checkpoint_daemon = checkpoint_daemon;
  o.checkpoint_interval_ms = 5;
  return o;
}

std::vector<uint8_t> Row(uint64_t key) {
  std::vector<uint8_t> payload(64);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(key + i);
  }
  return payload;
}

/// The acceptance loop: a sustained insert workload with explicit
/// checkpoints holds live segments bounded while old segments recycle;
/// crash recovery replays only from the checkpoint low-water mark
/// (redo_scan_bytes ≪ total log bytes) and reproduces the exact state.
TEST(CheckpointRecycleTest, BoundedLogCrashRecoveryMatchesModel) {
  io::MemVolume volume;
  LogStorage wal(0, 4096);
  std::map<uint64_t, std::vector<uint8_t>> committed;
  {
    auto db = std::move(*sm::StorageManager::Open(
        BoundedLogOptions(/*cleaner=*/true, /*checkpoint=*/false), &volume,
        &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (int round = 0; round < 40; ++round) {
      ASSERT_TRUE(session->Begin().ok());
      for (int i = 0; i < 25; ++i) {
        uint64_t key = static_cast<uint64_t>(round) * 25 + i;
        ASSERT_TRUE(session->Insert(*table, key, Row(key)).ok());
        committed[key] = Row(key);
      }
      ASSERT_TRUE(session->Commit().ok());
      if (round % 5 == 4) {
        // Deterministic loop: drain dirt, checkpoint, recycle.
        ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    // The log was recycled while the workload ran and stayed bounded.
    EXPECT_GT(db->log()->stats().segments_recycled.load(), 5u);
    EXPECT_LT(db->log()->live_segments(),
              db->log()->stats().segments_allocated.load());
    EXPECT_GT(db->log()->reclaim_horizon(), Lsn{1});
    session.reset();
    db->SimulateCrash();
  }
  uint64_t total_bytes = wal.size();

  auto reopened = sm::StorageManager::Open(
      BoundedLogOptions(false, false), &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;

  // Redo started at the checkpoint low-water mark, not LSN 1: the scanned
  // window is a small fraction of everything ever logged.
  uint64_t redo_scanned = db->log()->stats().redo_scan_bytes.load();
  EXPECT_GT(redo_scanned, 0u);
  EXPECT_LT(redo_scanned, total_bytes / 4);
  // And it equals exactly the tail above the last checkpoint's redo LSN.
  Lsn last_redo;
  ASSERT_TRUE(db->log()
                  ->Scan([&](const log::LogRecord& rec, Lsn) {
                    if (rec.type == log::LogRecordType::kCheckpoint) {
                      log::CheckpointBody body;
                      SHOREMT_RETURN_NOT_OK(
                          DeserializeCheckpoint(rec.after, &body));
                      last_redo = body.redo_lsn;
                    }
                    return Status::Ok();
                  })
                  .ok());
  ASSERT_FALSE(last_redo.IsNull());
  EXPECT_EQ(redo_scanned, total_bytes - (last_redo.value - 1));

  // State equivalence: exactly the committed rows, byte for byte.
  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->OpenTable("t");
  ASSERT_TRUE(table.ok());
  size_t rows = 0;
  auto cur = session->OpenCursor(*table);
  for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
    auto it = committed.find(cur.key());
    ASSERT_NE(it, committed.end()) << "leaked key " << cur.key();
    EXPECT_TRUE(std::equal(cur.value().begin(), cur.value().end(),
                           it->second.begin(), it->second.end()))
        << "corrupt key " << cur.key();
    ++rows;
  }
  EXPECT_EQ(rows, committed.size());
  ASSERT_TRUE(session->Commit().ok());
}

/// Every checkpoint carries the catalog and space map, so each one
/// recycles the log up to its own redo LSN: with no dirty page and no
/// active transaction, at most the segment holding that LSN and the one the
/// checkpoint record spills into stay live. Once recycling has passed the
/// creation records of a loaded table and of an empty one, a crash and
/// reopen restores both from the newest body, and the space map hands out
/// no page twice.
TEST(CheckpointRecycleTest, RecyclingFollowsEveryCheckpoint) {
  io::MemVolume volume;
  LogStorage wal(0, 4096);
  sm::TableInfo loaded_info;
  std::set<PageNum> loaded_pages;
  uint64_t rows = 0;
  {
    auto db = std::move(*sm::StorageManager::Open(
        BoundedLogOptions(/*cleaner=*/false, /*checkpoint=*/false), &volume,
        &wal));
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto loaded = s->CreateTable("loaded");
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(s->CreateTable("empty").ok());
    ASSERT_TRUE(s->Commit().ok());
    loaded_info = *loaded;
    Lsn created = db->log()->next_lsn();
    for (int round = 0; round < 8; ++round) {
      Lsn start = db->log()->next_lsn();
      while (db->log()->next_lsn().value - start.value < 3 * 4096) {
        ASSERT_TRUE(s->Begin().ok());
        for (int i = 0; i < 10; ++i, ++rows) {
          auto rid = s->Insert(*loaded, rows, Row(rows));
          ASSERT_TRUE(rid.ok());
          loaded_pages.insert(rid->page);
        }
        ASSERT_TRUE(s->Commit().ok());
      }
      ASSERT_TRUE(db->pool()->FlushAll().ok());
      ASSERT_TRUE(db->Checkpoint().ok());
      EXPECT_LE(db->log()->live_segments(), 2u) << "round " << round + 1;
    }
    EXPECT_GT(db->log()->reclaim_horizon(), created);
    s.reset();
    db->SimulateCrash();
  }
  auto reopened = sm::StorageManager::Open(BoundedLogOptions(false, false),
                                           &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;
  auto s = db->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  auto loaded = s->OpenTable("loaded");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->heap_store, loaded_info.heap_store);
  auto empty = s->OpenTable("empty");
  ASSERT_TRUE(empty.ok());
  std::set<PageNum> empty_pages;
  for (uint64_t key = 0; key < 100; ++key) {
    auto rid = s->Insert(*empty, key, Row(key));
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    empty_pages.insert(rid->page);
  }
  ASSERT_TRUE(s->Insert(*loaded, rows, Row(rows)).ok());
  ASSERT_TRUE(s->Commit().ok());
  for (PageNum p : loaded_pages) {
    auto owner = db->space()->OwnerOf(p);
    ASSERT_TRUE(owner.ok()) << "page " << p;
    EXPECT_EQ(*owner, loaded->heap_store) << "page " << p;
    EXPECT_FALSE(empty_pages.contains(p)) << "page " << p << " reused";
  }
  for (PageNum p : empty_pages) {
    EXPECT_EQ(*db->space()->OwnerOf(p), empty->heap_store) << "page " << p;
  }
  ASSERT_TRUE(s->Begin().ok());
  uint64_t seen = 0;
  auto cur = s->OpenCursor(*loaded);
  for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
    ASSERT_EQ(cur.key(), seen);
    ++seen;
  }
  EXPECT_EQ(seen, rows + 1);
  EXPECT_TRUE(s->Read(*empty, 99).ok());
  ASSERT_TRUE(s->Commit().ok());
}

/// Randomized property: recycling mid-workload (checkpoints interleaved
/// with updates/deletes/aborts and an in-flight loser at the crash) never
/// loses committed state or leaks uncommitted state — recovery from the
/// truncated-scan log equals the full-scan reference model.
TEST(CheckpointRecycleTest, RecycledLogRecoveryProperty) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    io::MemVolume volume;
    LogStorage wal(0, 4096);
    std::map<uint64_t, std::vector<uint8_t>> committed;
    {
      auto db = std::move(*sm::StorageManager::Open(
          BoundedLogOptions(true, false), &volume, &wal));
      auto s = db->OpenSession();
      ASSERT_TRUE(s->Begin().ok());
      auto table = s->CreateTable("t");
      ASSERT_TRUE(table.ok());
      ASSERT_TRUE(s->Commit().ok());
      int txns = 40 + static_cast<int>(rng.Uniform(40));
      for (int i = 0; i < txns; ++i) {
        if (rng.Bernoulli(0.15)) {
          ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
          ASSERT_TRUE(db->Checkpoint().ok());
        }
        ASSERT_TRUE(s->Begin().ok());
        std::map<uint64_t, std::vector<uint8_t>> delta = committed;
        bool ok = true;
        int ops = 1 + static_cast<int>(rng.Uniform(10));
        for (int j = 0; j < ops && ok; ++j) {
          uint64_t key = rng.Uniform(150);
          if (rng.Bernoulli(0.7)) {
            std::vector<uint8_t> payload(8 + rng.Uniform(80));
            for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
            ok = delta.contains(key) ? s->Update(*table, key, payload).ok()
                                     : s->Insert(*table, key, payload).ok();
            if (ok) delta[key] = payload;
          } else if (delta.contains(key)) {
            ok = s->Delete(*table, key).ok();
            if (ok) delta.erase(key);
          }
        }
        if (!ok || rng.Bernoulli(0.2)) {
          ASSERT_TRUE(s->Abort().ok());
        } else {
          ASSERT_TRUE(s->Commit().ok());
          committed = std::move(delta);
        }
      }
      // Segments must actually have been recycled mid-workload.
      EXPECT_GT(db->log()->stats().segments_recycled.load(), 0u)
          << "seed " << seed;
      // Leave a loser in flight for restart undo: the session stays open
      // across the crash and closes without writing.
      ASSERT_TRUE(s->Begin().ok());
      (void)s->Insert(*table, 99999, Row(1));
      db->SimulateCrash();
    }
    auto reopened = sm::StorageManager::Open(
        BoundedLogOptions(false, false), &volume, &wal);
    ASSERT_TRUE(reopened.ok())
        << "seed " << seed << ": " << reopened.status().ToString();
    auto& db = *reopened;
    EXPECT_LT(db->log()->stats().redo_scan_bytes.load(), wal.size())
        << "seed " << seed;
    auto check = db->OpenSession();
    auto table = check->OpenTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(check->Begin().ok());
    for (const auto& [key, payload] : committed) {
      auto read = check->Read(*table, key);
      ASSERT_TRUE(read.ok()) << "lost key " << key << " (seed " << seed
                             << ")";
      EXPECT_TRUE(std::equal(read->begin(), read->end(), payload.begin(),
                             payload.end()))
          << "corrupt key " << key << " (seed " << seed << ")";
    }
    uint64_t rows = 0;
    sm::Cursor cur = check->OpenCursor(*table);
    Status st;
    for (st = cur.Seek(0); st.ok() && cur.Valid(); st = cur.Next()) {
      EXPECT_TRUE(committed.contains(cur.key()))
          << "leaked key " << cur.key() << " (seed " << seed << ")";
      ++rows;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(rows, committed.size()) << "seed " << seed;
    ASSERT_TRUE(check->Commit().ok());
  }
}

/// A hot set that never stops being dirty: 8 rows updated in a loop with
/// both daemons on. Their pages are always recently used, so only the
/// horizon rule writes them — once their rec_lsn falls the redo budget
/// (4 × 4 KiB / 2 here) behind the durable log. The rule is anchored at the
/// log, not at the dirty-page table, so the checkpoint's low-water mark
/// keeps moving and the log keeps recycling.
TEST(CheckpointRecycleTest, HotSetKeepsTheLogBounded) {
  io::MemVolume volume;
  LogStorage wal(0, 4096);
  auto db = std::move(*sm::StorageManager::Open(
      BoundedLogOptions(/*cleaner=*/true, /*checkpoint=*/true), &volume,
      &wal));
  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t key = 0; key < 8; ++key) {
    ASSERT_TRUE(session->Insert(*table, key, Row(key)).ok());
  }
  ASSERT_TRUE(session->Commit().ok());
  std::vector<size_t> live;  // Live segments after each commit.
  live.reserve(40000);
  for (uint64_t i = 0; i < 40000; ++i) {
    ASSERT_TRUE(session->Begin().ok());
    ASSERT_TRUE(session->Update(*table, i % 8, Row(i)).ok());
    ASSERT_TRUE(session->Commit().ok());
    live.push_back(db->log()->live_segments());
  }
  std::sort(live.begin(), live.end());
  size_t p90 = live[live.size() * 9 / 10];
  size_t peak = live.back();
  RecordProperty("p90_live_segments", static_cast<int>(p90));
  RecordProperty("peak_live_segments", static_cast<int>(peak));
  // ~2,350 segments are allocated over the loop. Every checkpoint recycles
  // to its own redo LSN, so live segments follow the pressure threshold
  // (4 here). On a 4-vCPU host the 90th percentile read 9 in 20 runs alone and
  // 6–15 in 56 runs with two to four copies at once; when recycling
  // waited for every 4th checkpoint it read 27–30 alone and 20–40 two at
  // a time. The peak is the scheduler's: a starved daemon lets the log
  // grow (11–30 alone, up to 149 with four copies running), so it only
  // has to stay far below an anchor that freezes, which never recycles
  // and keeps them all.
  uint64_t allocated = db->log()->stats().segments_allocated.load();
  EXPECT_GT(db->log()->stats().segments_recycled.load(), allocated / 2);
  size_t pressure = db->options().log.recycle_pressure_segments;
  EXPECT_LT(p90, 5 * pressure) << "90th percentile of live segments " << p90;
  EXPECT_LT(peak, allocated / 8) << "peak live segments " << peak;
}

/// Cleaner + checkpoint daemons racing a live multi-session workload
/// (TSan coverage for the cv wiring, the dirty-page table, the pressure
/// hook and fuzzy snapshots), ending in a crash + recovery.
TEST(CheckpointRecycleTest, DaemonsRaceWorkloadAndCrashRecovery) {
  constexpr int kWorkers = 4;
  constexpr int kTxnsPerWorker = 60;
  io::MemVolume volume;
  LogStorage wal(0, 4096);
  std::atomic<uint64_t> committed_rows{0};
  {
    auto db = std::move(*sm::StorageManager::Open(
        BoundedLogOptions(/*cleaner=*/true, /*checkpoint=*/true), &volume,
        &wal));
    auto setup = db->OpenSession();
    ASSERT_TRUE(setup->Begin().ok());
    auto table = setup->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(setup->Commit().ok());
    setup.reset();
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        auto session = db->OpenSession();
        for (int i = 0; i < kTxnsPerWorker; ++i) {
          uint64_t key = static_cast<uint64_t>(w) * 1'000'000 + i;
          sm::Op op;
          op.type = sm::OpType::kInsert;
          op.key = key;
          std::vector<uint8_t> payload = Row(key);
          op.payload = payload;
          if (session->ApplyAsync(*table, {&op, 1}).ok()) {
            committed_rows.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ASSERT_TRUE(session->WaitAll().ok());
      });
    }
    for (auto& t : workers) t.join();
    // Manual checkpoints may overlap the daemon's — both must be safe.
    ASSERT_TRUE(db->Checkpoint().ok());
    db->SimulateCrash();
  }
  auto reopened = sm::StorageManager::Open(
      BoundedLogOptions(false, false), &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;
  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->OpenTable("t");
  ASSERT_TRUE(table.ok());
  uint64_t rows = 0;
  auto cur = session->OpenCursor(*table);
  for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) ++rows;
  // Every acknowledged commit survived (WaitAll ran before the crash).
  // (This exact assertion caught a latent seed WAL bug: rec_lsn seeded
  // from a record's END LSN let the redo scan start one record too late
  // when the checkpoint low-water landed on a page's first dirtying
  // record — see PageHandle::MarkDirty.)
  EXPECT_EQ(rows, committed_rows.load());
  ASSERT_TRUE(session->Commit().ok());
}

}  // namespace
}  // namespace shoremt
