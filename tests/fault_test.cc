/// End-to-end data-integrity and fault-injection matrix: CRC32C and the
/// page/log-record checksums built on it, the bounded-backoff retry
/// policy, the deterministic seeded io::FaultInjector (EIO, torn writes,
/// bit flips, named crash points), buffer-pool checksum verification and
/// media auto-repair (archive + live log page rebuild), the background
/// scrubber, archived-segment CRC enforcement, shipper reconnect, and a
/// randomized crash-point sweep: kill the engine at seeded crash points
/// (with torn in-flight writes), recover, and verify committed state.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree_node.h"
#include "buffer/buffer_pool.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "io/fault_injector.h"
#include "io/retry.h"
#include "io/volume.h"
#include "log/log_record.h"
#include "log/log_storage.h"
#include "page/page.h"
#include "page/slotted_page.h"
#include "repl/archive.h"
#include "repl/framing.h"
#include "repl/replica.h"
#include "repl/shipper.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt {
namespace {

// ------------------------------------------------------------- helpers ----

/// Creates (and later removes) a throwaway directory under cwd.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "./fault_test.XXXXXX";
    char* d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) path_ = d;
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

sm::StorageOptions EngineOptions(size_t segment_bytes) {
  sm::StorageOptions o = sm::StorageOptions::ForStage(sm::Stage::kFinal);
  o.log.segment_bytes = segment_bytes;
  o.buffer.enable_cleaner = false;
  o.checkpoint_daemon = false;
  return o;
}

std::vector<uint8_t> Row(uint64_t key) {
  std::vector<uint8_t> payload(64);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(key * 7 + i);
  }
  return payload;
}

/// Finds the first stamped heap data page on the volume (a page whose
/// write-back went through the pool's checksum stamp). Returns
/// kInvalidPageNum when none exists.
PageNum FindStampedDataPage(io::Volume* volume, std::vector<uint8_t>* img) {
  img->assign(kPageSize, 0);
  for (PageNum p = 1; p < volume->NumPages(); ++p) {
    if (!volume->ReadPage(p, img->data()).ok()) continue;
    const page::PageHeader* h = page::HeaderOf(img->data());
    if (h->magic == page::kPageMagic && h->type == page::PageType::kData &&
        h->slot_count > 0 && h->checksum != 0) {
      return p;
    }
  }
  return kInvalidPageNum;
}

// --------------------------------------------------------------- CRC32C ----

TEST(Crc32cTest, KnownVectorAndExtendChaining) {
  // The canonical CRC32C check vector (RFC 3720 appendix).
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
  // Extend chains partial buffers into the whole-buffer result.
  uint32_t chained = Crc32cExtend(Crc32cExtend(0, digits, 4), digits + 4, 5);
  EXPECT_EQ(chained, 0xE3069283u);
  // Empty input is the identity.
  EXPECT_EQ(Crc32cExtend(0xDEADBEEF, digits, 0), 0xDEADBEEFu);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 §B.4 (iSCSI) CRC32C examples, on both the dispatched path
  // and the table fallback.
  uint8_t buf[32];
  auto check = [&](uint32_t want) {
    EXPECT_EQ(Crc32c(buf, sizeof(buf)), want);
    EXPECT_EQ(internal::Crc32cExtendTable(0, buf, sizeof(buf)), want);
  };
  std::memset(buf, 0x00, sizeof(buf));
  check(0x8A9136AAu);
  std::memset(buf, 0xFF, sizeof(buf));
  check(0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  check(0x46DD794Eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(31 - i);
  check(0x113FDB5Cu);
}

TEST(Crc32cTest, DispatchedPathMatchesTableAtEveryLengthAndAlignment) {
  // The dispatched path (the CPU instruction where available) must agree
  // bit for bit with the table loop, including the unaligned head and
  // the sub-word tail, and from a non-zero running CRC.
  alignas(64) uint8_t buf[320];
  Rng rng(11);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t mis = 0; mis < 8; ++mis) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = buf + mis;
      ASSERT_EQ(Crc32cExtend(0, p, len),
                internal::Crc32cExtendTable(0, p, len))
          << "misalignment " << mis << " length " << len;
      ASSERT_EQ(Crc32cExtend(0x9E3779B9u, p, len),
                internal::Crc32cExtendTable(0x9E3779B9u, p, len))
          << "misalignment " << mis << " length " << len;
    }
  }
  std::vector<uint8_t> img(kPageSize);
  for (int page = 0; page < 16; ++page) {
    for (auto& b : img) b = static_cast<uint8_t>(rng.Next());
    ASSERT_EQ(Crc32c(img.data(), img.size()),
              internal::Crc32cExtendTable(0, img.data(), img.size()))
        << "page " << page;
  }
}

TEST(Crc32cTest, ExtendChainsAtEverySplit) {
  uint8_t buf[64];
  for (int i = 0; i < 64; ++i) buf[i] = static_cast<uint8_t>(i * 37 + 5);
  const uint32_t whole = Crc32c(buf, sizeof(buf));
  for (size_t split = 0; split <= sizeof(buf); ++split) {
    EXPECT_EQ(Crc32cExtend(Crc32cExtend(0, buf, split), buf + split,
                           sizeof(buf) - split),
              whole)
        << "split " << split;
  }
}

TEST(Crc32cTest, TableStampedPageVerifies) {
  // A page stamped by the table loop (as on a CPU without the
  // instruction) verifies through the dispatched path, so images move
  // between hosts unchanged.
  std::vector<uint8_t> img(kPageSize);
  page::SlottedPage sp(img.data());
  sp.Init(9, 4, page::PageType::kData);
  std::vector<uint8_t> rec(200, 0xC3);
  ASSERT_TRUE(sp.Insert(rec).ok());
  constexpr size_t kOff = offsetof(page::PageHeader, checksum);
  const uint8_t zeros[4] = {0, 0, 0, 0};
  uint32_t crc = internal::Crc32cExtendTable(0, img.data(), kOff);
  crc = internal::Crc32cExtendTable(crc, zeros, 4);
  crc = internal::Crc32cExtendTable(crc, img.data() + kOff + 4,
                                    kPageSize - kOff - 4);
  ASSERT_NE(crc, 0u);
  page::HeaderOf(img.data())->checksum = crc;
  EXPECT_EQ(page::ComputePageChecksum(img.data()), crc);
  EXPECT_TRUE(page::VerifyPageChecksum(img.data()));
}

TEST(PageChecksumTest, StampVerifyAndDetectBitFlip) {
  std::vector<uint8_t> img(kPageSize);
  page::SlottedPage sp(img.data());
  sp.Init(7, 3, page::PageType::kData);
  std::vector<uint8_t> rec(80, 0x5A);
  ASSERT_TRUE(sp.Insert(rec).ok());

  // Unstamped (checksum word 0) passes vacuously: direct volume writes
  // and pre-checksum volumes are unverified, never false corruption.
  EXPECT_EQ(page::HeaderOf(img.data())->checksum, 0u);
  EXPECT_TRUE(page::VerifyPageChecksum(img.data()));

  page::StampPageChecksum(img.data());
  ASSERT_NE(page::HeaderOf(img.data())->checksum, 0u);
  EXPECT_TRUE(page::VerifyPageChecksum(img.data()));

  // A single flipped bit anywhere outside the checksum word fails the
  // verify — payload, header fields, and the magic itself.
  for (size_t off : {size_t{100}, size_t{4}, size_t{0}, kPageSize - 1}) {
    img[off] ^= 0x10;
    EXPECT_FALSE(page::VerifyPageChecksum(img.data())) << "offset " << off;
    img[off] ^= 0x10;
    EXPECT_TRUE(page::VerifyPageChecksum(img.data()));
  }

  // Re-stamping after a legitimate change produces a fresh valid stamp.
  ASSERT_TRUE(sp.Insert(rec).ok());
  EXPECT_FALSE(page::VerifyPageChecksum(img.data()));
  page::StampPageChecksum(img.data());
  EXPECT_TRUE(page::VerifyPageChecksum(img.data()));
}

TEST(LogRecordCrcTest, TrailingCrcDetectsCorruptedRecord) {
  log::LogRecord rec;
  rec.type = log::LogRecordType::kPageInsert;
  rec.txn = 42;
  rec.page = 9;
  rec.store = 3;
  rec.slot = 5;
  rec.after.assign(100, 0xAB);

  std::vector<uint8_t> wire;
  log::SerializeLogRecord(rec, &wire);
  ASSERT_EQ(wire.size(), rec.SerializedSize());

  log::LogRecord parsed;
  size_t consumed = 0;
  ASSERT_TRUE(log::DeserializeLogRecord(wire, &parsed, &consumed).ok());
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(parsed.after, rec.after);
  EXPECT_EQ(parsed.txn, rec.txn);

  // One corrupted payload byte fails the trailing CRC.
  std::vector<uint8_t> bad = wire;
  bad[log::kLogRecordHeaderSize + 10] ^= 0x01;
  Status st = log::DeserializeLogRecord(bad, &parsed, &consumed);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();

  // A corrupted header byte (the length prefix aside) fails too.
  bad = wire;
  bad[6] ^= 0x80;  // slot field
  st = log::DeserializeLogRecord(bad, &parsed, &consumed);
  EXPECT_FALSE(st.ok());

  // A torn tail (record cut short) never parses as a whole record.
  std::vector<uint8_t> torn(wire.begin(), wire.end() - 3);
  EXPECT_FALSE(log::DeserializeLogRecord(torn, &parsed, &consumed).ok());
}

// ---------------------------------------------------------------- retry ----

TEST(RetryTest, TransientErrorsRetryUntilSuccess) {
  io::RetryPolicy policy;
  policy.max_retries = 4;
  policy.initial_backoff_ns = 1'000;
  policy.max_backoff_ns = 10'000;

  io::MemVolume volume;
  int calls = 0;
  uint32_t retries = 0;
  Status st = io::RetryTransient(
      &volume, policy,
      [&] {
        return ++calls < 3 ? Status::IOError("flaky") : Status::Ok();
      },
      &retries);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
  // Retries and their backoff are charged to the volume's IoStats.
  EXPECT_EQ(volume.stats().retries.load(), 2u);
  EXPECT_GT(volume.stats().retry_backoff_ns.load(), 0u);
}

TEST(RetryTest, PermanentErrorsNeverRetry) {
  io::RetryPolicy policy;
  policy.initial_backoff_ns = 1'000;
  int calls = 0;
  uint32_t retries = 0;
  Status st = io::RetryTransient(
      nullptr, policy,
      [&] {
        ++calls;
        return Status::Corruption("bad bytes");
      },
      &retries);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
}

TEST(RetryTest, BudgetExhaustionSurfacesTheError) {
  io::RetryPolicy policy;
  policy.max_retries = 2;
  policy.initial_backoff_ns = 1'000;
  int calls = 0;
  Status st = io::RetryTransient(nullptr, policy, [&] {
    ++calls;
    return Status::IOError("dead device");
  });
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);  // initial attempt + 2 retries
}

// ------------------------------------------------------- fault injector ----

TEST(FaultInjectorTest, TransientFailuresArePerPageAndBounded) {
  io::FaultOptions fo;
  fo.seed = 11;
  fo.read_error_rate = 1.0;  // every fresh read selects its page
  fo.transient_attempts = 2;
  io::FaultInjector inj(fo);

  // Page 5: exactly two injected failures per selection, then the next
  // selection re-arms — the per-page transiency a retry loop must ride.
  EXPECT_FALSE(inj.PreRead(5).ok());
  EXPECT_FALSE(inj.PreRead(5).ok());
  EXPECT_EQ(inj.injected_read_errors(), 2u);
}

TEST(FaultInjectorTest, CrashPointCountdownMakesDeviceDeadUntilReset) {
  io::FaultOptions fo;
  fo.seed = 3;
  fo.crash_tears_writes = false;
  io::FaultInjector inj(fo);
  inj.ArmCrashPoint("volume.read", 3);

  EXPECT_TRUE(inj.PreRead(1).ok());
  EXPECT_TRUE(inj.PreRead(2).ok());
  EXPECT_FALSE(inj.PreRead(3).ok()) << "third hit crashes";
  EXPECT_TRUE(inj.crashed());
  EXPECT_EQ(inj.injected_crashes(), 1u);

  // Crashed: EVERY hooked operation fails, not just reads.
  size_t torn = 0;
  EXPECT_FALSE(inj.PreWrite(9, kPageSize, &torn).ok());
  EXPECT_FALSE(inj.PreAppend(128, &torn).ok());

  inj.Reset();
  EXPECT_FALSE(inj.crashed());
  EXPECT_TRUE(inj.PreRead(3).ok());
  EXPECT_TRUE(inj.PreWrite(9, kPageSize, &torn).ok());
}

TEST(FaultInjectorTest, BitFlipMutatesExactlyOneBit) {
  io::FaultOptions fo;
  fo.seed = 5;
  fo.bit_flip_rate = 1.0;
  io::FaultInjector inj(fo);
  std::vector<uint8_t> buf(256, 0);
  inj.PostRead(1, buf.data(), buf.size());
  EXPECT_EQ(inj.injected_bit_flips(), 1u);
  int set_bits = 0;
  for (uint8_t b : buf) set_bits += __builtin_popcount(b);
  EXPECT_EQ(set_bits, 1);
}

// --------------------------------------------- pool checksum + scrubber ----

TEST(BufferPoolFaultTest, CorruptionWithoutRepairSourceSurfaces) {
  io::MemVolume volume;
  ASSERT_TRUE(volume.Extend(4).ok());
  std::vector<uint8_t> img(kPageSize);
  page::SlottedPage sp(img.data());
  sp.Init(2, 1, page::PageType::kData);
  ASSERT_TRUE(sp.Insert(Row(1)).ok());
  page::StampPageChecksum(img.data());
  img[200] ^= 0x08;  // silent media corruption under a valid stamp
  ASSERT_TRUE(volume.WritePage(2, img.data()).ok());

  buffer::BufferPool pool(&volume, buffer::BufferPoolOptions{});
  auto h = pool.FixPage(2, sync::LatchMode::kShared);
  ASSERT_FALSE(h.ok()) << "corrupt image must never be served";
  EXPECT_EQ(h.status().code(), StatusCode::kCorruption)
      << h.status().ToString();
  EXPECT_GE(pool.stats().checksum_failures.load(), 1u);
}

TEST(BufferPoolFaultTest, ScrubberFindsAndRepairsColdPage) {
  io::MemVolume volume;
  ASSERT_TRUE(volume.Extend(6).ok());
  std::vector<std::vector<uint8_t>> pristine(6,
                                             std::vector<uint8_t>(kPageSize));
  for (PageNum p = 1; p <= 4; ++p) {
    page::SlottedPage sp(pristine[p].data());
    sp.Init(p, 1, page::PageType::kData);
    ASSERT_TRUE(sp.Insert(Row(p)).ok());
    page::StampPageChecksum(pristine[p].data());
    ASSERT_TRUE(volume.WritePage(p, pristine[p].data()).ok());
  }
  // Damage page 3 on the media (under its valid stamp).
  std::vector<uint8_t> bad = pristine[3];
  bad[100] ^= 0x01;
  ASSERT_TRUE(volume.WritePage(3, bad.data()).ok());

  buffer::BufferPool pool(&volume, buffer::BufferPoolOptions{});
  pool.SetPageRepairer([&](PageNum page, uint8_t* out) {
    std::memcpy(out, pristine[page].data(), kPageSize);
    return volume.WritePage(page, out);
  });

  ASSERT_TRUE(pool.ScrubPass(16).ok());
  EXPECT_GE(pool.stats().scrub_pages.load(), 4u);
  EXPECT_EQ(pool.stats().checksum_failures.load(), 1u);
  EXPECT_EQ(pool.stats().pages_repaired.load(), 1u);

  // The MEDIA copy is healed, byte-identical to the pristine image.
  std::vector<uint8_t> now(kPageSize);
  ASSERT_TRUE(volume.ReadPage(3, now.data()).ok());
  EXPECT_EQ(std::memcmp(now.data(), pristine[3].data(), kPageSize), 0);
}

TEST(BufferPoolFaultTest, ScrubberDaemonRunsInBackground) {
  io::MemVolume volume;
  ASSERT_TRUE(volume.Extend(8).ok());
  buffer::BufferPoolOptions opts;
  opts.enable_scrubber = true;
  opts.scrub_interval_us = 500;
  opts.scrub_pages_per_pass = 4;
  buffer::BufferPool pool(&volume, opts);
  for (int spins = 0; spins < 4000; ++spins) {
    if (pool.stats().scrub_pages.load() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(pool.stats().scrub_pages.load(), 0u);
}

TEST(BufferPoolFaultTest, PrefetchErrorSurfacesToFixer) {
  io::MemVolume volume;
  ASSERT_TRUE(volume.Extend(8).ok());
  std::vector<uint8_t> img(kPageSize);
  page::SlottedPage sp(img.data());
  sp.Init(2, 1, page::PageType::kData);
  page::StampPageChecksum(img.data());
  ASSERT_TRUE(volume.WritePage(2, img.data()).ok());

  buffer::BufferPoolOptions opts;
  opts.io.retry_initial_backoff_ns = 1'000;
  opts.io.retry_max_backoff_ns = 10'000;
  buffer::BufferPool pool(&volume, opts);

  io::FaultOptions fo;
  fo.seed = 9;
  fo.read_error_rate = 1.0;
  fo.transient_attempts = 0;  // sticky: the page is a dead sector
  io::FaultInjector inj(fo);
  volume.set_fault_injector(&inj);

  PageNum pages[] = {2};
  pool.PrefetchPages(pages);
  for (int spins = 0; spins < 4000; ++spins) {
    if (pool.stats().prefetch_errors.load() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(pool.stats().prefetch_errors.load(), 0u);

  // The failed detached read must surface as an error, never a hang or a
  // silent empty frame. (The fixer's own retried read also fails — the
  // sector is stick-dead.)
  auto h = pool.FixPage(2, sync::LatchMode::kShared);
  EXPECT_FALSE(h.ok());

  // Once the media recovers, the same page fixes cleanly (any stale
  // recorded prefetch error is consumed, not served forever).
  volume.set_fault_injector(nullptr);
  auto h2 = pool.FixPage(2, sync::LatchMode::kShared);
  EXPECT_TRUE(h2.ok()) << h2.status().ToString();
}

// ----------------------------------------------- engine-level integrity ----

TEST(SmFaultTest, TransientReadErrorsCompleteViaRetry) {
  io::MemVolume volume;
  log::LogStorage wal;
  sm::StorageOptions opts = EngineOptions(0);
  constexpr uint64_t kRows = 200;
  {
    auto db = std::move(*sm::StorageManager::Open(opts, &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (uint64_t k = 0; k < kRows; ++k) {
      ASSERT_TRUE(session->Begin().ok());
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
      ASSERT_TRUE(session->Commit().ok());
    }
    // Checkpoint so the reopen's redo pass has nothing to rebuild from
    // the log: every post-restart read must come off the (flaky) media.
    ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Shutdown().ok());
  }

  // Reopen with a flaky device: every injected EIO is transient (the page
  // succeeds within the retry budget), so recovery and a full read pass
  // complete without a single surfaced error.
  io::FaultOptions fo;
  fo.seed = 1234;
  fo.read_error_rate = 0.5;
  fo.transient_attempts = 1;
  io::FaultInjector inj(fo);
  volume.set_fault_injector(&inj);
  opts.buffer.io.max_retries = 6;
  opts.buffer.io.retry_initial_backoff_ns = 1'000;
  opts.buffer.io.retry_max_backoff_ns = 20'000;

  auto reopened = sm::StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;
  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->OpenTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < kRows; ++k) {
    auto got = session->Read(*table, k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    auto want = Row(k);
    EXPECT_TRUE(std::equal(got->begin(), got->end(), want.begin()));
  }
  ASSERT_TRUE(session->Commit().ok());
  volume.set_fault_injector(nullptr);

  EXPECT_GT(inj.injected_read_errors(), 0u) << "the schedule injected noise";
  EXPECT_GT(volume.stats().retries.load(), 0u) << "and retries absorbed it";
}

TEST(SmFaultTest, BitFlipDetectAndRepairByteIdentical) {
  io::MemVolume volume;
  log::LogStorage wal;
  sm::StorageOptions opts = EngineOptions(0);
  constexpr uint64_t kRows = 120;
  {
    auto db = std::move(*sm::StorageManager::Open(opts, &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (uint64_t k = 0; k < kRows; ++k) {
      ASSERT_TRUE(session->Begin().ok());
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
      ASSERT_TRUE(session->Commit().ok());
    }
    // Checkpoint before shutdown: without it, reopen would redo the whole
    // log and rebuild every page in memory without ever reading the
    // damaged media — masking the flip instead of repairing it.
    ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Shutdown().ok());
  }

  // Flip one bit in a stamped data page directly on the media.
  std::vector<uint8_t> pristine;
  PageNum victim = FindStampedDataPage(&volume, &pristine);
  ASSERT_NE(victim, kInvalidPageNum);
  std::vector<uint8_t> bad = pristine;
  bad[300] ^= 0x40;
  ASSERT_TRUE(volume.WritePage(victim, bad.data()).ok());

  // Reopen: the first read-in of the damaged page detects the flip and
  // rebuilds the image from the log — no surfaced error, no lost row.
  auto reopened = sm::StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;
  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->OpenTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < kRows; ++k) {
    auto got = session->Read(*table, k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    auto want = Row(k);
    EXPECT_TRUE(std::equal(got->begin(), got->end(), want.begin()));
  }
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_GE(db->pool()->stats().checksum_failures.load(), 1u);
  EXPECT_GE(db->pool()->stats().pages_repaired.load(), 1u);

  // The healed MEDIA image is byte-identical to the pre-damage one.
  std::vector<uint8_t> healed(kPageSize);
  ASSERT_TRUE(volume.ReadPage(victim, healed.data()).ok());
  EXPECT_EQ(std::memcmp(healed.data(), pristine.data(), kPageSize), 0);
}

TEST(SmFaultTest, BitFlipRepairFromArchivePlusLiveLog) {
  TempDir dir;
  io::MemVolume volume;
  log::LogStorage wal(0, 4096);
  sm::StorageOptions opts = EngineOptions(4096);
  opts.log.archive_dir = dir.path();
  constexpr uint64_t kRows = 300;
  {
    auto db = std::move(*sm::StorageManager::Open(opts, &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (uint64_t k = 0; k < kRows; ++k) {
      ASSERT_TRUE(session->Begin().ok());
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
      ASSERT_TRUE(session->Commit().ok());
      if (k % 60 == 59) {
        // Flush + checkpoint so early segments recycle INTO the archive:
        // part of the victim page's history then lives only there.
        ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    ASSERT_TRUE(db->Shutdown().ok());
    EXPECT_GT(wal.segments_archived(), 0u);
  }

  std::vector<uint8_t> pristine;
  PageNum victim = FindStampedDataPage(&volume, &pristine);
  ASSERT_NE(victim, kInvalidPageNum);
  std::vector<uint8_t> bad = pristine;
  bad[64] ^= 0x02;
  ASSERT_TRUE(volume.WritePage(victim, bad.data()).ok());

  auto reopened = sm::StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;
  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->OpenTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < kRows; ++k) {
    auto got = session->Read(*table, k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    auto want = Row(k);
    EXPECT_TRUE(std::equal(got->begin(), got->end(), want.begin()));
  }
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_GE(db->pool()->stats().pages_repaired.load(), 1u);
}

TEST(SmFaultTest, RepairHealsEveryPageOverEveryRecordKind) {
  // A history with every page-changing record kind: inserts (enough to
  // split the index root and leaves), shrinking updates, deletes, and
  // aborted transactions whose heap CLRs and logical B-tree undo
  // compensate an update, a delete and an insert each.
  io::MemVolume volume;
  log::LogStorage wal;
  sm::StorageOptions opts = EngineOptions(0);
  std::map<uint64_t, std::vector<uint8_t>> model;
  {
    auto db = std::move(*sm::StorageManager::Open(opts, &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (uint64_t k = 0; k < 1500; ++k) {
      if (k % 100 == 0) {
        ASSERT_TRUE(session->Begin().ok());
      }
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
      model[k] = Row(k);
      if (k % 100 == 99) {
        ASSERT_TRUE(session->Commit().ok());
      }
    }
    ASSERT_TRUE(session->Begin().ok());
    for (uint64_t k = 0; k < 1500; k += 3) {
      std::vector<uint8_t> shorter(20, static_cast<uint8_t>(k));
      ASSERT_TRUE(session->Update(*table, k, shorter).ok());
      model[k] = shorter;
    }
    for (uint64_t k = 1; k < 1500; k += 7) {
      ASSERT_TRUE(session->Delete(*table, k).ok());
      model.erase(k);
    }
    ASSERT_TRUE(session->Commit().ok());
    for (uint64_t i = 0; i < 10; ++i) {
      auto victim = std::next(model.begin(), static_cast<long>(100 * i));
      ASSERT_TRUE(session->Begin().ok());
      ASSERT_TRUE(session->Update(*table, victim->first, Row(7)).ok());
      ASSERT_TRUE(session->Delete(*table, std::next(victim)->first).ok());
      ASSERT_TRUE(session->Insert(*table, 5000 + i, Row(i)).ok());
      ASSERT_TRUE(session->Abort().ok());
    }
    ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Shutdown().ok());
  }

  std::vector<PageNum> stamped;
  std::vector<uint8_t> img(kPageSize);
  for (PageNum p = 1; p < volume.NumPages(); ++p) {
    ASSERT_TRUE(volume.ReadPage(p, img.data()).ok());
    const page::PageHeader* h = page::HeaderOf(img.data());
    if (h->magic == page::kPageMagic && h->checksum != 0) stamped.push_back(p);
  }

  std::map<page::PageType, int> healed_by_type;
  for (PageNum victim : stamped) {
    SCOPED_TRACE("page " + std::to_string(victim));
    std::vector<uint8_t> pristine(kPageSize);
    ASSERT_TRUE(volume.ReadPage(victim, pristine.data()).ok());
    std::vector<uint8_t> bad = pristine;
    bad[kPageSize / 2] ^= 0x10;
    ASSERT_TRUE(volume.WritePage(victim, bad.data()).ok());
    {
      auto reopened = sm::StorageManager::Open(opts, &volume, &wal);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      auto& db = *reopened;
      auto session = db->OpenSession();
      ASSERT_TRUE(session->Begin().ok());
      auto table = session->OpenTable("t");
      ASSERT_TRUE(table.ok());
      auto want = model.begin();
      auto cur = session->OpenCursor(*table);
      Status st = cur.Seek(0);
      for (; st.ok() && cur.Valid(); st = cur.Next()) {
        ASSERT_NE(want, model.end()) << "extra key " << cur.key();
        ASSERT_EQ(cur.key(), want->first);
        ASSERT_TRUE(std::ranges::equal(cur.value(), want->second))
            << "key " << cur.key();
        ++want;
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(want, model.end()) << "cursor stopped early";
      ASSERT_TRUE(session->Commit().ok());
      ASSERT_TRUE(db->pool()->FixPage(victim, sync::LatchMode::kShared).ok());
      EXPECT_EQ(db->pool()->stats().pages_repaired.load(), 1u);
      session.reset();
      ASSERT_TRUE(db->Shutdown().ok());
    }

    std::vector<uint8_t> healed(kPageSize);
    ASSERT_TRUE(volume.ReadPage(victim, healed.data()).ok());
    page::PageHeader want = *page::HeaderOf(pristine.data());
    page::PageHeader got = *page::HeaderOf(healed.data());
    ++healed_by_type[want.type];
    if (want.type == page::PageType::kData) {
      EXPECT_EQ(std::memcmp(healed.data(), pristine.data(), kPageSize), 0);
      continue;
    }
    // A B-tree node's bytes past its live entries are never logged (a
    // split moves entries out without clearing them), so compare the
    // header, checksum aside, then the NodeHeader and live entries.
    want.checksum = got.checksum = 0;
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(want)), 0) << "header differs";
    btree::BTreeNode node(pristine.data());
    size_t live = sizeof(btree::BTreeNode::NodeHeader) +
                  node.count() * sizeof(btree::BTreeEntry);
    EXPECT_EQ(std::memcmp(healed.data() + sizeof(page::PageHeader),
                          pristine.data() + sizeof(page::PageHeader), live),
              0);
  }
  EXPECT_GT(healed_by_type[page::PageType::kData], 1);
  EXPECT_GT(healed_by_type[page::PageType::kBTreeLeaf], 1);
  EXPECT_GE(healed_by_type[page::PageType::kBTreeInternal], 1);
}

// ---------------------------------------------------- archive integrity ----

TEST(ArchiveIntegrityTest, CorruptedArchivedSegmentIsRejected) {
  TempDir dir;
  log::LogStorage storage(0, /*segment_bytes=*/64);
  storage.set_archive_dir(dir.path());
  for (uint8_t round = 0; round < 10; ++round) {
    std::vector<uint8_t> rec(40, round);
    ASSERT_TRUE(storage.Append(rec).ok());
  }
  ASSERT_EQ(storage.Recycle(Lsn{385}), 6u);

  // Flip one byte inside the second archived segment file.
  std::string seg = dir.path() + "/seg-00000000000000000064.log";
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(10);
    char c = 0;
    f.read(&c, 1);
    c ^= 0x20;
    f.seekp(10);
    f.write(&c, 1);
  }

  auto archive = log::LogArchive::Open(dir.path());
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  std::vector<uint8_t> out;
  // Intact segments still read fine...
  EXPECT_TRUE(archive->Read(0, 64, &out).ok());
  // ...but any range touching the damaged one fails its manifest CRC.
  Status st = archive->Read(64, 64, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_FALSE(archive->Read(0, 384, &out).ok());
}

TEST(ArchiveIntegrityTest, RestoreToLsnRejectsCorruptedArchive) {
  TempDir dir;
  io::MemVolume volume;
  log::LogStorage wal(0, 4096);
  sm::StorageOptions o = EngineOptions(4096);
  o.log.archive_dir = dir.path();

  Lsn target;
  {
    auto db = std::move(*sm::StorageManager::Open(o, &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (int round = 0; round < 12; ++round) {
      ASSERT_TRUE(session->Begin().ok());
      for (int i = 0; i < 20; ++i) {
        uint64_t key = static_cast<uint64_t>(round) * 20 + i;
        ASSERT_TRUE(session->Insert(*table, key, Row(key)).ok());
      }
      ASSERT_TRUE(session->Commit().ok());
      if (round % 4 == 3) {
        ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    target = db->log()->durable_lsn();
    ASSERT_TRUE(db->Shutdown().ok());
    ASSERT_GT(wal.segments_archived(), 0u);
  }

  // Damage the first archived segment, then attempt a restore across it.
  std::string first;
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    std::string name = e.path().filename().string();
    if (name.rfind("seg-", 0) == 0 &&
        (first.empty() || e.path().string() < first)) {
      first = e.path().string();
    }
  }
  ASSERT_FALSE(first.empty());
  {
    std::fstream f(first, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(20);
    char c = 0x7F;
    f.write(&c, 1);
  }

  auto restored = repl::RestoreToLsn(dir.path(), &wal, target,
                                     EngineOptions(4096));
  ASSERT_FALSE(restored.ok()) << "restore must refuse untrusted bytes";
}

// ---------------------------------------------------- shipper reconnect ----

/// Loopback socket pair, closed by the destructor.
struct Loopback {
  int fds[2] = {-1, -1};
  Loopback() { EXPECT_TRUE(repl::MakeSocketPair(fds).ok()); }
  ~Loopback() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

TEST(ShipperReconnectTest, ResumesAfterReplicaLossAndLagCountsAcrossGap) {
  Loopback net1;
  io::MemVolume volume;
  log::LogStorage wal(0, 4096);
  auto db =
      std::move(*sm::StorageManager::Open(EngineOptions(4096), &volume, &wal));
  repl::SegmentShipper::Options so;
  so.reconnect = true;
  so.poll_interval_ms = 1;
  so.reconnect_backoff_initial_ms = 1;
  so.reconnect_wait_budget_ms = 30'000;
  repl::SegmentShipper shipper(db->log(), net1.fds[0], so);
  shipper.Start();

  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Commit().ok());

  // First replica consumes batch A, then dies.
  {
    io::MemVolume rvolume;
    log::LogStorage rwal(0, 4096);
    repl::Replica::Options ro;
    ro.storage = EngineOptions(4096);
    repl::Replica replica(&rvolume, &rwal, ro);
    ASSERT_TRUE(replica.Start(net1.fds[1]).ok());
    ASSERT_TRUE(session->Begin().ok());
    for (uint64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
    }
    ASSERT_TRUE(session->Commit().ok());
    ASSERT_TRUE(replica.WaitReplayed(wal.size() + 1, 10'000))
        << replica.error().ToString();
    replica.Stop();
  }

  // Disconnected: batch B lands on the primary; the lag gauge keeps
  // counting against the last pre-disconnect ack instead of resetting.
  ASSERT_TRUE(session->Begin().ok());
  for (uint64_t k = 50; k < 100; ++k) {
    ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
  }
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_GT(shipper.lag_bytes(), 0u);

  // A fresh replica connects through ReplaceSocket; shipping resumes from
  // ITS kHello cursor (zero — it re-streams the whole log), so the new
  // replica converges on batches A and B.
  Loopback net2;
  shipper.ReplaceSocket(net2.fds[0]);
  io::MemVolume rvolume2;
  log::LogStorage rwal2(0, 4096);
  repl::Replica::Options ro2;
  ro2.storage = EngineOptions(4096);
  repl::Replica replica2(&rvolume2, &rwal2, ro2);
  ASSERT_TRUE(replica2.Start(net2.fds[1]).ok());
  ASSERT_TRUE(replica2.WaitReplayed(wal.size() + 1, 10'000))
      << replica2.error().ToString();
  EXPECT_EQ(shipper.reconnects(), 1u);

  auto rsession = replica2.sm()->OpenSession();
  ASSERT_TRUE(rsession->Begin().ok());
  auto rtable = rsession->OpenTable("t");
  ASSERT_TRUE(rtable.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    auto got = rsession->Read(*rtable, k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
  }
  ASSERT_TRUE(rsession->Commit().ok());
  rsession.reset();

  replica2.Stop();
  shipper.Stop();
  EXPECT_TRUE(shipper.status().ok()) << shipper.status().ToString();
}

// --------------------------------------------------- crash-point sweeps ----

/// One randomized kill/recover/verify cycle: run a seeded transactional
/// workload with a seeded crash point armed (torn in-flight writes on),
/// then reset the "device", recover, and check that exactly the
/// committed state survived.
void RunCrashCycle(uint64_t seed) {
  io::MemVolume volume;
  log::LogStorage wal(0, 4096);
  io::FaultOptions fo;
  fo.seed = seed;
  fo.crash_tears_writes = true;
  io::FaultInjector inj(fo);
  volume.set_fault_injector(&inj);
  wal.set_fault_injector(&inj);

  sm::StorageOptions opts = EngineOptions(4096);
  opts.buffer.io.retry_initial_backoff_ns = 1'000;
  opts.buffer.io.retry_max_backoff_ns = 10'000;

  Rng rng(seed * 0x9E3779B9u + 1);
  std::map<uint64_t, std::vector<uint8_t>> committed;
  {
    auto opened = sm::StorageManager::Open(opts, &volume, &wal);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& db = *opened;
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Commit().ok());

    static const char* kPoints[] = {"log.append", "volume.write",
                                    "volume.read"};
    inj.ArmCrashPoint(kPoints[seed % 3], 1 + rng.Uniform(12));

    int total_txns = 10 + static_cast<int>(rng.Uniform(15));
    for (int i = 0; i < total_txns && !inj.crashed(); ++i) {
      if (i % 4 == 3) (void)db->pool()->CleanerPass(16);  // drives writes
      ASSERT_TRUE(s->Begin().ok());
      std::map<uint64_t, std::vector<uint8_t>> delta = committed;
      int ops = 1 + static_cast<int>(rng.Uniform(6));
      bool ok = true;
      for (int j = 0; j < ops && ok; ++j) {
        uint64_t key = rng.Uniform(80);
        if (rng.Bernoulli(0.7)) {
          std::vector<uint8_t> payload(8 + rng.Uniform(90));
          for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
          ok = (delta.contains(key) ? s->Update(*table, key, payload)
                                    : s->Insert(*table, key, payload).status())
                   .ok();
          if (ok) delta[key] = payload;
        } else if (delta.contains(key)) {
          ok = s->Delete(*table, key).ok();
          if (ok) delta.erase(key);
        }
      }
      if (!ok || rng.Bernoulli(0.2)) {
        (void)s->Abort();  // may itself fail once the device is dead
        if (!ok) break;
      } else if (s->Commit().ok()) {
        committed = std::move(delta);
      } else {
        break;  // commit lost to the crash: delta is NOT merged
      }
    }
    if (!inj.crashed()) inj.ForceCrash();  // power cut at end of schedule
    db->SimulateCrash();
  }

  // Power restored: the device works again; the torn tail and whatever
  // eviction half-wrote are what recovery must sort out.
  inj.Reset();
  auto reopened = sm::StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(reopened.ok())
      << "seed " << seed << ": " << reopened.status().ToString();
  auto& db = *reopened;
  auto check = db->OpenSession();
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(check->Begin().ok());
  for (const auto& [key, payload] : committed) {
    auto read = check->Read(*table, key);
    ASSERT_TRUE(read.ok())
        << "lost committed key " << key << " (seed " << seed << ")";
    EXPECT_TRUE(std::equal(read->begin(), read->end(), payload.begin(),
                           payload.end()))
        << "corrupt committed key " << key << " (seed " << seed << ")";
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

  // And the recovered engine still takes writes.
  ASSERT_TRUE(check->Begin().ok());
  ASSERT_TRUE(check->Insert(*table, 777777, Row(7)).ok());
  ASSERT_TRUE(check->Commit().ok());
}

class CrashPointSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashPointSweep, CommittedStateSurvivesInjectedCrash) {
  // Each parameter covers a band of seeds so the suite stays ≥50 cycles
  // without 50 separate test registrations.
  uint64_t base = GetParam();
  for (uint64_t seed = base; seed < base + 6; ++seed) {
    RunCrashCycle(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashPointSweep,
                         ::testing::Values(100, 200, 300, 400, 500, 600, 700,
                                           800, 900, 1000),
                         [](const auto& info) {
                           return "band" + std::to_string(info.param);
                         });

TEST(SmFaultTest, TornLogTailAtCrashRecoversCommittedPrefix) {
  io::MemVolume volume;
  log::LogStorage wal(0, 4096);
  io::FaultOptions fo;
  fo.seed = 77;
  fo.crash_tears_writes = true;
  io::FaultInjector inj(fo);
  wal.set_fault_injector(&inj);

  sm::StorageOptions opts = EngineOptions(4096);
  std::map<uint64_t, std::vector<uint8_t>> committed;
  {
    auto db = std::move(*sm::StorageManager::Open(opts, &volume, &wal));
    auto s = db->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    auto table = s->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(s->Commit().ok());

    // The crash fires mid-append a few commits in and TEARS that append:
    // a byte prefix of the flush reaches the device, the classic torn
    // log tail the recovery scan must stop at (record CRC + length).
    inj.ArmCrashPoint("log.append", 4);
    for (uint64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(s->Begin().ok());
      if (!s->Insert(*table, k, Row(k)).ok()) {
        (void)s->Abort();
        break;
      }
      if (!s->Commit().ok()) break;
      committed[k] = Row(k);
    }
    EXPECT_TRUE(inj.crashed()) << "the armed crash point fired";
    EXPECT_EQ(inj.injected_crashes(), 1u);
    ASSERT_FALSE(committed.empty());
    ASSERT_LT(committed.size(), 50u) << "some commits were lost to the crash";
    db->SimulateCrash();
  }

  inj.Reset();
  auto reopened = sm::StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened;
  auto check = db->OpenSession();
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(check->Begin().ok());
  for (const auto& [key, payload] : committed) {
    auto read = check->Read(*table, key);
    ASSERT_TRUE(read.ok()) << "lost committed key " << key;
    EXPECT_TRUE(std::equal(read->begin(), read->end(), payload.begin(),
                           payload.end()));
  }
  ASSERT_TRUE(check->Commit().ok());
}

}  // namespace
}  // namespace shoremt
