/// Tests for the log-shipping replication subsystem (src/repl): segment
/// archiving on Recycle, point-in-time restore from the archive,
/// streamed segments + tail deltas over loopback sockets, commit-gated
/// replay with a published replayed-LSN horizon, replay errors,
/// torn-shipment detection/re-request, replica promotion, and the
/// bounded-executor dispatch of OnDurable closures.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/volume.h"
#include "log/log_archive.h"
#include "log/log_manager.h"
#include "log/log_record.h"
#include "log/log_storage.h"
#include "obs/metrics.h"
#include "page/page.h"
#include "repl/archive.h"
#include "repl/framing.h"
#include "repl/replica.h"
#include "repl/shipper.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt {
namespace {

using log::LogManager;
using log::LogOptions;
using log::LogRecord;
using log::LogRecordType;
using log::LogStorage;

// ------------------------------------------------------------- helpers ----

/// Creates (and later removes) a throwaway archive directory under cwd.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "./repl_test.XXXXXX";
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

/// Loopback pair: primary engine + shipper on one end, replica on the
/// other. The sockets are closed by the destructor (after both sides
/// stopped using them).
struct Loopback {
  int fds[2] = {-1, -1};
  Loopback() { EXPECT_TRUE(repl::MakeSocketPair(fds).ok()); }
  ~Loopback() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

// ------------------------------------------------------------- archive ----

TEST(ArchiveTest, RecycleArchivesSegmentsAndManifestRoundTrips) {
  TempDir dir;
  LogStorage storage(0, /*segment_bytes=*/64);
  storage.set_archive_dir(dir.path());
  std::vector<uint8_t> all;
  for (uint8_t round = 0; round < 10; ++round) {
    std::vector<uint8_t> rec(40, round);
    ASSERT_TRUE(storage.Append(rec).ok());
    all.insert(all.end(), rec.begin(), rec.end());
  }
  // 400 bytes over 64-byte segments: 6 sealed + an open tail.
  ASSERT_EQ(storage.size(), 400u);
  // Recycle below offset 384 (Lsn 385): frees — and archives — exactly
  // the 6 sealed segments.
  EXPECT_EQ(storage.Recycle(Lsn{385}), 6u);
  EXPECT_EQ(storage.segments_archived(), 6u);

  auto archive = log::LogArchive::Open(dir.path());
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  ASSERT_EQ(archive->segments().size(), 6u);
  EXPECT_EQ(archive->base_offset(), 0u);
  EXPECT_EQ(archive->end_offset(), 384u);
  for (size_t i = 0; i < archive->segments().size(); ++i) {
    EXPECT_EQ(archive->segments()[i].base, i * 64);
    EXPECT_EQ(archive->segments()[i].length, 64u);
    EXPECT_EQ(archive->segments()[i].capacity, 64u);
  }
  // Archived bytes are exactly what was appended, including reads that
  // span archive files.
  std::vector<uint8_t> got;
  ASSERT_TRUE(archive->Read(0, 384, &got).ok());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), all.begin()));
  ASSERT_TRUE(archive->Read(60, 10, &got).ok());
  EXPECT_EQ(got, std::vector<uint8_t>(all.begin() + 60, all.begin() + 70));
  // Below-archive range is an error, not garbage.
  EXPECT_FALSE(archive->Read(380, 10, &got).ok());
}

TEST(ArchiveTest, RestoreToLsnReconstructsMidRunState) {
  TempDir dir;
  io::MemVolume volume;
  LogStorage wal(0, 4096);
  sm::StorageOptions o = EngineOptions(4096);
  o.log.archive_dir = dir.path();

  std::map<uint64_t, std::vector<uint8_t>> at_target;
  Lsn target;
  {
    auto db = std::move(*sm::StorageManager::Open(o, &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (int round = 0; round < 30; ++round) {
      ASSERT_TRUE(session->Begin().ok());
      for (int i = 0; i < 20; ++i) {
        uint64_t key = static_cast<uint64_t>(round) * 20 + i;
        ASSERT_TRUE(session->Insert(*table, key, Row(key)).ok());
      }
      ASSERT_TRUE(session->Commit().ok());
      if (round == 14) {
        // Mid-run restore point: everything committed so far.
        target = db->log()->durable_lsn();
        for (uint64_t k = 0; k < 15 * 20; ++k) at_target[k] = Row(k);
      }
      if (round % 5 == 4) {
        ASSERT_TRUE(db->pool()->CleanerPass(0).ok());
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    // The run recycled — and therefore archived — segments, including
    // some holding pre-target records.
    EXPECT_GT(wal.segments_archived(), 0u);
  }

  auto restored =
      repl::RestoreToLsn(dir.path(), &wal, target, EngineOptions(4096));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto session = (*restored)->sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->OpenTable("t");
  ASSERT_TRUE(table.ok());
  // Exactly the pre-target committed state: rows 0..299 present with
  // their payloads, everything written after the target absent.
  for (const auto& [key, payload] : at_target) {
    auto got = session->Read(*table, key);
    ASSERT_TRUE(got.ok()) << "key " << key << ": " << got.status().ToString();
    EXPECT_TRUE(std::equal(got->begin(), got->end(), payload.begin()));
  }
  auto missing = session->Read(*table, 15 * 20);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(session->Commit().ok());
}

// ------------------------------------------------- streaming + horizon ----

/// A replica that goes away while the shipper is sending: the send fails
/// with EPIPE, and that ends the session as cleanly as a recv EOF does.
TEST(ReplTest, ShipperTreatsDepartedReplicaAsCleanDisconnect) {
  Loopback net;
  LogStorage wal(0, 4096);
  LogManager log(&wal, LogOptions{});
  repl::SegmentShipper shipper(&log, net.fds[0]);
  // The replica says hello and stops reading. Its write side stays open,
  // so the shipper reads no EOF; it learns of the departure by sending.
  uint64_t hello[1] = {0};
  ASSERT_TRUE(
      repl::WriteFrame(net.fds[1], repl::FrameType::kHello, hello, {}).ok());
  ASSERT_EQ(::shutdown(net.fds[1], SHUT_RD), 0);
  LogRecord rec;
  rec.type = LogRecordType::kPageUpdate;
  rec.txn = 1;
  rec.page = 1;
  rec.after = {1, 2, 3};
  ASSERT_TRUE(log.Append(rec).ok());
  ASSERT_TRUE(log.FlushAll().ok());
  Status st = shipper.Serve();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(shipper.segments_shipped(), 0u);
}

TEST(ReplTest, ReplicaServesCommittedPrefixAtHorizon) {
  Loopback net;
  io::MemVolume volume;
  LogStorage wal(0, 4096);
  auto db =
      std::move(*sm::StorageManager::Open(EngineOptions(4096), &volume, &wal));
  repl::SegmentShipper shipper(db->log(), net.fds[0]);
  shipper.RegisterMetrics(db->metrics());
  shipper.Start();

  io::MemVolume rvolume;
  LogStorage rwal(0, 4096);
  repl::Replica::Options ro;
  ro.storage = EngineOptions(4096);
  repl::Replica replica(&rvolume, &rwal, ro);
  ASSERT_TRUE(replica.Start(net.fds[1]).ok());
  replica.RegisterMetrics();

  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Commit().ok());
  constexpr uint64_t kRows = 200;
  for (uint64_t base = 0; base < kRows; base += 25) {
    ASSERT_TRUE(session->Begin().ok());
    for (uint64_t k = base; k < base + 25; ++k) {
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
    }
    ASSERT_TRUE(session->Commit().ok());
  }
  // An in-flight transaction: its records are durable (flushed) but it
  // never commits — the replica must not serve its row.
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Insert(*table, 9999, Row(9999)).ok());
  ASSERT_TRUE(db->log()->FlushAll().ok());

  uint64_t horizon = wal.size() + 1;  // durable LSN
  ASSERT_TRUE(replica.WaitReplayed(horizon, 10000))
      << "replayed " << replica.replayed_lsn() << " of " << horizon << ": "
      << replica.error().ToString();

  auto rsession = replica.sm()->OpenSession();
  ASSERT_TRUE(rsession->Begin().ok());
  auto rtable = rsession->OpenTable("t");
  ASSERT_TRUE(rtable.ok());
  for (uint64_t k = 0; k < kRows; ++k) {
    auto got = rsession->Read(*rtable, k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
    auto want = Row(k);
    ASSERT_EQ(got->size(), want.size());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), want.begin()));
  }
  // The uncommitted row is gated in the dispatcher, never applied.
  EXPECT_FALSE(rsession->Read(*rtable, 9999).ok());
  ASSERT_TRUE(rsession->Commit().ok());
  rsession.reset();

  // Replication metrics flow through both registries as engine sources.
  obs::MetricsSnapshot rs = replica.sm()->metrics()->Snapshot();
  EXPECT_GT(rs[obs::Metric::kReplSegmentsApplied], 0u);
  EXPECT_GE(rs[obs::Metric::kReplBytesStreamed], wal.size());
  EXPECT_GT(rs[obs::Metric::kReplReplayBatches], 0u);
  // The shipper counts a frame once its send returns, which can be after
  // the replica has already applied it: wait for the count to land.
  for (int i = 0; i < 5000 && shipper.bytes_streamed() < wal.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::MetricsSnapshot ps = db->metrics()->Snapshot();
  EXPECT_GT(ps[obs::Metric::kReplSegmentsShipped], 0u);
  EXPECT_GE(ps[obs::Metric::kReplBytesStreamed], wal.size());

  session.reset();  // aborts the in-flight transaction
  replica.Stop();
  shipper.Stop();
  EXPECT_TRUE(shipper.status().ok()) << shipper.status().ToString();
  EXPECT_TRUE(replica.error().ok()) << replica.error().ToString();
}

// ------------------------------------------------------------ failover ----

TEST(ReplTest, FailoverPromoteServesExactlyCommittedPrefix) {
  Loopback net;
  io::MemVolume volume;
  LogStorage wal(0, 4096);
  auto db =
      std::move(*sm::StorageManager::Open(EngineOptions(4096), &volume, &wal));
  repl::SegmentShipper shipper(db->log(), net.fds[0]);
  shipper.Start();

  io::MemVolume rvolume;
  LogStorage rwal(0, 4096);
  repl::Replica::Options ro;
  ro.storage = EngineOptions(4096);
  auto replica = std::make_unique<repl::Replica>(&rvolume, &rwal, ro);
  ASSERT_TRUE(replica->Start(net.fds[1]).ok());

  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Commit().ok());
  for (uint64_t base = 0; base < 100; base += 20) {
    ASSERT_TRUE(session->Begin().ok());
    for (uint64_t k = base; k < base + 20; ++k) {
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
    }
    ASSERT_TRUE(session->Commit().ok());
  }
  // In-flight at the crash: durable log records, no commit.
  ASSERT_TRUE(session->Begin().ok());
  for (uint64_t k = 500; k < 510; ++k) {
    ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
  }
  ASSERT_TRUE(db->log()->FlushAll().ok());
  uint64_t durable = wal.size() + 1;
  ASSERT_TRUE(replica->WaitReplayed(durable, 10000))
      << replica->error().ToString();

  // Primary dies: the socket closes, the replica sees EOF and promotes.
  session.reset();
  db->SimulateCrash();
  shipper.Stop();
  ASSERT_TRUE(replica->WaitStreamEnd(5000));
  ASSERT_TRUE(replica->Promote().ok()) << replica->error().ToString();
  ASSERT_TRUE(replica->promoted());

  {
    auto p = replica->sm()->OpenSession();
    ASSERT_TRUE(p->Begin().ok());
    auto ptable = p->OpenTable("t");
    ASSERT_TRUE(ptable.ok());
    // Exactly the committed prefix: all 100 committed rows, none of the
    // loser's (its index entries were undone by promotion's
    // structure-only undo pass).
    for (uint64_t k = 0; k < 100; ++k) {
      auto got = p->Read(*ptable, k);
      ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status().ToString();
      auto want = Row(k);
      EXPECT_TRUE(std::equal(got->begin(), got->end(), want.begin()));
    }
    for (uint64_t k = 500; k < 510; ++k) {
      EXPECT_EQ(p->Read(*ptable, k).status().code(), StatusCode::kNotFound);
    }
    ASSERT_TRUE(p->Commit().ok());
    // The promoted replica is a real primary: writable.
    ASSERT_TRUE(p->Begin().ok());
    ASSERT_TRUE(p->Insert(*ptable, 1000, Row(1000)).ok());
    ASSERT_TRUE(p->Commit().ok());
  }

  // And its log is a valid restart log: crash the promoted instance and
  // recover it the normal way.
  replica->sm()->SimulateCrash();
  replica.reset();
  auto reopened =
      sm::StorageManager::Open(EngineOptions(4096), &rvolume, &rwal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto rs = (*reopened)->OpenSession();
  ASSERT_TRUE(rs->Begin().ok());
  auto rtable = rs->OpenTable("t");
  ASSERT_TRUE(rtable.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(rs->Read(*rtable, k).ok()) << "key " << k;
  }
  ASSERT_TRUE(rs->Read(*rtable, 1000).ok());
  EXPECT_EQ(rs->Read(*rtable, 505).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(rs->Commit().ok());
}

// -------------------------------------------- forced redo equivalence ----

/// Feeds every redo-able record of `stream` to `apply` in log order;
/// metadata goes straight to the manager.
void ForEachRecord(
    const std::vector<uint8_t>& stream, sm::StorageManager* sm,
    const std::function<void(LogRecord, Lsn)>& apply) {
  log::RecordReader reader(stream, 0);
  LogRecord rec;
  Lsn end;
  while (true) {
    Result<bool> more = reader.Next(&rec, &end);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    switch (rec.type) {
      case LogRecordType::kCheckpoint:
      case LogRecordType::kCreateStore:
      case LogRecordType::kAllocPage:
      case LogRecordType::kCatalog:
        ASSERT_TRUE(sm->ApplyMetadata(rec).ok());
        break;
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
      case LogRecordType::kNoop:
        break;
      default:
        apply(std::move(rec), end);
        break;
    }
  }
  ASSERT_EQ(reader.offset(), stream.size()) << "torn record in the stream";
}

TEST(ReplTest, ForcedReplayByteIdenticalToGuardedRedo) {
  // A workload with page reuse, updates, deletes and aborted transactions
  // (CLRs), spread over many pages.
  io::MemVolume volume;
  LogStorage wal(0, 1 << 20);
  {
    auto db = std::move(
        *sm::StorageManager::Open(EngineOptions(1 << 20), &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    for (uint64_t base = 0; base < 300; base += 30) {
      ASSERT_TRUE(session->Begin().ok());
      for (uint64_t k = base; k < base + 30; ++k) {
        ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
      }
      ASSERT_TRUE(session->Commit().ok());
    }
    ASSERT_TRUE(session->Begin().ok());
    for (uint64_t k = 0; k < 300; k += 3) {
      ASSERT_TRUE(session->Update(*table, k, Row(k + 1)).ok());
    }
    for (uint64_t k = 0; k < 300; k += 7) {
      ASSERT_TRUE(session->Delete(*table, k).ok());
    }
    ASSERT_TRUE(session->Commit().ok());
    // Aborts leave CLRs in the stream.
    ASSERT_TRUE(session->Begin().ok());
    for (uint64_t k = 400; k < 420; ++k) {
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
    }
    ASSERT_TRUE(session->Abort().ok());
    ASSERT_TRUE(db->log()->FlushAll().ok());
    db->SimulateCrash();  // leave the volume out of it: redo does the work
  }
  std::vector<uint8_t> stream;
  ASSERT_TRUE(wal.ReadFrom(0, &stream).ok());

  // Two fresh instances replay the identical stream serially: one through
  // the guarded ApplyRedo reference (restart redo), one with every apply
  // forced, as the replica applies. The stream is in LSN order and
  // replays onto an empty volume, so both write the same bytes.
  auto replay = [&](bool force, io::MemVolume* v) {
    LogStorage w(0, 1 << 20);
    ASSERT_TRUE(w.Append(stream).ok());
    sm::StorageOptions o = EngineOptions(1 << 20);
    o.open_mode = sm::OpenMode::kReplicaAttach;
    auto sm = std::move(*sm::StorageManager::Open(o, v, &w));
    ForEachRecord(stream, sm.get(), [&](LogRecord rec, Lsn end) {
      ASSERT_TRUE(sm->ApplyRedo(rec, end, force).ok());
    });
    ASSERT_TRUE(sm->Shutdown().ok());  // flush every page to the volume
  };
  io::MemVolume guarded_vol, forced_vol;
  replay(false, &guarded_vol);
  replay(true, &forced_vol);

  ASSERT_EQ(guarded_vol.NumPages(), forced_vol.NumPages());
  std::vector<uint8_t> a(kPageSize), b(kPageSize);
  for (PageNum p = 0; p < guarded_vol.NumPages(); ++p) {
    ASSERT_TRUE(guarded_vol.ReadPage(p, a.data()).ok());
    ASSERT_TRUE(forced_vol.ReadPage(p, b.data()).ok());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), kPageSize), 0)
        << "page " << p << " diverged";
  }
}

TEST(ReplayTest, MalformedBTreePayloadIsCorruption) {
  // A B-tree record whose payload length is wrong still passes the log's
  // CRC (the CRC covers whatever was written). Replay must reject it
  // instead of copying a BTreeEntry out of a 3-byte vector or a content
  // blob shorter than its two leaf-chain links.
  io::MemVolume volume;
  LogStorage wal(0, 1 << 20);
  auto db = std::move(
      *sm::StorageManager::Open(EngineOptions(1 << 20), &volume, &wal));
  auto session = db->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Commit().ok());

  LogRecord insert;
  insert.type = LogRecordType::kBtreeInsert;
  insert.after = {1, 2, 3};
  LogRecord content;
  content.type = LogRecordType::kBtreeSetContent;
  content.after = std::vector<uint8_t>(2 * sizeof(PageNum) - 1, 0);
  for (LogRecord bad : {insert, content}) {
    bad.page = table->index_root;
    bad.store = table->index_store;
    std::vector<uint8_t> bytes;
    log::SerializeLogRecord(bad, &bytes);
    LogRecord rec;
    size_t consumed = 0;
    ASSERT_TRUE(log::DeserializeLogRecord(bytes, &rec, &consumed).ok());
    Lsn end{db->log()->next_lsn().value + consumed};
    for (bool force : {false, true}) {
      Status st = db->ApplyRedo(rec, end, force);
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << "type " << static_cast<int>(rec.type) << " force " << force
          << ": " << st.ToString();
    }
  }
  session.reset();
  ASSERT_TRUE(db->Shutdown().ok());
}

TEST(ReplTest, ReplayErrorEndsStreamAndWakesWaiters) {
  // A primary log holding a table (its catalog, store and pages), then a
  // B-tree insert whose payload has the wrong length: it passes the log's
  // CRC, but applying it is Corruption.
  io::MemVolume volume;
  LogStorage wal(0, 1 << 20);
  {
    auto db = std::move(
        *sm::StorageManager::Open(EngineOptions(1 << 20), &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Commit().ok());
    LogRecord bad;
    bad.type = LogRecordType::kBtreeInsert;
    bad.page = table->index_root;
    bad.store = table->index_store;
    bad.after = {1, 2, 3};
    ASSERT_TRUE(db->log()->Append(bad).ok());
    ASSERT_TRUE(db->log()->FlushAll().ok());
    session.reset();
    db->SimulateCrash();
  }
  std::vector<uint8_t> stream;
  ASSERT_TRUE(wal.ReadFrom(0, &stream).ok());
  uint64_t end = stream.size() + 1;

  Loopback net;
  io::MemVolume rvolume;
  LogStorage rwal(0, 1 << 20);
  repl::Replica::Options ro;
  ro.storage = EngineOptions(1 << 20);
  repl::Replica replica(&rvolume, &rwal, ro);
  ASSERT_TRUE(replica.Start(net.fds[1]).ok());

  // Play the primary by hand: one tail delta carrying the whole log. The
  // primary's side of the socket stays open, so only the replay error can
  // end the wait early.
  int fd = net.fds[0];
  repl::Frame hello;
  ASSERT_TRUE(repl::ReadFrame(fd, &hello).ok());
  ASSERT_EQ(hello.type, repl::FrameType::kHello);
  uint64_t head[1] = {0};
  ASSERT_TRUE(
      repl::WriteFrame(fd, repl::FrameType::kTailDelta, head, stream).ok());

  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(replica.WaitReplayed(end, 10000));
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(waited.count(), 1000);
  EXPECT_LT(replica.replayed_lsn(), end);
  EXPECT_EQ(replica.error().code(), StatusCode::kCorruption)
      << replica.error().ToString();
  EXPECT_TRUE(replica.stream_ended());

  Status promoted = replica.Promote();
  EXPECT_EQ(promoted.code(), StatusCode::kCorruption) << promoted.ToString();
  EXPECT_FALSE(replica.promoted());
}

// ------------------------------------------------------- torn shipment ----

TEST(ReplTest, TornSegmentFrameDetectedAndReRequested) {
  // Build a primary log with at least one sealed segment.
  io::MemVolume volume;
  LogStorage wal(0, 2048);
  std::map<uint64_t, std::vector<uint8_t>> committed;
  {
    auto db = std::move(
        *sm::StorageManager::Open(EngineOptions(2048), &volume, &wal));
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    for (uint64_t k = 0; k < 30; ++k) {
      ASSERT_TRUE(session->Insert(*table, k, Row(k)).ok());
      committed[k] = Row(k);
    }
    ASSERT_TRUE(session->Commit().ok());
    session.reset();
    db->SimulateCrash();  // keep the log; the replica will do the applying
  }
  ASSERT_GT(wal.size(), 2048u) << "need a sealed segment for this test";

  Loopback net;
  io::MemVolume rvolume;
  LogStorage rwal(0, 2048);
  repl::Replica::Options ro;
  ro.storage = EngineOptions(2048);
  repl::Replica replica(&rvolume, &rwal, ro);
  ASSERT_TRUE(replica.Start(net.fds[1]).ok());

  // Play a faulty shipper by hand on the primary side of the socket.
  int fd = net.fds[0];
  repl::Frame hello;
  ASSERT_TRUE(repl::ReadFrame(fd, &hello).ok());
  ASSERT_EQ(hello.type, repl::FrameType::kHello);
  size_t pos = 0;
  uint64_t next = 1;
  ASSERT_TRUE(repl::GetU64(hello.payload, &pos, &next));
  ASSERT_EQ(next, 0u);

  std::vector<uint8_t> seg;
  ASSERT_TRUE(wal.Read(0, 2048, &seg).ok());
  // Torn shipment: the frame itself is well-formed, but its payload stops
  // 1000 bytes short of the sealed-segment geometry it claims.
  {
    uint64_t head[3] = {0, 0, 2048};
    std::span<const uint8_t> torn(seg.data(), 2048 - 1000);
    ASSERT_TRUE(
        repl::WriteFrame(fd, repl::FrameType::kSegment, head, torn).ok());
  }
  // The replica detects the mismatch and re-requests from its true
  // position (nothing was appended, so offset 0).
  repl::Frame resend;
  ASSERT_TRUE(repl::ReadFrame(fd, &resend).ok());
  ASSERT_EQ(resend.type, repl::FrameType::kResend);
  pos = 0;
  uint64_t from = 99;
  ASSERT_TRUE(repl::GetU64(resend.payload, &pos, &from));
  EXPECT_EQ(from, 0u);

  // Re-ship correctly: the whole sealed segment, then the tail.
  {
    uint64_t head[3] = {0, 0, 2048};
    ASSERT_TRUE(
        repl::WriteFrame(fd, repl::FrameType::kSegment, head, seg).ok());
  }
  std::vector<uint8_t> tail;
  ASSERT_TRUE(wal.Read(2048, wal.size() - 2048, &tail).ok());
  {
    uint64_t head[1] = {2048};
    ASSERT_TRUE(
        repl::WriteFrame(fd, repl::FrameType::kTailDelta, head, tail).ok());
  }
  ASSERT_TRUE(replica.WaitReplayed(wal.size() + 1, 10000))
      << replica.error().ToString();
  EXPECT_EQ(replica.received_bytes(), wal.size());

  auto rsession = replica.sm()->OpenSession();
  ASSERT_TRUE(rsession->Begin().ok());
  auto rtable = rsession->OpenTable("t");
  ASSERT_TRUE(rtable.ok());
  for (const auto& [key, payload] : committed) {
    auto got = rsession->Read(*rtable, key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    EXPECT_TRUE(std::equal(got->begin(), got->end(), payload.begin()));
  }
  ASSERT_TRUE(rsession->Commit().ok());
  rsession.reset();
  replica.Stop();
}

// ------------------------------------- OnDurable bounded executor pool ----

TEST(DurableCallbackExecutorTest, SlowCallbackDoesNotStallGroupCommit) {
  LogStorage storage;
  LogManager mgr(&storage, LogOptions{});

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> slow_entered{false};
  std::atomic<bool> slow_done{false};

  LogRecord rec;
  rec.type = LogRecordType::kPageUpdate;
  rec.txn = 1;
  rec.page = 1;
  rec.after = {1, 2, 3};
  auto a1 = mgr.Append(rec);
  ASSERT_TRUE(a1.ok());
  mgr.OnDurable(a1->end, [&](Status st) {
    EXPECT_TRUE(st.ok());
    slow_entered.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lk(gate_mutex);
    gate_cv.wait(lk, [&] { return gate_open; });
    slow_done.store(true, std::memory_order_release);
  });
  for (int i = 0; i < 5000 && !slow_entered.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(slow_entered.load());

  // While the callback is parked, the flush daemon keeps committing:
  // durability advances well inside the callback's block window.
  auto t0 = std::chrono::steady_clock::now();
  auto a2 = mgr.Append(rec);
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(mgr.FlushTo(a2->end).ok());
  EXPECT_TRUE(mgr.IsDurable(a2->end));
  // An already-durable registration still fires inline (pinned
  // contract), even with the executor's worker occupied.
  bool inline_fired = false;
  mgr.OnDurable(a2->end, [&](Status st) {
    EXPECT_TRUE(st.ok());
    inline_fired = true;
  });
  EXPECT_TRUE(inline_fired);
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  EXPECT_FALSE(slow_done.load(std::memory_order_acquire));

  {
    std::lock_guard<std::mutex> lk(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (int i = 0; i < 5000 && !slow_done.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(slow_done.load());
}

}  // namespace
}  // namespace shoremt
