#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/volume.h"
#include "log/flush_pipeline.h"
#include "log/log_manager.h"
#include "log/log_storage.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace shoremt::sm {
namespace {

std::vector<uint8_t> Row(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string AsString(std::span<const uint8_t> v) {
  return std::string(v.begin(), v.end());
}

struct Harness {
  io::MemVolume volume;
  log::LogStorage log;
  std::unique_ptr<StorageManager> sm;

  explicit Harness(StorageOptions options =
                       StorageOptions::ForStage(Stage::kFinal)) {
    auto opened = StorageManager::Open(options, &volume, &log);
    EXPECT_TRUE(opened.ok());
    sm = std::move(*opened);
  }
};

TEST(CommitPipelineTest, CommitAsyncReturnsTokenAndWaitAcknowledges) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("v")).ok());
  auto token = session->CommitAsync();
  ASSERT_TRUE(token.ok());
  EXPECT_FALSE(session->InTransaction());
  EXPECT_FALSE(token->lsn.IsNull());
  EXPECT_GT(token->counters.log_bytes, 0u);
  ASSERT_TRUE(session->Wait(&*token).ok());
  EXPECT_TRUE(token->durable);
  EXPECT_GE(h.sm->log()->durable_lsn().value, token->lsn.value);
  EXPECT_EQ(session->counters()->Value(obs::Metric::kTxnCommits), 1u);
}

TEST(CommitPipelineTest, TryWaitAndPollAcksHarvestWithoutBlocking) {
  Harness h;
  auto session = h.sm->OpenSession();
  EXPECT_TRUE(session->PollAcks()) << "nothing outstanding: trivially true";
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("v")).ok());
  auto token = session->CommitAsync();
  ASSERT_TRUE(token.ok());
  // Non-blocking ack harvest: poll until the group-commit daemon's flush
  // passes the commit LSN — the server-loop pattern (no parked thread).
  while (!token->TryWait()) std::this_thread::yield();
  EXPECT_TRUE(token->durable);
  EXPECT_TRUE(token->TryWait()) << "idempotent once durable";
  EXPECT_GE(h.sm->log()->durable_lsn().value, token->lsn.value);
  while (!session->PollAcks()) std::this_thread::yield();
  EXPECT_TRUE(session->PollAcks()) << "watermark cleared: stays true";
  EXPECT_TRUE(session->WaitAll().ok()) << "no-op after a successful poll";
}

TEST(CommitPipelineTest, ReadOnlyTokenTryWaitIsImmediatelyTrue) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto token = session->CommitAsync();  // Read-only: nothing to flush.
  ASSERT_TRUE(token.ok());
  EXPECT_TRUE(token->TryWait());
  EXPECT_TRUE(token->durable);
  EXPECT_TRUE(session->PollAcks());
}

TEST(CommitPipelineTest, ReadOnlyCommitAsyncIsDurableImmediately) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto token = session->CommitAsync();
  ASSERT_TRUE(token.ok());
  EXPECT_TRUE(token->lsn.IsNull());
  EXPECT_TRUE(token->durable);
  ASSERT_TRUE(session->Wait(&*token).ok());
  ASSERT_TRUE(session->WaitAll().ok());
}

TEST(CommitPipelineTest, MultiThreadedCommitAsyncDurableLsnMonotonic) {
  Harness h;
  TableInfo table;
  {
    auto setup = h.sm->OpenSession();
    ASSERT_TRUE(setup->Begin().ok());
    auto t = setup->CreateTable("t");
    ASSERT_TRUE(t.ok());
    table = *t;
    ASSERT_TRUE(setup->Commit().ok());
  }
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 40;
  std::vector<std::vector<Lsn>> token_lsns(kThreads);
  std::atomic<bool> monotonic{true};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = h.sm->OpenSession();
      Lsn last_durable;
      for (int i = 0; i < kTxnsPerThread; ++i) {
        ASSERT_TRUE(session->Begin().ok());
        uint64_t key = (static_cast<uint64_t>(t) << 32) |
                       static_cast<uint64_t>(i);
        ASSERT_TRUE(session->Insert(table, key, Row("x")).ok());
        auto token = session->CommitAsync();
        ASSERT_TRUE(token.ok());
        token_lsns[t].push_back(token->lsn);
        // The durable horizon only ever advances.
        Lsn durable = h.sm->log()->durable_lsn();
        if (durable < last_durable) monotonic.store(false);
        last_durable = durable;
        if (i % 8 == 7) {
          ASSERT_TRUE(session->Wait(&*token).ok());
          EXPECT_GE(h.sm->log()->durable_lsn().value, token->lsn.value);
        }
      }
      ASSERT_TRUE(session->WaitAll().ok());
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(monotonic.load());
  // Every commit LSN is distinct, and after WaitAll the durable horizon
  // covers all of them.
  std::set<uint64_t> all;
  Lsn max_lsn;
  for (const auto& v : token_lsns) {
    for (Lsn l : v) {
      EXPECT_TRUE(all.insert(l.value).second) << "duplicate commit LSN";
      max_lsn = std::max(max_lsn, l);
    }
  }
  EXPECT_GE(h.sm->log()->durable_lsn().value, max_lsn.value);
  // The group-commit daemon actually batched: it ran, and commits per
  // batch can only make the flush count smaller, never larger.
  const log::LogStats& ls = h.sm->log()->stats();
  EXPECT_GT(ls.group_batches.load(), 0u);
  EXPECT_GE(ls.group_batch_txns.load(), ls.group_batches.load());
}

TEST(CommitPipelineTest, EarlyLockReleaseMakesRowsVisibleBeforeDurability) {
  // A successor must be able to lock rows the moment the predecessor's
  // CommitAsync returns — well before the commit is acknowledged. Use a
  // very slow log device so the window between commit and durability is
  // wide open, and a lock timeout far below the flush latency so a
  // not-yet-released lock would fail the successor's update.
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.lock.timeout_us = 200'000;
  io::MemVolume volume;
  log::LogStorage wal(/*append_latency_ns=*/60'000'000);  // 60ms per flush.
  auto opened = StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;

  auto s1 = db->OpenSession();
  ASSERT_TRUE(s1->Begin().ok());
  auto table = s1->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(s1->Insert(*table, 1, Row("t1")).ok());
  auto tok1 = s1->CommitAsync();
  ASSERT_TRUE(tok1.ok());
  EXPECT_FALSE(tok1->durable) << "flush should still be in flight";

  // Successor: X-locks the row T1 just wrote, before T1 is durable. With
  // strict 2PL (no early release) this would park until the 60ms flush
  // completes; with early lock release it succeeds immediately.
  auto s2 = db->OpenSession();
  ASSERT_TRUE(s2->Begin().ok());
  ASSERT_TRUE(s2->Update(*table, 1, Row("t2")).ok());
  auto tok2 = s2->CommitAsync();
  ASSERT_TRUE(tok2.ok());
  // Dependency order in the log: T2's commit LSN follows T1's.
  EXPECT_GT(tok2->lsn.value, tok1->lsn.value);

  // Acknowledge both, then crash and recover: both committed transactions
  // survive, in commit-LSN order (the row carries T2's value).
  ASSERT_TRUE(s1->Wait(&*tok1).ok());
  ASSERT_TRUE(s2->Wait(&*tok2).ok());
  s1.reset();
  s2.reset();
  db->SimulateCrash();
  db.reset();

  auto reopened = StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto check = (*reopened)->OpenSession();
  ASSERT_TRUE(check->Begin().ok());
  auto t2 = check->OpenTable("t");
  ASSERT_TRUE(t2.ok());
  auto row = check->Read(*t2, 1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(AsString(*row), "t2");
  ASSERT_TRUE(check->Commit().ok());
}

TEST(CommitPipelineTest, ReadOnlyDependentIsNotAcknowledgedBeforeWriter) {
  // A read-only transaction that observed rows from a committed-but-
  // unflushed writer must not be acknowledged first: its token waits on
  // the log horizon, which covers the writer's commit record.
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  io::MemVolume volume;
  log::LogStorage wal(/*append_latency_ns=*/60'000'000);  // 60ms per flush.
  auto opened = StorageManager::Open(opts, &volume, &wal);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;

  auto writer = db->OpenSession();
  ASSERT_TRUE(writer->Begin().ok());
  auto table = writer->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(writer->Insert(*table, 1, Row("w")).ok());
  auto wtok = writer->CommitAsync();
  ASSERT_TRUE(wtok.ok());
  EXPECT_FALSE(wtok->durable);

  auto reader = db->OpenSession();
  ASSERT_TRUE(reader->Begin().ok());
  EXPECT_EQ(AsString(*reader->Read(*table, 1)), "w");  // Early-released row.
  auto rtok = reader->CommitAsync();
  ASSERT_TRUE(rtok.ok());
  // The read-only dependent carries a real flush target, not an instant
  // acknowledgment, and waiting on it implies the writer is durable too.
  EXPECT_FALSE(rtok->lsn.IsNull());
  ASSERT_TRUE(reader->Wait(&*rtok).ok());
  EXPECT_TRUE(db->log()->IsDurable(wtok->lsn));
  ASSERT_TRUE(writer->Wait(&*wtok).ok());
}

TEST(CommitPipelineTest, UnacknowledgedCommitMayDieButNeverHalfApplies) {
  // Crash with CommitAsync submitted but never acknowledged: the
  // transaction either fully survives (flush won the race) or vanishes
  // entirely — its heap insert must not outlive its commit record.
  io::MemVolume volume;
  log::LogStorage wal(/*append_latency_ns=*/60'000'000);
  {
    auto opened = StorageManager::Open(
        StorageOptions::ForStage(Stage::kFinal), &volume, &wal);
    ASSERT_TRUE(opened.ok());
    auto& db = *opened;
    auto session = db->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    auto table = session->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(session->Insert(*table, 1, Row("durable")).ok());
    ASSERT_TRUE(session->Commit().ok());  // Acknowledged: must survive.

    ASSERT_TRUE(session->Begin().ok());
    ASSERT_TRUE(session->Insert(*table, 2, Row("maybe")).ok());
    auto token = session->CommitAsync();
    ASSERT_TRUE(token.ok());
    // Crash before the 60ms flush: skip Wait and close mid-flight. A
    // session closed after the crash neither waits nor writes.
    db->SimulateCrash();
    session.reset();
  }
  auto reopened = StorageManager::Open(
      StorageOptions::ForStage(Stage::kFinal), &volume, &wal);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto check = (*reopened)->OpenSession();
  ASSERT_TRUE(check->Begin().ok());
  auto table = check->OpenTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(AsString(*check->Read(*table, 1)), "durable");
  auto row2 = check->Read(*table, 2);
  if (row2.ok()) {
    EXPECT_EQ(AsString(*row2), "maybe");  // Flush won: fully applied.
  } else {
    EXPECT_TRUE(row2.status().IsNotFound());  // Lost: fully gone.
  }
  ASSERT_TRUE(check->Commit().ok());
}

TEST(CommitPipelineTest, WaitAfterAbortIsCleanAndTokensOutliveAborts) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("v")).ok());
  auto token = session->CommitAsync();
  ASSERT_TRUE(token.ok());

  // A later transaction aborts; the earlier commit's token still
  // acknowledges, and WaitAll after the abort has nothing stale pending.
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Insert(*table, 2, Row("discard")).ok());
  ASSERT_TRUE(session->Abort().ok());
  ASSERT_TRUE(session->Wait(&*token).ok());
  EXPECT_TRUE(token->durable);
  ASSERT_TRUE(session->WaitAll().ok());

  // Waiting again on an already-durable token is a cheap no-op.
  ASSERT_TRUE(session->Wait(&*token).ok());
  EXPECT_GT(session->counters()->Value(obs::Metric::kCommitWaitsAvoided), 0u);

  ASSERT_TRUE(session->Begin().ok());
  EXPECT_EQ(AsString(*session->Read(*table, 1)), "v");
  EXPECT_TRUE(session->Read(*table, 2).status().IsNotFound());
  ASSERT_TRUE(session->Commit().ok());
}

TEST(CommitPipelineTest, DaemonFlushErrorIsStickyAndPropagates) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Commit().ok());

  // Kill the log device, then commit: the daemon's flush fails, the error
  // sticks, and the durability wait reports it instead of hanging or
  // silently succeeding.
  h.log.set_fail_appends(true);
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("doomed")).ok());
  auto token = session->CommitAsync();
  ASSERT_TRUE(token.ok()) << "append goes to the buffer, not the device";
  Status st = session->Wait(&*token);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(token->durable);
  EXPECT_FALSE(h.sm->log()->pipeline_error().ok()) << "error must stick";

  // Every later wait sees the same sticky error.
  EXPECT_FALSE(session->Wait(&*token).ok());
  // The non-blocking polls must terminate their loops on the poisoned
  // pipeline rather than spin forever — TryWait returns true WITHOUT
  // marking the token durable, PollAcks returns true WITHOUT clearing
  // the watermark, and WaitAll (immediate here) reports the error.
  EXPECT_TRUE(token->TryWait());
  EXPECT_FALSE(token->durable);
  EXPECT_TRUE(session->PollAcks());  // Watermark still set from the commit.
  EXPECT_FALSE(session->WaitAll().ok()) << "error observable via WaitAll";
  // Restore the device so teardown's final drain can proceed; the sticky
  // error remains (durability promises stay revoked for this manager).
  h.log.set_fail_appends(false);
  EXPECT_FALSE(h.sm->log()->pipeline_error().ok());
  h.sm->SimulateCrash();  // Skip the shutdown flush of the poisoned log.
}

TEST(CommitPipelineTest, BlockingCommitStillRidesThePipeline) {
  // Session::Commit is CommitAsync + Wait: with several sessions
  // committing concurrently against a slow device, the daemon's batches
  // must cover multiple commits (fewer device flushes than commits).
  io::MemVolume volume;
  log::LogStorage wal(/*append_latency_ns=*/200'000);
  auto opened = StorageManager::Open(
      StorageOptions::ForStage(Stage::kFinal), &volume, &wal);
  ASSERT_TRUE(opened.ok());
  auto& db = *opened;
  TableInfo table;
  {
    auto setup = db->OpenSession();
    ASSERT_TRUE(setup->Begin().ok());
    auto t = setup->CreateTable("t");
    ASSERT_TRUE(t.ok());
    table = *t;
    ASSERT_TRUE(setup->Commit().ok());
  }
  uint64_t flushes_before = wal.flush_calls();
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = db->OpenSession();
      for (int i = 0; i < kCommitsPerThread; ++i) {
        ASSERT_TRUE(session->Begin().ok());
        uint64_t key = (static_cast<uint64_t>(t) << 32) |
                       static_cast<uint64_t>(i);
        ASSERT_TRUE(session->Insert(table, key, Row("x")).ok());
        ASSERT_TRUE(session->Commit().ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LT(wal.flush_calls() - flushes_before,
            uint64_t{kThreads} * kCommitsPerThread);
  EXPECT_GT(db->log()->stats().group_batches.load(), 0u);
}

TEST(CommitPipelineTest, OnDurableCallbackAcknowledgesAsyncCommit) {
  // The registered-callback third option next to Wait (park) and
  // TryWait/PollAcks (poll): the flush daemon invokes the closure as its
  // durable horizon passes the commit LSN.
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("v")).ok());
  auto token = session->CommitAsync();
  ASSERT_TRUE(token.ok());
  std::atomic<int> fired{0};
  Status seen = Status::Internal("never invoked");
  session->OnDurable(token->lsn, [&](Status st) {
    seen = st;
    fired.fetch_add(1, std::memory_order_release);
  });
  for (int i = 0; i < 2000 && fired.load(std::memory_order_acquire) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fired.load(), 1);
  EXPECT_TRUE(seen.ok()) << seen.ToString();
  EXPECT_TRUE(h.sm->log()->IsDurable(token->lsn));
  // The callback did not consume the session's pending-ack watermark:
  // Wait/WaitAll semantics are unchanged.
  ASSERT_TRUE(session->WaitAll().ok());
}

TEST(CommitPipelineTest, OnDurableCallbackSeesStickyPipelineError) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Commit().ok());

  h.log.set_fail_appends(true);
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("doomed")).ok());
  auto token = session->CommitAsync();
  ASSERT_TRUE(token.ok());
  std::atomic<int> fired{0};
  Status seen;
  session->OnDurable(token->lsn, [&](Status st) {
    seen = st;
    fired.fetch_add(1, std::memory_order_release);
  });
  for (int i = 0; i < 2000 && fired.load(std::memory_order_acquire) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fired.load(), 1);
  EXPECT_EQ(seen.code(), StatusCode::kIOError)
      << "pending closures learn the sticky error";
  h.log.set_fail_appends(false);
  h.sm->SimulateCrash();  // Skip the shutdown flush of the poisoned log.
}

}  // namespace
}  // namespace shoremt::sm
