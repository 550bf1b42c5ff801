#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree_node.h"
#include "io/volume.h"
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

TEST(SessionTest, LifecycleAndBasicDml) {
  Harness h;
  auto session = h.sm->OpenSession();
  EXPECT_FALSE(session->InTransaction());
  // DML without a transaction is rejected, not UB.
  EXPECT_EQ(session->Read(TableInfo{}, 1).status().code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(session->Begin().ok());
  EXPECT_FALSE(session->Begin().ok()) << "nested Begin must fail";
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("v1")).ok());
  EXPECT_EQ(AsString(*session->Read(*table, 1)), "v1");
  ASSERT_TRUE(session->Update(*table, 1, Row("v2")).ok());
  EXPECT_EQ(AsString(*session->Read(*table, 1)), "v2");
  ASSERT_TRUE(session->Delete(*table, 1).ok());
  EXPECT_TRUE(session->Read(*table, 1).status().IsNotFound());
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_FALSE(session->InTransaction());
}

TEST(SessionTest, AbortRollsBack) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("keep")).ok());
  ASSERT_TRUE(session->Commit().ok());

  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Update(*table, 1, Row("mutated")).ok());
  ASSERT_TRUE(session->Insert(*table, 2, Row("discard")).ok());
  ASSERT_TRUE(session->Abort().ok());

  ASSERT_TRUE(session->Begin().ok());
  EXPECT_EQ(AsString(*session->Read(*table, 1)), "keep");
  EXPECT_TRUE(session->Read(*table, 2).status().IsNotFound());
  ASSERT_TRUE(session->Commit().ok());
}

TEST(SessionTest, CursorIteratesAcrossLeafBoundaries) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  // Enough rows for several leaves (a leaf holds ~508 entries).
  constexpr uint64_t kRows = 1500;
  static_assert(kRows > 2 * btree::BTreeNode::kMaxEntries);
  for (uint64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE(session->Insert(*table, k, Row("r" + std::to_string(k))).ok());
  }
  ASSERT_TRUE(session->Commit().ok());

  ASSERT_TRUE(session->Begin().ok());
  auto cur = session->OpenCursor(*table);
  uint64_t expect = 0;
  for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(cur.key(), expect);
    ASSERT_EQ(AsString(cur.value()), "r" + std::to_string(expect));
    ++expect;
  }
  EXPECT_EQ(expect, kRows);

  // Bounded range, starting between keys.
  uint64_t seen = 0;
  for (auto st = cur.Seek(700); cur.Valid() && cur.key() <= 900;
       st = cur.Next()) {
    ASSERT_TRUE(st.ok());
    ++seen;
  }
  EXPECT_EQ(seen, 201u);
  ASSERT_TRUE(session->Commit().ok());
}

TEST(SessionTest, CursorSurvivesConcurrentInsertsAndSplits) {
  Harness h;
  auto writer = h.sm->OpenSession();
  ASSERT_TRUE(writer->Begin().ok());
  auto table = writer->CreateTable("t");
  ASSERT_TRUE(table.ok());
  // Even keys 0..2*kBase-2 — spans 2+ leaves.
  constexpr uint64_t kBase = 600;
  for (uint64_t i = 0; i < kBase; ++i) {
    ASSERT_TRUE(writer->Insert(*table, 2 * i, Row("even")).ok());
  }
  ASSERT_TRUE(writer->Commit().ok());

  auto reader = h.sm->OpenSession();
  ASSERT_TRUE(reader->Begin().ok());
  auto cur = reader->OpenCursor(*table);
  std::vector<uint64_t> seen;
  auto st = cur.Seek(0);
  ASSERT_TRUE(st.ok());
  // Drain the first ~100 rows, then flood odd keys everywhere — behind,
  // at, and ahead of the cursor — forcing leaf splits mid-iteration.
  for (int i = 0; i < 100 && cur.Valid(); ++i) {
    seen.push_back(cur.key());
    ASSERT_TRUE(cur.Next().ok());
  }
  ASSERT_TRUE(writer->Begin().ok());
  for (uint64_t i = 0; i < kBase; ++i) {
    ASSERT_TRUE(writer->Insert(*table, 2 * i + 1, Row("odd")).ok());
  }
  ASSERT_TRUE(writer->Commit().ok());
  while (cur.Valid()) {
    seen.push_back(cur.key());
    ASSERT_TRUE(cur.Next().ok());
  }
  ASSERT_TRUE(reader->Commit().ok());

  // Exactly-once: strictly increasing keys, and every even key appears —
  // keys that existed for the whole scan can be neither skipped nor
  // duplicated by the splits.
  for (size_t i = 1; i < seen.size(); ++i) {
    ASSERT_LT(seen[i - 1], seen[i]) << "duplicate or out-of-order key";
  }
  uint64_t evens = 0;
  for (uint64_t k : seen) evens += (k % 2 == 0);
  EXPECT_EQ(evens, kBase);
}

TEST(SessionTest, HarvestTotalsMatchPerSessionCounts) {
  Harness h;
  TableInfo table;
  {
    auto setup = h.sm->OpenSession();
    ASSERT_TRUE(setup->Begin().ok());
    auto t = setup->CreateTable("t");
    ASSERT_TRUE(t.ok());
    table = *t;
    ASSERT_TRUE(setup->Commit().ok());
  }  // Setup session harvested here.
  SessionStats baseline = h.sm->harvested_session_stats();

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 25;
  constexpr int kInsertsPerTxn = 4;
  std::vector<SessionStats> local(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = h.sm->OpenSession();
      for (int i = 0; i < kTxnsPerThread; ++i) {
        ASSERT_TRUE(session->Begin().ok());
        for (int k = 0; k < kInsertsPerTxn; ++k) {
          uint64_t key = (static_cast<uint64_t>(t) << 32) |
                         static_cast<uint64_t>(i * kInsertsPerTxn + k);
          ASSERT_TRUE(session->Insert(table, key, Row("x")).ok());
          ASSERT_TRUE(session->Read(table, key).ok());
        }
        ASSERT_TRUE(session->Commit().ok());
      }
      local[t] = session->stats();  // Snapshot before harvest-on-close.
    });
  }
  for (auto& w : workers) w.join();

  // The manager's aggregate must equal the sum of what each session
  // counted privately — nothing lost, nothing double-counted.
  SessionStats expected;
  for (const auto& s : local) expected.Add(s);
  SessionStats agg = h.sm->harvested_session_stats();
  EXPECT_EQ(agg.inserts - baseline.inserts, expected.inserts);
  EXPECT_EQ(agg.reads - baseline.reads, expected.reads);
  EXPECT_EQ(agg.commits - baseline.commits, expected.commits);
  EXPECT_EQ(agg.log_bytes - baseline.log_bytes, expected.log_bytes);
  EXPECT_EQ(expected.inserts,
            uint64_t{kThreads} * kTxnsPerThread * kInsertsPerTxn);
  EXPECT_EQ(expected.reads,
            uint64_t{kThreads} * kTxnsPerThread * kInsertsPerTxn);
  EXPECT_GT(expected.log_bytes, 0u);
}

TEST(SessionTest, ConcurrentInsertsIntoOneHeapNeverFailToPlace) {
  // Wide rows make every few inserts grow the heap, so sessions race
  // page allocation constantly. With allocation published before the
  // new page is formatted, an inserter must still land on the page it
  // formatted itself rather than give up on a neighbour's blank page.
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
  constexpr int kThreads = 6;
  constexpr int kRowsPerThread = 1200;
  constexpr int kRowsPerTxn = 8;
  const std::vector<uint8_t> row(1500, 0x6B);
  std::atomic<int> failures{0};
  std::mutex first_error_mu;
  std::string first_error;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = h.sm->OpenSession();
      for (int i = 0; i < kRowsPerThread; i += kRowsPerTxn) {
        Status st = session->Begin();
        for (int k = i; st.ok() && k < i + kRowsPerTxn; ++k) {
          uint64_t key = (static_cast<uint64_t>(t) << 32) | k;
          st = session->Insert(table, key, row).status();
        }
        if (st.ok()) st = session->Commit();
        if (!st.ok()) {
          failures.fetch_add(1);
          std::lock_guard<std::mutex> g(first_error_mu);
          if (first_error.empty()) first_error = st.ToString();
          (void)session->Abort();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0) << first_error;

  auto reader = h.sm->OpenSession();
  ASSERT_TRUE(reader->Begin().ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kRowsPerThread; ++k) {
      uint64_t key = (static_cast<uint64_t>(t) << 32) | k;
      auto got = reader->Read(table, key);
      ASSERT_TRUE(got.ok()) << "key " << key;
      ASSERT_EQ(got->size(), row.size());
    }
  }
  ASSERT_TRUE(reader->Commit().ok());
}

TEST(SessionTest, ApplyCommitsWholeBatch) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("one")).ok());
  ASSERT_TRUE(session->Commit().ok());

  std::vector<uint8_t> two = Row("two"), one2 = Row("one v2");
  std::vector<Op> batch = {
      {OpType::kInsert, 2, two},
      {OpType::kUpdate, 1, one2},
  };
  ASSERT_TRUE(session->Apply(*table, batch).ok());
  EXPECT_FALSE(session->InTransaction()) << "auto-txn Apply must commit";

  ASSERT_TRUE(session->Begin().ok());
  EXPECT_EQ(AsString(*session->Read(*table, 2)), "two");
  EXPECT_EQ(AsString(*session->Read(*table, 1)), "one v2");
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_EQ(session->stats().batches, 1u);
  EXPECT_EQ(session->stats().batch_ops, 2u);
}

TEST(SessionTest, ApplyIsAtomicOnMidBatchFailure) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 5, Row("existing")).ok());
  ASSERT_TRUE(session->Commit().ok());

  // Third op collides with key 5 -> whole batch must abort.
  std::vector<uint8_t> a = Row("a"), b = Row("b"), dup = Row("dup");
  std::vector<Op> batch = {
      {OpType::kInsert, 10, a},
      {OpType::kInsert, 11, b},
      {OpType::kInsert, 5, dup},
  };
  Status st = session->Apply(*table, batch);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(session->InTransaction())
      << "failed auto-txn Apply must clean up after itself";

  ASSERT_TRUE(session->Begin().ok());
  EXPECT_TRUE(session->Read(*table, 10).status().IsNotFound())
      << "no partial batch effects may survive";
  EXPECT_TRUE(session->Read(*table, 11).status().IsNotFound());
  EXPECT_EQ(AsString(*session->Read(*table, 5)), "existing");
  ASSERT_TRUE(session->Commit().ok());
}

TEST(SessionTest, OpenTableBlocksOnInFlightDdl) {
  // A lock-wait budget far above the DDL thread's sleep, so a loaded CI
  // scheduler cannot turn the intended block into a Deadlock timeout.
  StorageOptions opts = StorageOptions::ForStage(Stage::kFinal);
  opts.lock.timeout_us = 30'000'000;
  Harness h(opts);
  std::atomic<bool> created{false};
  std::atomic<bool> committed{false};
  std::thread ddl([&] {
    auto session = h.sm->OpenSession();
    ASSERT_TRUE(session->Begin().ok());
    ASSERT_TRUE(session->CreateTable("racy").ok());
    created.store(true, std::memory_order_release);
    // Hold the X store locks while the observer tries to open the table.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    committed.store(true, std::memory_order_release);
    ASSERT_TRUE(session->Commit().ok());
  });
  while (!created.load(std::memory_order_acquire)) std::this_thread::yield();

  auto observer = h.sm->OpenSession();
  auto table = observer->OpenTable("racy");
  // The lookup parked on the creator's store lock: by the time it
  // returns, the DDL has committed — never a half-created table.
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_TRUE(committed.load(std::memory_order_acquire))
      << "OpenTable returned while the DDL transaction was still open";
  ddl.join();

  ASSERT_TRUE(observer->Begin().ok());
  ASSERT_TRUE(observer->Insert(*table, 1, Row("v")).ok());
  ASSERT_TRUE(observer->Commit().ok());
}

TEST(SessionTest, ReadBufferIsReusedAcrossReads) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("the longer first row")).ok());
  ASSERT_TRUE(session->Insert(*table, 2, Row("second")).ok());
  auto r1 = session->Read(*table, 1);
  ASSERT_TRUE(r1.ok());
  const uint8_t* p1 = r1->data();
  auto r2 = session->Read(*table, 2);
  ASSERT_TRUE(r2.ok());
  // Same backing storage (no per-read allocation once warm); the old span
  // now sees the new bytes — documented invalidation semantics.
  EXPECT_EQ(p1, r2->data());
  EXPECT_EQ(AsString(*r2), "second");
  ASSERT_TRUE(session->Commit().ok());
}

TEST(SessionTest, DeprecatedFacadeInteroperatesWithSessions) {
  Harness h;
  auto session = h.sm->OpenSession();
  ASSERT_TRUE(session->Begin().ok());
  auto table = session->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session->Insert(*table, 1, Row("via-session")).ok());
  ASSERT_TRUE(session->Commit().ok());

  // Old-style callers still work against the same data.
  auto* txn = h.sm->Begin();
  auto read = h.sm->Read(txn, *table, 1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(read->begin(), read->end()), "via-session");
  ASSERT_TRUE(h.sm->Commit(txn).ok());
}

}  // namespace
}  // namespace shoremt::sm
