#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_node.h"
#include "buffer/buffer_pool.h"
#include "io/volume.h"
#include "lock/lock_manager.h"
#include "log/log_manager.h"
#include "space/space_manager.h"
#include "txn/txn_manager.h"

namespace shoremt {
namespace {

/// Builds the full component stack (final-stage options) for direct
/// B+Tree / transaction-manager testing.
class ComponentHarness {
 public:
  ComponentHarness()
      : log_(&log_storage_, log::LogOptions{}),
        pool_(&volume_, MakePoolOptions(),
              [this](Lsn lsn) { return log_.FlushTo(lsn); }),
        space_(&volume_, space::SpaceOptions{}),
        locks_(MakeLockOptions()),
        txns_(&log_, &locks_, txn::TxnOptions{}) {
    EXPECT_TRUE(volume_.Extend(kPagesPerExtent).ok());
  }

  static buffer::BufferPoolOptions MakePoolOptions() {
    buffer::BufferPoolOptions o;
    o.frame_count = 256;
    return o;
  }
  static lock::LockOptions MakeLockOptions() {
    lock::LockOptions o;
    o.timeout_us = 50'000;
    return o;
  }

  btree::BTree MakeTree(StoreId store) {
    EXPECT_TRUE(space_.CreateStore(store).ok());
    auto* txn = txns_.Begin();
    auto root = btree::BTree::CreateRoot(&pool_, &space_, &log_, &txns_, txn,
                                         store);
    EXPECT_TRUE(root.ok());
    EXPECT_TRUE(txns_.Commit(txn).ok());
    return btree::BTree(&pool_, &space_, &log_, &txns_, store, *root,
                        btree::BTreeOptions{});
  }

  io::MemVolume volume_;
  log::LogStorage log_storage_;
  log::LogManager log_;
  buffer::BufferPool pool_;
  space::SpaceManager space_;
  lock::LockManager locks_;
  txn::TxnManager txns_;
};

// ------------------------------------------------------------ BTreeNode ---

TEST(BTreeNodeTest, InitAndInsertSorted) {
  alignas(8) uint8_t buf[kPageSize] = {};
  btree::BTreeNode node(buf);
  node.Init(5, 1, 0);
  EXPECT_TRUE(node.IsLeaf());
  EXPECT_EQ(node.count(), 0u);
  EXPECT_TRUE(node.InsertSorted(30, 300));
  EXPECT_TRUE(node.InsertSorted(10, 100));
  EXPECT_TRUE(node.InsertSorted(20, 200));
  ASSERT_EQ(node.count(), 3u);
  EXPECT_EQ(node.entry(0).key, 10u);
  EXPECT_EQ(node.entry(1).key, 20u);
  EXPECT_EQ(node.entry(2).key, 30u);
  EXPECT_FALSE(node.InsertSorted(20, 999)) << "duplicates rejected";
}

TEST(BTreeNodeTest, FindAndRemove) {
  alignas(8) uint8_t buf[kPageSize] = {};
  btree::BTreeNode node(buf);
  node.Init(5, 1, 0);
  for (uint64_t k = 0; k < 50; ++k) node.InsertSorted(k * 2, k);
  uint16_t idx;
  EXPECT_TRUE(node.FindKey(48, &idx));
  EXPECT_EQ(node.entry(idx).value, 24u);
  EXPECT_FALSE(node.FindKey(49, &idx));
  EXPECT_TRUE(node.RemoveKey(48));
  EXPECT_FALSE(node.FindKey(48, &idx));
  EXPECT_FALSE(node.RemoveKey(48));
  EXPECT_EQ(node.count(), 49u);
}

TEST(BTreeNodeTest, ChildRouting) {
  alignas(8) uint8_t buf[kPageSize] = {};
  btree::BTreeNode node(buf);
  node.Init(5, 1, 1);  // Internal.
  node.set_leftmost_child(100);
  node.InsertSorted(10, 110);
  node.InsertSorted(20, 120);
  EXPECT_EQ(node.ChildFor(5), 100u);    // < 10.
  EXPECT_EQ(node.ChildFor(10), 110u);   // == 10.
  EXPECT_EQ(node.ChildFor(15), 110u);   // In [10, 20).
  EXPECT_EQ(node.ChildFor(20), 120u);
  EXPECT_EQ(node.ChildFor(999), 120u);
}

TEST(BTreeNodeTest, SplitLeafHalves) {
  alignas(8) uint8_t a_buf[kPageSize] = {};
  alignas(8) uint8_t b_buf[kPageSize] = {};
  btree::BTreeNode a(a_buf), b(b_buf);
  a.Init(1, 1, 0);
  b.Init(2, 1, 0);
  for (uint64_t k = 0; k < 100; ++k) a.InsertSorted(k, k);
  uint64_t sep = a.SplitInto(&b, 25);  // Inserting left of the middle.
  EXPECT_EQ(a.count(), 50u);
  EXPECT_EQ(b.count(), 50u);
  EXPECT_EQ(sep, 50u);
  EXPECT_EQ(b.entry(0).key, 50u);
}

TEST(BTreeNodeTest, SplitLeafAtInsertionPoint) {
  alignas(8) uint8_t a_buf[kPageSize] = {};
  alignas(8) uint8_t b_buf[kPageSize] = {};
  btree::BTreeNode a(a_buf), b(b_buf);
  a.Init(1, 1, 0);
  b.Init(2, 1, 0);
  for (uint64_t k = 0; k < 100; ++k) a.InsertSorted(k * 2, k);
  // 141 goes in at position 71: the left leaf keeps everything below it.
  EXPECT_EQ(a.SplitInto(&b, 141), 142u);
  EXPECT_EQ(a.count(), 71u);
  EXPECT_EQ(b.count(), 29u);
  // An append past the last key keeps all but one entry on the left.
  a.Init(1, 1, 0);
  b.Init(2, 1, 0);
  for (uint64_t k = 0; k < 100; ++k) a.InsertSorted(k, k);
  EXPECT_EQ(a.SplitInto(&b, 1000), 99u);
  EXPECT_EQ(a.count(), 99u);
  EXPECT_EQ(b.count(), 1u);
}

TEST(BTreeNodeTest, SplitInternalPromotesSeparator) {
  alignas(8) uint8_t a_buf[kPageSize] = {};
  alignas(8) uint8_t b_buf[kPageSize] = {};
  btree::BTreeNode a(a_buf), b(b_buf);
  a.Init(1, 1, 1);
  b.Init(2, 1, 1);
  a.set_leftmost_child(1000);
  for (uint64_t k = 1; k <= 99; ++k) a.InsertSorted(k, 1000 + k);
  uint64_t sep = a.SplitInto(&b, 100);  // Internal nodes always halve.
  // Separator is promoted (not duplicated in the right node).
  EXPECT_EQ(b.leftmost_child(), 1000 + sep);
  uint16_t idx;
  EXPECT_FALSE(b.FindKey(sep, &idx));
  EXPECT_EQ(a.count() + b.count() + 1, 99u);
}

TEST(BTreeNodeTest, ContentRoundtripIncludesChain) {
  alignas(8) uint8_t a_buf[kPageSize] = {};
  alignas(8) uint8_t b_buf[kPageSize] = {};
  btree::BTreeNode a(a_buf), b(b_buf);
  a.Init(1, 1, 0);
  a.InsertSorted(7, 70);
  page::HeaderOf(a_buf)->next_page = 42;
  page::HeaderOf(a_buf)->prev_page = 41;
  b.Init(2, 1, 0);
  b.RestoreContent(a.SerializeContent());
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.entry(0).key, 7u);
  EXPECT_EQ(page::HeaderOf(b_buf)->next_page, 42u);
  EXPECT_EQ(page::HeaderOf(b_buf)->prev_page, 41u);
}

TEST(BTreeNodeTest, RecordIdPackingRoundtrip) {
  RecordId rid{123456, 789};
  EXPECT_EQ(btree::UnpackRecordId(btree::PackRecordId(rid)), rid);
}

// ---------------------------------------------------------------- BTree ---

TEST(BTreeTest, InsertFindSingle) {
  ComponentHarness h;
  auto tree = h.MakeTree(1);
  auto* txn = h.txns_.Begin();
  ASSERT_TRUE(tree.Insert(txn, 42, RecordId{9, 1}).ok());
  auto found = tree.Find(txn, 42);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, (RecordId{9, 1}));
  EXPECT_TRUE(tree.Find(txn, 43).status().IsNotFound());
  ASSERT_TRUE(h.txns_.Commit(txn).ok());
}

TEST(BTreeTest, DuplicateKeyRejected) {
  ComponentHarness h;
  auto tree = h.MakeTree(1);
  auto* txn = h.txns_.Begin();
  ASSERT_TRUE(tree.Insert(txn, 1, RecordId{9, 1}).ok());
  EXPECT_EQ(tree.Insert(txn, 1, RecordId{9, 2}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(h.txns_.Commit(txn).ok());
}

TEST(BTreeTest, ManyKeysForceMultiLevelSplits) {
  ComponentHarness h;
  auto tree = h.MakeTree(1);
  auto* txn = h.txns_.Begin();
  // ~508 entries per node: 3000 keys forces root + internal splits.
  constexpr uint64_t kN = 3000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree.Insert(txn, k * 7 % kN, RecordId{k + 1, 0}).ok())
        << "key " << k * 7 % kN;
  }
  ASSERT_TRUE(h.txns_.Commit(txn).ok());
  EXPECT_GT(tree.stats().splits.load(), 0u);
  EXPECT_EQ(*tree.CountEntries(), kN);
  // Every key findable with the right value.
  for (uint64_t k = 0; k < kN; ++k) {
    auto found = tree.Find(nullptr, k * 7 % kN);
    ASSERT_TRUE(found.ok()) << "key " << k * 7 % kN;
    EXPECT_EQ(found->page, k + 1);
  }
}

TEST(BTreeTest, ScanInOrderAcrossLeaves) {
  ComponentHarness h;
  auto tree = h.MakeTree(1);
  auto* txn = h.txns_.Begin();
  constexpr uint64_t kN = 2000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree.Insert(txn, (kN - 1 - k) * 3, RecordId{k + 1, 0}).ok());
  }
  ASSERT_TRUE(h.txns_.Commit(txn).ok());
  uint64_t prev = 0;
  uint64_t seen = 0;
  ASSERT_TRUE(tree.Scan(0, UINT64_MAX, [&](uint64_t key, RecordId) {
                    if (seen > 0) EXPECT_GT(key, prev);
                    prev = key;
                    ++seen;
                    return true;
                  }).ok());
  EXPECT_EQ(seen, kN);
  // Bounded scan.
  seen = 0;
  ASSERT_TRUE(tree.Scan(300, 600, [&](uint64_t key, RecordId) {
                    EXPECT_GE(key, 300u);
                    EXPECT_LE(key, 600u);
                    ++seen;
                    return true;
                  }).ok());
  EXPECT_EQ(seen, 101u);  // 300,303,...,600.
}

/// The first and last key and the entry count of each leaf, left to right.
struct LeafSpan {
  uint64_t first;
  uint64_t last;
  uint16_t count;
};

std::vector<LeafSpan> Leaves(ComponentHarness& h, const btree::BTree& tree) {
  PageNum page = tree.root();
  for (;;) {
    auto fixed = h.pool_.FixPage(page, sync::LatchMode::kShared);
    EXPECT_TRUE(fixed.ok());
    btree::BTreeNode node(fixed->data());
    if (node.IsLeaf()) break;
    page = node.leftmost_child();
  }
  std::vector<LeafSpan> leaves;
  while (page != kInvalidPageNum) {
    auto fixed = h.pool_.FixPage(page, sync::LatchMode::kShared);
    EXPECT_TRUE(fixed.ok());
    btree::BTreeNode node(fixed->data());
    EXPECT_GT(node.count(), 0u);
    leaves.push_back(LeafSpan{node.entry(0).key,
                              node.entry(node.count() - 1).key,
                              node.count()});
    page = page::HeaderOf(fixed->data())->next_page;
  }
  return leaves;
}

TEST(BTreeTest, AppendsLeaveLeavesFull) {
  // Leaves split at the insertion point, so keys appended at the end of a
  // run leave every leaf behind them >= 90% full.
  constexpr size_t kFull = btree::BTreeNode::kMaxEntries * 9 / 10;
  {
    // Sequential ids: all but the last leaf.
    ComponentHarness h;
    auto tree = h.MakeTree(1);
    auto* txn = h.txns_.Begin();
    for (uint64_t k = 0; k < 5000; ++k) {
      ASSERT_TRUE(tree.Insert(txn, k, RecordId{k + 1, 0}).ok());
    }
    ASSERT_TRUE(h.txns_.Commit(txn).ok());
    std::vector<LeafSpan> leaves = Leaves(h, tree);
    ASSERT_GT(leaves.size(), 5u);
    for (size_t i = 0; i + 1 < leaves.size(); ++i) {
      EXPECT_GE(leaves[i].count, kFull) << "leaf " << i;
    }
  }
  {
    // Per-district order ids, as in TPC-C: ten districts are loaded in key
    // order, then new orders are appended round-robin, each at the end of
    // its district's run — in the middle of a leaf. Every leaf holding
    // only one district's appended orders, except that district's last
    // leaf, must be full.
    constexpr uint64_t kDistricts = 10;
    constexpr uint64_t kLoaded = 300;
    constexpr uint64_t kOrders = 1500;
    auto key = [](uint64_t d, uint64_t o) { return (d << 32) | o; };
    ComponentHarness h;
    auto tree = h.MakeTree(1);
    auto* txn = h.txns_.Begin();
    for (uint64_t d = 0; d < kDistricts; ++d) {
      for (uint64_t o = 0; o < kLoaded; ++o) {
        ASSERT_TRUE(tree.Insert(txn, key(d, o), RecordId{o + 1, 0}).ok());
      }
    }
    for (uint64_t o = kLoaded; o < kOrders; ++o) {
      for (uint64_t d = 0; d < kDistricts; ++d) {
        ASSERT_TRUE(tree.Insert(txn, key(d, o), RecordId{o + 1, 0}).ok());
      }
    }
    ASSERT_TRUE(h.txns_.Commit(txn).ok());
    size_t checked = 0;
    for (const LeafSpan& leaf : Leaves(h, tree)) {
      uint64_t d = leaf.first >> 32;
      bool appended_only = leaf.last >> 32 == d &&
                           (leaf.first & 0xffffffffu) >= kLoaded;
      if (!appended_only || leaf.last == key(d, kOrders - 1)) continue;
      ++checked;
      EXPECT_GE(leaf.count, kFull) << "district " << d << " leaf from order "
                                   << (leaf.first & 0xffffffffu);
    }
    EXPECT_GE(checked, kDistricts);
  }
}

TEST(BTreeTest, RemoveThenNotFound) {
  ComponentHarness h;
  auto tree = h.MakeTree(1);
  auto* txn = h.txns_.Begin();
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree.Insert(txn, k, RecordId{1, static_cast<uint16_t>(k)}).ok());
  }
  for (uint64_t k = 0; k < 100; k += 2) {
    ASSERT_TRUE(tree.Remove(txn, k).ok());
  }
  ASSERT_TRUE(h.txns_.Commit(txn).ok());
  for (uint64_t k = 0; k < 100; ++k) {
    auto found = tree.Find(nullptr, k);
    if (k % 2 == 0) {
      EXPECT_TRUE(found.status().IsNotFound()) << k;
    } else {
      EXPECT_TRUE(found.ok()) << k;
    }
  }
  EXPECT_TRUE(tree.Remove(txn, 0).IsNotFound());
}

TEST(BTreeTest, ConcurrentDisjointInserts) {
  ComponentHarness h;
  auto tree = h.MakeTree(1);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 800;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto* txn = h.txns_.Begin();
      for (uint64_t k = 0; k < kPerThread; ++k) {
        uint64_t key = static_cast<uint64_t>(t) * 1'000'000 + k;
        if (!tree.Insert(txn, key, RecordId{key + 1, 0}).ok()) {
          failures.fetch_add(1);
        }
      }
      if (!h.txns_.Commit(txn).ok()) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(*tree.CountEntries(), kThreads * kPerThread);
}

TEST(BTreeTest, ReadersRunDuringInserts) {
  ComponentHarness h;
  auto tree = h.MakeTree(1);
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread writer([&] {
    auto* txn = h.txns_.Begin();
    for (uint64_t k = 0; k < 2000; ++k) {
      ASSERT_TRUE(tree.Insert(txn, k, RecordId{k + 1, 0}).ok());
    }
    ASSERT_TRUE(h.txns_.Commit(txn).ok());
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      auto r = tree.Find(nullptr, 1);
      // Key 1 is either not-yet-inserted or fully present — never torn.
      if (!r.ok() && !r.status().IsNotFound()) reader_errors.fetch_add(1);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(reader_errors.load(), 0);
}

// ----------------------------------------------------------- TxnManager ---

TEST(TxnManagerTest, BeginCommitLifecycle) {
  ComponentHarness h;
  auto* t1 = h.txns_.Begin();
  auto* t2 = h.txns_.Begin();
  EXPECT_EQ(h.txns_.ActiveCount(), 2u);
  EXPECT_EQ(h.txns_.OldestActiveTxn(), t1->id);
  TxnId id1 = t1->id;
  ASSERT_TRUE(h.txns_.Commit(t1).ok());
  EXPECT_EQ(h.txns_.ActiveCount(), 1u);
  EXPECT_GT(h.txns_.OldestActiveTxn(), id1);
  ASSERT_TRUE(h.txns_.Commit(t2).ok());
  EXPECT_EQ(h.txns_.OldestActiveTxn(), kInvalidTxnId);
  EXPECT_EQ(h.txns_.stats().committed.load(), 2u);
}

TEST(TxnManagerTest, OldestTxnScanVariant) {
  io::MemVolume vol;
  log::LogStorage storage;
  log::LogManager log(&storage, log::LogOptions{});
  lock::LockManager locks(lock::LockOptions{});
  txn::TxnOptions opts;
  opts.oldest_txn_cache = false;
  txn::TxnManager txns(&log, &locks, opts);
  auto* t1 = txns.Begin();
  EXPECT_EQ(txns.OldestActiveTxn(), t1->id);
  EXPECT_GT(txns.stats().oldest_scans.load(), 0u) << "scan path exercised";
  ASSERT_TRUE(txns.Commit(t1).ok());
}

TEST(TxnManagerTest, CommitForcesLogDurability) {
  ComponentHarness h;
  auto* txn = h.txns_.Begin();
  log::LogRecord rec;
  rec.type = log::LogRecordType::kPageInsert;
  rec.txn = txn->id;
  rec.page = 9;
  rec.after = {1, 2, 3};
  auto a = h.log_.Append(rec);
  ASSERT_TRUE(a.ok());
  h.txns_.NoteLogged(txn, a->lsn, a->end);
  EXPECT_LT(h.log_.durable_lsn().value, a->end.value);
  ASSERT_TRUE(h.txns_.Commit(txn).ok());
  EXPECT_GT(h.log_.durable_lsn().value, a->end.value);
}

TEST(TxnManagerTest, LockEscalationAfterThreshold) {
  io::MemVolume vol;
  log::LogStorage storage;
  log::LogManager log(&storage, log::LogOptions{});
  lock::LockOptions lock_opts;
  lock_opts.escalation_threshold = 10;  // Escalation lives in the lock layer.
  lock::LockManager locks(lock_opts);
  txn::TxnManager txns(&log, &locks, txn::TxnOptions{});
  auto* txn = txns.Begin();
  for (uint16_t i = 0; i < 15; ++i) {
    ASSERT_TRUE(txn->locks.LockRecord(1, RecordId{1, i},
                                      lock::LockMode::kX).ok());
  }
  EXPECT_EQ(locks.stats().escalations.load(), 1u);
  EXPECT_EQ(txn->locks.escalations(), 1u);
  EXPECT_EQ(locks.HeldMode(txn->id, lock::LockId::Store(1)),
            lock::LockMode::kX);
  ASSERT_TRUE(txns.Commit(txn).ok());
  EXPECT_EQ(locks.LockedObjectCount(), 0u);
}

TEST(TxnManagerTest, CheckpointRecordsActiveTxns) {
  ComponentHarness h;
  auto* t1 = h.txns_.Begin();
  Lsn redo_out;
  auto ck = h.txns_.TakeCheckpoint([] { return Lsn{123}; }, {}, &redo_out);
  ASSERT_TRUE(ck.ok());
  EXPECT_EQ(h.txns_.last_checkpoint(), *ck);
  auto rec = h.log_.ReadRecord(*ck);
  ASSERT_TRUE(rec.ok());
  log::CheckpointBody body;
  ASSERT_TRUE(DeserializeCheckpoint(rec->after, &body).ok());
  // The redo LSN is floored by the oldest active transaction's begin LSN
  // (t1 began before the source's 123): recycling below it would cut a
  // live undo chain.
  EXPECT_EQ(body.redo_lsn, t1->begin_lsn);
  EXPECT_EQ(redo_out, body.redo_lsn);
  ASSERT_EQ(body.active_txns.size(), 1u);
  EXPECT_EQ(body.active_txns[0].id, t1->id);
  EXPECT_EQ(body.active_txns[0].first_lsn, t1->begin_lsn);
  ASSERT_TRUE(h.txns_.Commit(t1).ok());

  // With no active transactions the source value stands.
  auto ck2 = h.txns_.TakeCheckpoint([&] { return h.log_.next_lsn(); }, {},
                                    &redo_out);
  ASSERT_TRUE(ck2.ok());
  auto rec2 = h.log_.ReadRecord(*ck2);
  ASSERT_TRUE(rec2.ok());
  ASSERT_TRUE(DeserializeCheckpoint(rec2->after, &body).ok());
  EXPECT_EQ(body.redo_lsn, redo_out);
  EXPECT_EQ(body.redo_lsn, *ck2);  // next_lsn at snapshot = this record.
  EXPECT_TRUE(body.active_txns.empty());
}

}  // namespace
}  // namespace shoremt
