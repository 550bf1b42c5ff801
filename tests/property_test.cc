#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_node.h"
#include "buffer/buffer_pool.h"
#include "buffer/frame_table.h"
#include "common/random.h"
#include "io/volume.h"
#include "lock/lock_manager.h"
#include "lock/txn_lock_list.h"
#include "log/log_manager.h"
#include "log/log_record.h"
#include "log/log_storage.h"
#include "page/slotted_page.h"
#include "space/space_manager.h"
#include "txn/txn_manager.h"

namespace shoremt {
namespace {

// Each property suite runs the same randomized scenario under several
// seeds via TEST_P; a failure message carries the seed for replay.

// ----------------------------------------------------- slotted page ------

class SlottedPageProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlottedPageProperty, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam());
  alignas(8) uint8_t buf[kPageSize] = {};
  page::SlottedPage sp(buf);
  sp.Init(1, 1, page::PageType::kData);

  std::map<uint16_t, std::vector<uint8_t>> model;  // slot → payload.
  for (int op = 0; op < 3000; ++op) {
    int kind = static_cast<int>(rng.Uniform(100));
    if (kind < 45) {  // Insert.
      std::vector<uint8_t> payload(rng.Uniform(300) + 1);
      for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
      auto slot = sp.Insert(payload);
      if (slot.ok()) {
        ASSERT_FALSE(model.contains(*slot)) << "live slot reused";
        model[*slot] = payload;
      } else {
        ASSERT_EQ(slot.status().code(), StatusCode::kOutOfSpace);
      }
    } else if (kind < 65 && !model.empty()) {  // Delete random live slot.
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(sp.Delete(it->first).ok());
      model.erase(it);
    } else if (kind < 85 && !model.empty()) {  // Update random live slot.
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      std::vector<uint8_t> payload(rng.Uniform(200) + 1);
      for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
      Status st = sp.Update(it->first, payload);
      if (st.ok()) {
        it->second = payload;
      } else {
        ASSERT_EQ(st.code(), StatusCode::kOutOfSpace);
      }
    } else if (kind < 95) {  // Read random slot (live or not).
      uint16_t slot = static_cast<uint16_t>(rng.Uniform(sp.SlotCount() + 2));
      auto rec = sp.Read(slot);
      auto it = model.find(slot);
      if (it == model.end()) {
        EXPECT_FALSE(rec.ok());
      } else {
        ASSERT_TRUE(rec.ok());
        EXPECT_TRUE(std::equal(rec->begin(), rec->end(),
                               it->second.begin(), it->second.end()));
      }
    } else {  // Compact; contents must be preserved.
      sp.Compact();
    }
  }
  // Full final audit.
  EXPECT_EQ(sp.LiveCount(), model.size());
  for (const auto& [slot, payload] : model) {
    auto rec = sp.Read(slot);
    ASSERT_TRUE(rec.ok()) << "slot " << slot;
    EXPECT_TRUE(std::equal(rec->begin(), rec->end(), payload.begin(),
                           payload.end()))
        << "slot " << slot;
  }
}

TEST_P(SlottedPageProperty, FitsMatchesScanDefinition) {
  // Fits answers from the contiguous gap when it can; it must agree with
  // the scan-based definition: a tombstone can be reused, otherwise the
  // record also needs a new 4-byte slot entry, and compaction may run.
  Rng rng(GetParam());
  alignas(8) uint8_t buf[kPageSize] = {};
  page::SlottedPage sp(buf);
  sp.Init(1, 1, page::PageType::kData);
  std::vector<uint16_t> live;
  for (int op = 0; op < 3000; ++op) {
    int kind = static_cast<int>(rng.Uniform(100));
    if (kind < 50) {
      std::vector<uint8_t> payload(rng.Uniform(400) + 1);
      auto slot = sp.Insert(payload);
      if (slot.ok()) live.push_back(*slot);
    } else if (kind < 80 && !live.empty()) {
      size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(sp.Delete(live[i]).ok());
      live.erase(live.begin() + static_cast<long>(i));
    } else if (!live.empty()) {
      std::vector<uint8_t> payload(rng.Uniform(300) + 1);
      (void)sp.Update(live[rng.Uniform(live.size())], payload);
    }
    bool has_tombstone = sp.SlotCount() > sp.LiveCount();
    size_t free = sp.FreeSpace();
    for (int probe = 0; probe < 16; ++probe) {
      // Half the probes straddle the free-space boundary.
      size_t size = probe % 2 == 0
                        ? rng.Uniform(kPageSize)
                        : free - std::min<size_t>(free, 6) + rng.Uniform(9);
      bool expect = free >= size + (has_tombstone ? 0 : 4);
      ASSERT_EQ(sp.Fits(size), expect)
          << "size " << size << " free " << free << " op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlottedPageProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ----------------------------------------------------- frame tables ------

struct FrameTableCase {
  buffer::TableKind kind;
  uint64_t seed;
};

class FrameTableProperty : public ::testing::TestWithParam<FrameTableCase> {};

TEST_P(FrameTableProperty, RandomOpsMatchReferenceMap) {
  auto [kind, seed] = GetParam();
  Rng rng(seed);
  auto table = buffer::MakeFrameTable(kind, 512);
  std::unordered_map<PageNum, int> model;

  for (int op = 0; op < 8000; ++op) {
    PageNum page = 1 + rng.Uniform(700);
    int kind_sel = static_cast<int>(rng.Uniform(100));
    if (kind_sel < 40) {
      int frame = static_cast<int>(rng.Uniform(512));
      bool inserted = table->Insert(page, frame);
      EXPECT_EQ(inserted, !model.contains(page)) << "page " << page;
      if (inserted) model[page] = frame;
    } else if (kind_sel < 65) {
      bool erased = table->EraseIf(page, [](int) { return true; });
      EXPECT_EQ(erased, model.erase(page) > 0) << "page " << page;
    } else if (kind_sel < 80) {
      // Vetoed erase never changes anything.
      table->EraseIf(page, [](int) { return false; });
      int found = table->FindAndPin(page, [](int) {});
      auto it = model.find(page);
      EXPECT_EQ(found, it == model.end() ? -1 : it->second);
    } else {
      int found = table->FindAndPin(page, [](int) {});
      auto it = model.find(page);
      EXPECT_EQ(found, it == model.end() ? -1 : it->second) << "page "
                                                            << page;
    }
  }
  EXPECT_EQ(table->Size(), model.size());
  for (const auto& [page, frame] : model) {
    EXPECT_EQ(table->FindAndPin(page, [](int) {}), frame);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, FrameTableProperty,
    ::testing::Values(
        FrameTableCase{buffer::TableKind::kGlobalChained, 11},
        FrameTableCase{buffer::TableKind::kGlobalChained, 22},
        FrameTableCase{buffer::TableKind::kPerBucketChained, 11},
        FrameTableCase{buffer::TableKind::kPerBucketChained, 22},
        FrameTableCase{buffer::TableKind::kCuckoo, 11},
        FrameTableCase{buffer::TableKind::kCuckoo, 22},
        FrameTableCase{buffer::TableKind::kCuckoo, 33},
        FrameTableCase{buffer::TableKind::kCuckoo, 44}),
    [](const auto& info) {
      std::string name;
      switch (info.param.kind) {
        case buffer::TableKind::kGlobalChained: name = "Global"; break;
        case buffer::TableKind::kPerBucketChained: name = "Bucket"; break;
        case buffer::TableKind::kCuckoo: name = "Cuckoo"; break;
      }
      return name + std::to_string(info.param.seed);
    });

// ----------------------------------------------------------- B+Tree ------

class BTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeProperty, RandomOpsMatchReferenceMap) {
  Rng rng(GetParam());
  io::MemVolume volume;
  ASSERT_TRUE(volume.Extend(kPagesPerExtent).ok());
  log::LogStorage storage;
  log::LogManager log(&storage, log::LogOptions{});
  buffer::BufferPoolOptions pool_opts;
  pool_opts.frame_count = 512;
  buffer::BufferPool pool(&volume, pool_opts,
                          [&](Lsn lsn) { return log.FlushTo(lsn); });
  space::SpaceManager space(&volume, space::SpaceOptions{});
  lock::LockManager locks(lock::LockOptions{});
  txn::TxnManager txns(&log, &locks, txn::TxnOptions{});

  ASSERT_TRUE(space.CreateStore(1).ok());
  auto* setup = txns.Begin();
  auto root = btree::BTree::CreateRoot(&pool, &space, &log, &txns, setup, 1);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(txns.Commit(setup).ok());
  btree::BTree tree(&pool, &space, &log, &txns, 1, *root,
                    btree::BTreeOptions{});

  std::map<uint64_t, RecordId> model;
  auto* txn = txns.Begin();
  for (int op = 0; op < 6000; ++op) {
    uint64_t key = rng.Uniform(4000);
    int kind = static_cast<int>(rng.Uniform(100));
    if (kind < 50) {
      RecordId rid{key + 1, static_cast<uint16_t>(op % 100)};
      Status st = tree.Insert(txn, key, rid);
      if (model.contains(key)) {
        EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << "key " << key;
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        model[key] = rid;
      }
    } else if (kind < 75) {
      Status st = tree.Remove(txn, key);
      if (model.erase(key) > 0) {
        ASSERT_TRUE(st.ok());
      } else {
        EXPECT_TRUE(st.IsNotFound());
      }
    } else if (kind < 95) {
      auto found = tree.Find(txn, key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(found.status().IsNotFound());
      } else {
        ASSERT_TRUE(found.ok());
        EXPECT_EQ(*found, it->second) << "key " << key;
      }
    } else {
      // Range scan over a random window equals the model's view.
      uint64_t lo = rng.Uniform(4000);
      uint64_t hi = lo + rng.Uniform(500);
      std::vector<uint64_t> got;
      ASSERT_TRUE(tree.Scan(lo, hi, [&](uint64_t k, RecordId) {
                        got.push_back(k);
                        return true;
                      }).ok());
      std::vector<uint64_t> expect;
      for (auto it = model.lower_bound(lo);
           it != model.end() && it->first <= hi; ++it) {
        expect.push_back(it->first);
      }
      EXPECT_EQ(got, expect) << "range [" << lo << "," << hi << "]";
    }
  }
  EXPECT_EQ(*tree.CountEntries(), model.size());
  ASSERT_TRUE(txns.Commit(txn).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeProperty,
                         ::testing::Values(101, 202, 303, 404));

// ------------------------------------------------------- log records -----

class LogRecordProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogRecordProperty, RandomRecordsRoundtrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    log::LogRecord rec;
    rec.type = static_cast<log::LogRecordType>(rng.Uniform(15));
    rec.txn = rng.Next();
    rec.prev_lsn = Lsn{rng.Next()};
    rec.undo_next = Lsn{rng.Next()};
    rec.page = rng.Next();
    rec.store = static_cast<StoreId>(rng.Next());
    rec.slot = static_cast<uint16_t>(rng.Next());
    rec.page_type = static_cast<uint8_t>(rng.Next());
    rec.before.resize(rng.Uniform(200));
    rec.after.resize(rng.Uniform(200));
    for (auto& b : rec.before) b = static_cast<uint8_t>(rng.Next());
    for (auto& b : rec.after) b = static_cast<uint8_t>(rng.Next());

    std::vector<uint8_t> bytes;
    SerializeLogRecord(rec, &bytes);
    log::LogRecord back;
    size_t consumed;
    ASSERT_TRUE(DeserializeLogRecord(bytes, &back, &consumed).ok());
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(back.type, rec.type);
    EXPECT_EQ(back.txn, rec.txn);
    EXPECT_EQ(back.prev_lsn, rec.prev_lsn);
    EXPECT_EQ(back.undo_next, rec.undo_next);
    EXPECT_EQ(back.page, rec.page);
    EXPECT_EQ(back.store, rec.store);
    EXPECT_EQ(back.slot, rec.slot);
    EXPECT_EQ(back.before, rec.before);
    EXPECT_EQ(back.after, rec.after);
  }
}

TEST_P(LogRecordProperty, TruncationNeverCrashes) {
  Rng rng(GetParam());
  log::LogRecord rec;
  rec.type = log::LogRecordType::kPageUpdate;
  rec.before.resize(100, 0x11);
  rec.after.resize(100, 0x22);
  std::vector<uint8_t> bytes;
  SerializeLogRecord(rec, &bytes);
  // Every strict prefix must fail cleanly with Corruption.
  for (int i = 0; i < 200; ++i) {
    size_t len = rng.Uniform(bytes.size());
    log::LogRecord back;
    size_t consumed;
    std::span<const uint8_t> prefix(bytes.data(), len);
    Status st = DeserializeLogRecord(prefix, &back, &consumed);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "prefix " << len;
  }
}

TEST_P(LogRecordProperty, RandomByteCorruptionIsRejectedOrSane) {
  Rng rng(GetParam());
  log::LogRecord rec;
  rec.type = log::LogRecordType::kPageInsert;
  rec.after.resize(64, 0x5a);
  std::vector<uint8_t> bytes;
  SerializeLogRecord(rec, &bytes);
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> mutated = bytes;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<uint8_t>(1 + rng.Uniform(255));
    log::LogRecord back;
    size_t consumed;
    // Must either parse (length fields still consistent) or fail with
    // Corruption — never crash or over-read.
    Status st = DeserializeLogRecord(mutated, &back, &consumed);
    if (st.ok()) EXPECT_LE(consumed, mutated.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogRecordProperty,
                         ::testing::Values(7, 77, 777));

// ----------------------------------------------------- space manager -----

class SpaceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpaceProperty, AllocFreeConservesState) {
  Rng rng(GetParam());
  io::MemVolume volume;
  space::SpaceManager space(&volume, space::SpaceOptions{});
  constexpr StoreId kStores = 4;
  for (StoreId s = 1; s <= kStores; ++s) {
    ASSERT_TRUE(space.CreateStore(s).ok());
  }
  std::map<PageNum, StoreId> model;  // page → owner.
  for (int op = 0; op < 4000; ++op) {
    if (rng.Bernoulli(0.6) || model.empty()) {
      StoreId s = 1 + static_cast<StoreId>(rng.Uniform(kStores));
      auto page = space.AllocatePage(s, nullptr);
      ASSERT_TRUE(page.ok());
      ASSERT_FALSE(model.contains(*page)) << "double allocation";
      model[*page] = s;
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(space.FreePage(it->first).ok());
      model.erase(it);
    }
  }
  // Audit: ownership and per-store page counts match the model.
  std::map<StoreId, uint64_t> counts;
  for (const auto& [page, owner] : model) {
    auto got = space.OwnerOf(page);
    ASSERT_TRUE(got.ok()) << "page " << page;
    EXPECT_EQ(*got, owner);
    ++counts[owner];
  }
  for (StoreId s = 1; s <= kStores; ++s) {
    EXPECT_EQ(*space.PageCountOf(s), counts[s]) << "store " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpaceProperty, ::testing::Values(3, 33, 333));

// ------------------------------------------------------ lock manager -----

class LockProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockProperty, GrantedSetsAlwaysPairwiseCompatible) {
  // Single-threaded random lock traffic through per-transaction handles:
  // after every operation the held modes recorded by our shadow model
  // must match both the handle cache and the shared table, and all
  // concurrently granted modes on one object must be pairwise
  // compatible. Release is all-or-nothing per transaction (strict 2PL
  // bulk release — the only release the redesigned API has).
  Rng rng(GetParam());
  lock::LockOptions opts;
  opts.timeout_us = 1000;  // Conflicts fail fast in single-threaded use.
  lock::LockManager mgr(opts);
  constexpr int kTxns = 5;
  constexpr int kObjects = 6;
  std::vector<lock::TxnLockList> handles;
  for (int t = 0; t < kTxns; ++t) {
    handles.push_back(mgr.Attach(static_cast<TxnId>(t + 1)));
  }
  // model[obj][txn] = mode.
  std::map<int, std::map<TxnId, lock::LockMode>> model;

  auto compatible_with_all = [&](int obj, TxnId txn, lock::LockMode mode) {
    for (const auto& [other, held] : model[obj]) {
      if (other != txn && !lock::Compatible(held, mode)) return false;
    }
    return true;
  };

  for (int op = 0; op < 5000; ++op) {
    size_t ti = rng.Uniform(kTxns);
    TxnId txn = static_cast<TxnId>(ti + 1);
    int obj = static_cast<int>(rng.Uniform(kObjects));
    lock::LockId id = lock::LockId::Store(static_cast<StoreId>(obj + 1));
    if (rng.Bernoulli(0.8)) {
      auto mode = static_cast<lock::LockMode>(1 + rng.Uniform(5));
      lock::LockMode prior = model[obj].contains(txn) ? model[obj][txn]
                                                      : lock::LockMode::kNone;
      lock::LockMode target = lock::Supremum(prior, mode);
      Status st = handles[ti].Lock(id, mode);
      if (target == prior) {
        // Covered by the cache: must succeed without touching the table.
        ASSERT_TRUE(st.ok()) << st.ToString();
      } else if (compatible_with_all(obj, txn, target)) {
        ASSERT_TRUE(st.ok())
            << "obj " << obj << " txn " << txn << ": " << st.ToString();
        model[obj][txn] = target;
      } else {
        EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
      }
    } else {
      // End of transaction: bulk-release everything it held and re-attach
      // a fresh handle under the same id.
      handles[ti].ReleaseAll();
      for (auto& [o, held] : model) held.erase(txn);
      handles[ti] = mgr.Attach(txn);
    }
    lock::LockMode expect = model[obj].contains(txn) ? model[obj][txn]
                                                     : lock::LockMode::kNone;
    EXPECT_EQ(handles[ti].HeldMode(id), expect);
    EXPECT_EQ(mgr.HeldMode(txn, id), expect)
        << "handle cache and shared table must agree";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockProperty, ::testing::Values(9, 99, 999));

}  // namespace
}  // namespace shoremt
