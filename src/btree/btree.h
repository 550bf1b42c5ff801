#ifndef SHOREMT_BTREE_BTREE_H_
#define SHOREMT_BTREE_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "btree/btree_node.h"
#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "log/log_manager.h"
#include "space/space_manager.h"
#include "txn/txn_manager.h"

namespace shoremt::btree {

/// B+Tree behaviour knobs.
struct BTreeOptions {
  /// The "unnecessary search of the lock table initiated by B+Tree
  /// probes" that §7.7 removed: every probe performs a redundant
  /// held-mode check. Since the lock-cache redesign the check reads the
  /// transaction's private TxnLockList (a handle-local map lookup) — the
  /// shared-table walk it used to emulate no longer exists anywhere.
  /// Off in the final stage.
  bool probe_lock_table = false;

  /// Optimistic lock coupling: Find and Iterator::Seek/Refill descend
  /// without taking any latch, stamping each node's HybridLatch version
  /// and validating it after the reads (restart from the root on any
  /// conflict). Off = the classic shared-latch crab.
  bool optimistic_reads = true;
  /// Validation failures tolerated per operation before the descent falls
  /// back to the latched path — guarantees progress under pathological
  /// write storms (a restart storm otherwise livelocks readers).
  int optimistic_restart_limit = 8;
};

/// Structure-modification counters. Writer-side only: per-probe read
/// counters (finds, probe checks, restarts) live in the per-worker
/// obs::WorkerCounters block — a shared RMW on the latch-free read path
/// would reintroduce exactly the coherence traffic this design removes.
struct BTreeStats {
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> removes{0};
  std::atomic<uint64_t> splits{0};
};

/// Latch-coupled B+Tree over buffer pool pages (§2.2: "a robust
/// implementation of B+Tree indexes"). Uniquely-keyed; 64-bit keys; values
/// are RecordIds. The root page number is fixed for the tree's lifetime
/// (root splits push contents down), so no catalog update can race a
/// traversal.
///
/// Concurrency: reads crab with shared latches; writers crab with
/// exclusive latches and split full children preemptively on the way down,
/// so a safe parent is always held when a child must split. Structure
/// modifications are logged redo-only (never undone); entry inserts and
/// deletes are logged physiologically and are undoable.
class BTree {
 public:
  BTree(buffer::BufferPool* pool, space::SpaceManager* space,
        log::LogManager* log, txn::TxnManager* txns, StoreId store,
        PageNum root, BTreeOptions options);

  /// Allocates and formats a root leaf for a new tree (logged under
  /// `txn`); returns the root page number.
  static Result<PageNum> CreateRoot(buffer::BufferPool* pool,
                                    space::SpaceManager* space,
                                    log::LogManager* log,
                                    txn::TxnManager* txns,
                                    txn::Transaction* txn, StoreId store);

  /// Pull-style scanner over the leaf chain. Latches are held only inside
  /// Seek/Next: each refill copies one leaf's qualifying entries under a
  /// shared latch, then releases it, so callers may acquire row locks (or
  /// block) between entries without latch-lock deadlock risk. Because
  /// nodes are never deallocated or merged, the stored next-leaf pointer
  /// stays valid across concurrent splits; entries that a split moved
  /// rightward past the current position are filtered by resume key, so an
  /// iterator observes each key at most once and never misses a key that
  /// existed for the whole scan.
  ///
  ///   BTree::Iterator it(index);
  ///   for (auto st = it.Seek(lo); it.Valid() && it.key() <= hi;
  ///        st = it.Next()) { use(it.key(), it.record()); }
  class Iterator {
   public:
    explicit Iterator(BTree* tree) : tree_(tree) {}

    /// Positions at the first entry with key >= `key`. Invalidates on
    /// error or when no such entry exists.
    Status Seek(uint64_t key);
    /// Advances to the next entry; invalidates at the end of the tree.
    Status Next();
    bool Valid() const { return valid_; }

    /// Entry accessors; only meaningful while Valid().
    uint64_t key() const { return buf_[pos_].key; }
    uint64_t value() const { return buf_[pos_].value; }
    RecordId record() const { return UnpackRecordId(buf_[pos_].value); }

    /// Readahead hooks. `refills()` is a generation counter bumped every
    /// time the buffered leaf snapshot is replaced (Seek and each Refill):
    /// a cursor prefetches once per generation instead of once per row.
    /// `remaining()` is the not-yet-consumed tail of the snapshot (the
    /// entries whose heap pages a scan will touch next); `next_leaf()` is
    /// the chain pointer the next Refill will follow.
    uint64_t refills() const { return refills_; }
    std::span<const BTreeEntry> remaining() const {
      return {buf_.data() + pos_, buf_.size() - pos_};
    }
    PageNum next_leaf() const { return next_leaf_; }

   private:
    /// Walks the leaf chain from `next_leaf_` until a leaf yields entries
    /// with key >= `min_key` (`exclusive`: key > `min_key` — the resume
    /// filter used after the first leaf), buffering them. Dispatches to
    /// the optimistic walk (with latched fallback) or straight to the
    /// latched walk per BTreeOptions.
    Status Refill(uint64_t min_key, bool exclusive);
    /// One optimistic chain walk; Busy = a validation failed, the caller
    /// restarts (next_leaf_ only advances past validated leaves, so a
    /// restart resumes at the leaf that conflicted).
    Status TryRefillOptimistic(uint64_t min_key, bool exclusive);
    Status RefillLatched(uint64_t min_key, bool exclusive);
    /// One optimistic root-to-leaf descent + buffered copy; Busy = restart.
    Status TrySeekOptimistic(uint64_t key);
    Status SeekLatched(uint64_t key);

    BTree* tree_;
    std::vector<BTreeEntry> buf_;  ///< Snapshot of one leaf's tail.
    size_t pos_ = 0;
    PageNum next_leaf_ = kInvalidPageNum;
    uint64_t refills_ = 0;
    bool valid_ = false;
  };

  /// Inserts key→rid; AlreadyExists on duplicate key.
  Status Insert(txn::Transaction* txn, uint64_t key, RecordId rid);
  /// Point lookup; NotFound if absent. `txn` may be null (latch-only read).
  Result<RecordId> Find(txn::Transaction* txn, uint64_t key);
  /// Deletes `key`; NotFound if absent.
  Status Remove(txn::Transaction* txn, uint64_t key);
  /// In-order scan over [lo, hi]; `fn` returns false to stop early.
  Status Scan(uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t, RecordId)>& fn);

  /// Logical-undo hooks: perform the structural work of an insert/remove
  /// but do NOT log the leaf entry change — the caller logs a CLR carrying
  /// the inverse action and stamps the returned handle. Splits triggered
  /// on the way down are still logged (redo-only) as usual.
  Result<buffer::PageHandle> InsertUnlogged(uint64_t key, uint64_t value,
                                            PageNum* leaf_page);
  Result<buffer::PageHandle> RemoveUnlogged(uint64_t key, uint64_t* removed,
                                            PageNum* leaf_page);
  /// Total number of entries (full scan; diagnostics).
  Result<uint64_t> CountEntries();

  PageNum root() const { return root_; }
  StoreId store() const { return store_; }
  const BTreeStats& stats() const { return stats_; }

 private:
  /// One latch-free root-to-leaf probe under the optimistic protocol.
  /// Ok/NotFound are validated answers; Busy means a version check failed
  /// and the caller should restart (or fall back to latches).
  Result<RecordId> TryFindOptimistic(uint64_t key);
  /// The classic shared-latch crab (also the optimistic fallback path).
  Result<RecordId> FindLatched(uint64_t key);
  /// Appends `rec` (txn-chained when txn != null) and stamps `handle`.
  Status LogAndMark(txn::Transaction* txn, buffer::PageHandle* handle,
                    log::LogRecord rec);
  /// Splits `child` (full, EX-latched) under `parent` (EX-latched, not
  /// full). On return *child_handle refers to the node covering `key`.
  Status SplitChild(txn::Transaction* txn, buffer::PageHandle* parent_handle,
                    buffer::PageHandle* child_handle, uint64_t key);
  /// Splits a full root in place (contents pushed into two new children),
  /// at the insertion point of `key` when the root is a leaf.
  Status SplitRoot(txn::Transaction* txn, buffer::PageHandle* root_handle,
                   uint64_t key);
  /// Allocates + formats a new node page (logged); returns its handle.
  Result<buffer::PageHandle> NewNode(txn::Transaction* txn, uint16_t level,
                                     PageNum* page_out);

  buffer::BufferPool* pool_;
  space::SpaceManager* space_;
  log::LogManager* log_;
  txn::TxnManager* txns_;
  StoreId store_;
  PageNum root_;
  BTreeOptions options_;
  BTreeStats stats_;
};

}  // namespace shoremt::btree

#endif  // SHOREMT_BTREE_BTREE_H_
