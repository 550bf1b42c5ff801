#include "btree/btree.h"

#include <cstring>
#include <utility>

#include "btree/btree_node.h"
#include "obs/metrics.h"
#include "page/page.h"

namespace shoremt::btree {

using buffer::PageHandle;
using sync::LatchMode;

// ---------------------------------------------------------------------------
// Torn-tolerant node readers for the optimistic descent. These run against
// a LIVE page image that a concurrent exclusive holder may be rewriting:
// every load can return garbage, and the caller trusts nothing until the
// node's HybridLatch validates. The rules of SHOREMT_NO_SANITIZE_THREAD
// apply — loads only, every index clamped before use (a torn count must
// never walk past the page), no libcalls over the shared bytes.

namespace {

constexpr size_t kNodeHeaderOff = sizeof(page::PageHeader);
constexpr size_t kEntriesOff =
    kNodeHeaderOff + sizeof(BTreeNode::NodeHeader);

SHOREMT_NO_SANITIZE_THREAD
inline void OptReadHeader(const uint8_t* d, uint16_t* count,
                          uint16_t* level) {
  const auto* nh =
      reinterpret_cast<const BTreeNode::NodeHeader*>(d + kNodeHeaderOff);
  uint16_t c = nh->count;
  // Clamp: a torn count (up to 65535) must never index past the entry
  // array — validation rejects the result either way.
  *count = c > BTreeNode::kMaxEntries
               ? static_cast<uint16_t>(BTreeNode::kMaxEntries)
               : c;
  *level = nh->level;
}

SHOREMT_NO_SANITIZE_THREAD
inline uint16_t OptLowerBound(const uint8_t* d, uint16_t count,
                              uint64_t key) {
  const auto* e = reinterpret_cast<const BTreeEntry*>(d + kEntriesOff);
  uint16_t lo = 0, hi = count;
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>(lo + (hi - lo) / 2);
    if (e[mid].key < key) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

SHOREMT_NO_SANITIZE_THREAD
inline PageNum OptChildFor(const uint8_t* d, uint16_t count, uint64_t key) {
  const auto* nh =
      reinterpret_cast<const BTreeNode::NodeHeader*>(d + kNodeHeaderOff);
  const auto* e = reinterpret_cast<const BTreeEntry*>(d + kEntriesOff);
  uint16_t i = OptLowerBound(d, count, key);
  if (i < count && e[i].key == key) return e[i].value;
  if (i == 0) return nh->leftmost_child;
  return e[i - 1].value;
}

SHOREMT_NO_SANITIZE_THREAD
inline bool OptFindLeaf(const uint8_t* d, uint16_t count, uint64_t key,
                        uint64_t* value) {
  const auto* e = reinterpret_cast<const BTreeEntry*>(d + kEntriesOff);
  uint16_t i = OptLowerBound(d, count, key);
  if (i < count && e[i].key == key) {
    *value = e[i].value;
    return true;
  }
  return false;
}

SHOREMT_NO_SANITIZE_THREAD
inline PageNum OptNextPage(const uint8_t* d) {
  return reinterpret_cast<const page::PageHeader*>(d)->next_page;
}

/// Copies entries [from, count) whose key qualifies against `min_key`
/// into `out` (private memory — only the loads are racy).
SHOREMT_NO_SANITIZE_THREAD
inline void OptCopyTail(const uint8_t* d, uint16_t count, uint16_t from,
                        uint64_t min_key, bool exclusive,
                        std::vector<BTreeEntry>* out) {
  const auto* e = reinterpret_cast<const BTreeEntry*>(d + kEntriesOff);
  for (uint16_t i = from; i < count; ++i) {
    BTreeEntry copy{e[i].key, e[i].value};
    if (exclusive ? copy.key > min_key : copy.key >= min_key) {
      out->push_back(copy);
    }
  }
}

}  // namespace

BTree::BTree(buffer::BufferPool* pool, space::SpaceManager* space,
             log::LogManager* log, txn::TxnManager* txns, StoreId store,
             PageNum root, BTreeOptions options)
    : pool_(pool),
      space_(space),
      log_(log),
      txns_(txns),
      store_(store),
      root_(root),
      options_(options) {}

Status BTree::LogAndMark(txn::Transaction* txn, PageHandle* handle,
                         log::LogRecord rec) {
  if (txn != nullptr) {
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
  }
  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
  if (txn != nullptr) txns_->NoteLogged(txn, a.lsn, a.end);
  handle->MarkDirty(a.end, a.lsn);
  return Status::Ok();
}

Result<PageNum> BTree::CreateRoot(buffer::BufferPool* pool,
                                  space::SpaceManager* space,
                                  log::LogManager* log, txn::TxnManager* txns,
                                  txn::Transaction* txn, StoreId store) {
  PageNum root_page = kInvalidPageNum;
  auto init = [&](PageNum page) -> Status {
    SHOREMT_ASSIGN_OR_RETURN(PageHandle h, pool->NewPage(page));
    BTreeNode node(h.data());
    node.Init(page, store, /*level=*/0);
    log::LogRecord rec;
    rec.type = log::LogRecordType::kPageFormat;
    rec.page = page;
    rec.store = store;
    rec.page_type = static_cast<uint8_t>(page::PageType::kBTreeLeaf);
    if (txn != nullptr) {
      rec.txn = txn->id;
      rec.prev_lsn = txn->last_lsn;
    }
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log->Append(rec));
    if (txn != nullptr) txns->NoteLogged(txn, a.lsn, a.end);
    h.MarkDirty(a.end, a.lsn);
    root_page = page;
    return Status::Ok();
  };
  SHOREMT_ASSIGN_OR_RETURN(PageNum page, space->AllocatePage(store, init));
  // Log the allocation for space-map recovery.
  log::LogRecord alloc;
  alloc.type = log::LogRecordType::kAllocPage;
  alloc.page = page;
  alloc.store = store;
  if (txn != nullptr) {
    alloc.txn = txn->id;
    alloc.prev_lsn = txn->last_lsn;
  }
  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log->Append(alloc));
  if (txn != nullptr) txns->NoteLogged(txn, a.lsn, a.end);
  return root_page;
}

Result<PageHandle> BTree::NewNode(txn::Transaction* txn, uint16_t level,
                                  PageNum* page_out) {
  PageHandle out;
  auto init = [&](PageNum page) -> Status {
    SHOREMT_ASSIGN_OR_RETURN(PageHandle h, pool_->NewPage(page));
    BTreeNode node(h.data());
    node.Init(page, store_, level);
    log::LogRecord rec;
    rec.type = log::LogRecordType::kPageFormat;
    rec.page = page;
    rec.store = store_;
    rec.page_type = static_cast<uint8_t>(level == 0
                                             ? page::PageType::kBTreeLeaf
                                             : page::PageType::kBTreeInternal);
    SHOREMT_RETURN_NOT_OK(LogAndMark(txn, &h, std::move(rec)));
    out = std::move(h);
    return Status::Ok();
  };
  SHOREMT_ASSIGN_OR_RETURN(PageNum page, space_->AllocatePage(store_, init));
  log::LogRecord alloc;
  alloc.type = log::LogRecordType::kAllocPage;
  alloc.page = page;
  alloc.store = store_;
  SHOREMT_RETURN_NOT_OK(LogAndMark(txn, &out, std::move(alloc)));
  *page_out = page;
  return std::move(out);
}

Status BTree::SplitRoot(txn::Transaction* txn, PageHandle* root_handle,
                        uint64_t key) {
  stats_.splits.fetch_add(1, std::memory_order_relaxed);
  BTreeNode root(root_handle->data());
  PageNum left_page, right_page;
  SHOREMT_ASSIGN_OR_RETURN(PageHandle left_h, NewNode(txn, root.level(),
                                                      &left_page));
  SHOREMT_ASSIGN_OR_RETURN(PageHandle right_h, NewNode(txn, root.level(),
                                                       &right_page));
  BTreeNode left(left_h.data());
  BTreeNode right(right_h.data());

  // Clone the root into `left`, then split left → right.
  left.RestoreContent(root.SerializeContent());
  page::HeaderOf(left_h.data())->page_num = left_page;
  uint64_t sep = left.SplitInto(&right, key);
  if (root.IsLeaf()) {
    page::HeaderOf(left_h.data())->next_page = right_page;
    page::HeaderOf(right_h.data())->prev_page = left_page;
  }

  // The root becomes an internal node over {left, right}.
  uint16_t new_level = root.level() + 1;
  BTreeNode fresh_root(root_handle->data());
  PageNum root_page = page::HeaderOf(root_handle->data())->page_num;
  fresh_root.Init(root_page, store_, new_level);
  fresh_root.set_leftmost_child(left_page);
  fresh_root.InsertSorted(sep, right_page);

  // Log all three new images (redo-only structure change).
  for (auto* h : {&left_h, &right_h, root_handle}) {
    BTreeNode n(h->data());
    log::LogRecord rec;
    rec.type = log::LogRecordType::kBtreeSetContent;
    rec.page = page::HeaderOf(h->data())->page_num;
    rec.store = store_;
    rec.after = n.SerializeContent();
    // Persist the leaf chain via the page header fields.
    rec.slot = 0;
    SHOREMT_RETURN_NOT_OK(LogAndMark(txn, h, std::move(rec)));
  }
  return Status::Ok();
}

Status BTree::SplitChild(txn::Transaction* txn, PageHandle* parent_handle,
                         PageHandle* child_handle, uint64_t key) {
  stats_.splits.fetch_add(1, std::memory_order_relaxed);
  BTreeNode parent(parent_handle->data());
  BTreeNode child(child_handle->data());
  PageNum right_page;
  SHOREMT_ASSIGN_OR_RETURN(PageHandle right_h, NewNode(txn, child.level(),
                                                       &right_page));
  BTreeNode right(right_h.data());
  uint64_t sep = child.SplitInto(&right, key);
  PageNum child_page = page::HeaderOf(child_handle->data())->page_num;
  if (child.IsLeaf()) {
    // Chain: child -> right -> old successor.
    auto* ch = page::HeaderOf(child_handle->data());
    auto* rh = page::HeaderOf(right_h.data());
    rh->next_page = ch->next_page;
    rh->prev_page = child_page;
    ch->next_page = right_page;
  }
  for (auto* h : {child_handle, &right_h}) {
    BTreeNode n(h->data());
    log::LogRecord rec;
    rec.type = log::LogRecordType::kBtreeSetContent;
    rec.page = page::HeaderOf(h->data())->page_num;
    rec.store = store_;
    rec.after = n.SerializeContent();
    SHOREMT_RETURN_NOT_OK(LogAndMark(txn, h, std::move(rec)));
  }
  // Publish the separator in the parent (guaranteed non-full). Logged
  // redo-only, outside the transaction's undo chain: the split outlives a
  // rollback, and undoing the entry as a key insert would remove the data
  // key the separator copies.
  parent.InsertSorted(sep, right_page);
  log::LogRecord prec;
  prec.type = log::LogRecordType::kBtreeInsert;
  prec.page = page::HeaderOf(parent_handle->data())->page_num;
  prec.store = store_;
  prec.after.resize(sizeof(BTreeEntry));
  BTreeEntry pe{sep, right_page};
  std::memcpy(prec.after.data(), &pe, sizeof(pe));
  SHOREMT_RETURN_NOT_OK(LogAndMark(nullptr, parent_handle, std::move(prec)));

  // Continue the descent into whichever half now covers `key`.
  if (key >= sep) {
    *child_handle = std::move(right_h);
  }
  return Status::Ok();
}

Result<PageHandle> BTree::InsertUnlogged(uint64_t key, uint64_t value,
                                         PageNum* leaf_page) {
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(root_, LatchMode::kExclusive));
  {
    BTreeNode root(h.data());
    // Structure changes during undo are logged redo-only with no txn.
    if (root.IsFull()) SHOREMT_RETURN_NOT_OK(SplitRoot(nullptr, &h, key));
  }
  for (;;) {
    BTreeNode node(h.data());
    if (node.IsLeaf()) {
      if (!node.InsertSorted(key, value)) {
        return Status::AlreadyExists("duplicate key");
      }
      *leaf_page = page::HeaderOf(h.data())->page_num;
      return std::move(h);
    }
    PageNum child_page = node.ChildFor(key);
    SHOREMT_ASSIGN_OR_RETURN(
        PageHandle child_h, pool_->FixPage(child_page, LatchMode::kExclusive));
    {
      BTreeNode child(child_h.data());
      if (child.IsFull()) {
        SHOREMT_RETURN_NOT_OK(SplitChild(nullptr, &h, &child_h, key));
      }
    }
    h = std::move(child_h);  // Crab: release parent, keep child.
  }
}

Result<PageHandle> BTree::RemoveUnlogged(uint64_t key, uint64_t* removed,
                                         PageNum* leaf_page) {
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(root_, LatchMode::kExclusive));
  for (;;) {
    BTreeNode node(h.data());
    if (node.IsLeaf()) {
      uint16_t i;
      if (!node.FindKey(key, &i)) return Status::NotFound("key not found");
      *removed = node.entry(i).value;
      node.RemoveKey(key);
      *leaf_page = page::HeaderOf(h.data())->page_num;
      return std::move(h);
    }
    SHOREMT_ASSIGN_OR_RETURN(
        PageHandle child_h,
        pool_->FixPage(node.ChildFor(key), LatchMode::kExclusive));
    h = std::move(child_h);
  }
}

Status BTree::Insert(txn::Transaction* txn, uint64_t key, RecordId rid) {
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(root_, LatchMode::kExclusive));
  {
    BTreeNode root(h.data());
    if (root.IsFull()) SHOREMT_RETURN_NOT_OK(SplitRoot(txn, &h, key));
  }
  for (;;) {
    BTreeNode node(h.data());
    if (node.IsLeaf()) {
      if (!node.InsertSorted(key, PackRecordId(rid))) {
        return Status::AlreadyExists("duplicate key");
      }
      log::LogRecord rec;
      rec.type = log::LogRecordType::kBtreeInsert;
      rec.page = page::HeaderOf(h.data())->page_num;
      rec.store = store_;
      rec.after.resize(sizeof(BTreeEntry));
      BTreeEntry e{key, PackRecordId(rid)};
      std::memcpy(rec.after.data(), &e, sizeof(e));
      return LogAndMark(txn, &h, std::move(rec));
    }
    PageNum child_page = node.ChildFor(key);
    SHOREMT_ASSIGN_OR_RETURN(
        PageHandle child_h, pool_->FixPage(child_page, LatchMode::kExclusive));
    {
      BTreeNode child(child_h.data());
      if (child.IsFull()) {
        SHOREMT_RETURN_NOT_OK(SplitChild(txn, &h, &child_h, key));
      }
    }
    h = std::move(child_h);  // Crab: release parent, keep child.
  }
}

Result<RecordId> BTree::Find(txn::Transaction* txn, uint64_t key) {
  // Per-worker counters only on this path: a shared RMW per probe is the
  // §7 coherence collapse in miniature (see BTreeStats).
  obs::TlsInc(obs::Metric::kBtreeFinds);
  if (options_.probe_lock_table && txn != nullptr) {
    // §7.7's redundant per-probe check. The shared-table search this knob
    // used to emulate is gone for good: the transaction's private lock
    // cache answers the same question with a handle-local map lookup, so
    // even with the knob on, no latch and no shared cache line is touched.
    (void)txn->locks.HeldMode(lock::LockId::Store(store_));
    obs::TlsInc(obs::Metric::kBtreeProbeLockSearches);
  }
  if (options_.optimistic_reads) {
    for (int r = 0; r <= options_.optimistic_restart_limit; ++r) {
      Result<RecordId> res = TryFindOptimistic(key);
      if (res.ok() || !res.status().IsBusy()) {
        obs::TlsInc(obs::Metric::kBtreeOptimisticDescents);
        return res;
      }
      obs::TlsInc(obs::Metric::kBtreeRestarts);
    }
    // Conflict storm: guarantee progress with the latched crab.
    obs::TlsInc(obs::Metric::kBtreeLatchFallbacks);
  }
  return FindLatched(key);
}

Result<RecordId> BTree::TryFindOptimistic(uint64_t key) {
  SHOREMT_ASSIGN_OR_RETURN(buffer::OptimisticPageHandle h,
                           pool_->FixOptimistic(root_));
  for (;;) {
    uint16_t count, level;
    OptReadHeader(h.data(), &count, &level);
    if (level == 0) {
      uint64_t value = 0;
      bool found = OptFindLeaf(h.data(), count, key, &value);
      // NotFound is an answer too — it is only trusted validated.
      if (!h.Validate()) return Status::Busy("optimistic restart");
      if (!found) return Status::NotFound("key not found");
      return UnpackRecordId(value);
    }
    PageNum child = OptChildFor(h.data(), count, key);
    // Validate BEFORE fixing the child: a torn pointer must never reach
    // the buffer pool (its miss path would read garbage off the volume).
    if (!h.Validate()) return Status::Busy("optimistic restart");
    SHOREMT_ASSIGN_OR_RETURN(buffer::OptimisticPageHandle child_h,
                             pool_->FixOptimistic(child));
    // Optimistic lock coupling: re-check the parent after the child's
    // stamp is recorded — proves the pointer was still current at that
    // instant, so the parent can now be released (dropped) safely.
    if (!h.Validate()) return Status::Busy("optimistic restart");
    h = child_h;
  }
}

Result<RecordId> BTree::FindLatched(uint64_t key) {
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(root_, LatchMode::kShared));
  for (;;) {
    BTreeNode node(h.data());
    if (node.IsLeaf()) {
      uint16_t i;
      if (!node.FindKey(key, &i)) return Status::NotFound("key not found");
      return UnpackRecordId(node.entry(i).value);
    }
    PageNum child_page = node.ChildFor(key);
    SHOREMT_ASSIGN_OR_RETURN(PageHandle child_h,
                             pool_->FixPage(child_page, LatchMode::kShared));
    h = std::move(child_h);
  }
}

Status BTree::Remove(txn::Transaction* txn, uint64_t key) {
  stats_.removes.fetch_add(1, std::memory_order_relaxed);
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(root_, LatchMode::kExclusive));
  for (;;) {
    BTreeNode node(h.data());
    if (node.IsLeaf()) {
      uint16_t i;
      if (!node.FindKey(key, &i)) return Status::NotFound("key not found");
      BTreeEntry removed = node.entry(i);
      node.RemoveKey(key);
      log::LogRecord rec;
      rec.type = log::LogRecordType::kBtreeDelete;
      rec.page = page::HeaderOf(h.data())->page_num;
      rec.store = store_;
      rec.before.resize(sizeof(BTreeEntry));
      std::memcpy(rec.before.data(), &removed, sizeof(removed));
      return LogAndMark(txn, &h, std::move(rec));
    }
    PageNum child_page = node.ChildFor(key);
    SHOREMT_ASSIGN_OR_RETURN(
        PageHandle child_h, pool_->FixPage(child_page, LatchMode::kExclusive));
    h = std::move(child_h);  // No merging: every node is delete-safe.
  }
}

Status BTree::Iterator::Seek(uint64_t key) {
  const BTreeOptions& opt = tree_->options_;
  if (opt.optimistic_reads) {
    for (int r = 0; r <= opt.optimistic_restart_limit; ++r) {
      Status st = TrySeekOptimistic(key);
      if (!st.IsBusy()) {
        if (st.ok()) obs::TlsInc(obs::Metric::kBtreeOptimisticDescents);
        return st;
      }
      obs::TlsInc(obs::Metric::kBtreeRestarts);
    }
    obs::TlsInc(obs::Metric::kBtreeLatchFallbacks);
  }
  return SeekLatched(key);
}

Status BTree::Iterator::TrySeekOptimistic(uint64_t key) {
  valid_ = false;
  buf_.clear();
  pos_ = 0;
  SHOREMT_ASSIGN_OR_RETURN(buffer::OptimisticPageHandle h,
                           tree_->pool_->FixOptimistic(tree_->root_));
  for (;;) {
    uint16_t count, level;
    OptReadHeader(h.data(), &count, &level);
    if (level == 0) {
      // Buffer the qualifying tail from the live image; trust it (and the
      // chain pointer) only once the leaf validates. A Busy restart clears
      // the buffer at re-entry, so torn copies never escape.
      OptCopyTail(h.data(), count, 0, key, /*exclusive=*/false, &buf_);
      PageNum next = OptNextPage(h.data());
      if (!h.Validate()) return Status::Busy("optimistic restart");
      next_leaf_ = next;
      ++refills_;  // New snapshot generation (readahead triggers off this).
      if (!buf_.empty()) {
        valid_ = true;
        return Status::Ok();
      }
      return Refill(key, /*exclusive=*/false);
    }
    PageNum child = OptChildFor(h.data(), count, key);
    if (!h.Validate()) return Status::Busy("optimistic restart");
    SHOREMT_ASSIGN_OR_RETURN(buffer::OptimisticPageHandle child_h,
                             tree_->pool_->FixOptimistic(child));
    if (!h.Validate()) return Status::Busy("optimistic restart");
    h = child_h;
  }
}

Status BTree::Iterator::SeekLatched(uint64_t key) {
  valid_ = false;
  buf_.clear();
  pos_ = 0;
  SHOREMT_ASSIGN_OR_RETURN(
      PageHandle h, tree_->pool_->FixPage(tree_->root_, LatchMode::kShared));
  // Descend to the leaf covering `key`, crabbing shared latches.
  for (;;) {
    BTreeNode node(h.data());
    if (node.IsLeaf()) break;
    SHOREMT_ASSIGN_OR_RETURN(
        PageHandle child_h,
        tree_->pool_->FixPage(node.ChildFor(key), LatchMode::kShared));
    h = std::move(child_h);
  }
  // Buffer this leaf's qualifying tail, then drop the latch. Entries whose
  // leaf fills up later simply migrate right in the chain — Refill's
  // resume filter keeps the iteration exactly-once.
  BTreeNode leaf(h.data());
  for (uint16_t i = leaf.LowerBound(key); i < leaf.count(); ++i) {
    buf_.push_back(leaf.entry(i));
  }
  next_leaf_ = page::HeaderOf(h.data())->next_page;
  ++refills_;  // New snapshot generation (readahead triggers off this).
  h.Unfix();  // Release the latch before the chain walk below.
  if (!buf_.empty()) {
    valid_ = true;
    return Status::Ok();
  }
  return RefillLatched(key, /*exclusive=*/false);
}

Status BTree::Iterator::Refill(uint64_t min_key, bool exclusive) {
  const BTreeOptions& opt = tree_->options_;
  if (opt.optimistic_reads) {
    for (int r = 0; r <= opt.optimistic_restart_limit; ++r) {
      Status st = TryRefillOptimistic(min_key, exclusive);
      if (!st.IsBusy()) return st;
      obs::TlsInc(obs::Metric::kBtreeRestarts);
    }
    obs::TlsInc(obs::Metric::kBtreeLatchFallbacks);
  }
  return RefillLatched(min_key, exclusive);
}

Status BTree::Iterator::TryRefillOptimistic(uint64_t min_key,
                                            bool exclusive) {
  valid_ = false;
  buf_.clear();
  pos_ = 0;
  // next_leaf_ only advances past VALIDATED leaves, so a Busy restart
  // resumes exactly at the leaf whose snapshot conflicted — the resume
  // filter then keeps the iteration exactly-once, as in the latched walk.
  while (next_leaf_ != kInvalidPageNum) {
    SHOREMT_ASSIGN_OR_RETURN(buffer::OptimisticPageHandle h,
                             tree_->pool_->FixOptimistic(next_leaf_));
    buf_.clear();
    uint16_t count, level;
    OptReadHeader(h.data(), &count, &level);
    OptCopyTail(h.data(), count, 0, min_key, exclusive, &buf_);
    PageNum next = OptNextPage(h.data());
    if (!h.Validate()) return Status::Busy("optimistic restart");
    next_leaf_ = next;
    ++refills_;  // New snapshot generation (readahead triggers off this).
    if (!buf_.empty()) {
      valid_ = true;
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status BTree::Iterator::RefillLatched(uint64_t min_key, bool exclusive) {
  // Invalidate up front: an error return (e.g. a failed page fix) must
  // not leave a Valid() iterator pointing at an empty buffer.
  valid_ = false;
  buf_.clear();
  pos_ = 0;
  while (next_leaf_ != kInvalidPageNum) {
    SHOREMT_ASSIGN_OR_RETURN(
        PageHandle h, tree_->pool_->FixPage(next_leaf_, LatchMode::kShared));
    BTreeNode leaf(h.data());
    for (uint16_t i = 0; i < leaf.count(); ++i) {
      const BTreeEntry& e = leaf.entry(i);
      if (exclusive ? e.key > min_key : e.key >= min_key) {
        buf_.push_back(e);
      }
    }
    next_leaf_ = page::HeaderOf(h.data())->next_page;
    ++refills_;  // New snapshot generation (readahead triggers off this).
    if (!buf_.empty()) {
      valid_ = true;
      return Status::Ok();
    }
  }
  valid_ = false;
  return Status::Ok();
}

Status BTree::Iterator::Next() {
  if (!valid_) return Status::InvalidArgument("Next on invalid iterator");
  if (++pos_ < buf_.size()) return Status::Ok();
  return Refill(buf_.back().key, /*exclusive=*/true);
}

Status BTree::Scan(uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, RecordId)>& fn) {
  Iterator it(this);
  SHOREMT_RETURN_NOT_OK(it.Seek(lo));
  while (it.Valid() && it.key() <= hi) {
    if (!fn(it.key(), it.record())) return Status::Ok();
    SHOREMT_RETURN_NOT_OK(it.Next());
  }
  return Status::Ok();
}

Result<uint64_t> BTree::CountEntries() {
  uint64_t n = 0;
  SHOREMT_RETURN_NOT_OK(Scan(0, UINT64_MAX, [&](uint64_t, RecordId) {
    ++n;
    return true;
  }));
  return n;
}

}  // namespace shoremt::btree
