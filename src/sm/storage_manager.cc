#include "sm/storage_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "btree/btree_node.h"
#include "io/retry.h"
#include "log/log_archive.h"
#include "page/page.h"
#include "page/slotted_page.h"

namespace shoremt::sm {

using buffer::PageHandle;
using sync::LatchMode;

namespace {

/// Catalog entry wire format: u32 name_len | name | u32 heap | u32 index |
/// u64 root.
void SerializeTableInfo(const TableInfo& info, std::vector<uint8_t>* out) {
  out->clear();
  auto put = [&](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    out->insert(out->end(), b, b + n);
  };
  uint32_t len = static_cast<uint32_t>(info.name.size());
  put(&len, 4);
  put(info.name.data(), info.name.size());
  put(&info.heap_store, 4);
  put(&info.index_store, 4);
  put(&info.index_root, 8);
}

Status DeserializeTableInfo(std::span<const uint8_t> data, TableInfo* info) {
  if (data.size() < 4) return Status::Corruption("catalog entry truncated");
  uint32_t len;
  std::memcpy(&len, data.data(), 4);
  if (data.size() < size_t{4} + len + 16) {
    return Status::Corruption("catalog entry truncated");
  }
  info->name.assign(reinterpret_cast<const char*>(data.data() + 4), len);
  std::memcpy(&info->heap_store, data.data() + 4 + len, 4);
  std::memcpy(&info->index_store, data.data() + 8 + len, 4);
  std::memcpy(&info->index_root, data.data() + 12 + len, 8);
  return Status::Ok();
}

/// True for the record types whose action changes an existing page image.
bool UpdatesPage(log::LogRecordType type) {
  using log::LogRecordType;
  switch (type) {
    case LogRecordType::kPageInsert:
    case LogRecordType::kPageUpdate:
    case LogRecordType::kPageDelete:
    case LogRecordType::kBtreeInsert:
    case LogRecordType::kBtreeDelete:
    case LogRecordType::kBtreeSetContent:
      return true;
    default:
      return false;
  }
}

/// The page action `rec` carries: its own type, or for a CLR the embedded
/// inverse action (always a page update; anything else carries none).
log::LogRecordType PageAction(const log::LogRecord& rec) {
  if (rec.type != log::LogRecordType::kClr) return rec.type;
  auto action = static_cast<log::LogRecordType>(rec.page_type);
  return UpdatesPage(action) ? action : log::LogRecordType::kNoop;
}

/// Unpacks the single {key, value} entry of a B-tree record's payload.
/// Payloads arrive from the log device, the archive or the replication
/// socket, so the length is checked rather than trusted.
Status ReadEntry(std::span<const uint8_t> payload, btree::BTreeEntry* e) {
  if (payload.size() != sizeof(*e)) {
    return Status::Corruption("B-tree record payload of " +
                              std::to_string(payload.size()) + " bytes");
  }
  std::memcpy(e, payload.data(), sizeof(*e));
  return Status::Ok();
}

/// Applies `rec`'s page action to the raw image `img`. This is the one
/// place a log record becomes page bytes: restart redo, replica replay,
/// media repair and heap undo all call it. A CLR applies its embedded
/// action over its own page, slot and payloads. The page LSN is never
/// touched — each caller keeps its own idempotence rule. Metadata records
/// are no-ops.
Status ApplyToImage(const log::LogRecord& rec, uint8_t* img) {
  using log::LogRecordType;
  LogRecordType action = PageAction(rec);
  // An unformatted or misdirected image means the WAL invariants were
  // violated upstream; surface it instead of writing through garbage
  // offsets.
  if (UpdatesPage(action) && !page::PageLooksValid(img, rec.page)) {
    return Status::Corruption("log record applied to an invalid image of "
                              "page " + std::to_string(rec.page));
  }
  btree::BTreeEntry e;
  switch (action) {
    case LogRecordType::kPageFormat: {
      auto type = static_cast<page::PageType>(rec.page_type);
      if (type == page::PageType::kData) {
        page::SlottedPage(img).Init(rec.page, rec.store, type);
      } else {
        btree::BTreeNode(img).Init(rec.page, rec.store,
                                   type == page::PageType::kBTreeLeaf ? 0 : 1);
      }
      return Status::Ok();
    }
    case LogRecordType::kPageInsert:
      return page::SlottedPage(img).InsertAt(rec.slot, rec.after);
    case LogRecordType::kPageUpdate:
      return page::SlottedPage(img).Update(rec.slot, rec.after);
    case LogRecordType::kPageDelete:
      return page::SlottedPage(img).Delete(rec.slot);
    case LogRecordType::kBtreeInsert:
      SHOREMT_RETURN_NOT_OK(ReadEntry(rec.after, &e));
      btree::BTreeNode(img).InsertSorted(e.key, e.value);
      return Status::Ok();
    case LogRecordType::kBtreeDelete:
      SHOREMT_RETURN_NOT_OK(ReadEntry(rec.before, &e));
      btree::BTreeNode(img).RemoveKey(e.key);
      return Status::Ok();
    case LogRecordType::kBtreeSetContent:
      if (!btree::BTreeNode(img).RestoreContent(rec.after)) {
        return Status::Corruption("B-tree content blob of " +
                                  std::to_string(rec.after.size()) +
                                  " bytes does not fit page " +
                                  std::to_string(rec.page));
      }
      return Status::Ok();
    default:
      return Status::Ok();  // Metadata records carry no page bytes.
  }
}

}  // namespace

StorageManager::StorageManager(StorageOptions options, io::Volume* volume,
                               log::LogStorage* log_storage)
    : options_(options), volume_(volume), log_storage_(log_storage) {
  log_ = std::make_unique<log::LogManager>(log_storage_, options_.log);
  // The cleaner's redo budget: half the log the pressure threshold allows,
  // so the horizon rule keeps the live segments below the point where the
  // flush pipeline starts reporting pressure.
  pool_ = std::make_unique<buffer::BufferPool>(
      volume_, options_.buffer,
      [this](Lsn lsn) { return log_->FlushTo(lsn); },
      [this] { return log_->durable_lsn(); },
      options_.log.recycle_pressure_segments * log_storage_->segment_bytes() /
          2);
  space_ = std::make_unique<space::SpaceManager>(volume_, options_.space);
  locks_ = std::make_unique<lock::LockManager>(options_.lock);
  txns_ = std::make_unique<txn::TxnManager>(log_.get(), locks_.get(),
                                            options_.txn);
  txns_->SetUndoApplier(
      [this](txn::Transaction* txn, const log::LogRecord& rec) {
        return UndoRecord(txn, txn->id, rec);
      });
  // Media auto-repair: a checksum-failed read-in (miss path or scrubber)
  // rebuilds the page from the archived + live log history instead of
  // surfacing Corruption to the fixer.
  pool_->SetPageRepairer(
      [this](PageNum page, uint8_t* img) { return RepairPage(page, img); });
  // Close the log-lifecycle loop: log-segment pressure (reported by the
  // flush daemon after its batches) wakes the cleaner and the checkpoint
  // daemon so the low-water mark advances and Recycle can free segments —
  // cv notifies end to end, nothing polls.
  log_->SetPressureHook([this] {
    pool_->WakeCleaner();
    WakeCheckpoint();
  });
  // Live-metrics sources: the engine-global halves of the registry view.
  // Each source reads its subsystem's existing atomic stats struct at
  // snapshot time — the subsystems keep their structs; the registry (and
  // the profiling feed over it) is the union. Worker-side metrics (txn
  // lifecycle, DML, lock waits, log bytes, durability waits) come from the
  // sessions' WorkerCounters blocks instead.
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    const buffer::BufferPoolStats& s = pool_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kBufferHits)] +=
        s.hits.load(std::memory_order_relaxed) +
        s.optimistic_hits.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kBufferMisses)] +=
        s.misses.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kEvictions)] +=
        s.evictions.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kCleanerWritebacks)] +=
        s.cleaner_writes.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    (*t)[static_cast<size_t>(obs::Metric::kPagesAllocated)] +=
        space_->stats().pages_allocated.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    const log::LogStats& s = log_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kLogRecords)] +=
        s.records.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kGroupBatches)] +=
        s.group_batches.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kGroupBatchTxns)] +=
        s.group_batch_txns.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kCheckpoints)] +=
        s.checkpoint_count.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kSegmentsRecycled)] +=
        s.segments_recycled.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    const lock::LockStats& s = locks_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kLockAcquired)] +=
        s.acquired.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    const io::IoStats& s = volume_->stats();
    uint64_t reads = s.reads.load(std::memory_order_relaxed);
    uint64_t writes = s.writes.load(std::memory_order_relaxed);
    uint64_t pages_read = s.pages_read.load(std::memory_order_relaxed);
    uint64_t pages_written = s.pages_written.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoReads)] += reads;
    (*t)[static_cast<size_t>(obs::Metric::kIoWrites)] += writes;
    (*t)[static_cast<size_t>(obs::Metric::kIoReadNs)] +=
        s.read_ns.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoWriteNs)] +=
        s.write_ns.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoBatchedOps)] +=
        s.batched_reads.load(std::memory_order_relaxed) +
        s.batched_writes.load(std::memory_order_relaxed);
    // Pages that rode an existing call instead of costing their own —
    // saturating: the unsynchronized loads can be mid-update.
    (*t)[static_cast<size_t>(obs::Metric::kIoCoalescedPages)] +=
        (pages_read > reads ? pages_read - reads : 0) +
        (pages_written > writes ? pages_written - writes : 0);
    const buffer::BufferPoolStats& b = pool_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kIoPrefetchIssued)] +=
        b.prefetch_issued.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoPrefetchDropped)] +=
        b.prefetch_dropped.load(std::memory_order_relaxed);
  });
  metrics_.AddSource([this](std::array<uint64_t, obs::kMetricCount>* t) {
    // Integrity: retries come from the volume's IoStats (RetryTransient
    // counts there from both the scheduler workers and the pool's
    // synchronous paths, so it is the single non-double-counting source);
    // detection/repair/scrub come from the pool.
    const io::IoStats& s = volume_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kIoRetries)] +=
        s.retries.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kIoRetryBackoffNs)] +=
        s.retry_backoff_ns.load(std::memory_order_relaxed);
    const buffer::BufferPoolStats& b = pool_->stats();
    (*t)[static_cast<size_t>(obs::Metric::kChecksumFailures)] +=
        b.checksum_failures.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kPagesRepaired)] +=
        b.pages_repaired.load(std::memory_order_relaxed);
    (*t)[static_cast<size_t>(obs::Metric::kScrubPages)] +=
        b.scrub_pages.load(std::memory_order_relaxed);
  });
}

StorageManager::~StorageManager() {
  ckpt_daemon_.Stop();
  // Disarm the pressure hook before any member dies: SetPostBatchHook
  // synchronizes under the pipeline's lock, so after this returns the
  // flush daemon can no longer poke the checkpoint cv or the cleaner.
  log_->SetPressureHook(nullptr);
  if (!crashed_.load(std::memory_order_acquire)) (void)Shutdown();
}

void StorageManager::StartCheckpointDaemon() {
  if (!options_.checkpoint_daemon) return;
  auto interval = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::milliseconds(options_.checkpoint_interval_ms));
  ckpt_daemon_.Start(interval,
                     [this] { (void)Checkpoint(); },  // Best effort.
                     /*min_gap=*/interval / 2 +
                         std::chrono::microseconds(1000));
}

void StorageManager::WakeCheckpoint() { ckpt_daemon_.Wake(); }

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    StorageOptions options, io::Volume* volume,
    log::LogStorage* log_storage) {
  if (volume->NumPages() < kPagesPerExtent) {
    SHOREMT_RETURN_NOT_OK(volume->Extend(kPagesPerExtent));
  }
  auto sm = std::unique_ptr<StorageManager>(
      new StorageManager(options, volume, log_storage));
  switch (options.open_mode) {
    case OpenMode::kRecover:
    case OpenMode::kRestore:
      if (log_storage->size() > 0) {
        SHOREMT_RETURN_NOT_OK(sm->Recover());
      }
      break;
    case OpenMode::kPromote:
      SHOREMT_RETURN_NOT_OK(sm->PromoteRecover());
      break;
    case OpenMode::kReplicaAttach:
      // No recovery: the repl::Replica's replay pool applies the shipped
      // log itself, continuously.
      break;
  }
  // Background checkpoints only start once recovery is done: a fuzzy
  // checkpoint mid-redo would snapshot half-replayed state. A replica
  // attach never starts one — a checkpoint would log records into a log
  // the primary owns.
  if (options.open_mode != OpenMode::kReplicaAttach) {
    sm->StartCheckpointDaemon();
  }
  return sm;
}

void StorageManager::RegisterTable(const TableInfo& info) {
  std::lock_guard<std::mutex> guard(catalog_mutex_);
  catalog_[info.name] = info;
  indexes_[info.index_store] = std::make_unique<btree::BTree>(
      pool_.get(), space_.get(), log_.get(), txns_.get(), info.index_store,
      info.index_root, options_.btree);
}

btree::BTree* StorageManager::index_of(const TableInfo& table) {
  std::lock_guard<std::mutex> guard(catalog_mutex_);
  auto it = indexes_.find(table.index_store);
  return it == indexes_.end() ? nullptr : it->second.get();
}

Result<TableInfo> StorageManager::CreateTable(txn::Transaction* txn,
                                              const std::string& name) {
  // Reserve the name under the catalog mutex so two racing CreateTable
  // calls cannot both pass the uniqueness check and overwrite each
  // other's catalog entry; the reservation is dropped on any error.
  {
    std::lock_guard<std::mutex> guard(catalog_mutex_);
    if (catalog_.contains(name) || !creating_.insert(name).second) {
      return Status::AlreadyExists("table exists: " + name);
    }
  }
  Result<TableInfo> result = CreateTableReserved(txn, name);
  std::lock_guard<std::mutex> guard(catalog_mutex_);
  creating_.erase(name);
  return result;
}

Result<TableInfo> StorageManager::CreateTableReserved(
    txn::Transaction* txn, const std::string& name) {
  TableInfo info;
  info.name = name;
  info.heap_store = next_store_.fetch_add(1, std::memory_order_relaxed);
  info.index_store = next_store_.fetch_add(1, std::memory_order_relaxed);

  // Exclusive store locks, held until the DDL transaction ends: a
  // concurrent transactional OpenTable blocks on these instead of
  // observing the table half-created.
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockStore(info.heap_store, lock::LockMode::kX));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockStore(info.index_store, lock::LockMode::kX));

  for (StoreId sid : {info.heap_store, info.index_store}) {
    SHOREMT_RETURN_NOT_OK(space_->CreateStore(sid));
    log::LogRecord rec;
    rec.type = log::LogRecordType::kCreateStore;
    rec.store = sid;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
    txns_->NoteLogged(txn, a.lsn, a.end);
  }

  SHOREMT_ASSIGN_OR_RETURN(
      info.index_root,
      btree::BTree::CreateRoot(pool_.get(), space_.get(), log_.get(),
                               txns_.get(), txn, info.index_store));

  log::LogRecord cat;
  cat.type = log::LogRecordType::kCatalog;
  cat.txn = txn->id;
  cat.prev_lsn = txn->last_lsn;
  SerializeTableInfo(info, &cat.after);
  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(cat));
  txns_->NoteLogged(txn, a.lsn, a.end);

  RegisterTable(info);
  return info;
}

Result<TableInfo> StorageManager::OpenTable(txn::Transaction* txn,
                                            const std::string& name) {
  TableInfo info;
  {
    std::lock_guard<std::mutex> guard(catalog_mutex_);
    auto it = catalog_.find(name);
    if (it == catalog_.end()) return Status::NotFound("no table " + name);
    info = it->second;
  }
  // Shared store lock: if the creating transaction still holds its X
  // locks, we wait here until the DDL commits (or time out if it never
  // does) rather than touch a half-built table.
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockStore(info.heap_store, lock::LockMode::kIS));
  return info;
}

Result<RecordId> StorageManager::HeapInsert(txn::Transaction* txn,
                                            StoreId heap_store,
                                            std::span<const uint8_t> payload) {
  if (payload.size() > page::SlottedPage::MaxRecordSize()) {
    return Status::InvalidArgument("row too large for a page");
  }
  // Appends the row to the X-latched `page` and logs it.
  auto place = [&](PageHandle& h, PageNum page) -> Result<RecordId> {
    page::SlottedPage sp(h.data());
    SHOREMT_ASSIGN_OR_RETURN(uint16_t slot, sp.Insert(payload));
    log::LogRecord rec;
    rec.type = log::LogRecordType::kPageInsert;
    rec.page = page;
    rec.store = heap_store;
    rec.slot = slot;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    rec.after.assign(payload.begin(), payload.end());
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
    txns_->NoteLogged(txn, a.lsn, a.end);
    h.MarkDirty(a.end, a.lsn);
    return RecordId{page, slot};
  };

  // Append target: the store's last page (cache vs chain walk is a
  // space-manager knob, §7.6).
  auto last = space_->LastPageOf(heap_store);
  if (last.ok()) {
    // §6.2.2: every insert verifies the page belongs to the right store
    // (thread-local extent cache makes this cheap in later stages).
    auto owner = space_->OwnerOf(*last);
    if (owner.ok() && *owner == heap_store) {
      SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                               pool_->FixPage(*last, LatchMode::kExclusive));
      // Under refactored_alloc the last page is published before its
      // allocator formats it, so it may not be a page of this store yet.
      page::SlottedPage sp(h.data());
      if (sp.header()->store == heap_store && sp.Fits(payload.size())) {
        return place(h, *last);
      }
    }
  }

  // No usable page: grow the store by one page (the init callback runs
  // inside/outside the space critical section depending on the
  // refactored_alloc knob — Figure 6). The init keeps the fresh page
  // X-latched, so no concurrent inserter can fill it before this row
  // lands on it.
  PageHandle formatted;
  auto init = [&](PageNum p) -> Status {
    SHOREMT_ASSIGN_OR_RETURN(PageHandle h, pool_->NewPage(p));
    page::SlottedPage sp(h.data());
    sp.Init(p, heap_store, page::PageType::kData);
    log::LogRecord rec;
    rec.type = log::LogRecordType::kPageFormat;
    rec.page = p;
    rec.store = heap_store;
    rec.page_type = static_cast<uint8_t>(page::PageType::kData);
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
    txns_->NoteLogged(txn, a.lsn, a.end);
    h.MarkDirty(a.end, a.lsn);
    formatted = std::move(h);
    return Status::Ok();
  };
  SHOREMT_ASSIGN_OR_RETURN(PageNum fresh,
                           space_->AllocatePage(heap_store, init));
  log::LogRecord alloc;
  alloc.type = log::LogRecordType::kAllocPage;
  alloc.page = fresh;
  alloc.store = heap_store;
  alloc.txn = txn->id;
  alloc.prev_lsn = txn->last_lsn;
  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(alloc));
  txns_->NoteLogged(txn, a.lsn, a.end);
  return place(formatted, fresh);
}

Result<RecordId> StorageManager::Insert(txn::Transaction* txn,
                                        const TableInfo& table, uint64_t key,
                                        std::span<const uint8_t> payload) {
  btree::BTree* index = index_of(table);
  if (index == nullptr) return Status::NotFound("unknown table");
  SHOREMT_ASSIGN_OR_RETURN(RecordId rid,
                           HeapInsert(txn, table.heap_store, payload));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockRecord(table.heap_store, rid, lock::LockMode::kX));
  // On duplicate key the caller aborts the transaction, which rolls the
  // heap placement back through the WAL chain.
  SHOREMT_RETURN_NOT_OK(index->Insert(txn, key, rid));
  return rid;
}

Status StorageManager::ReadInto(txn::Transaction* txn, const TableInfo& table,
                                uint64_t key, std::vector<uint8_t>* out) {
  btree::BTree* index = index_of(table);
  if (index == nullptr) return Status::NotFound("unknown table");
  SHOREMT_ASSIGN_OR_RETURN(RecordId rid, index->Find(txn, key));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockRecord(table.heap_store, rid, lock::LockMode::kS));
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(rid.page, LatchMode::kShared));
  page::SlottedPage sp(h.data());
  SHOREMT_ASSIGN_OR_RETURN(std::span<const uint8_t> rec, sp.Read(rid.slot));
  out->assign(rec.begin(), rec.end());
  return Status::Ok();
}

Status StorageManager::Update(txn::Transaction* txn, const TableInfo& table,
                              uint64_t key,
                              std::span<const uint8_t> payload) {
  btree::BTree* index = index_of(table);
  if (index == nullptr) return Status::NotFound("unknown table");
  SHOREMT_ASSIGN_OR_RETURN(RecordId rid, index->Find(txn, key));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockRecord(table.heap_store, rid, lock::LockMode::kX));
  SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                           pool_->FixPage(rid.page, LatchMode::kExclusive));
  page::SlottedPage sp(h.data());
  SHOREMT_ASSIGN_OR_RETURN(std::span<const uint8_t> old, sp.Read(rid.slot));
  log::LogRecord rec;
  rec.type = log::LogRecordType::kPageUpdate;
  rec.page = rid.page;
  rec.store = table.heap_store;
  rec.slot = rid.slot;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.before.assign(old.begin(), old.end());
  rec.after.assign(payload.begin(), payload.end());
  SHOREMT_RETURN_NOT_OK(sp.Update(rid.slot, payload));
  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
  txns_->NoteLogged(txn, a.lsn, a.end);
  h.MarkDirty(a.end, a.lsn);
  return Status::Ok();
}

Status StorageManager::Delete(txn::Transaction* txn, const TableInfo& table,
                              uint64_t key) {
  btree::BTree* index = index_of(table);
  if (index == nullptr) return Status::NotFound("unknown table");
  SHOREMT_ASSIGN_OR_RETURN(RecordId rid, index->Find(txn, key));
  SHOREMT_RETURN_NOT_OK(
      txn->locks.LockRecord(table.heap_store, rid, lock::LockMode::kX));
  {
    SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                             pool_->FixPage(rid.page, LatchMode::kExclusive));
    page::SlottedPage sp(h.data());
    SHOREMT_ASSIGN_OR_RETURN(std::span<const uint8_t> old, sp.Read(rid.slot));
    log::LogRecord rec;
    rec.type = log::LogRecordType::kPageDelete;
    rec.page = rid.page;
    rec.store = table.heap_store;
    rec.slot = rid.slot;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    rec.before.assign(old.begin(), old.end());
    SHOREMT_RETURN_NOT_OK(sp.Delete(rid.slot));
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
    txns_->NoteLogged(txn, a.lsn, a.end);
    h.MarkDirty(a.end, a.lsn);
  }
  return index->Remove(txn, key);
}

Result<Lsn> StorageManager::Checkpoint() {
  // One checkpoint at a time, snapshot through recycle: two overlapping
  // checkpoints could otherwise append their records out of snapshot
  // order, and the later-appended-but-earlier-snapshotted one would
  // become recovery's "last checkpoint" while the other's Recycle had
  // already freed commit records of transactions the stale body still
  // lists as active — resurrecting committed work as losers.
  std::lock_guard<std::mutex> ckpt_guard(ckpt_api_mutex_);
  // Decoupled (§7.7 completed): the dirty-page table's incremental
  // minimum replaces the buffer-pool scan — an O(1) read while the
  // transaction table is frozen. The blocking variant keeps the original
  // Shore behavior for the stage-comparison benches. Either way the
  // no-dirty-pages fallback is the current append horizon: everything
  // below it is clean on disk, and updates racing the snapshot are
  // covered by the active-transaction begin-LSN floor TakeCheckpoint
  // applies.
  auto redo_source = [this] {
    Lsn lsn = options_.decoupled_checkpoint ? pool_->DirtyMinRecLsn()
                                            : pool_->ScanMinRecLsn();
    return lsn.IsNull() ? log_->next_lsn() : lsn;
  };
  // The body carries the catalog and the space map: once segments below
  // the horizon are recycled, the metadata records that built these maps
  // are gone, so recovery's analysis bootstraps from the newest body.
  auto augment = [this](log::CheckpointBody* body) {
    {
      std::lock_guard<std::mutex> guard(catalog_mutex_);
      body->tables.reserve(catalog_.size());
      for (const auto& [name, info] : catalog_) {
        std::vector<uint8_t> bytes;
        SerializeTableInfo(info, &bytes);
        body->tables.push_back(std::move(bytes));
      }
    }
    space_->Snapshot(&body->stores, &body->extents);
  };
  Lsn redo_lsn;
  SHOREMT_ASSIGN_OR_RETURN(
      Lsn ck, txns_->TakeCheckpoint(redo_source, augment, &redo_lsn));
  // The checkpoint record is durable (TakeCheckpoint flushes it): whole
  // log segments below the low-water mark can go. Recovery never needs
  // them — redo starts at redo_lsn, undo chains of live transactions are
  // floored by it, and analysis rebuilds metadata from this record's
  // body, which sits above it.
  log_->Recycle(redo_lsn);
  return ck;
}

Status StorageManager::Shutdown() {
  SHOREMT_RETURN_NOT_OK(log_->FlushAll());
  SHOREMT_RETURN_NOT_OK(pool_->FlushAll());
  return Status::Ok();
}

// ----------------------------------------------------------------- undo ----

Status StorageManager::UndoRecord(txn::Transaction* txn, TxnId txn_id,
                                  const log::LogRecord& rec, bool log_only) {
  using log::LogRecordType;
  log::LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn = txn_id;
  clr.prev_lsn = txn != nullptr ? txn->last_lsn : rec.lsn;
  clr.undo_next = rec.prev_lsn;
  clr.store = rec.store;

  PageHandle handle;
  btree::BTreeEntry e;
  switch (rec.type) {
    case LogRecordType::kPageInsert:
    case LogRecordType::kPageUpdate:
    case LogRecordType::kPageDelete: {
      // The CLR carries the inverse action over the same slot; the page
      // gets it through the applier restart redo will replay it with.
      clr.page = rec.page;
      clr.slot = rec.slot;
      LogRecordType inverse = rec.type == LogRecordType::kPageInsert
                                  ? LogRecordType::kPageDelete
                              : rec.type == LogRecordType::kPageDelete
                                  ? LogRecordType::kPageInsert
                                  : LogRecordType::kPageUpdate;
      clr.page_type = static_cast<uint8_t>(inverse);
      clr.after = rec.before;
      if (!log_only) {
        SHOREMT_ASSIGN_OR_RETURN(
            handle, pool_->FixPage(rec.page, LatchMode::kExclusive));
        SHOREMT_RETURN_NOT_OK(ApplyToImage(clr, handle.data()));
      }
      break;
    }
    case LogRecordType::kBtreeInsert:
    case LogRecordType::kBtreeDelete: {
      // Logical undo: the key may have moved since, so the inverse runs
      // through the tree and the CLR names the leaf it landed on.
      btree::BTree* index = index_of(TableInfo{.index_store = rec.store});
      if (index == nullptr) return Status::Internal("undo: unknown index");
      bool inserted = rec.type == LogRecordType::kBtreeInsert;
      const std::vector<uint8_t>& entry = inserted ? rec.after : rec.before;
      SHOREMT_RETURN_NOT_OK(ReadEntry(entry, &e));
      if (inserted) {
        uint64_t removed;
        SHOREMT_ASSIGN_OR_RETURN(
            handle, index->RemoveUnlogged(e.key, &removed, &clr.page));
        clr.page_type = static_cast<uint8_t>(LogRecordType::kBtreeDelete);
        clr.before = entry;
      } else {
        SHOREMT_ASSIGN_OR_RETURN(
            handle, index->InsertUnlogged(e.key, e.value, &clr.page));
        clr.page_type = static_cast<uint8_t>(LogRecordType::kBtreeInsert);
        clr.after = entry;
      }
      break;
    }
    default:
      // Structure/space/catalog records are not undone (freed space is
      // reclaimed lazily, as in the original system).
      return Status::Ok();
  }

  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->AppendClr(clr));
  if (txn != nullptr) txns_->NoteLogged(txn, a.lsn, a.end);
  if (handle.valid()) handle.MarkDirty(a.end, a.lsn);
  return Status::Ok();
}

// ------------------------------------------------------------- recovery ----

Status StorageManager::ApplyRedo(const log::LogRecord& rec, Lsn end,
                                 bool force) {
  log::LogRecordType action = PageAction(rec);
  bool format = action == log::LogRecordType::kPageFormat;
  if (!format && !UpdatesPage(action)) return Status::Ok();  // Metadata.
  SHOREMT_ASSIGN_OR_RETURN(
      PageHandle h, format ? pool_->NewPage(rec.page)
                           : pool_->FixPage(rec.page, LatchMode::kExclusive));
  uint64_t cur_lsn = page::HeaderOf(h.data())->page_lsn;
  // Recovery replays in LSN order, so "page LSN covers end" means
  // "already applied" — skip. Commit-gated replica replay applies in
  // COMMIT order: a page's LSN can already be above an unapplied record's
  // end, so force mode applies unconditionally (the dispatcher guarantees
  // exactly-once per record) and the page LSN only ratchets upward. A
  // format is the page's birth: a valid image whose LSN covers it is
  // already past it, force mode or not (re-Init would wipe later applies).
  bool guarded = format ? page::PageLooksValid(h.data(), rec.page) : !force;
  if (guarded && cur_lsn >= end.value) return Status::Ok();
  SHOREMT_RETURN_NOT_OK(ApplyToImage(rec, h.data()));
  h.MarkDirty(force && !format ? Lsn{std::max(cur_lsn, end.value)} : end,
              rec.lsn);
  return Status::Ok();
}

Status StorageManager::RepairPage(PageNum page, uint8_t* img) {
  // The page's full history, the same bytes PITR restore reads: archived
  // segments first (they carry the recycled prefix, each checked against
  // its manifest CRC), live log bytes after. A damaged archive segment,
  // or a recycled prefix with no archive, refuses the repair — never
  // rebuild from bytes that cannot be trusted.
  std::vector<uint8_t> history;
  SHOREMT_RETURN_NOT_OK(
      log::ReadHistory(options_.log.archive_dir, log_storage_, &history));
  if (history.empty()) {
    return Status::Corruption("no repair source: empty archive and log");
  }

  // Replay every record that touches `page`, oldest first, into a zeroed
  // image. The final state is at least as new as any image write-back
  // could have produced (every change to an unfixed page is WAL-durable
  // before the page leaves the pool), so redo's page-LSN idempotence
  // remains correct afterwards. A damaged record anywhere in the history
  // poisons everything after it — a partial replay would silently hand
  // back a stale image — so the reader's Corruption refuses the repair.
  std::memset(img, 0, kPageSize);
  bool touched = false;
  log::RecordReader reader(history, 0);
  log::LogRecord rec;
  Lsn end;
  while (true) {
    SHOREMT_ASSIGN_OR_RETURN(bool more, reader.Next(&rec, &end));
    if (!more) break;  // Torn tail (crash mid-append): history ends here.
    log::LogRecordType action = PageAction(rec);
    if (rec.page == page &&
        (action == log::LogRecordType::kPageFormat || UpdatesPage(action))) {
      SHOREMT_RETURN_NOT_OK(ApplyToImage(rec, img));
      page::HeaderOf(img)->page_lsn = end.value;
      touched = true;
    }
  }
  if (!touched) {
    return Status::Corruption("no log record changes page " +
                              std::to_string(page) + " — unrepairable");
  }
  if (!page::PageLooksValid(img, page)) {
    return Status::Corruption("repaired image for page " +
                              std::to_string(page) +
                              " failed validation");
  }
  page::StampPageChecksum(img);
  // Heal the media copy too, so the repair sticks even if the frame is
  // later evicted clean.
  io::RetryPolicy policy{options_.buffer.io.max_retries,
                         options_.buffer.io.retry_initial_backoff_ns,
                         options_.buffer.io.retry_max_backoff_ns};
  return io::RetryTransient(volume_, policy,
                            [&] { return volume_->WritePage(page, img); });
}

void StorageManager::RaiseNextStore(StoreId store) {
  StoreId want = store + 1;
  StoreId cur = next_store_.load(std::memory_order_relaxed);
  while (cur < want &&
         !next_store_.compare_exchange_weak(cur, want,
                                            std::memory_order_relaxed)) {
  }
}

Status StorageManager::ApplyMetadata(const log::LogRecord& rec,
                                     log::CheckpointBody* ckpt_out) {
  using log::LogRecordType;
  switch (rec.type) {
    case LogRecordType::kCheckpoint: {
      log::CheckpointBody local;
      log::CheckpointBody* body = ckpt_out != nullptr ? ckpt_out : &local;
      SHOREMT_RETURN_NOT_OK(DeserializeCheckpoint(rec.after, body));
      // Bootstrap metadata from the body (idempotent against the records
      // already applied and those still ahead).
      for (const auto& t : body->tables) {
        TableInfo info;
        SHOREMT_RETURN_NOT_OK(DeserializeTableInfo(t, &info));
        RaiseNextStore(std::max(info.heap_store, info.index_store));
        RegisterTable(info);
      }
      for (StoreId store : body->stores) {
        RaiseNextStore(store);
        SHOREMT_RETURN_NOT_OK(space_->ApplyCreateStore(store));
      }
      for (ExtentId x = 0; x < body->extents.size(); ++x) {
        if (body->extents[x].owner == kInvalidStoreId) continue;
        SHOREMT_RETURN_NOT_OK(space_->ApplyExtent(x, body->extents[x]));
      }
      return Status::Ok();
    }
    case LogRecordType::kCreateStore:
      RaiseNextStore(rec.store);
      return space_->ApplyCreateStore(rec.store);
    case LogRecordType::kAllocPage: {
      auto bit = static_cast<uint8_t>(1u << rec.page % kPagesPerExtent);
      return space_->ApplyExtent(ExtentOf(rec.page), {rec.store, bit});
    }
    case LogRecordType::kCatalog: {
      TableInfo info;
      SHOREMT_RETURN_NOT_OK(DeserializeTableInfo(rec.after, &info));
      RaiseNextStore(std::max(info.heap_store, info.index_store));
      RegisterTable(info);
      return Status::Ok();
    }
    default:
      return Status::Ok();
  }
}

Status StorageManager::AnalyzeLog(AnalysisState* out,
                                  bool honor_checkpoint_redo) {
  // Analysis: scan the LIVE log (from the reclamation horizon — with
  // recycling, earlier segments are gone), find the last checkpoint, and
  // rebuild the space map + catalog + active transaction table. Metadata
  // below the horizon comes from each checkpoint body's catalog and space
  // map; records above it are re-applied through idempotent hooks, so the
  // fuzzy overlap between the two is harmless.
  Lsn redo_start = log_->reclaim_horizon();
  // Losers evidenced by scanned records. Kept separate from checkpoint
  // hearsay: only the LAST checkpoint's active table is merged in, at the
  // end. An EARLIER checkpoint may list a transaction whose commit record
  // has since been recycled (it committed before the current horizon) —
  // seeding losers from that body would roll back committed work. For the
  // last checkpoint the hazard cannot arise: every listed transaction's
  // begin LSN is ≥ that checkpoint's redo floor ≥ the recycle horizon, so
  // its commit/abort record (which follows its begin) is in the scanned
  // region whenever it exists.
  std::map<TxnId, Lsn> scanned_losers;
  // Transactions whose commit/abort record the scan has passed: a fuzzy
  // checkpoint can still list them as active (the snapshot ran between
  // their commit-record append and their retirement), and they must never
  // be resurrected as losers.
  std::set<TxnId> ended;
  std::vector<log::CheckpointTxn> last_checkpoint_active;

  SHOREMT_RETURN_NOT_OK(log_->Scan([&](const log::LogRecord& rec, Lsn end) {
    (void)end;
    using log::LogRecordType;
    switch (rec.type) {
      case LogRecordType::kCheckpoint: {
        log::CheckpointBody body;
        SHOREMT_RETURN_NOT_OK(ApplyMetadata(rec, &body));
        // Remember only the LATEST checkpoint's active table (see the
        // scanned_losers comment above); it is merged after the scan.
        last_checkpoint_active = std::move(body.active_txns);
        if (honor_checkpoint_redo && !body.redo_lsn.IsNull()) {
          redo_start = body.redo_lsn;
        }
        break;
      }
      case LogRecordType::kCreateStore:
      case LogRecordType::kAllocPage:
      case LogRecordType::kCatalog:
        SHOREMT_RETURN_NOT_OK(ApplyMetadata(rec));
        break;
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
        scanned_losers.erase(rec.txn);
        ended.insert(rec.txn);
        break;
      default:
        break;
    }
    if (rec.txn != kInvalidTxnId &&
        rec.type != LogRecordType::kCommit &&
        rec.type != LogRecordType::kAbort) {
      scanned_losers[rec.txn] = rec.lsn;
    }
    return Status::Ok();
  }));

  // Final loser table: record-evidenced losers, plus the last checkpoint's
  // active transactions that never ended in the scanned region. Take the
  // max last_lsn per transaction — records scanned after the (fuzzy)
  // snapshot carry newer undo-chain tails than the body.
  out->losers = std::move(scanned_losers);
  for (const log::CheckpointTxn& t : last_checkpoint_active) {
    if (ended.contains(t.id)) continue;
    Lsn& slot = out->losers[t.id];
    if (t.last_lsn > slot) slot = t.last_lsn;
  }
  out->redo_start = redo_start;
  return Status::Ok();
}

Status StorageManager::UndoLosers(const std::map<TxnId, Lsn>& losers,
                                  bool structure_only) {
  // Roll back losers (newest first), logging CLRs so a crash during
  // recovery is itself recoverable. Promotion undoes structure-only: a
  // replica's commit-gated replay never applied a loser's heap records,
  // so only its immediately-applied B-tree records touch pages here —
  // but heap CLRs are still LOGGED (log_only) so a later restart of the
  // promoted log, which redoes the loser's heap records, compensates
  // them instead of colliding with post-promotion slot reuse.
  for (auto it = losers.rbegin(); it != losers.rend(); ++it) {
    TxnId txn_id = it->first;
    Lsn cursor = it->second;
    while (!cursor.IsNull()) {
      SHOREMT_ASSIGN_OR_RETURN(log::LogRecord rec, log_->ReadRecord(cursor));
      if (rec.type == log::LogRecordType::kClr) {
        cursor = rec.undo_next;
        continue;
      }
      bool is_btree = rec.type == log::LogRecordType::kBtreeInsert ||
                      rec.type == log::LogRecordType::kBtreeDelete;
      SHOREMT_RETURN_NOT_OK(UndoRecord(
          nullptr, txn_id, rec, /*log_only=*/structure_only && !is_btree));
      cursor = rec.prev_lsn;
    }
    log::LogRecord done;
    done.type = log::LogRecordType::kAbort;
    done.txn = txn_id;
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(done));
    SHOREMT_RETURN_NOT_OK(log_->FlushTo(a.end));
  }
  return Status::Ok();
}

Status StorageManager::Recover() {
  AnalysisState analysis;
  SHOREMT_RETURN_NOT_OK(AnalyzeLog(
      &analysis,
      // A restore rebuilds an EMPTY volume: checkpoint redo low-water
      // marks describe page state the fresh volume does not have, so redo
      // must replay from the very beginning of the (reconstructed) log.
      /*honor_checkpoint_redo=*/options_.open_mode != OpenMode::kRestore));
  Lsn redo_start = analysis.redo_start;

  // --- Redo: replay history from the checkpoint's low-water mark only —
  // the whole point of the cleaner/checkpoint loop. redo_scan_bytes is
  // the measured window; compare it against LogStats::bytes (everything
  // ever written) to see the bound.
  log_->NoteRedoScanBytes(log_storage_->size() -
                          std::min(log_storage_->size(),
                                   redo_start.value - 1));
  // Apply each record in log order, straight from the reader's reused
  // record.
  SHOREMT_RETURN_NOT_OK(log_->Scan(
      [&](const log::LogRecord& rec, Lsn end) {
        return ApplyRedo(rec, end, /*force=*/false);
      },
      redo_start));

  SHOREMT_RETURN_NOT_OK(UndoLosers(analysis.losers,
                                   /*structure_only=*/false));
  SHOREMT_RETURN_NOT_OK(log_->FlushAll());
  return Status::Ok();
}

Status StorageManager::PromoteRecover() {
  // Promotion runs over a drained replica: every committed record the
  // primary shipped is already applied (page state), and the receive log
  // has been truncated to a record boundary. The normal recovery tail
  // minus redo: analysis finds the in-flight transactions, whose
  // commit-gated heap records were never applied — undo their B-tree
  // records (applied immediately during streaming) and formally abort
  // them, so a later NORMAL restart over this log sees them ended and the
  // asymmetry (skipped heap redo vs no heap undo) can never bite.
  AnalysisState analysis;
  SHOREMT_RETURN_NOT_OK(AnalyzeLog(&analysis,
                                   /*honor_checkpoint_redo=*/true));
  SHOREMT_RETURN_NOT_OK(UndoLosers(analysis.losers,
                                   /*structure_only=*/true));
  SHOREMT_RETURN_NOT_OK(log_->FlushAll());
  return Status::Ok();
}

}  // namespace shoremt::sm
