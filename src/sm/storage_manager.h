#ifndef SHOREMT_SM_STORAGE_MANAGER_H_
#define SHOREMT_SM_STORAGE_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btree/btree.h"
#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "io/volume.h"
#include "lock/lock_manager.h"
#include "log/log_manager.h"
#include "obs/metrics_registry.h"
#include "sm/options.h"
#include "space/space_manager.h"
#include "sync/periodic_daemon.h"
#include "txn/txn_manager.h"

namespace shoremt::sm {

class Session;

/// A user table: a heap store for rows plus a unique B+Tree index mapping
/// 64-bit keys to row RecordIds.
struct TableInfo {
  std::string name;
  StoreId heap_store = kInvalidStoreId;
  StoreId index_store = kInvalidStoreId;
  PageNum index_root = kInvalidPageNum;
};

/// The storage manager — the "value-added server" of the original Shore.
/// Owns every subsystem: buffer pool, log, locks, transactions, free
/// space, B+Tree indexes.
///
/// Worker threads talk to the engine through an sm::Session (sm/session.h),
/// which owns all per-thread state — RNG, read buffer, statistics:
///
///   auto sm = StorageManager::Open(StorageOptions::ForStage(Stage::kFinal),
///                                  &volume, &log_storage);
///   auto session = (*sm)->OpenSession();
///   session->Begin();
///   auto table = session->CreateTable("accounts");
///   session->Insert(*table, /*key=*/1, payload);
///   session->Commit();
class StorageManager {
 public:
  /// Opens a storage manager over `volume` + `log_storage` (both owned by
  /// the caller and must outlive the manager — they are the durable state
  /// that survives simulated crashes). If the log is non-empty, crash
  /// recovery (analysis/redo/undo) runs before Open returns.
  static Result<std::unique_ptr<StorageManager>> Open(
      StorageOptions options, io::Volume* volume,
      log::LogStorage* log_storage);

  ~StorageManager();

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  // --- sessions -----------------------------------------------------------

  /// Opens a session — the per-worker-thread handle all new code uses for
  /// transactions and DML. Each worker thread opens exactly one; the
  /// session must not outlive the manager.
  std::unique_ptr<Session> OpenSession();

  // --- live metrics --------------------------------------------------------

  /// The live metrics hub: sessions register WorkerCounters blocks here,
  /// the buffer/log/lock subsystems feed it through sources wired at
  /// construction, and an obs::ProfilingThread over it turns any run into
  /// a per-second CSV/JSON feed. Snapshot() is live: it reads every
  /// worker's counters where they are bumped.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  // --- transaction-pointer entry points -------------------------------------

  // Kept public only for perfbench's recovery cycle, which pins an
  // in-flight transaction across SimulateCrash with these two calls.
  // Everything else goes through Session.
  txn::Transaction* Begin() { return txns_->Begin(); }
  /// Inserts a row; locks the new row exclusively; indexes `key`.
  Result<RecordId> Insert(txn::Transaction* txn, const TableInfo& table,
                          uint64_t key, std::span<const uint8_t> payload);

  // --- maintenance ---------------------------------------------------------

  /// Takes a fuzzy checkpoint (blocking or decoupled per options): the
  /// body snapshots the dirty-page low-water mark, the active-transaction
  /// table (with begin LSNs) and the catalog/space maps, then the log is
  /// recycled up to the body's redo LSN — min(dirty low-water, oldest
  /// active transaction's begin LSN) — freeing whole segments. Recovery's
  /// redo pass starts at that LSN. Safe to call concurrently (the
  /// background daemon and manual callers may overlap).
  Result<Lsn> Checkpoint();
  /// Wakes the background checkpoint daemon immediately (no-op without
  /// one); called on log-segment pressure by the flush pipeline's hook.
  void WakeCheckpoint();
  /// Flushes everything (clean shutdown).
  Status Shutdown();
  /// Marks the manager as crashed: the destructor skips the shutdown
  /// flush and the log pipeline abandons its final drain, so only
  /// WAL-durable state survives into the next Open — the hook recovery
  /// tests use to simulate power loss. Commits submitted through
  /// CommitAsync but not yet acknowledged are deliberately lost. The
  /// background checkpoint daemon is stopped first (a checkpoint racing
  /// the teardown would be writing into an abandoned pipeline).
  void SimulateCrash() {
    ckpt_daemon_.Stop();
    crashed_.store(true, std::memory_order_release);
    log_->Abandon();
  }

  // --- replicated replay (src/repl) ----------------------------------------

  /// Applies one redo-able record to the local page state, through the
  /// page applier media repair and heap undo share. `force` = false
  /// is recovery semantics (skip when the page LSN already covers `end`);
  /// `force` = true is the replica's commit-gated deferred replay, which
  /// applies records out of per-page LSN order (commit order), so the
  /// idempotence guard is skipped and the page LSN only ever ratchets up
  /// to max(current, end). Corruption for an invalid image or a malformed
  /// B-tree payload. Metadata records are no-ops here — feed them to
  /// ApplyMetadata.
  Status ApplyRedo(const log::LogRecord& rec, Lsn end, bool force);
  /// Applies a metadata record (a kCheckpoint body's catalog and space
  /// map, kCreateStore, kAllocPage, kCatalog) to the catalog/space maps;
  /// idempotent. Other record types are no-ops. `ckpt_out`, when non-null, receives the
  /// deserialized checkpoint body (analysis wants its active-transaction
  /// table and redo LSN; the replica does not).
  Status ApplyMetadata(const log::LogRecord& rec,
                       log::CheckpointBody* ckpt_out = nullptr);

  // --- component access (benches, tests, calibration) ----------------------

  buffer::BufferPool* pool() { return pool_.get(); }
  log::LogManager* log() { return log_.get(); }
  lock::LockManager* locks() { return locks_.get(); }
  space::SpaceManager* space() { return space_.get(); }
  btree::BTree* index_of(const TableInfo& table);
  const StorageOptions& options() const { return options_; }

 private:
  friend class Session;

  StorageManager(StorageOptions options, io::Volume* volume,
                 log::LogStorage* log_storage);

  /// Starts the checkpoint daemon (if configured) — called by Open AFTER
  /// recovery, so a background checkpoint can never interleave with the
  /// redo/undo passes.
  void StartCheckpointDaemon();

  /// Creates a table (heap + index) holding exclusive store locks until
  /// `txn` ends, so concurrent OpenTable callers cannot observe the table
  /// half-created. The catalog entry is logged and survives recovery. DDL
  /// is not undone on abort (structure records are redo-only, as in the
  /// original system): if `txn` aborts, the table remains — whole and
  /// empty — and keeps its name.
  Result<TableInfo> CreateTable(txn::Transaction* txn,
                                const std::string& name);
  /// Looks up a table by name under `txn`, taking a shared store lock: a
  /// lookup racing in-flight DDL blocks until the DDL commits or aborts.
  Result<TableInfo> OpenTable(txn::Transaction* txn, const std::string& name);

  /// Reads the row for `key` into `out` (reused across calls by sessions)
  /// under a shared row lock.
  Status ReadInto(txn::Transaction* txn, const TableInfo& table, uint64_t key,
                  std::vector<uint8_t>* out);
  /// Replaces the row payload for `key` under an exclusive row lock.
  Status Update(txn::Transaction* txn, const TableInfo& table, uint64_t key,
                std::span<const uint8_t> payload);
  /// Deletes the row for `key` (heap + index) under an exclusive lock.
  Status Delete(txn::Transaction* txn, const TableInfo& table, uint64_t key);

  /// CreateTable body after the name has been reserved in `creating_`.
  Result<TableInfo> CreateTableReserved(txn::Transaction* txn,
                                        const std::string& name);

  /// Analysis output: loser transactions (id → newest logged LSN) and the
  /// redo start point.
  struct AnalysisState {
    std::map<TxnId, Lsn> losers;
    Lsn redo_start;
  };

  /// ARIES-style restart: analysis, redo, undo. In OpenMode::kRestore the
  /// redo pass starts at LSN 1 regardless of checkpoint low-water marks
  /// (the restored volume is empty — no pre-checkpoint page state exists).
  Status Recover();
  /// Replica promotion: analysis only (the replay pool already applied
  /// every committed record), then structure-only undo of losers — their
  /// commit-gated heap records were never applied, so only their
  /// immediately-applied B-tree records need compensation — and a formal
  /// kAbort per loser, making the promoted log recoverable by a normal
  /// restart.
  Status PromoteRecover();
  /// Analysis scan: rebuilds catalog/space/active-transaction state from
  /// the live log (checkpoint bodies bootstrap what recycling removed).
  /// `honor_checkpoint_redo` = false keeps redo_start at the scan start
  /// instead of adopting checkpoint redo LSNs (restore over a fresh
  /// volume).
  Status AnalyzeLog(AnalysisState* out, bool honor_checkpoint_redo);
  /// Rolls back every loser (newest first), appending a durable kAbort
  /// per transaction. `structure_only` applies only B-tree undo to pages
  /// (promotion; heap records were never applied on a replica) but still
  /// LOGS heap CLRs so a later restart of the promoted log compensates
  /// the loser's heap records it will redo.
  Status UndoLosers(const std::map<TxnId, Lsn>& losers, bool structure_only);
  /// Undoes one record on behalf of `txn_id`, logging a CLR. `txn` may be
  /// null during restart undo. With `log_only` the CLR is logged but the
  /// inverse page change is not applied (the record was never applied
  /// here — commit-gated replica replay).
  Status UndoRecord(txn::Transaction* txn, TxnId txn_id,
                    const log::LogRecord& rec, bool log_only = false);
  /// Ratchets next_store_ above `store` (metadata replay).
  void RaiseNextStore(StoreId store);

  /// Media auto-repair (wired into the buffer pool as its page repairer):
  /// rebuilds `page`'s image by replaying the full log history — archived
  /// segments (options_.log.archive_dir) first, then the live log — into
  /// a zeroed image, stamps its checksum, and durably rewrites the healed
  /// page on the volume. Records are applied straight onto `img`, never
  /// through the pool (this runs inside the pool's miss path). Fails with
  /// Corruption when the history is incomplete or untrustworthy (prefix
  /// recycled unarchived, damaged archive segment, damaged length prefix
  /// or record, or no record ever changed the page).
  Status RepairPage(PageNum page, uint8_t* img);

  /// Registers a table in the in-memory catalog (create or recovery).
  void RegisterTable(const TableInfo& info);
  /// Heap row insert: picks/allocates a page with space and places the
  /// payload (logged).
  Result<RecordId> HeapInsert(txn::Transaction* txn, StoreId heap_store,
                              std::span<const uint8_t> payload);

  StorageOptions options_;
  io::Volume* volume_;
  log::LogStorage* log_storage_;

  std::unique_ptr<log::LogManager> log_;
  std::unique_ptr<buffer::BufferPool> pool_;
  std::unique_ptr<space::SpaceManager> space_;
  std::unique_ptr<lock::LockManager> locks_;
  std::unique_ptr<txn::TxnManager> txns_;

  mutable std::mutex catalog_mutex_;
  std::unordered_map<std::string, TableInfo> catalog_;
  /// Names with an in-flight CreateTable (uniqueness holds across the
  /// gap between the check and RegisterTable).
  std::unordered_set<std::string> creating_;
  std::unordered_map<StoreId, std::unique_ptr<btree::BTree>> indexes_;
  std::atomic<StoreId> next_store_{1};
  std::atomic<uint64_t> session_seq_{1};  ///< Per-session RNG seed stream.
  obs::MetricsRegistry metrics_;
  /// Set by SimulateCrash. Atomic because a session closing on another
  /// thread reads it to skip its rollback (nothing may reach the log).
  std::atomic<bool> crashed_{false};

  /// Serializes Checkpoint() end to end (snapshot → record → recycle):
  /// overlapping checkpoints could append their records out of snapshot
  /// order, letting recovery adopt a stale active-transaction table whose
  /// commit records a fresher checkpoint already recycled.
  std::mutex ckpt_api_mutex_;

  /// Background checkpoint daemon (shared cv-daemon scaffold, like the
  /// page cleaner): interval tick + pressure wakes, with kick storms
  /// rate-limited to half the interval — a checkpoint that just ran
  /// cannot advance the low-water mark until the cleaner has moved it,
  /// and each checkpoint appends (and flushes) its own record, so
  /// unthrottled pressure would feed the very growth it reacts to.
  sync::PeriodicDaemon ckpt_daemon_;
};

}  // namespace shoremt::sm

#endif  // SHOREMT_SM_STORAGE_MANAGER_H_
