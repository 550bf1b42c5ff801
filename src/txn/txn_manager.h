#ifndef SHOREMT_TXN_TXN_MANAGER_H_
#define SHOREMT_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "common/types.h"
#include "lock/lock_manager.h"
#include "log/log_manager.h"
#include "txn/transaction.h"

namespace shoremt::txn {

/// Transaction manager knobs; defaults = Shore-MT "final". Lock
/// escalation configuration moved into lock::LockOptions — the
/// transaction's TxnLockList handle carries the per-store counters now.
struct TxnOptions {
  /// Keep the oldest active transaction id in an atomically-readable
  /// variable, updated by committing transactions, instead of scanning the
  /// active list under its mutex on every query (§7.3).
  bool oldest_txn_cache = true;
};

struct TxnStats {
  std::atomic<uint64_t> begun{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<uint64_t> oldest_scans{0};
};

/// A transaction's final private counters, reported to the caller at
/// Commit/Abort because the Transaction object is destroyed there —
/// includes the commit/abort records and any rollback CLRs.
struct TxnCounters {
  uint64_t log_bytes = 0;
  uint64_t lock_waits = 0;
  /// Lock requests served from the transaction's private cache (never
  /// touched the shared table).
  uint64_t lock_cache_hits = 0;
};

/// Handle to an asynchronously committed transaction, returned by
/// TxnManager::CommitAsync once the commit record sits in the log buffer
/// and every lock has been released (early lock release). The transaction
/// is *committed* but not yet *durable*: acknowledgment arrives when the
/// flush pipeline's durable LSN passes `lsn` (TxnManager::Wait /
/// Session::Wait / Session::WaitAll).
///
/// Early lock release is safe because any transaction that observes this
/// one's writes must lock them after the locks dropped, so its own commit
/// record necessarily lands at a higher LSN — the log device makes
/// prefixes durable, so a dependent can never be acknowledged before its
/// predecessor.
struct CommitToken {
  /// Flush target: the commit record's end LSN. Null for a read-only
  /// transaction (nothing to wait on).
  Lsn lsn;
  TxnId txn = kInvalidTxnId;
  /// Final counters, available immediately (the Transaction is gone).
  TxnCounters counters;
  /// Completion state: set once durability has been confirmed (true from
  /// the start for read-only transactions or if the group flush already
  /// passed `lsn`).
  bool durable = false;
  /// The log the commit record went to (set by CommitAsync) — lets
  /// TryWait poll durability without a manager round-trip. Non-owning:
  /// the token must not outlive the storage manager.
  log::LogManager* log = nullptr;

  /// Non-blocking durability poll: true once the commit is durable (and
  /// marks the token so). Never parks — servers harvest acks between
  /// requests instead of parking a thread per commit. A sticky pipeline
  /// error also returns true so the poll loop terminates, but the token
  /// stays non-durable: check `durable` after a true return, and resolve
  /// the error with TxnManager::Wait / Session::Wait (immediate in that
  /// state), which report it.
  bool TryWait() {
    if (durable) return true;
    if (lsn.IsNull() || log == nullptr || log->IsDurable(lsn)) {
      durable = true;
      return true;
    }
    return !log->pipeline_error().ok();
  }
};

/// Coordinates transaction lifecycle (§2.2.5): begin/commit/abort, strict
/// two-phase locking via the lock manager, rollback through the WAL undo
/// chain, and checkpoint generation.
class TxnManager {
 public:
  /// Applies the inverse of `rec` to the database and logs a CLR; wired up
  /// by the storage manager (it owns the buffer pool).
  using UndoFn = std::function<Status(Transaction*, const log::LogRecord&)>;

  TxnManager(log::LogManager* log, lock::LockManager* locks,
             TxnOptions options);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  void SetUndoApplier(UndoFn undo) { undo_ = std::move(undo); }

  /// Starts a transaction; the pointer stays valid until Commit/Abort.
  Transaction* Begin();

  /// Compatibility alias: TxnCounters moved to namespace scope so
  /// CommitToken can carry one; old spelling keeps working.
  using TxnCounters = txn::TxnCounters;

  /// Commits synchronously: a thin CommitAsync + Wait composition. The
  /// Transaction object is destroyed; on success its final counters are
  /// written to `counters_out` (if non-null). Note the failure split: an
  /// error *before* the token is issued (commit-record append failed)
  /// leaves the transaction active and the caller must Abort; an error
  /// from the durability wait arrives after the transaction is gone and
  /// only means the acknowledgment could not be given.
  Status Commit(Transaction* txn, TxnCounters* counters_out = nullptr);

  /// Commits asynchronously: appends the commit record, releases every
  /// lock immediately (early lock release — see CommitToken), retires the
  /// transaction, and submits the commit LSN to the log's group-commit
  /// pipeline without waiting for the flush. The Transaction object is
  /// destroyed on success; on failure it stays active (caller aborts).
  Result<CommitToken> CommitAsync(Transaction* txn);

  /// Blocks until `token`'s commit is durable (or the flush pipeline
  /// carries a sticky error); marks the token durable on success.
  Status Wait(CommitToken* token);

  /// Aborts: undoes the txn's updates via the WAL chain (logging CLRs),
  /// then releases locks and destroys the object, reporting final
  /// counters like Commit.
  ///
  /// Locking moved to the transaction's handle: use
  /// `txn->locks.LockRecord(...)` / `txn->locks.LockStore(...)` (the
  /// TxnLockList carries the held-mode cache and escalation counters).
  Status Abort(Transaction* txn, TxnCounters* counters_out = nullptr);

  /// Oldest active transaction id (kInvalidTxnId when none). With the
  /// cache enabled this is one atomic load; otherwise it scans the active
  /// list under the mutex — the §7.3 bottleneck.
  TxnId OldestActiveTxn() const;

  /// Writes a checkpoint record. `redo_lsn_source` supplies the dirty-page
  /// low-water mark: the blocking variant scans the buffer pool while
  /// holding the transaction list still; the decoupled variant reads the
  /// dirty-page table's incremental minimum (§7.7). The body's redo_lsn is
  /// that value floored by the minimum begin LSN over active transactions,
  /// which makes it simultaneously the redo scan start AND a safe
  /// log-recycling horizon (no live undo chain below it). `augment` runs
  /// after the transaction-table snapshot to add the catalog and space map
  /// to the body (the storage manager owns those).
  /// `redo_lsn_out`, if non-null, receives the body's redo_lsn — the LSN
  /// the caller may Recycle the log up to once this returns (the
  /// checkpoint record is already durable then). Returns the checkpoint's
  /// LSN.
  Result<Lsn> TakeCheckpoint(
      const std::function<Lsn()>& redo_lsn_source,
      const std::function<void(log::CheckpointBody*)>& augment,
      Lsn* redo_lsn_out = nullptr);

  /// LSN of the most recent completed checkpoint (null if none).
  Lsn last_checkpoint() const {
    return Lsn{last_checkpoint_.load(std::memory_order_acquire)};
  }

  /// Number of active transactions.
  size_t ActiveCount() const;

  /// Records that `txn` wrote a WAL record (updates the undo chain tail).
  void NoteLogged(Transaction* txn, Lsn lsn, Lsn end) {
    if (txn->first_lsn.IsNull()) txn->first_lsn = lsn;
    txn->last_lsn = lsn;
    txn->last_lsn_published.store(lsn.value, std::memory_order_release);
    txn->last_end = end;
    txn->log_bytes += end.value - lsn.value;
  }

  const TxnStats& stats() const { return stats_; }
  log::LogManager* log() { return log_; }
  lock::LockManager* locks() { return locks_; }

 private:
  /// Removes txn from the active list and refreshes the oldest cache.
  void Retire(Transaction* txn);
  void ReleaseAllLocks(Transaction* txn);

  log::LogManager* log_;
  lock::LockManager* locks_;
  TxnOptions options_;
  UndoFn undo_;

  mutable std::mutex active_mutex_;
  std::map<TxnId, std::unique_ptr<Transaction>> active_;  // Ordered by id.
  std::atomic<TxnId> next_id_{1};
  std::atomic<TxnId> oldest_cache_{kInvalidTxnId};
  std::atomic<uint64_t> last_checkpoint_{0};
  mutable TxnStats stats_;
};

}  // namespace shoremt::txn

#endif  // SHOREMT_TXN_TXN_MANAGER_H_
