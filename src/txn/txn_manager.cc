#include "txn/txn_manager.h"

#include <vector>

namespace shoremt::txn {

TxnManager::TxnManager(log::LogManager* log, lock::LockManager* locks,
                       TxnOptions options)
    : log_(log), locks_(locks), options_(options) {}

Transaction* TxnManager::Begin() {
  auto txn = std::make_unique<Transaction>();
  txn->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Read the append horizon BEFORE entering the active table: once a
  // checkpoint can see this transaction, begin_lsn already bounds every
  // record it will write (the recycle-floor invariant).
  txn->begin_lsn = log_->next_lsn();
  txn->locks = locks_->Attach(txn->id);
  Transaction* raw = txn.get();
  {
    std::lock_guard<std::mutex> guard(active_mutex_);
    active_.emplace(raw->id, std::move(txn));
    if (options_.oldest_txn_cache) {
      oldest_cache_.store(active_.begin()->first, std::memory_order_release);
    }
  }
  stats_.begun.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

void TxnManager::Retire(Transaction* txn) {
  std::lock_guard<std::mutex> guard(active_mutex_);
  active_.erase(txn->id);  // Destroys the Transaction.
  if (options_.oldest_txn_cache) {
    oldest_cache_.store(
        active_.empty() ? kInvalidTxnId : active_.begin()->first,
        std::memory_order_release);
  }
}

void TxnManager::ReleaseAllLocks(Transaction* txn) {
  // Strict 2PL: everything goes at once — one latch acquisition per shard
  // the transaction touched, through its private handle.
  txn->locks.ReleaseAll();
}

Result<CommitToken> TxnManager::CommitAsync(Transaction* txn) {
  if (txn->state != TxnState::kActive) {
    return Status::InvalidArgument("transaction not active");
  }
  CommitToken token;
  token.txn = txn->id;
  if (!txn->last_lsn.IsNull()) {
    log::LogRecord rec;
    rec.type = log::LogRecordType::kCommit;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
    txn->log_bytes += a.end.value - a.lsn.value;
    token.lsn = a.end;
  } else if (txn->locks.held() > 0) {
    // Read-only but it observed locked state: with early lock release a
    // predecessor's writes can be committed-but-unflushed when this
    // transaction reads them, so its acknowledgment must not outrun the
    // predecessor's. Every such predecessor's commit record is already in
    // the buffer (it preceded our lock grant), hence below the current
    // append horizon — waiting on that horizon restores the dependency
    // order. A lock-free transaction observed nothing and stays instant.
    token.lsn = log_->next_lsn();
  }
  token.counters = TxnCounters{txn->log_bytes, txn->locks.waits(),
                               txn->locks.cache_hits()};
  token.log = log_;
  // The commit point is the in-memory commit-record append above. Early
  // lock release: successors may touch this transaction's rows right now,
  // before the flush — their commit records land at higher LSNs, so the
  // durable prefix can never acknowledge a dependent first.
  txn->state = TxnState::kCommitted;
  ReleaseAllLocks(txn);
  Retire(txn);
  stats_.committed.fetch_add(1, std::memory_order_relaxed);
  if (token.lsn.IsNull()) {
    token.durable = true;  // Read-only: nothing to make durable.
  } else {
    log_->SubmitFlush(token.lsn);
    token.durable = log_->IsDurable(token.lsn);
  }
  return token;
}

Status TxnManager::Wait(CommitToken* token) {
  if (token->lsn.IsNull()) {
    token->durable = true;
    return Status::Ok();
  }
  // Even an already-durable token goes through the pipeline so the
  // avoided-wait shows up in LogStats (the group-commit win being
  // measured).
  SHOREMT_RETURN_NOT_OK(log_->WaitDurable(token->lsn));
  token->durable = true;
  return Status::Ok();
}

Status TxnManager::Commit(Transaction* txn, TxnCounters* counters_out) {
  SHOREMT_ASSIGN_OR_RETURN(CommitToken token, CommitAsync(txn));
  if (counters_out != nullptr) *counters_out = token.counters;
  // Durability point for the blocking API: ride the group-commit pipeline
  // until the daemon's flush passes the commit LSN.
  return Wait(&token);
}

Status TxnManager::Abort(Transaction* txn, TxnCounters* counters_out) {
  if (txn->state != TxnState::kActive) {
    return Status::InvalidArgument("transaction not active");
  }
  // Undo reads records back from the log device; make the tail readable.
  if (!txn->last_lsn.IsNull()) {
    SHOREMT_RETURN_NOT_OK(log_->FlushTo(txn->last_end));
    Lsn cursor = txn->last_lsn;
    while (!cursor.IsNull()) {
      SHOREMT_ASSIGN_OR_RETURN(log::LogRecord rec, log_->ReadRecord(cursor));
      if (rec.type == log::LogRecordType::kClr) {
        cursor = rec.undo_next;  // Skip already-undone work.
        continue;
      }
      if (undo_) SHOREMT_RETURN_NOT_OK(undo_(txn, rec));
      cursor = rec.prev_lsn;
    }
    log::LogRecord done;
    done.type = log::LogRecordType::kAbort;
    done.txn = txn->id;
    done.prev_lsn = txn->last_lsn;
    SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(done));
    txn->log_bytes += a.end.value - a.lsn.value;
    SHOREMT_RETURN_NOT_OK(log_->FlushTo(a.end));
  }
  // Counters are read only now: the undo pass above appended CLRs (via
  // NoteLogged), which must be part of the reported WAL traffic.
  if (counters_out != nullptr) {
    *counters_out = TxnCounters{txn->log_bytes, txn->locks.waits(),
                                txn->locks.cache_hits()};
  }
  txn->state = TxnState::kAborted;
  ReleaseAllLocks(txn);
  Retire(txn);
  stats_.aborted.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

TxnId TxnManager::OldestActiveTxn() const {
  if (options_.oldest_txn_cache) {
    return oldest_cache_.load(std::memory_order_acquire);
  }
  // Original Shore: walk the list under the mutex (§7.3's hotspot).
  stats_.oldest_scans.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> guard(active_mutex_);
  return active_.empty() ? kInvalidTxnId : active_.begin()->first;
}

Result<Lsn> TxnManager::TakeCheckpoint(
    const std::function<Lsn()>& redo_lsn_source,
    const std::function<void(log::CheckpointBody*)>& augment,
    Lsn* redo_lsn_out) {
  log::CheckpointBody body;
  {
    // Freeze begins/ends while snapshotting the transaction table. The
    // expensive part is redo_lsn_source: the blocking variant scans the
    // whole buffer pool in here (original Shore); the decoupled variant
    // just reads the dirty-page table's incremental minimum.
    std::lock_guard<std::mutex> guard(active_mutex_);
    Lsn floor;
    for (const auto& [id, txn] : active_) {
      // last_lsn_published, not last_lsn: the owner thread may be
      // appending right now — the mirror is the field published for
      // exactly this fuzzy read (recovery tolerates its staleness).
      body.active_txns.push_back(
          {id, Lsn{txn->last_lsn_published.load(std::memory_order_acquire)},
           txn->begin_lsn});
      if (floor.IsNull() || txn->begin_lsn < floor) floor = txn->begin_lsn;
    }
    Lsn redo = redo_lsn_source();
    // Floor by the oldest active transaction's begin LSN: it covers (a)
    // undo chains, which must stay readable below any recycled horizon,
    // and (b) the fuzzy MarkDirty window — a record appended but not yet
    // registered in the dirty-page table always belongs to an active
    // transaction, whose begin_lsn bounds it.
    if (!floor.IsNull() && floor < redo) redo = floor;
    body.redo_lsn = redo;
  }
  // The catalog and space map are fuzzy (their own latches, outside the
  // transaction freeze): analysis re-applies later metadata records
  // through idempotent hooks, so over-inclusion is harmless.
  augment(&body);
  log::LogRecord rec;
  rec.type = log::LogRecordType::kCheckpoint;
  SerializeCheckpoint(body, &rec.after);
  SHOREMT_ASSIGN_OR_RETURN(log::Appended a, log_->Append(rec));
  SHOREMT_RETURN_NOT_OK(log_->FlushTo(a.end));
  last_checkpoint_.store(a.lsn.value, std::memory_order_release);
  log_->NoteCheckpoint();
  if (redo_lsn_out != nullptr) *redo_lsn_out = body.redo_lsn;
  return a.lsn;
}

size_t TxnManager::ActiveCount() const {
  std::lock_guard<std::mutex> guard(active_mutex_);
  return active_.size();
}

}  // namespace shoremt::txn
