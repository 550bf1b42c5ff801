#include "sm/session.h"

#include <algorithm>

#include "common/clock.h"
#include "page/slotted_page.h"

namespace shoremt::sm {

// ---------------------------------------------------------------- Session --

std::unique_ptr<Session> StorageManager::OpenSession() {
  uint64_t seq = session_seq_.fetch_add(1, std::memory_order_relaxed);
  // Distinct, well-mixed seed stream per session.
  return std::unique_ptr<Session>(
      new Session(this, 0x5e5510aaULL ^ (seq * 0x9e3779b97f4a7c15ULL)));
}

Session::Session(StorageManager* sm, uint64_t seed) : sm_(sm), rng_(seed) {
  // Live metrics block: a free slot in the manager's registry (nullptr
  // when exhausted — the session runs unmetered, never fails to open).
  wc_ = sm_->metrics()->RegisterWorker();
  // Publish the block thread-locally so deep subsystems (the B+Tree
  // latch-free probe path) can bump worker counters without a shared RMW
  // and without widening every call signature.
  obs::TlsWorkerCounters() = wc_;
}

Session::~Session() {
  // After SimulateCrash nothing may reach the log: rolling the open
  // transaction back would append its CLRs and abort record, turning a
  // loser into an aborted transaction.
  if (!sm_->crashed_.load(std::memory_order_acquire)) {
    if (txn_ != nullptr) (void)Abort();
    (void)WaitAll();  // Outstanding async commits acknowledge before close.
  }
  if (obs::TlsWorkerCounters() == wc_) obs::TlsWorkerCounters() = nullptr;
  if (wc_ != nullptr) {
    // Folds this worker's live counters into the registry's retired
    // accumulator — registry totals (and the profiling feed over them)
    // keep every contribution across session churn.
    sm_->metrics()->UnregisterWorker(wc_);
    wc_ = nullptr;
  }
}

Status Session::RequireTxn() const {
  if (txn_ == nullptr) {
    return Status::InvalidArgument("session has no open transaction");
  }
  return Status::Ok();
}

Status Session::Begin() {
  if (txn_ != nullptr) {
    return Status::InvalidArgument("session already has an open transaction");
  }
  txn_ = sm_->txns_->Begin();
  // Re-publish the counter block on the CALLING thread: sessions are
  // routinely constructed on one thread (the opener) and driven from a
  // worker, and the deep probe paths read this thread-local. Begin is
  // the choke point every transaction passes through on its own thread.
  obs::TlsWorkerCounters() = wc_;
  Bump(obs::Metric::kTxnBegins);
  txn_begin_ns_ = NowNanos();
  return Status::Ok();
}

Result<txn::CommitToken> Session::CommitAsync() {
  SHOREMT_RETURN_NOT_OK(RequireTxn());
  Result<txn::CommitToken> token = sm_->txns_->CommitAsync(txn_);
  if (!token.ok()) {
    // Failed commit (log append error): the transaction is still active
    // and holds every lock — roll it back rather than strand them.
    (void)Abort();
    return token;
  }
  // The transaction is committed (and destroyed): from here on only the
  // durability acknowledgment is outstanding.
  txn_ = nullptr;
  Bump(obs::Metric::kTxnCommits);
  BumpTxnCounters(token->counters);
  if (wc_ != nullptr) wc_->RecordLatency(NowNanos() - txn_begin_ns_);
  if (!token->durable && token->lsn > pending_ack_lsn_) {
    pending_ack_lsn_ = token->lsn;
  }
  return token;
}

Status Session::Commit() {
  SHOREMT_ASSIGN_OR_RETURN(txn::CommitToken token, CommitAsync());
  // Blocking ack: ride the group-commit pipeline until the daemon's flush
  // passes the commit LSN. If the wait itself fails (log device error),
  // the transaction is already committed-but-unacknowledged — there is
  // nothing to abort; the error reports that durability is unknown.
  return Wait(&token);
}

Status Session::Wait(txn::CommitToken* token) {
  if (token == nullptr) return Status::InvalidArgument("null commit token");
  bool avoided = token->durable || token->lsn.IsNull() ||
                 sm_->log()->IsDurable(token->lsn);
  Bump(avoided ? obs::Metric::kCommitWaitsAvoided : obs::Metric::kCommitWaits);
  Status st = sm_->txns_->Wait(token);
  // Durability is a log prefix: acknowledging the highest pending LSN
  // acknowledges everything this session had outstanding.
  if (st.ok() && token->lsn >= pending_ack_lsn_) pending_ack_lsn_ = Lsn{};
  return st;
}

bool Session::PollAcks() {
  if (pending_ack_lsn_.IsNull()) return true;
  if (sm_->log()->IsDurable(pending_ack_lsn_)) {
    // Durability is a log prefix: the highest pending LSN being durable
    // acknowledges everything this session had outstanding.
    pending_ack_lsn_ = Lsn{};
    Bump(obs::Metric::kCommitWaitsAvoided);
    return true;
  }
  // A poisoned pipeline can never acknowledge: stop the poll loop (the
  // watermark stays set) and let WaitAll report the sticky error — it
  // returns immediately in this state.
  return !sm_->log()->pipeline_error().ok();
}

void Session::OnDurable(Lsn lsn, std::function<void(Status)> fn) {
  if (!fn) return;
  sm_->log()->OnDurable(lsn, std::move(fn));
}

Status Session::WaitAll() {
  if (pending_ack_lsn_.IsNull()) return Status::Ok();
  Lsn target = pending_ack_lsn_;
  Bump(sm_->log()->IsDurable(target) ? obs::Metric::kCommitWaitsAvoided
                                     : obs::Metric::kCommitWaits);
  SHOREMT_RETURN_NOT_OK(sm_->log()->WaitDurable(target));
  pending_ack_lsn_ = Lsn{};
  return Status::Ok();
}

Status Session::Abort() {
  SHOREMT_RETURN_NOT_OK(RequireTxn());
  txn::TxnManager::TxnCounters counters;
  Status st = sm_->txns_->Abort(txn_, &counters);
  if (!st.ok()) return st;  // Still active; the caller may retry Abort.
  txn_ = nullptr;
  Bump(obs::Metric::kTxnAborts);
  BumpTxnCounters(counters);
  return st;
}

Result<TableInfo> Session::CreateTable(const std::string& name) {
  SHOREMT_RETURN_NOT_OK(RequireTxn());
  return sm_->CreateTable(txn_, name);
}

Result<TableInfo> Session::OpenTable(const std::string& name) {
  if (txn_ != nullptr) return sm_->OpenTable(txn_, name);
  // No open transaction: run the lookup in a short internal one so the
  // store-lock handshake with in-flight DDL still applies.
  txn::Transaction* peek = sm_->txns_->Begin();
  Result<TableInfo> info = sm_->OpenTable(peek, name);
  Status end = sm_->txns_->Commit(peek);
  if (!info.ok()) return info;
  if (!end.ok()) return end;
  return info;
}

Result<RecordId> Session::Insert(const TableInfo& table, uint64_t key,
                                 std::span<const uint8_t> payload) {
  SHOREMT_RETURN_NOT_OK(RequireTxn());
  Result<RecordId> rid = sm_->Insert(txn_, table, key, payload);
  if (rid.ok()) Bump(obs::Metric::kInserts);
  return rid;
}

Result<std::span<const uint8_t>> Session::Read(const TableInfo& table,
                                               uint64_t key) {
  SHOREMT_RETURN_NOT_OK(RequireTxn());
  SHOREMT_RETURN_NOT_OK(sm_->ReadInto(txn_, table, key, &read_buf_));
  Bump(obs::Metric::kReads);
  return std::span<const uint8_t>(read_buf_);
}

Status Session::Update(const TableInfo& table, uint64_t key,
                       std::span<const uint8_t> payload) {
  SHOREMT_RETURN_NOT_OK(RequireTxn());
  Status st = sm_->Update(txn_, table, key, payload);
  if (st.ok()) Bump(obs::Metric::kUpdates);
  return st;
}

Status Session::Delete(const TableInfo& table, uint64_t key) {
  SHOREMT_RETURN_NOT_OK(RequireTxn());
  Status st = sm_->Delete(txn_, table, key);
  if (st.ok()) Bump(obs::Metric::kDeletes);
  return st;
}

Cursor Session::OpenCursor(const TableInfo& table) {
  return Cursor(this, table, sm_->index_of(table));
}

Status Session::ApplyOps(const TableInfo& table, std::span<const Op> ops,
                         bool own_txn) {
  for (const Op& op : ops) {
    Status st;
    switch (op.type) {
      case OpType::kInsert:
        st = Insert(table, op.key, op.payload).status();
        break;
      case OpType::kUpdate:
        st = Update(table, op.key, op.payload);
        break;
      case OpType::kDelete:
        st = Delete(table, op.key);
        break;
    }
    if (!st.ok()) {
      // Atomic batch: in own-transaction mode nothing survives. Inside a
      // caller transaction the caller decides (and must Abort).
      if (own_txn) (void)Abort();
      return st;
    }
  }
  return Status::Ok();
}

Status Session::Apply(const TableInfo& table, std::span<const Op> ops) {
  bool own_txn = (txn_ == nullptr);
  if (own_txn) SHOREMT_RETURN_NOT_OK(Begin());
  SHOREMT_RETURN_NOT_OK(ApplyOps(table, ops, own_txn));
  // One commit covers the whole batch's appends, and its flush rides the
  // group-commit pipeline — shared with every concurrently committing
  // session (the group-commit seam this entry point exists for).
  if (own_txn) return Commit();
  return Status::Ok();
}

Result<txn::CommitToken> Session::ApplyAsync(const TableInfo& table,
                                             std::span<const Op> ops) {
  if (txn_ != nullptr) {
    return Status::InvalidArgument(
        "ApplyAsync runs its own transaction; commit or abort the open one");
  }
  SHOREMT_RETURN_NOT_OK(Begin());
  SHOREMT_RETURN_NOT_OK(ApplyOps(table, ops, /*own_txn=*/true));
  return CommitAsync();
}

// ----------------------------------------------------------------- Cursor --

Cursor::Cursor(Session* session, const TableInfo& table, btree::BTree* tree)
    : session_(session), table_(table), it_(tree) {}

Status Cursor::Seek(uint64_t key) {
  valid_ = false;
  if (session_ == nullptr) return Status::InvalidArgument("detached cursor");
  SHOREMT_RETURN_NOT_OK(session_->RequireTxn());
  if (session_->sm_->index_of(table_) == nullptr) {
    return Status::NotFound("unknown table");
  }
  SHOREMT_RETURN_NOT_OK(it_.Seek(key));
  return SettleOnRow();
}

Status Cursor::Next() {
  if (!valid_) return Status::InvalidArgument("Next on invalid cursor");
  valid_ = false;
  SHOREMT_RETURN_NOT_OK(session_->RequireTxn());
  SHOREMT_RETURN_NOT_OK(it_.Next());
  return SettleOnRow();
}

void Cursor::MaybeReadahead() {
  size_t window = session_->sm_->options().scan_readahead;
  if (window == 0 || !it_.Valid()) return;
  // Once per buffered-leaf generation: the iterator's snapshot names the
  // heap pages this scan is about to fix, and the next-leaf pointer names
  // the index page the next Refill will fix. Prefetch both, deduplicated,
  // up to the window.
  if (it_.refills() == last_refill_gen_) return;
  last_refill_gen_ = it_.refills();
  ra_buf_.clear();
  for (const btree::BTreeEntry& e : it_.remaining()) {
    if (ra_buf_.size() >= window) break;
    PageNum heap_page = btree::UnpackRecordId(e.value).page;
    if (std::find(ra_buf_.begin(), ra_buf_.end(), heap_page) ==
        ra_buf_.end()) {
      ra_buf_.push_back(heap_page);
    }
  }
  if (ra_buf_.size() < window && it_.next_leaf() != kInvalidPageNum) {
    ra_buf_.push_back(it_.next_leaf());
  }
  session_->sm_->pool()->PrefetchPages(ra_buf_);
}

Status Cursor::SettleOnRow() {
  StorageManager* sm = session_->sm_;
  btree::BTree* index = sm->index_of(table_);
  if (index == nullptr) return Status::NotFound("unknown table");
  while (it_.Valid()) {
    MaybeReadahead();  // Cheap generation check; fires once per refill.
    RecordId rid = it_.record();
    SHOREMT_RETURN_NOT_OK(session_->txn_->locks.LockRecord(
        table_.heap_store, rid, lock::LockMode::kS));
    // The buffered (key, rid) pair may be stale by the time the lock is
    // granted: the row can have been deleted — and its heap slot reused
    // by a different key — between the index probe and here. Re-probe
    // the index under the lock; deletion of this rid is impossible once
    // the S lock is held, so a matching probe pins the pair for the
    // read below.
    auto current = index->Find(nullptr, it_.key());
    if (!current.ok() || *current != rid) {
      SHOREMT_RETURN_NOT_OK(it_.Next());
      continue;
    }
    SHOREMT_ASSIGN_OR_RETURN(
        buffer::PageHandle h,
        sm->pool()->FixPage(rid.page, sync::LatchMode::kShared));
    page::SlottedPage sp(h.data());
    auto rec = sp.Read(rid.slot);
    if (!rec.ok()) {
      // Row deleted between the index probe and the heap read: skip it,
      // as the callback Scan always did.
      SHOREMT_RETURN_NOT_OK(it_.Next());
      continue;
    }
    value_buf_.assign(rec->begin(), rec->end());
    key_ = it_.key();
    valid_ = true;
    session_->Bump(obs::Metric::kScanRows);
    return Status::Ok();
  }
  return Status::Ok();  // Exhausted: cursor stays invalid.
}

}  // namespace shoremt::sm
