#include "repl/replica.h"

#include <sys/socket.h>

#include <utility>

#include "log/log_record.h"
#include "obs/metrics.h"
#include "repl/framing.h"

namespace shoremt::repl {

Replica::Replica(io::Volume* volume, log::LogStorage* storage, Options opts)
    : volume_(volume), storage_(storage), opts_(std::move(opts)) {}

Replica::~Replica() {
  Stop();
  // Workers borrow sm_: tear the pool down first.
  std::lock_guard<std::mutex> lk(pool_mutex_);
  pool_.reset();
}

void Replica::SetError(Status st) {
  std::lock_guard<std::mutex> lk(error_mutex_);
  if (!has_error_.load(std::memory_order_relaxed)) {
    error_ = std::move(st);
    has_error_.store(true, std::memory_order_release);
  }
}

Status Replica::error() const {
  if (!has_error_.load(std::memory_order_acquire)) return Status::Ok();
  std::lock_guard<std::mutex> lk(error_mutex_);
  return error_;
}

uint64_t Replica::replayed_lsn() const {
  std::lock_guard<std::mutex> lk(pool_mutex_);
  return pool_ != nullptr ? pool_->replayed_lsn() : 0;
}

bool Replica::WaitReplayed(uint64_t lsn, int timeout_ms) {
  ReplayPool* pool;
  {
    std::lock_guard<std::mutex> lk(pool_mutex_);
    pool = pool_.get();
  }
  return pool != nullptr && pool->WaitReplayed(lsn, timeout_ms);
}

bool Replica::WaitStreamEnd(int timeout_ms) {
  std::unique_lock<std::mutex> lk(eof_mutex_);
  return eof_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), [&] {
    return eof_.load(std::memory_order_acquire);
  });
}

Status Replica::Start(int fd) {
  fd_ = fd;
  sm::StorageOptions o = opts_.storage;
  o.open_mode = sm::OpenMode::kReplicaAttach;
  // The replica applies through the replay pool; it must never archive or
  // recycle the log it is receiving.
  o.log.archive_dir.clear();
  SHOREMT_ASSIGN_OR_RETURN(sm_,
                           sm::StorageManager::Open(o, volume_, storage_));
  {
    std::lock_guard<std::mutex> lk(pool_mutex_);
    pool_ = std::make_unique<ReplayPool>(sm_.get(), opts_.replay_workers);
  }
  // A previously received prefix (reconnect over a fresh volume) is
  // replayed before asking for more — the kHello offset promises the
  // primary we already hold everything below it.
  parse_pos_ = 0;
  SHOREMT_RETURN_NOT_OK(ProcessNewBytes());
  pool_->PublishBarrier(parse_pos_ + 1);

  uint64_t hello[1] = {storage_->size()};
  SHOREMT_RETURN_NOT_OK(
      WriteFrame(fd_, FrameType::kHello, hello, {}));
  thread_ = std::thread([this] {
    Status st = ReceiveLoop();
    if (!st.ok()) SetError(st);
    {
      std::lock_guard<std::mutex> lk(eof_mutex_);
      eof_.store(true, std::memory_order_release);
    }
    eof_cv_.notify_all();
  });
  return Status::Ok();
}

void Replica::Stop() {
  if (!stop_.exchange(true) && fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
}

Status Replica::ReceiveLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Frame f;
    Status st = ReadFrame(fd_, &f);
    if (st.IsNotFound()) return Status::Ok();  // primary closed (or died)
    if (!st.ok()) {
      return stop_.load(std::memory_order_acquire) ? Status::Ok() : st;
    }
    size_t pos = 0;
    size_t n = 0;
    bool accepted = false;
    switch (f.type) {
      case FrameType::kSegment: {
        uint64_t chunk_start = 0, seg_base = 0, seg_cap = 0;
        bool parsed = GetU64(f.payload, &pos, &chunk_start) &&
                      GetU64(f.payload, &pos, &seg_base) &&
                      GetU64(f.payload, &pos, &seg_cap);
        n = parsed ? f.payload.size() - pos : 0;
        // The geometry must close the sealed segment exactly: a torn or
        // truncated shipment (n short), a stale shipment (chunk_start
        // behind us) or a gap (chunk_start ahead) all fail here and are
        // re-requested from our true position.
        if (parsed && n > 0 && n <= seg_cap &&
            chunk_start == storage_->size() &&
            chunk_start + n == seg_base + seg_cap) {
          SHOREMT_RETURN_NOT_OK(storage_->Append(
              std::span<const uint8_t>(f.payload.data() + pos, n)));
          accepted = true;
        }
        break;
      }
      case FrameType::kTailDelta: {
        uint64_t chunk_start = 0;
        bool parsed = GetU64(f.payload, &pos, &chunk_start);
        n = parsed ? f.payload.size() - pos : 0;
        if (parsed && n > 0 && chunk_start == storage_->size()) {
          SHOREMT_RETURN_NOT_OK(storage_->Append(
              std::span<const uint8_t>(f.payload.data() + pos, n)));
          accepted = true;
        }
        break;
      }
      default:
        continue;  // nothing else flows this way; ignore
    }
    if (!accepted) {
      uint64_t resend[1] = {storage_->size()};
      SHOREMT_RETURN_NOT_OK(
          WriteFrame(fd_, FrameType::kResend, resend, {}));
      continue;
    }
    frames_applied_.fetch_add(1, std::memory_order_relaxed);
    bytes_streamed_.fetch_add(n, std::memory_order_relaxed);
    SHOREMT_RETURN_NOT_OK(ProcessNewBytes());
    pool_->PublishBarrier(parse_pos_ + 1);
    uint64_t ack[2] = {storage_->size(), pool_->replayed_lsn()};
    // Best effort: a vanished primary is discovered by the next read.
    (void)WriteFrame(fd_, FrameType::kAck, ack, {});
  }
  return Status::Ok();
}

Status Replica::ProcessNewBytes() {
  std::vector<uint8_t> buf;
  SHOREMT_RETURN_NOT_OK(storage_->ReadFrom(parse_pos_, &buf));
  log::RecordReader reader(buf, parse_pos_);
  log::LogRecord rec;
  Lsn end;
  while (true) {
    SHOREMT_ASSIGN_OR_RETURN(bool more, reader.Next(&rec, &end));
    if (!more) break;  // incomplete tail; wait for more

    using log::LogRecordType;
    switch (rec.type) {
      case LogRecordType::kCheckpoint:
      case LogRecordType::kCreateStore:
      case LogRecordType::kAllocPage:
      case LogRecordType::kCatalog:
        // Metadata is idempotent and ordered only against itself; apply
        // inline so structure records the pool applies next can resolve
        // their stores/pages.
        SHOREMT_RETURN_NOT_OK(sm_->ApplyMetadata(rec));
        break;
      case LogRecordType::kCommit: {
        // The commit gate opens: release this transaction's buffered heap
        // records to the partition queues, in their original log order.
        auto it = pending_.find(rec.txn);
        if (it != pending_.end()) {
          for (auto& pr : it->second) {
            pool_->Dispatch(std::move(pr.first), pr.second);
          }
          pending_.erase(it);
        }
        break;
      }
      case LogRecordType::kAbort:
        pending_.erase(rec.txn);  // never applied, nothing to undo
        break;
      case LogRecordType::kPageInsert:
      case LogRecordType::kPageUpdate:
      case LogRecordType::kPageDelete:
        pending_[rec.txn].emplace_back(std::move(rec), end);
        break;
      case LogRecordType::kClr: {
        // A CLR compensates its transaction's own earlier record: heap
        // CLRs gate with the transaction like the records they undo;
        // B-tree CLRs are structural and apply immediately.
        auto embedded = static_cast<LogRecordType>(rec.page_type);
        if (embedded == LogRecordType::kPageInsert ||
            embedded == LogRecordType::kPageUpdate ||
            embedded == LogRecordType::kPageDelete) {
          pending_[rec.txn].emplace_back(std::move(rec), end);
        } else {
          pool_->Dispatch(std::move(rec), end);
        }
        break;
      }
      case LogRecordType::kPageFormat:
      case LogRecordType::kBtreeInsert:
      case LogRecordType::kBtreeDelete:
      case LogRecordType::kBtreeSetContent:
        // Structure is redo-only on the primary and later transactions
        // may build on it before its creator commits: apply immediately,
        // in log order.
        pool_->Dispatch(std::move(rec), end);
        break;
      default:
        break;  // kNoop
    }
    parse_pos_ = reader.offset();
  }
  return Status::Ok();
}

Status Replica::Promote() {
  Stop();
  {
    std::lock_guard<std::mutex> lk(pool_mutex_);
    if (pool_ != nullptr) {
      Status st = pool_->Drain();
      if (!st.ok()) SetError(st);
      pool_.reset();
    }
  }
  if (has_error_.load(std::memory_order_acquire)) return error();

  // Flush every replayed page to the volume and release the attach-mode
  // manager, then cut the received log at the last complete record: an
  // incomplete tail is exactly a torn write, and promotion must present
  // recovery with the same clean prefix a local crash would.
  sm_.reset();
  SHOREMT_RETURN_NOT_OK(storage_->TruncateTo(parse_pos_));

  sm::StorageOptions o = opts_.storage;
  o.open_mode = sm::OpenMode::kPromote;
  SHOREMT_ASSIGN_OR_RETURN(sm_,
                           sm::StorageManager::Open(o, volume_, storage_));
  promoted_ = true;
  return Status::Ok();
}

void Replica::RegisterMetrics() {
  sm_->metrics()->AddSource(
      [this](std::array<uint64_t, obs::kMetricCount>* totals) {
        using obs::Metric;
        (*totals)[static_cast<size_t>(Metric::kReplSegmentsApplied)] +=
            frames_applied();
        (*totals)[static_cast<size_t>(Metric::kReplBytesStreamed)] +=
            bytes_streamed();
        uint64_t batches = 0;
        uint64_t replayed = 0;
        {
          std::lock_guard<std::mutex> lk(pool_mutex_);
          if (pool_ != nullptr) {
            batches = pool_->batches();
            replayed = pool_->replayed_lsn();
          }
        }
        (*totals)[static_cast<size_t>(Metric::kReplReplayBatches)] += batches;
        uint64_t received = storage_->size();
        // Both sides of the subtraction are log positions: received bytes
        // vs the horizon's byte offset (LSN - 1).
        uint64_t applied_off = replayed > 0 ? replayed - 1 : 0;
        (*totals)[static_cast<size_t>(Metric::kReplLagBytes)] +=
            received > applied_off ? received - applied_off : 0;
      });
}

}  // namespace shoremt::repl
