#include "log/log_manager.h"

#include <algorithm>
#include <cstring>

#include "log/flush_pipeline.h"

namespace shoremt::log {

LogManager::LogManager(LogStorage* storage, LogOptions options)
    : storage_(storage), options_(options) {
  if (options_.segment_bytes > 0) {
    storage_->set_segment_bytes(options_.segment_bytes);
  }
  if (!options_.archive_dir.empty()) {
    storage_->set_archive_dir(options_.archive_dir);
  }
  // Assigned in the body so stats_ is fully constructed before the buffer
  // (which publishes consolidation counters into it) exists; same for the
  // storage's segment-counter mirror.
  storage_->AttachStats(&stats_);
  buffer_ = MakeLogBuffer(options_.buffer_kind, storage_,
                          options_.buffer_capacity, &stats_,
                          options_.carray_force_consolidation);
  pipeline_ = std::make_unique<FlushPipeline>(
      buffer_.get(), &stats_,
      options_.flush_daemon ? options_.flush_interval_us : 0);
}

LogManager::~LogManager() {
  // The pipeline (whose drain can allocate segments) must stop before the
  // stats mirror detaches; the storage outlives this manager.
  pipeline_.reset();
  storage_->AttachStats(nullptr);
}

size_t LogManager::Recycle(Lsn below) {
  if (below.IsNull()) return 0;
  Lsn durable = buffer_->durable_lsn();
  if (below > durable) below = durable;
  return storage_->Recycle(below);
}

void LogManager::SetPressureHook(std::function<void()> hook) {
  if (!hook) {
    pipeline_->SetPostBatchHook(nullptr);
    return;
  }
  pipeline_->SetPostBatchHook([this, hook = std::move(hook)] {
    if (SegmentPressure()) hook();
  });
}

Result<Appended> LogManager::Append(const LogRecord& rec) {
  thread_local std::vector<uint8_t> scratch;
  SerializeLogRecord(rec, &scratch);
  stats_.records.fetch_add(1, std::memory_order_relaxed);
  if (rec.type == LogRecordType::kClr) {
    stats_.compensations.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.bytes.fetch_add(scratch.size(), std::memory_order_relaxed);
  return buffer_->Append(scratch);
}

Status LogManager::FlushTo(Lsn upto) {
  if (buffer_->durable_lsn() >= upto) return Status::Ok();
  stats_.flush_waits.fetch_add(1, std::memory_order_relaxed);
  Status st = buffer_->FlushTo(upto);
  // This thread advanced durability behind the daemon's back: waiters
  // parked in the pipeline may now be satisfied.
  if (st.ok()) pipeline_->NotifyDurableAdvanced();
  return st;
}

Status LogManager::FlushAll() {
  Status st = buffer_->FlushTo(buffer_->next_lsn());
  if (st.ok()) pipeline_->NotifyDurableAdvanced();
  return st;
}

void LogManager::SubmitFlush(Lsn upto) { pipeline_->Submit(upto); }

Status LogManager::WaitDurable(Lsn upto) { return pipeline_->Wait(upto); }

void LogManager::OnDurable(Lsn upto, std::function<void(Status)> fn) {
  pipeline_->OnDurable(upto, std::move(fn));
}

bool LogManager::IsDurable(Lsn upto) const {
  return buffer_->durable_lsn() >= upto;
}

Status LogManager::pipeline_error() const { return pipeline_->error(); }

void LogManager::Abandon() { pipeline_->Abandon(); }

Result<LogRecord> LogManager::ReadRecord(Lsn lsn) const {
  if (lsn.IsNull()) return Status::InvalidArgument("null LSN");
  uint64_t offset = lsn.value - 1;
  uint64_t durable = storage_->size();
  if (offset + 4 > durable) {
    return Status::Corruption("log read beyond durable end");
  }
  // One storage read covers the whole record in the common case; a rare
  // oversized record takes one more exact read, sized from its prefix
  // only when the prefix stays inside the durable log. The reader then
  // judges the bytes, so a garbage prefix surfaces as Corruption instead
  // of a bogus (or gigantic) read.
  constexpr size_t kReadAhead = 4096;
  std::vector<uint8_t> bytes;
  SHOREMT_RETURN_NOT_OK(storage_->Read(
      offset, static_cast<size_t>(std::min<uint64_t>(durable - offset,
                                                     kReadAhead)),
      &bytes));
  uint32_t total_len;
  std::memcpy(&total_len, bytes.data(), 4);
  if (total_len > bytes.size() && offset + total_len <= durable) {
    SHOREMT_RETURN_NOT_OK(storage_->Read(offset, total_len, &bytes));
  }
  RecordReader reader(bytes, offset);
  LogRecord rec;
  Lsn end;
  SHOREMT_ASSIGN_OR_RETURN(bool whole, reader.Next(&rec, &end));
  if (!whole) {
    // Below the durable end every record is whole: a record running past
    // it is a damaged length prefix, not a torn tail.
    return Status::Corruption("log record at LSN " +
                              std::to_string(lsn.value) +
                              " runs past the durable end");
  }
  return rec;
}

Status LogManager::Scan(
    const std::function<Status(const LogRecord&, Lsn end)>& fn,
    Lsn from) const {
  // Clamp to the reclamation horizon: bytes below it may be recycled, and
  // the horizon is always a record boundary (it is an LSN a checkpoint
  // computed), so the scan stays aligned.
  uint64_t offset = from.IsNull() ? 0 : from.value - 1;
  offset = std::max(offset, storage_->reclaim_horizon().value - 1);
  std::vector<uint8_t> live;
  SHOREMT_RETURN_NOT_OK(storage_->ReadFrom(offset, &live));
  // A torn tail (an append that never completed) ends the scan, and the
  // log, cleanly; damage below it is Corruption — ending silently there
  // would drop committed work.
  RecordReader reader(live, offset);
  LogRecord rec;
  Lsn end;
  while (true) {
    SHOREMT_ASSIGN_OR_RETURN(bool more, reader.Next(&rec, &end));
    if (!more) return Status::Ok();
    SHOREMT_RETURN_NOT_OK(fn(rec, end));
  }
}

}  // namespace shoremt::log
