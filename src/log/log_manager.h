#ifndef SHOREMT_LOG_LOG_MANAGER_H_
#define SHOREMT_LOG_LOG_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "log/log_buffer.h"
#include "log/log_record.h"
#include "log/log_stats.h"
#include "log/log_storage.h"

namespace shoremt::log {

class FlushPipeline;

/// Log manager configuration; defaults = Shore-MT "final".
struct LogOptions {
  LogBufferKind buffer_kind = LogBufferKind::kCArray;
  size_t buffer_capacity = 1 << 22;  // 4 MiB ring.
  /// Periodic background flushing of *everything* appended so far, on top
  /// of the always-on submission-driven group-commit pipeline. Off by
  /// default: tests that rely on an unflushed tail being lost on crash
  /// drive durability explicitly through Submit/Wait/FlushTo.
  bool flush_daemon = false;
  uint64_t flush_interval_us = 1000;
  /// TEST HOOK (kCArray only): route every append through the
  /// consolidation slots instead of the solo fast path. On hosts with few
  /// hardware contexts the solo claim CAS almost never fails, so group
  /// formation would otherwise go unexercised; forcing it makes the
  /// leader/member protocol (join accounting, base hand-off, group-claim
  /// flush, error propagation) deterministic to test.
  bool carray_force_consolidation = false;
  /// Segment size applied to the attached LogStorage (0 keeps whatever the
  /// storage was constructed with). Whole segments below the checkpoint's
  /// redo low-water mark are freed by Recycle — small segments recycle
  /// promptly, large ones amortize allocation.
  uint64_t segment_bytes = 0;
  /// Live-segment count at which the flush pipeline reports log pressure
  /// through the pressure hook (waking the page cleaner / checkpoint
  /// daemon so the low-water mark advances and segments can be freed).
  size_t recycle_pressure_segments = 8;
  /// Non-empty: Recycle archives each sealed segment into this directory
  /// (file + MANIFEST line) instead of freeing it outright — the archive
  /// plus the live log stays a complete byte stream from LSN 1, enabling
  /// point-in-time restore (repl::RestoreToLsn) and lets a log shipper
  /// serve ranges the primary already recycled. Empty (default) = off.
  std::string archive_dir;
  /// Worker threads in the flush pipeline's OnDurable callback executor
  /// (1 preserves ascending-LSN dispatch order; more trades order for
  /// callback parallelism).
  size_t durable_callback_threads = 1;
  /// Bounded depth of that executor's queue (batches, not closures); a
  /// backlog past this exerts backpressure on the flush daemon.
  size_t durable_callback_queue = 64;
};

// LogStats lives in log/log_stats.h so the storage layer can mirror
// segment counters into it without depending on this (higher) header.

/// The log manager (§2.2.4): serializes WAL records into the staging
/// buffer, enforces durability on commit, and replays the durable stream
/// for recovery. The buffer implementation is the §7.4 staging knob; the
/// always-on FlushPipeline is the group-commit seam the asynchronous
/// commit path (txn::TxnManager::CommitAsync) rides.
class LogManager {
 public:
  /// `storage` must outlive the manager (it is the durable artifact that
  /// survives simulated crashes/restarts).
  LogManager(LogStorage* storage, LogOptions options);
  ~LogManager();  ///< Drains submitted flush targets unless Abandon()ed.

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Appends `rec`; returns its start/end LSNs.
  Result<Appended> Append(const LogRecord& rec);
  /// Appends a compensation (CLR) record.
  Result<Appended> AppendClr(const LogRecord& rec);

  /// Makes everything below `upto` durable (commit / WAL barrier). This is
  /// the synchronous path: the caller's thread may perform the device
  /// flush itself.
  Status FlushTo(Lsn upto);
  /// Flushes everything appended so far.
  Status FlushAll();

  // --- asynchronous durability (group-commit pipeline) ---------------------

  /// Registers `upto` with the flush daemon and returns immediately; one
  /// daemon flush covers every target submitted before it runs.
  void SubmitFlush(Lsn upto);
  /// Blocks until everything below `upto` is durable or the pipeline
  /// carries a sticky error.
  Status WaitDurable(Lsn upto);
  /// Registers a closure invoked once when the durable LSN passes `upto`
  /// — from the flush daemon's thread as its batches advance durability,
  /// or inline (before returning) if `upto` is already durable. The
  /// target is submitted to the daemon like SubmitFlush. A sticky
  /// pipeline error fires every pending closure with that error; closures
  /// still pending at shutdown fire after the final drain (Ok if it made
  /// them durable, the drain/stop error otherwise).
  void OnDurable(Lsn upto, std::function<void(Status)> fn);
  /// True once every byte below `upto` has reached the log device.
  bool IsDurable(Lsn upto) const;
  /// The pipeline's sticky flush error (Ok while healthy). A failed
  /// device flush poisons the pipeline: durability can no longer be
  /// acknowledged, and every Wait reports this status.
  Status pipeline_error() const;
  /// Crash simulation: the destructor skips the final drain flush, losing
  /// submitted-but-unflushed commit records like a power failure would.
  void Abandon();

  Lsn durable_lsn() const { return buffer_->durable_lsn(); }
  Lsn next_lsn() const { return buffer_->next_lsn(); }

  // --- log lifecycle (segmented storage + recycling) -----------------------

  /// Frees whole log segments below `below` (clamped to the durable LSN:
  /// undo and recovery read only durable bytes, and a checkpoint flushes
  /// its record before recycling). `below` is the reclamation horizon —
  /// min(checkpoint redo low-water, oldest active transaction's begin
  /// LSN), computed by the storage manager's fuzzy checkpoint. Returns
  /// the number of segments freed.
  size_t Recycle(Lsn below);

  /// First LSN a log scan may start at (everything below it may have been
  /// recycled). Forwarded from the storage, so it survives restarts.
  Lsn reclaim_horizon() const { return storage_->reclaim_horizon(); }

  /// Live segments held by the storage right now.
  size_t live_segments() const { return storage_->live_segments(); }

  /// True when the storage holds at least `recycle_pressure_segments`
  /// live segments — the signal that background reclamation (cleaner +
  /// checkpoint) is falling behind the append rate.
  bool SegmentPressure() const {
    return storage_->live_segments() >= options_.recycle_pressure_segments;
  }

  /// Registers `hook`, invoked from the flush daemon UNDER the pipeline's
  /// lock after a flush batch whenever SegmentPressure() holds — the
  /// no-busy-wait nudge that wakes the page cleaner and the checkpoint
  /// daemon so the low-water mark advances and Recycle can free segments.
  /// The hook must be short, must not block, and must not re-enter the
  /// pipeline (Submit/Wait/OnDurable would self-deadlock); cv notifies
  /// are fine. See FlushPipeline::SetPostBatchHook.
  void SetPressureHook(std::function<void()> hook);

  /// Stat entry points for the services the log cannot see directly.
  void NoteCheckpoint() {
    stats_.checkpoint_count.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteRedoScanBytes(uint64_t bytes) {
    stats_.redo_scan_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Reads the record starting at `lsn` from the durable log (undo path).
  /// A torn or garbage length prefix yields Corruption, never a bogus
  /// read.
  Result<LogRecord> ReadRecord(Lsn lsn) const;

  /// Iterates every durable record in LSN order starting at `from`
  /// (clamped up to the reclamation horizon — recycled bytes are gone);
  /// the callback receives each record with `lsn` and computed end LSN
  /// filled in. Stops early on callback error.
  Status Scan(const std::function<Status(const LogRecord&, Lsn end)>& fn,
              Lsn from = Lsn{1}) const;

  const LogStats& stats() const { return stats_; }
  LogStorage* storage() { return storage_; }
  FlushPipeline* pipeline() { return pipeline_.get(); }

 private:
  LogStorage* storage_;
  LogOptions options_;
  std::unique_ptr<LogBuffer> buffer_;
  LogStats stats_;
  std::unique_ptr<FlushPipeline> pipeline_;
};

}  // namespace shoremt::log

#endif  // SHOREMT_LOG_LOG_MANAGER_H_
