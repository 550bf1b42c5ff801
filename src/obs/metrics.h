#ifndef SHOREMT_OBS_METRICS_H_
#define SHOREMT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string_view>

#include "common/histogram.h"

namespace shoremt::obs {

/// The engine-wide live counter set: every row of the profiling feed and
/// every column of the registry snapshot is one of these. Worker-written
/// metrics (transaction lifecycle, DML, lock waits and cache hits, log
/// bytes, durability waits) live in per-worker WorkerCounters blocks;
/// engine-global metrics (buffer pool, log lifecycle, lock table, space)
/// are pulled from the existing stats structs through registered sources
/// at aggregation time — the subsystems keep their structs, the registry
/// is the union view.
enum class Metric : uint32_t {
  kTxnBegins = 0,
  kTxnCommits,
  kTxnAborts,
  kReads,
  kUpdates,
  kInserts,
  kDeletes,
  kScanRows,  ///< Rows returned through cursors (scan workloads).
  kRmws,      ///< Read-modify-write round trips (workload-level, YCSB F).
  /// Lock requests that parked, booked from a session transaction's
  /// TxnCounters when it commits or aborts. LockStats::waits counts every
  /// wait in the lock table as it happens, including those of
  /// transactions begun outside a session, so the two differ by design.
  kLockWaits,
  kLockAcquired,
  kLogBytes,
  kLogRecords,
  kGroupBatches,
  kBufferHits,
  kBufferMisses,
  kCleanerWritebacks,
  kCheckpoints,
  kSegmentsRecycled,
  // --- replication (src/repl) ---------------------------------------------
  kReplSegmentsShipped,  ///< Sealed-segment chunks the shipper sent.
  kReplSegmentsApplied,  ///< Segment/tail frames the replica accepted.
  kReplBytesStreamed,    ///< Log bytes that crossed the wire.
  kReplReplayBatches,    ///< Replica passes that parsed new records.
  kReplLagBytes,         ///< GAUGE: shipped-but-not-replayed log bytes.
  // --- async I/O spine (src/io) ---------------------------------------------
  kIoReads,            ///< Volume read calls (a vectored call counts once).
  kIoWrites,           ///< Volume write calls (a vectored call counts once).
  kIoReadNs,           ///< Nanoseconds inside volume read calls.
  kIoWriteNs,          ///< Nanoseconds inside volume write calls.
  kIoBatchedOps,       ///< Device calls that carried more than one page.
  kIoCoalescedPages,   ///< Pages that rode a call beyond its first.
  kIoPrefetchIssued,   ///< Detached readahead reads submitted.
  kIoPrefetchDropped,  ///< Readahead hints shed (window/slots/frames).
  // --- integrity (checksums, retry, scrub) ----------------------------------
  kIoRetries,          ///< Transient-error retries across all I/O paths.
  kIoRetryBackoffNs,   ///< Nanoseconds slept in retry backoff.
  kChecksumFailures,   ///< Page/log images that failed CRC verification.
  kPagesRepaired,      ///< Checksum-failed pages rebuilt from archive+log.
  kScrubPages,         ///< Pages verified by the background scrubber.
  // --- B+Tree probes (src/btree) --------------------------------------------
  // Routed through per-worker blocks (not BTreeStats) so the latch-free
  // read path touches no shared cache line — the same §5 rule that moved
  // the transaction counters here.
  kBtreeFinds,              ///< Point lookups (Find calls).
  kBtreeProbeLockSearches,  ///< §7.7 redundant per-probe lock checks.
  kBtreeOptimisticDescents, ///< Descents completed without latching.
  kBtreeRestarts,           ///< Validation failures that restarted a descent.
  kBtreeLatchFallbacks,     ///< Descents that gave up and took latches.
  // --- sessions: lock cache and durability waits (worker-side) -------------
  /// Lock requests served from the transaction-private lock cache without
  /// touching the shared lock table.
  kLockCacheHits,
  kCommitWaits,  ///< Durability waits that had to block.
  /// Durability checks that found the group flush already past the commit
  /// LSN: the per-transaction flush waits group commit eliminated.
  kCommitWaitsAvoided,
  // --- engine sources read from subsystem stats ----------------------------
  kEvictions,       ///< Buffer frames evicted (BufferPoolStats::evictions).
  kPagesAllocated,  ///< Pages handed out by the space manager.
  kGroupBatchTxns,  ///< Commit requests amortized into group flushes.
  kCount,  ///< Sentinel, not a metric: keep it last.
};

inline constexpr size_t kMetricCount = static_cast<size_t>(Metric::kCount);

/// Gauges report a level, not a monotone count: the profiling feed emits
/// their raw value each tick instead of a delta, and keeps no high-water
/// clamp (a lag that shrinks must be visible as shrinking).
constexpr bool MetricIsGauge(Metric m) {
  return m == Metric::kReplLagBytes;
}

constexpr std::string_view MetricName(Metric m) {
  switch (m) {
    case Metric::kTxnBegins: return "txn_begins";
    case Metric::kTxnCommits: return "txn_commits";
    case Metric::kTxnAborts: return "txn_aborts";
    case Metric::kReads: return "reads";
    case Metric::kUpdates: return "updates";
    case Metric::kInserts: return "inserts";
    case Metric::kDeletes: return "deletes";
    case Metric::kScanRows: return "scan_rows";
    case Metric::kRmws: return "rmws";
    case Metric::kLockWaits: return "lock_waits";
    case Metric::kLockAcquired: return "lock_acquired";
    case Metric::kLogBytes: return "log_bytes";
    case Metric::kLogRecords: return "log_records";
    case Metric::kGroupBatches: return "group_batches";
    case Metric::kBufferHits: return "buffer_hits";
    case Metric::kBufferMisses: return "buffer_misses";
    case Metric::kCleanerWritebacks: return "cleaner_writebacks";
    case Metric::kCheckpoints: return "checkpoints";
    case Metric::kSegmentsRecycled: return "segments_recycled";
    case Metric::kReplSegmentsShipped: return "repl_segments_shipped";
    case Metric::kReplSegmentsApplied: return "repl_segments_applied";
    case Metric::kReplBytesStreamed: return "repl_bytes_streamed";
    case Metric::kReplReplayBatches: return "repl_replay_batches";
    case Metric::kReplLagBytes: return "repl_lag_bytes";
    case Metric::kIoReads: return "io_reads";
    case Metric::kIoWrites: return "io_writes";
    case Metric::kIoReadNs: return "io_read_ns";
    case Metric::kIoWriteNs: return "io_write_ns";
    case Metric::kIoBatchedOps: return "io_batched_ops";
    case Metric::kIoCoalescedPages: return "io_coalesced_pages";
    case Metric::kIoPrefetchIssued: return "io_prefetch_issued";
    case Metric::kIoPrefetchDropped: return "io_prefetch_dropped";
    case Metric::kIoRetries: return "io_retries";
    case Metric::kIoRetryBackoffNs: return "io_retry_backoff_ns";
    case Metric::kChecksumFailures: return "checksum_failures";
    case Metric::kPagesRepaired: return "pages_repaired";
    case Metric::kScrubPages: return "scrub_pages";
    case Metric::kBtreeFinds: return "btree_finds";
    case Metric::kBtreeProbeLockSearches: return "btree_probe_lock_searches";
    case Metric::kBtreeOptimisticDescents:
      return "btree_optimistic_descents";
    case Metric::kBtreeRestarts: return "btree_restarts";
    case Metric::kBtreeLatchFallbacks: return "btree_latch_fallbacks";
    case Metric::kLockCacheHits: return "lock_cache_hits";
    case Metric::kCommitWaits: return "commit_waits";
    case Metric::kCommitWaitsAvoided: return "commit_waits_avoided";
    case Metric::kEvictions: return "evictions";
    case Metric::kPagesAllocated: return "pages_allocated";
    case Metric::kGroupBatchTxns: return "group_batch_txns";
    case Metric::kCount: break;
  }
  return "?";
}

/// Log2-bucketed latency bucket index, matching common::Histogram's
/// bucketing so snapshots convert losslessly (bucket-for-bucket).
inline constexpr int kLatencyBuckets = 64;
inline int LatencyBucketFor(uint64_t value_ns) {
  if (value_ns == 0) return 0;
  return std::min(kLatencyBuckets - 1, 64 - std::countl_zero(value_ns));
}

/// One worker's counter block (§5's distributed-statistics design made
/// live): the owning worker bumps with plain relaxed stores — a counter
/// block has exactly one writer, so no RMW and no harvest latch ever
/// appears on the hot path — while the profiling thread reads the same
/// atomics relaxed from the side. The block is cache-line aligned so two
/// workers' blocks never share a line.
class alignas(64) WorkerCounters {
 public:
  /// Owner-only: adds `delta` (single-writer load+store, not fetch_add).
  void Inc(Metric m, uint64_t delta = 1) {
    std::atomic<uint64_t>& c = counters_[static_cast<size_t>(m)];
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  /// Owner-only: records one transaction latency sample (nanoseconds).
  void RecordLatency(uint64_t ns) {
    Bump(latency_buckets_[LatencyBucketFor(ns)], 1);
    Bump(latency_count_, 1);
    Bump(latency_sum_, ns);
  }

  /// Any thread: current value (relaxed read of a live counter).
  uint64_t Value(Metric m) const {
    return counters_[static_cast<size_t>(m)].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;

  static void Bump(std::atomic<uint64_t>& c, uint64_t delta) {
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  std::array<std::atomic<uint64_t>, kMetricCount> counters_ = {};
  std::array<std::atomic<uint64_t>, kLatencyBuckets> latency_buckets_ = {};
  std::atomic<uint64_t> latency_count_{0};
  std::atomic<uint64_t> latency_sum_{0};
  /// Slot state, owned by the registry (false = free).
  std::atomic<bool> used_{false};
};

/// The calling thread's registered counter block, or nullptr when the
/// thread is not a session worker (daemons, tests without sessions).
/// Session's constructor points this at the block it registered and its
/// destructor clears it, so deep subsystems (the B+Tree probe path) can
/// bump per-worker counters without threading a pointer through every
/// call signature. Callers must null-check.
inline WorkerCounters*& TlsWorkerCounters() {
  static thread_local WorkerCounters* tls = nullptr;
  return tls;
}

/// Null-safe single bump of the calling worker's counter.
inline void TlsInc(Metric m, uint64_t delta = 1) {
  if (WorkerCounters* wc = TlsWorkerCounters()) wc->Inc(m, delta);
}

/// Cross-worker latency totals at one instant; converts to a
/// common::Histogram (same bucket boundaries) for quantile extraction.
struct LatencySnapshot {
  std::array<uint64_t, kLatencyBuckets> buckets = {};
  uint64_t count = 0;
  uint64_t sum = 0;

  /// Re-materializes the bucket counts as a Histogram (each bucket's
  /// samples land at its midpoint, the same representative Percentile
  /// reports), so p50/p99/p999 come from the one quantile implementation.
  Histogram ToHistogram() const {
    Histogram h;
    for (int i = 0; i < kLatencyBuckets; ++i) {
      if (buckets[i] == 0) continue;
      uint64_t lo = i == 0 ? 0 : (1ULL << (i - 1));
      uint64_t hi = i == 0 ? 1 : (1ULL << i);
      h.AddCount(lo + (hi - lo) / 2, buckets[i]);
    }
    return h;
  }
};

/// Point-in-time union of every metric across workers, retired workers
/// and engine sources.
struct MetricsSnapshot {
  std::array<uint64_t, kMetricCount> totals = {};
  LatencySnapshot latency;

  uint64_t operator[](Metric m) const {
    return totals[static_cast<size_t>(m)];
  }
};

}  // namespace shoremt::obs

#endif  // SHOREMT_OBS_METRICS_H_
