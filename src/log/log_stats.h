#ifndef SHOREMT_LOG_LOG_STATS_H_
#define SHOREMT_LOG_LOG_STATS_H_

#include <atomic>
#include <cstdint>

namespace shoremt::log {

/// Per-manager counters.
struct LogStats {
  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> compensations{0};
  /// Durability requests that had to block (synchronous FlushTo calls that
  /// found their target not yet durable, plus pipeline Waits that parked).
  std::atomic<uint64_t> flush_waits{0};
  /// Pipeline Waits that found their LSN already durable — the flush
  /// waits group commit made unnecessary.
  std::atomic<uint64_t> waits_avoided{0};
  /// Device flushes issued by the group-commit daemon (batches).
  std::atomic<uint64_t> group_batches{0};
  /// Commit requests amortized into those batches; group_batch_txns /
  /// group_batches = transactions per flush.
  std::atomic<uint64_t> group_batch_txns{0};

  // --- log lifecycle counters (segmented log + cleaner + checkpoint) ------

  /// Segments allocated by the attached storage since this manager
  /// attached (new LSN space opened).
  std::atomic<uint64_t> segments_allocated{0};
  /// Segments freed below the reclamation horizon since attach.
  std::atomic<uint64_t> segments_recycled{0};
  /// Of those, segments written into the archive (PITR) before being
  /// freed — equal to segments_recycled when an archive dir is set.
  std::atomic<uint64_t> segments_archived{0};
  /// Fuzzy checkpoints taken.
  std::atomic<uint64_t> checkpoint_count{0};
  /// Bytes the redo pass actually scanned during recovery — with a
  /// checkpoint low-water mark this is ≪ `bytes` (the whole log).
  std::atomic<uint64_t> redo_scan_bytes{0};

  // --- consolidation-array counters (kCArray buffer only) -----------------
  // The hot two (solo claims / slot joins) sit on their own cache lines:
  // every append bumps exactly one of them, and sharing a line with the
  // flush-side counters would re-introduce the shared-counter serialization
  // these buffers exist to remove (§5).

  /// Combined-extent claims performed by group leaders.
  std::atomic<uint64_t> carray_groups{0};
  /// Records carried by those groups (leader + members); divide by
  /// carray_groups for the mean group size.
  std::atomic<uint64_t> carray_group_records{0};
  /// Bytes claimed through group extents.
  std::atomic<uint64_t> carray_group_bytes{0};
  /// Group-size histogram: buckets 1, 2, 3-4, 5-8, 9-16, >16 members.
  std::atomic<uint64_t> carray_group_size_hist[6] = {};
  /// Appends that joined an open consolidation slot as a member.
  alignas(64) std::atomic<uint64_t> carray_slot_joins{0};
  /// Appends that claimed buffer space alone (fast path or solo retry).
  alignas(64) std::atomic<uint64_t> carray_solo_claims{0};
  /// Times the flusher (or a ring-full appender) found every completed
  /// byte already durable and had to wait for in-flight copiers to
  /// publish more regions before the watermark could advance.
  alignas(64) std::atomic<uint64_t> carray_watermark_stalls{0};

  // --- adaptive gather window (leader-only, cold relative to appends) -----

  /// Times a leader widened the gather-spin budget (a well-subscribed
  /// group closed: collision pressure is high, waiting longer pays).
  std::atomic<uint64_t> carray_gather_widens{0};
  /// Times a leader narrowed it (the window closed with no joiners:
  /// spinning was pure latency).
  std::atomic<uint64_t> carray_gather_narrows{0};
  /// GAUGE: the current gather-spin budget.
  std::atomic<uint64_t> carray_gather_spins{0};
};

}  // namespace shoremt::log

#endif  // SHOREMT_LOG_LOG_STATS_H_
