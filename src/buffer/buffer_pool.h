#ifndef SHOREMT_BUFFER_BUFFER_POOL_H_
#define SHOREMT_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "buffer/dirty_page_table.h"
#include "buffer/frame.h"
#include "buffer/frame_table.h"
#include "buffer/in_transit.h"
#include "common/status.h"
#include "common/types.h"
#include "io/io_scheduler.h"
#include "io/volume.h"
#include "sync/lockfree_stack.h"
#include "sync/periodic_daemon.h"
#include "sync/rw_latch.h"
#include "sync/spinlock.h"
#include "sync/sync_stats.h"

namespace shoremt::buffer {

/// Buffer pool tuning knobs; defaults are the Shore-MT "final" stage, and
/// the stage presets in sm/options.h roll them back per §7.
struct BufferPoolOptions {
  size_t frame_count = 2048;
  TableKind table_kind = TableKind::kCuckoo;
  /// Lock-free conditional pin for already-pinned (hot) pages (§6.2.1).
  bool pin_if_pinned = true;
  /// Shards of the in-transit-out list (1 = original global list).
  int transit_shards = 128;
  /// Release the clock-hand mutex before write-back/IO during eviction
  /// (§7.6); if false the hand is held across the whole eviction.
  bool release_clock_hand_early = true;
  /// Background page cleaner (asynchronous dirty write-back, §2.2.1): a
  /// cv-driven daemon that runs one CleanerPass(cleaner_batch) per
  /// wake-up, oldest rec_lsn first. In a pool built with a log horizon
  /// (see the BufferPool constructor) a pass writes a dirty page only when
  /// its rec_lsn lags the durable LSN by more than the redo budget, when
  /// the CLOCK hand has cleared its reference bit (eviction is coming for
  /// it), or when more than a quarter of the frames are dirty, so hot
  /// pages are rewritten once per budget of log, not once per pass. Woken
  /// by its interval, by MarkDirty once more than a quarter of the frames
  /// are dirty, and by WakeCleaner() (log-segment pressure).
  bool enable_cleaner = false;
  uint64_t cleaner_interval_us = 2000;
  /// Dirty frames written back per cleaner pass (0 = all — a full sweep).
  /// Incremental batches keep each pass short so a wake-up never stalls
  /// the pool behind one long write storm.
  size_t cleaner_batch = 64;
  /// Max detached prefetch reads in flight pool-wide; PrefetchPages drops
  /// (never blocks) beyond this. 0 disables prefetching.
  size_t prefetch_window = 64;
  /// Background checksum scrubber: a PeriodicDaemon that walks COLD
  /// (non-resident) pages verifying their on-media checksums at a bounded
  /// rate — scrub_pages_per_pass device reads every scrub_interval_us.
  /// Failures are repaired through the installed page repairer when one
  /// exists, otherwise only counted (the damage surfaces as Corruption on
  /// the next read).
  bool enable_scrubber = false;
  uint64_t scrub_interval_us = 10'000;
  size_t scrub_pages_per_pass = 32;
  /// Async I/O spine tuning (workers, slots, ring window, coalescing cap,
  /// transient-error retry budget — also used by the pool's synchronous
  /// miss-path reads and write-backs).
  io::IoSchedulerOptions io;
};

/// Aggregate counters for benches and calibration.
struct BufferPoolStats {
  std::atomic<uint64_t> fixes{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> optimistic_hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> dirty_writebacks{0};
  std::atomic<uint64_t> cleaner_writes{0};
  std::atomic<uint64_t> cleaner_sweeps{0};
  std::atomic<uint64_t> cleaner_batches{0};     ///< Sweeps that submitted a batch.
  std::atomic<uint64_t> prefetch_issued{0};     ///< Detached reads submitted.
  std::atomic<uint64_t> prefetch_dropped{0};    ///< Shed by window/slots/frames.
  std::atomic<uint64_t> prefetch_installed{0};  ///< Completed into the table.
  std::atomic<uint64_t> prefetch_errors{0};     ///< Detached reads that failed.
  std::atomic<uint64_t> checksum_failures{0};   ///< Images failing page CRC.
  std::atomic<uint64_t> pages_repaired{0};      ///< Rebuilt via the repairer.
  std::atomic<uint64_t> scrub_pages{0};         ///< Pages the scrubber verified.
};

class BufferPool;

/// RAII handle to a fixed (pinned + latched) page. Move-only; unfixes on
/// destruction. Obtained from BufferPool::FixPage / NewPage.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle() { Unfix(); }

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  /// The page image (kPageSize bytes).
  uint8_t* data();
  const uint8_t* data() const;
  PageNum page() const { return page_; }
  sync::LatchMode mode() const { return mode_; }

  /// Records that the caller modified the page under an exclusive latch.
  /// `page_lsn` is the END LSN of the WAL record covering the change (what
  /// the page header stores — everything below it is on the image);
  /// `rec_lsn` is that record's START LSN, which becomes the page's
  /// recovery LSN if it was clean. The distinction matters: redo scans
  /// from the minimum rec_lsn and must include the first dirtying record
  /// itself — seeding rec_lsn with the end LSN would place the scan start
  /// just past it and lose the update if the image never reaches disk.
  /// There is deliberately no single-LSN overload: every pre-existing
  /// caller passed the record END LSN, and routing that habit through a
  /// convenience overload would silently overstate the recovery LSN —
  /// the exact lost-update bug the two-argument form exists to prevent.
  void MarkDirty(Lsn page_lsn, Lsn rec_lsn);

  /// Converts an exclusive hold to shared (keeps the pin).
  void DowngradeLatch();

  /// Releases latch + pin early; the handle becomes invalid.
  void Unfix();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, int frame, PageNum page, sync::LatchMode mode)
      : pool_(pool), frame_(frame), page_(page), mode_(mode) {}

  BufferPool* pool_ = nullptr;
  int frame_ = -1;
  PageNum page_ = kInvalidPageNum;
  sync::LatchMode mode_ = sync::LatchMode::kShared;
};

/// Unlatched, unpinned, version-stamped view of a cached page — the
/// optimistic guard state of the frame's HybridLatch surfaced as a handle.
/// Obtained from BufferPool::FixOptimistic. The holder may READ the image
/// at any time but must treat every byte as potentially torn until
/// Validate() returns true; on false the reader restarts (typically from
/// the B-tree root). The handle takes no pin, so it cannot prevent
/// eviction — instead, eviction holds the frame latch exclusive from the
/// claim until the successor image is published, so any read that
/// overlapped a reuse fails validation. Copyable and trivially cheap.
class OptimisticPageHandle {
 public:
  OptimisticPageHandle() = default;

  bool valid() const { return pool_ != nullptr; }
  /// The (unvalidated) page image. Reads must be performed with
  /// torn-tolerant code paths (see SHOREMT_NO_SANITIZE_THREAD).
  const uint8_t* data() const;
  PageNum page() const { return page_; }

  /// True iff every read since FixOptimistic observed a consistent image:
  /// no exclusive latch holder overlapped and the frame version is
  /// unchanged (so the frame still caches this page — reuse bumps it).
  bool Validate() const;

 private:
  friend class BufferPool;
  OptimisticPageHandle(BufferPool* pool, int frame, PageNum page,
                       uint64_t stamp)
      : pool_(pool), frame_(frame), page_(page), stamp_(stamp) {}

  BufferPool* pool_ = nullptr;
  int frame_ = -1;
  PageNum page_ = kInvalidPageNum;
  uint64_t stamp_ = 0;
};

/// The buffer pool manager (§2.2.1): presents the volume as if memory-
/// resident, with CLOCK replacement, WAL-correct dirty write-back and the
/// staged synchronization strategies of §6.2/§7.
class BufferPool {
 public:
  /// `log_flush` (optional) is invoked with a page's LSN before its dirty
  /// image is written out, enforcing write-ahead logging.
  using LogFlushFn = std::function<Status(Lsn)>;
  /// Reports the log's durable LSN (the anchor of the cleaner's horizon).
  using DurableLsnFn = std::function<Lsn()>;

  /// `durable_lsn` and a non-zero `redo_budget` (bytes of log) turn on the
  /// cleaner's horizon rule: an incremental pass writes a dirty page only
  /// when its rec_lsn is older than durable − budget, when the CLOCK hand
  /// has cleared its reference bit, or when more than a quarter of the
  /// frames are dirty. Without them (budget 0) every pass writes the
  /// oldest dirty pages unconditionally.
  BufferPool(io::Volume* volume, BufferPoolOptions options,
             LogFlushFn log_flush = nullptr, DurableLsnFn durable_lsn = nullptr,
             uint64_t redo_budget = 0);

  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fixes an existing page: pins it, fetching from the volume on a miss,
  /// and acquires its latch in `mode`.
  Result<PageHandle> FixPage(PageNum page, sync::LatchMode mode);

  /// Optimistic fix: returns an unlatched, unpinned, version-stamped view
  /// of `page` without writing ANY shared cache line (no pin RMW, no latch
  /// word update — the §7 read-path collapse removed at its root). The
  /// caller reads through the handle and calls Validate(); a false
  /// validation means the image may be torn and the read must restart.
  /// Frame identity is re-verified after stamping exactly like
  /// AcquireVerified does on the pinned path, and eviction/reuse holds the
  /// frame latch exclusive (bumping the version on release) so a stale
  /// reader can never validate against a recycled frame.
  ///
  /// On a cache miss the page is brought in through the ordinary miss
  /// machinery first (one latched fix, immediately released). Returns
  /// Busy — the restart signal — when the frame stays exclusively latched
  /// or in flux across the bounded retry window; callers downgrade to
  /// FixPage after enough restarts so writers and pathological conflicts
  /// still make progress.
  Result<OptimisticPageHandle> FixOptimistic(PageNum page);

  /// Fixes a brand-new page (no read; the caller formats it). The page
  /// must not be cached or contain live data.
  Result<PageHandle> NewPage(PageNum page);

  /// Writes `page` out if dirty (no-op when clean or uncached).
  Status FlushPage(PageNum page);
  /// Writes out every dirty page (quiesced shutdown / tests).
  Status FlushAll();

  /// Minimum rec_lsn across dirty frames — the checkpoint's redo low
  /// water mark. This is the *blocking* variant: it scans every frame
  /// (original Shore; kept for the baseline stage presets).
  Lsn ScanMinRecLsn() const;

  /// The decoupled variant (§7.7 taken to its conclusion): the explicit
  /// dirty-page table maintains the minimum first-dirty rec_lsn
  /// incrementally — one O(log n) update per dirty/clean transition, an
  /// O(1) read here. Null when nothing is dirty.
  Lsn DirtyMinRecLsn() const { return dpt_.MinRecLsn(); }
  /// Dirty pages currently tracked.
  size_t DirtyPageCount() const { return dpt_.size(); }

  /// Runs one synchronous full cleaner sweep (tests, cold starts).
  Status CleanerSweep() { return CleanerPass(0); }

  /// One incremental cleaner round: writes back up to `max_pages` dirty
  /// pages in ascending rec_lsn order (0 = all), WAL-correctly (log
  /// flushed to each page's LSN first). With a redo budget, a round with
  /// `max_pages` != 0 writes only the pages the horizon rule selects (see
  /// the constructor). The cleaner's pins do not set reference bits. The
  /// background daemon calls this on every wake-up; tests and checkpoint
  /// cold starts call it directly.
  Status CleanerPass(size_t max_pages);

  /// Wakes the background cleaner daemon immediately (no-op without one).
  /// Called on log-segment pressure by the flush pipeline's hook and by
  /// the dirty-ratio trigger — a cv notify, never a busy-wait.
  void WakeCleaner();

  /// Readahead: starts detached asynchronous reads for the pages not
  /// already cached, bounded by `prefetch_window`. Never blocks and never
  /// fails — saturation (no free I/O slot, no evictable frame, window
  /// full) just drops the hint. A prefetched frame enters the pool
  /// unlatched with zero pins once its read completes; until then the
  /// page's in-transit entry makes concurrent fixers wait instead of
  /// issuing a duplicate read. Returns the number of reads issued.
  size_t PrefetchPages(std::span<const PageNum> pages);

  /// The async I/O spine (benches submit through their own rings).
  io::IoScheduler* io() { return io_.get(); }

  /// Media auto-repair source. When a page image fails its checksum on
  /// read-in (miss path or scrubber), the pool calls `fn(page, img)`; the
  /// repairer must rebuild the full kPageSize image into `img`, stamp its
  /// checksum, AND durably rewrite the page on the volume (so the media
  /// copy is healed even if the frame is evicted clean). Returns Ok only
  /// on a complete repair. The storage manager wires this to its
  /// archive+log page rebuilder. Synchronized with the background
  /// cleaner and scrubber, which may already be running when the owner
  /// wires it.
  using PageRepairFn = std::function<Status(PageNum, uint8_t*)>;
  void SetPageRepairer(PageRepairFn fn);

  /// One scrubber round: verifies the on-media checksums of up to
  /// `max_pages` COLD pages starting at the persistent scrub cursor
  /// (resident pages are skipped — their media copy is rewritten with a
  /// fresh checksum at next write-back anyway). Checksum failures are
  /// repaired through the page repairer when installed. The background
  /// daemon calls this each tick; tests call it directly. Returns the
  /// first repair failure, if any.
  Status ScrubPass(size_t max_pages);

  const BufferPoolStats& stats() const { return stats_; }
  size_t frame_count() const { return frames_.size(); }
  io::Volume* volume() { return volume_; }

 private:
  friend class PageHandle;
  friend class OptimisticPageHandle;

  /// Pin bookkeeping shared by hit paths. Returns false if the frame no
  /// longer holds `page` (caller retries).
  bool TryOptimisticPin(PageNum page, int frame);

  /// Latches a pinned frame in `mode`, then re-verifies it still holds
  /// `page` (the loader invalidates a frame whose disk read failed). On
  /// mismatch the latch and pin are released and false is returned — the
  /// caller retries its lookup.
  bool AcquireVerified(int frame, PageNum page, sync::LatchMode mode);
  /// Miss path: allocate a frame, read (or skip for new pages), publish.
  Result<int> HandleMiss(PageNum page, bool read_from_disk);
  /// Finds a victim frame via CLOCK; returns a frame claimed for reuse
  /// (already unmapped and written back) with its latch held EXCLUSIVE.
  /// The latch stays held from the claim until the frame's next image is
  /// published (HandleMiss return / prefetch completion), so optimistic
  /// readers that overlapped the reuse fail validation; every failure path
  /// must release it before recycling the frame.
  Result<int> AllocateFrame();
  /// Writes frame's dirty image to the volume (log flushed first).
  Status WriteBack(int frame, PageNum page);
  /// Prefetch completion (runs on the I/O worker): publishes the frame's
  /// mapping on success, recycles the frame otherwise, clears the
  /// in-transit entry last.
  void FinishPrefetch(int frame, PageNum page, Status st);
  void UnfixInternal(int frame, sync::LatchMode mode);
  /// Runs the installed repairer (if any) against a checksum-failed image
  /// of `page` held in `img`. Counts stats; Corruption when unrepairable.
  Status TryRepairPage(PageNum page, uint8_t* img);
  /// Removes and returns the recorded prefetch-completion error for
  /// `page` (Ok when none). FixPage consumes this after waiting out an
  /// in-transit entry so a failed detached read surfaces to the waiter.
  Status TakePrefetchError(PageNum page);
  /// MarkDirty's clean→dirty transition: registers the page in the
  /// dirty-page table and fires the dirty-ratio cleaner trigger.
  void NoteFirstDirty(PageNum page, uint64_t rec_lsn);

  uint8_t* FrameData(int frame) {
    return arena_.get() + static_cast<size_t>(frame) * kPageSize;
  }

  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  io::Volume* volume_;
  BufferPoolOptions options_;
  LogFlushFn log_flush_;
  DurableLsnFn durable_lsn_;
  /// Log bytes a dirty page's rec_lsn may lag the durable LSN before the
  /// cleaner must write it (0 = no horizon rule).
  uint64_t redo_budget_;
  /// Where the cleaner's bounded scan of the pages younger than the
  /// horizon resumes (a rec_lsn; 0 = from the horizon).
  std::atomic<uint64_t> cold_scan_from_{0};
  /// aligned_alloc'd to the O_DIRECT block size so every frame is a valid
  /// direct-I/O buffer (kPageSize is a multiple of the alignment).
  std::unique_ptr<uint8_t[], FreeDeleter> arena_;
  std::vector<Frame> frames_;
  std::unique_ptr<FrameTable> table_;
  sync::LockFreeIndexStack free_frames_;
  InTransitTable in_transit_;

  sync::SyncStats clock_stats_;
  sync::TtasLock clock_lock_;
  std::atomic<size_t> clock_hand_{0};

  BufferPoolStats stats_;
  DirtyPageTable dpt_;
  /// Guarded by hooks_mutex_: set by the owner after construction,
  /// while the cleaner daemon may already be running.
  PageRepairFn page_repairer_;
  std::mutex hooks_mutex_;  ///< Guards page_repairer_.
  /// Failed detached-read completions, keyed by page, consumed by the
  /// first fixer that waited on the page's in-transit entry (satisfying
  /// the invariant that an I/O error never vanishes between the worker
  /// callback and the thread that wanted the page). Bounded; guarded by
  /// prefetch_err_mutex_, with a relaxed size mirror for the fast path.
  std::mutex prefetch_err_mutex_;
  std::unordered_map<PageNum, Status> prefetch_errors_;
  std::atomic<size_t> prefetch_error_count_{0};
  /// Next page the scrubber will examine (wraps at the volume end).
  std::atomic<PageNum> scrub_cursor_{1};
  /// Detached prefetch reads currently in flight (bounds PrefetchPages).
  std::atomic<size_t> prefetch_inflight_{0};
  /// The async I/O spine. Declared after every structure its worker-side
  /// completions touch (frames, table, transit, DPT, stats) and after the
  /// arena, so its destructor — which executes everything still queued and
  /// joins the workers — runs while all of them are alive.
  std::unique_ptr<io::IoScheduler> io_;
  /// Background cleaner (shared cv-daemon scaffold): interval tick +
  /// WakeCleaner kicks, one incremental pass per wake-up.
  std::unique_ptr<sync::PeriodicDaemon> cleaner_daemon_;
  /// Background checksum scrubber; declared after io_ like the cleaners
  /// (stopped in the destructor before any member teardown).
  std::unique_ptr<sync::PeriodicDaemon> scrub_daemon_;
};

}  // namespace shoremt::buffer

#endif  // SHOREMT_BUFFER_BUFFER_POOL_H_
