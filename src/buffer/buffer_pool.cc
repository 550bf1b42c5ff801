#include "buffer/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "io/retry.h"
#include "page/page.h"

namespace shoremt::buffer {

// ------------------------------------------------------------ PageHandle --

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Unfix();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_ = other.page_;
    mode_ = other.mode_;
    other.pool_ = nullptr;
  }
  return *this;
}

uint8_t* PageHandle::data() { return pool_->FrameData(frame_); }
const uint8_t* PageHandle::data() const { return pool_->FrameData(frame_); }

// -------------------------------------------------- OptimisticPageHandle --

const uint8_t* OptimisticPageHandle::data() const {
  return pool_->FrameData(frame_);
}

bool OptimisticPageHandle::Validate() const {
  return pool_ != nullptr && pool_->frames_[frame_].latch.Validate(stamp_);
}

void PageHandle::MarkDirty(Lsn page_lsn, Lsn rec_lsn) {
  Frame& f = pool_->frames_[frame_];
  page::HeaderOf(pool_->FrameData(frame_))->page_lsn = page_lsn.value;
  f.dirty.store(true, std::memory_order_release);
  uint64_t expected = 0;
  if (f.rec_lsn.compare_exchange_strong(expected, rec_lsn.value,
                                        std::memory_order_acq_rel)) {
    // Clean→dirty transition (once per dirty lifecycle, not per update):
    // register in the dirty-page table so the incremental min and the
    // cleaner's work list see this page.
    pool_->NoteFirstDirty(page_, rec_lsn.value);
  }
}

void PageHandle::DowngradeLatch() {
  pool_->frames_[frame_].latch.Downgrade();
  mode_ = sync::LatchMode::kShared;
}

void PageHandle::Unfix() {
  if (pool_ == nullptr) return;
  pool_->UnfixInternal(frame_, mode_);
  pool_ = nullptr;
}

// ------------------------------------------------------------ BufferPool --

BufferPool::BufferPool(io::Volume* volume, BufferPoolOptions options,
                       LogFlushFn log_flush, DurableLsnFn durable_lsn,
                       uint64_t redo_budget)
    : volume_(volume),
      options_(options),
      log_flush_(std::move(log_flush)),
      durable_lsn_(std::move(durable_lsn)),
      redo_budget_(durable_lsn_ ? redo_budget : 0),
      // 4096-aligned so every frame is O_DIRECT-capable in place.
      arena_(static_cast<uint8_t*>(
          std::aligned_alloc(4096, options.frame_count * kPageSize))),
      frames_(options.frame_count),
      table_(MakeFrameTable(options.table_kind, options.frame_count)),
      free_frames_(static_cast<uint32_t>(options.frame_count)),
      in_transit_(options.transit_shards),
      clock_stats_("bpool.clock"),
      io_(std::make_unique<io::IoScheduler>(volume, options.io)) {
  sync::SyncStatsRegistry::Instance().Register(&clock_stats_);
  for (uint32_t i = 0; i < options.frame_count; ++i) free_frames_.Push(i);
  if (options_.enable_cleaner) {
    // The background cleaner: woken by the interval tick, by MarkDirty's
    // dirty-ratio trigger, or by WakeCleaner() (log-segment pressure
    // from the flush pipeline); each wake-up runs one incremental pass
    // over the oldest dirty pages the horizon rule selects — never a
    // busy-wait, never a pool-wide stall.
    cleaner_daemon_ = std::make_unique<sync::PeriodicDaemon>();
    cleaner_daemon_->Start(
        std::chrono::microseconds(options_.cleaner_interval_us),
        [this] { (void)CleanerPass(options_.cleaner_batch); });
  }
  if (options_.enable_scrubber) {
    scrub_daemon_ = std::make_unique<sync::PeriodicDaemon>();
    scrub_daemon_->Start(
        std::chrono::microseconds(options_.scrub_interval_us),
        [this] { (void)ScrubPass(options_.scrub_pages_per_pass); });
  }
}

BufferPool::~BufferPool() {
  if (scrub_daemon_) scrub_daemon_->Stop();
  if (cleaner_daemon_) cleaner_daemon_->Stop();
  // io_ (and its workers, which may still be completing prefetch reads
  // into the arena) is torn down by member destruction, before the arena
  // and frame structures it touches.
  sync::SyncStatsRegistry::Instance().Unregister(&clock_stats_);
}

void BufferPool::SetPageRepairer(PageRepairFn fn) {
  std::lock_guard<std::mutex> guard(hooks_mutex_);
  page_repairer_ = std::move(fn);
}

Status BufferPool::TryRepairPage(PageNum page, uint8_t* img) {
  stats_.checksum_failures.fetch_add(1, std::memory_order_relaxed);
  PageRepairFn repairer;
  {
    std::lock_guard<std::mutex> guard(hooks_mutex_);
    repairer = page_repairer_;
  }
  if (!repairer) {
    return Status::Corruption("page " + std::to_string(page) +
                              " failed checksum verification (LSN " +
                              std::to_string(page::HeaderOf(img)->page_lsn) +
                              " on the damaged image); no repair source");
  }
  Status st = repairer(page, img);
  if (!st.ok()) {
    return Status::Corruption("page " + std::to_string(page) +
                              " failed checksum verification and repair: " +
                              st.message());
  }
  stats_.pages_repaired.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status BufferPool::TakePrefetchError(PageNum page) {
  std::lock_guard<std::mutex> guard(prefetch_err_mutex_);
  auto it = prefetch_errors_.find(page);
  if (it == prefetch_errors_.end()) return Status::Ok();
  Status st = it->second;
  prefetch_errors_.erase(it);
  prefetch_error_count_.store(prefetch_errors_.size(),
                              std::memory_order_release);
  return st;
}

void BufferPool::WakeCleaner() {
  if (cleaner_daemon_) cleaner_daemon_->Wake();
}

void BufferPool::NoteFirstDirty(PageNum page, uint64_t rec_lsn) {
  size_t dirty = dpt_.Insert(page, rec_lsn);
  if (options_.enable_cleaner && dirty > frames_.size() / 4) {
    WakeCleaner();
  }
}

bool BufferPool::TryOptimisticPin(PageNum page, int frame) {
  Frame& f = frames_[frame];
  if (!f.PinIfPinned()) return false;
  if (f.page.load(std::memory_order_acquire) != page) {
    f.Unpin();  // Pinned a frame that was recycled under us.
    return false;
  }
  return true;
}

bool BufferPool::AcquireVerified(int frame, PageNum page,
                                 sync::LatchMode mode) {
  Frame& f = frames_[frame];
  f.latch.Acquire(mode);
  // A pin blocks eviction but not invalidation by the frame's loader: if
  // the thread that published this mapping hit a read error while we
  // queued on the latch, it unmapped the frame — handing out the garbage
  // image would turn an I/O error into silent corruption.
  if (f.page.load(std::memory_order_acquire) != page) {
    f.latch.Release(mode);
    f.Unpin();
    return false;
  }
  return true;
}

Result<PageHandle> BufferPool::FixPage(PageNum page, sync::LatchMode mode) {
  if (page == kInvalidPageNum) {
    return Status::InvalidArgument("cannot fix the invalid page");
  }
  stats_.fixes.fetch_add(1, std::memory_order_relaxed);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    // Fast path (§6.2.1): lock-free lookup + conditional pin, verified by
    // re-reading the frame's page id after the pin lands.
    if (options_.pin_if_pinned) {
      int frame = table_->FindOptimistic(page);
      if (frame >= 0 && TryOptimisticPin(page, frame)) {
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        stats_.optimistic_hits.fetch_add(1, std::memory_order_relaxed);
        if (AcquireVerified(frame, page, mode)) {
          return PageHandle(this, frame, page, mode);
        }
        continue;  // Frame was invalidated while we queued on the latch.
      }
    }
    // Locked path: pin under the table's bucket lock (safe from zero).
    int frame = table_->FindAndPin(page, [&](int f) {
      frames_[f].pins.fetch_add(1, std::memory_order_acquire);
    });
    if (frame >= 0) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      if (AcquireVerified(frame, page, mode)) {
        return PageHandle(this, frame, page, mode);
      }
      continue;
    }
    // A prefetch (or a write-back) may have this page in transit: wait it
    // out and re-probe — a completed prefetch installs the mapping, so
    // what was a miss becomes a hit instead of a duplicate device read.
    if (in_transit_.WaitUntilClear(page)) {
      // If what we waited out was a detached read that FAILED, surface
      // its error here instead of silently re-reading: the waiter is the
      // I/O's real customer, and the retry budget was already spent on
      // the worker side.
      if (prefetch_error_count_.load(std::memory_order_acquire) != 0) {
        Status pe = TakePrefetchError(page);
        if (!pe.ok()) return pe;
      }
      continue;
    }
    // Miss: bring the page in ourselves. HandleMiss publishes the mapping
    // *before* the disk read and returns with the frame latched exclusive,
    // so concurrent fixers of the same page queue on the latch instead of
    // racing their own (possibly stale) reads against ours.
    auto r = HandleMiss(page, /*read_from_disk=*/true);
    if (r.ok()) {
      if (mode == sync::LatchMode::kShared) frames_[*r].latch.Downgrade();
      return PageHandle(this, *r, page, mode);
    }
    if (!r.status().IsBusy()) return r.status();
    // Busy: lost an insert race or no evictable frame right now — retry.
  }
  return Status::Busy("buffer pool thrashing: no evictable frames");
}

Result<OptimisticPageHandle> BufferPool::FixOptimistic(PageNum page) {
  if (page == kInvalidPageNum) {
    return Status::InvalidArgument("cannot fix the invalid page");
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    int frame = table_->FindOptimistic(page);
    if (frame >= 0) {
      Frame& f = frames_[frame];
      // Stamp first, then re-verify frame identity (the optimistic analog
      // of AcquireVerified): if the frame was recycled between the lookup
      // and the stamp, the page re-check below or — when the recycler is
      // still mid-flight — the eventual Validate() catches it, because
      // reuse holds the latch exclusive until the new image is published.
      uint64_t stamp = f.latch.StampOptimistic();
      if (stamp == sync::HybridLatch::kInvalidStamp) {
        // Exclusively latched right now (writer, loader, or evictor). Spin
        // a moment — leaf updates are short — then hand the conflict up as
        // the restart signal.
        sync::Backoff backoff;
        for (int spin = 0; spin < 16; ++spin) {
          backoff.Pause();
          stamp = f.latch.StampOptimistic();
          if (stamp != sync::HybridLatch::kInvalidStamp) break;
        }
        if (stamp == sync::HybridLatch::kInvalidStamp) {
          return Status::Busy("page exclusively latched");
        }
      }
      if (f.page.load(std::memory_order_acquire) != page) continue;
      return OptimisticPageHandle(this, frame, page, stamp);
    }
    // Miss: bring the page in through the ordinary (pinned) miss path,
    // drop the fix immediately and retry the optimistic probe — the
    // mapping now exists, so the next lap stamps it.
    SHOREMT_ASSIGN_OR_RETURN(PageHandle h,
                             FixPage(page, sync::LatchMode::kShared));
    h.Unfix();
  }
  return Status::Busy("optimistic fix: page stayed in flux");
}

Result<PageHandle> BufferPool::NewPage(PageNum page) {
  if (page == kInvalidPageNum) {
    return Status::InvalidArgument("cannot create the invalid page");
  }
  stats_.fixes.fetch_add(1, std::memory_order_relaxed);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    // A freed-and-reallocated page may still be cached; take it over.
    int frame = table_->FindAndPin(page, [&](int f) {
      frames_[f].pins.fetch_add(1, std::memory_order_acquire);
    });
    if (frame >= 0) {
      if (AcquireVerified(frame, page, sync::LatchMode::kExclusive)) {
        return PageHandle(this, frame, page, sync::LatchMode::kExclusive);
      }
      continue;
    }
    auto r = HandleMiss(page, /*read_from_disk=*/false);
    if (r.ok()) {
      // HandleMiss returns the frame already latched exclusive.
      return PageHandle(this, *r, page, sync::LatchMode::kExclusive);
    }
    if (!r.status().IsBusy()) return r.status();
  }
  return Status::Busy("buffer pool thrashing: no evictable frames");
}

/// Installs `page` in a fresh frame and returns it pinned AND latched
/// exclusive. The mapping is published *before* the page image is valid —
/// the exclusive latch (held across the disk read) is what makes that
/// safe: concurrent fixers find the mapping, pin, and queue on the latch
/// until the image is ready. Publishing first closes the stale-read race:
/// with read-then-publish, a page could be brought in, dirtied and be
/// mid-write-back by other threads while this thread still held a
/// pre-cycle image from the volume — installing it would lose those
/// updates.
Result<int> BufferPool::HandleMiss(PageNum page, bool read_from_disk) {
  SHOREMT_ASSIGN_OR_RETURN(int frame, AllocateFrame());
  Frame& f = frames_[frame];
  // The frame arrives from AllocateFrame latched EXCLUSIVE (held since the
  // claim). Publish: pin first so the frame is never observable evictable;
  // the latch held across the disk read is what queues concurrent fixers
  // and fails concurrent optimistic stamps.
  f.pins.store(1, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.rec_lsn.store(0, std::memory_order_relaxed);
  f.referenced.store(true, std::memory_order_relaxed);
  f.page.store(page, std::memory_order_release);
  if (!table_->Insert(page, frame)) {
    // Another thread brought the page in first; yield our copy. fetch_sub
    // (not a store of 0) so a transient optimistic pin from a stale
    // lookup can never be clobbered into an underflow.
    f.page.store(kInvalidPageNum, std::memory_order_relaxed);
    f.latch.ReleaseExclusive();
    if (f.pins.fetch_sub(1, std::memory_order_release) == 1) {
      free_frames_.Push(static_cast<uint32_t>(frame));
    }
    return Status::Busy("lost page-in race");
  }
  if (read_from_disk) {
    // Any in-flight write-back of this page (in-transit-out entries are
    // registered before the eviction unmaps the page, so they are visible
    // to whoever inserts the successor mapping) must land before the
    // volume image is current.
    in_transit_.WaitUntilClear(page);
    io::RetryPolicy policy{options_.io.max_retries,
                           options_.io.retry_initial_backoff_ns,
                           options_.io.retry_max_backoff_ns};
    Status st = io::RetryTransient(
        volume_, policy,
        [&] { return volume_->ReadPage(page, FrameData(frame)); });
    if (st.ok() && !page::VerifyPageChecksum(FrameData(frame))) {
      // The device delivered the bytes but they are not the bytes that
      // were written (bit rot, torn write): rebuild from the archive +
      // log when a repairer is wired, else fail loudly as Corruption —
      // never hand out a damaged image. Safe to repair in place: we hold
      // the published mapping and the exclusive latch.
      st = TryRepairPage(page, FrameData(frame));
    }
    if (st.ok() &&
        prefetch_error_count_.load(std::memory_order_acquire) != 0) {
      // A stale recorded prefetch failure for this page is obsolete now
      // that a fresh read succeeded; drop it so it can't fail a future fix.
      (void)TakePrefetchError(page);
    }
    if (!st.ok()) {
      table_->EraseIf(page, [](int) { return true; });
      f.page.store(kInvalidPageNum, std::memory_order_relaxed);
      f.latch.ReleaseExclusive();
      // A fixer may have pinned through the short-lived mapping; only
      // reuse the frame if this was the sole pin (otherwise it is
      // sacrificed — a corrupt-volume path not worth a use-after-free).
      if (f.pins.fetch_sub(1, std::memory_order_release) == 1) {
        free_frames_.Push(static_cast<uint32_t>(frame));
      }
      return st;
    }
  } else {
    // New page: hand out a deterministic all-zero image. The frame (or
    // the arena itself, after a manager restart in the same process) may
    // hold a stale page whose header still validates — recovery's
    // page-LSN idempotence checks must never be fooled by such garbage
    // into keeping uncommitted bytes.
    std::memset(FrameData(frame), 0, kPageSize);
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  return frame;
}

Result<int> BufferPool::AllocateFrame() {
  if (auto idx = free_frames_.Pop()) {
    // Uncontended: free frames are unlatched (released before every Push).
    frames_[*idx].latch.AcquireExclusive();
    return static_cast<int>(*idx);
  }

  const size_t n = frames_.size();
  const bool early_release = options_.release_clock_hand_early;
  clock_lock_.lock();
  for (size_t step = 0; step < 3 * n; ++step) {
    size_t h = clock_hand_.fetch_add(1, std::memory_order_relaxed) % n;
    Frame& f = frames_[h];
    PageNum victim = f.page.load(std::memory_order_acquire);
    if (victim == kInvalidPageNum) continue;
    if (f.pins.load(std::memory_order_acquire) != 0) continue;
    if (f.referenced.exchange(false, std::memory_order_acq_rel)) {
      continue;  // Second chance.
    }
    // Take the frame latch exclusive BEFORE claiming the mapping, and keep
    // it until the successor image is published (HandleMiss's read lands /
    // FinishPrefetch installs). This is what makes optimistic readers
    // safe against recycling: a reader that stamped this frame for its old
    // occupant either observes the exclusive bit (invalid stamp) or fails
    // Validate() on the version bump at release — it can never validate
    // the half-overwritten successor bytes. TryAcquire, not Acquire: a
    // latched frame (cleaner write-back, late fixer) is simply not a
    // victim this lap.
    if (!f.latch.TryAcquire(sync::LatchMode::kExclusive)) continue;
    // Candidate found. Shore-MT releases the hand before the (possibly
    // slow) eviction so other misses can search in parallel (§7.6).
    if (early_release) clock_lock_.unlock();

    // Announce in-transit-out BEFORE claiming the mapping. A reader that
    // misses because the claim just erased the mapping must observe this
    // entry and wait for the write-back; announcing after the claim left
    // a window where the reader re-read the page's stale volume image
    // while the dirty copy was still in flight (lost updates). The frame
    // cannot be checked for dirtiness yet — that is only stable once the
    // claim has verified pins == 0 — so clean evictions transit too,
    // briefly.
    in_transit_.Add(victim);
    bool claimed = table_->EraseIf(victim, [&](int mapped) {
      // All three legs matter: the mapping must still target THIS frame
      // (the page may have been evicted and re-read into another frame
      // while we held a stale candidate — erasing would orphan the live
      // copy), the frame must be unpinned, and it must still hold the
      // victim.
      return mapped == static_cast<int>(h) &&
             f.pins.load(std::memory_order_relaxed) == 0 &&
             f.page.load(std::memory_order_relaxed) == victim;
    });
    if (claimed) {
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
      Status st = Status::Ok();
      if (f.dirty.load(std::memory_order_acquire)) {
        st = WriteBack(static_cast<int>(h), victim);
        stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
        // Drop the dirty-page table entry BEFORE clearing in-transit: a
        // re-read of this page (which waits on the transit entry) may
        // re-dirty it and insert a fresh DPT entry we must not erase. On
        // write-back failure the entry is kept — conservative, the redo
        // bound must still cover the lost write.
        if (st.ok()) dpt_.Erase(victim);
      }
      in_transit_.Remove(victim);
      if (!early_release) clock_lock_.unlock();
      if (!st.ok()) {
        // Write-back failed: the mapping is gone; surface the error and
        // leave the frame free (its contents are still intact on failure
        // but the page image can be re-read from the log/volume).
        f.latch.ReleaseExclusive();
        free_frames_.Push(static_cast<uint32_t>(h));
        return st;
      }
      f.page.store(kInvalidPageNum, std::memory_order_relaxed);
      f.dirty.store(false, std::memory_order_relaxed);
      f.rec_lsn.store(0, std::memory_order_relaxed);
      // Still latched exclusive — the caller publishes the new image and
      // releases (bumping the version past every stale optimistic stamp).
      return static_cast<int>(h);
    }
    f.latch.ReleaseExclusive();  // Claim lost: the occupant stays.
    in_transit_.Remove(victim);  // Nothing is in transit.
    if (early_release) clock_lock_.lock();
  }
  clock_lock_.unlock();
  return Status::Busy("no evictable frame found");
}

Status BufferPool::WriteBack(int frame, PageNum page) {
  if (log_flush_) {
    Lsn page_lsn{page::HeaderOf(FrameData(frame))->page_lsn};
    SHOREMT_RETURN_NOT_OK(log_flush_(page_lsn));  // WAL: log first.
  }
  // Stamp the image's checksum immediately before it leaves the pool (the
  // caller guarantees a stable image: eviction owns the claimed frame,
  // FlushPage holds the shared latch; the checksum word itself is written
  // through an atomic so concurrent stampers of an identical image are
  // benign).
  page::StampPageChecksum(FrameData(frame));
  // Route through the async spine like every other write-back so the one
  // retry/accounting/fault-injection choke point covers synchronous
  // evictions too; a one-page ring drain is the synchronous submit.
  auto ring = io_->CreateRing();
  ring->QueueWrite(page, FrameData(frame));
  ring->Submit();
  return ring->Drain();
}

Status BufferPool::FlushPage(PageNum page) {
  int frame = table_->FindAndPin(page, [&](int f) {
    frames_[f].pins.fetch_add(1, std::memory_order_acquire);
  });
  if (frame < 0) return Status::Ok();  // Not cached: nothing to do.
  Frame& f = frames_[frame];
  f.latch.AcquireShared();
  Status st = Status::Ok();
  if (f.dirty.load(std::memory_order_acquire)) {
    st = WriteBack(frame, page);
    if (st.ok()) {
      f.dirty.store(false, std::memory_order_release);
      f.rec_lsn.store(0, std::memory_order_relaxed);
      dpt_.Erase(page);
    }
  }
  f.latch.ReleaseShared();
  f.Unpin();
  return st;
}

Status BufferPool::FlushAll() {
  for (Frame& f : frames_) {
    PageNum page = f.page.load(std::memory_order_acquire);
    if (page == kInvalidPageNum) continue;
    if (!f.dirty.load(std::memory_order_acquire)) continue;
    SHOREMT_RETURN_NOT_OK(FlushPage(page));
  }
  return Status::Ok();
}

Lsn BufferPool::ScanMinRecLsn() const {
  uint64_t min_lsn = 0;
  for (const Frame& f : frames_) {
    if (f.page.load(std::memory_order_acquire) == kInvalidPageNum) continue;
    if (!f.dirty.load(std::memory_order_acquire)) continue;
    uint64_t r = f.rec_lsn.load(std::memory_order_acquire);
    if (r != 0 && (min_lsn == 0 || r < min_lsn)) min_lsn = r;
  }
  return Lsn{min_lsn};
}

Status BufferPool::CleanerPass(size_t max_pages) {
  stats_.cleaner_sweeps.fetch_add(1, std::memory_order_relaxed);

  // Gather phase. Oldest-first: writing back the pages that pin the
  // minimum rec_lsn is what advances the redo low-water mark (and the log
  // recycle horizon). Every page is claimed non-blockingly — TryAcquire
  // because the cleaner ends up holding many latches at once and must
  // never block on one (a fixer holding this page exclusive may itself be
  // waiting on a latch the cleaner already gathered), and TryAdd because
  // an eviction may already have the page in transit. The cleaner's pins
  // are not uses of the page: they leave the CLOCK reference bit alone,
  // or every page it writes would look hot to eviction and to the
  // horizon rule.
  //
  // Horizon rule (checkpoint-age flushing), for an incremental pass in a
  // pool with a redo budget: a page is written only when its rec_lsn is
  // older than durable − budget, when the CLOCK hand has cleared its
  // reference bit since its last use (eviction is coming for it), or when
  // more than a quarter of the frames are dirty. Anchored at the log, not
  // at the dirty-page table: a hot set that never cleans would freeze a
  // DPT-relative anchor, and the log would never recycle. Without the
  // rule, a pass takes the `max_pages` oldest pages as they come.
  const bool select = max_pages != 0 && redo_budget_ != 0;
  uint64_t horizon = 0;
  bool crowded = true;
  if (select) {
    uint64_t durable = durable_lsn_().value;
    horizon = durable > redo_budget_ ? durable - redo_budget_ : 0;
    crowded = dpt_.size() > frames_.size() / 4;
  }
  const size_t limit = max_pages == 0 ? SIZE_MAX : max_pages;
  struct Gathered {
    PageNum page;
    int frame;
  };
  std::vector<Gathered> batch;
  // Pins, latches and claims one dirty page for the batch; `cold_only`
  // passes over a page whose reference bit is set.
  auto gather = [&](const DirtyPageTable::Entry& e, bool cold_only) {
    if (cold_only) {
      // Most pages a cold-only scan meets are hot. A lock-free peek skips
      // them without the table lock or a pin on a frame the evictor may
      // be about to take; a stale peek only leaves a page for a later
      // pass, and a page that looks cold is checked again once pinned.
      int peek = table_->FindOptimistic(e.page);
      if (peek >= 0 &&
          frames_[peek].page.load(std::memory_order_acquire) == e.page &&
          frames_[peek].referenced.load(std::memory_order_relaxed)) {
        return;
      }
    }
    // Pin through the locked path so eviction cannot race us.
    int frame = table_->FindAndPin(e.page, [&](int fr) {
      frames_[fr].pins.fetch_add(1, std::memory_order_acquire);
    });
    if (frame < 0) return;  // Evicted (and thus written) meanwhile.
    Frame& pf = frames_[frame];
    if (cold_only && pf.referenced.load(std::memory_order_relaxed)) {
      pf.UnpinUntouched();  // Hot and inside the budget: not yet.
      return;
    }
    if (!pf.latch.TryAcquire(sync::LatchMode::kShared)) {
      pf.UnpinUntouched();  // Contended: the next pass will retry it.
      return;
    }
    if (pf.page.load(std::memory_order_acquire) != e.page ||
        !pf.dirty.load(std::memory_order_acquire) ||
        !in_transit_.TryAdd(e.page)) {
      pf.latch.ReleaseShared();
      pf.UnpinUntouched();
      return;
    }
    batch.push_back({e.page, frame});
  };
  // Offers the dirty pages from rec_lsn `from` on, oldest first, until
  // the batch is full, `n` pages were offered, or one at `end` or later
  // comes up. The table is read a chunk at a time, so MarkDirty's
  // first-dirty insert never waits behind a copy of the whole table.
  // Returns the rec_lsn to resume at, or 0 once the walk ran off the end.
  auto walk = [&](uint64_t from, uint64_t end, size_t n, bool cold_only) {
    constexpr size_t kWalkChunk = 64;
    while (batch.size() < limit && n > 0) {
      std::vector<DirtyPageTable::Entry> chunk =
          dpt_.OldestPages(std::min(kWalkChunk, n), from);
      if (chunk.empty()) return uint64_t{0};
      for (const DirtyPageTable::Entry& e : chunk) {
        if (e.rec_lsn >= end || batch.size() >= limit || n == 0) {
          return e.rec_lsn;
        }
        --n;
        gather(e, cold_only);
        from = e.rec_lsn + 1;
      }
    }
    return from;
  };
  if (!select || crowded) {
    walk(0, UINT64_MAX, limit, /*cold_only=*/false);
  } else {
    // Everything behind the horizon, then a bounded look at the younger
    // pages for ones the clock has passed. That look resumes where the
    // last pass left off, so a hot set at the front of the table costs
    // each pass a fixed scan, not one lookup per dirty page.
    constexpr size_t kColdScan = 128;
    walk(0, horizon, SIZE_MAX, /*cold_only=*/false);
    uint64_t from =
        std::max(horizon, cold_scan_from_.load(std::memory_order_relaxed));
    cold_scan_from_.store(walk(from, UINT64_MAX, kColdScan, true),
                          std::memory_order_relaxed);
  }
  if (batch.empty()) return Status::Ok();

  // Page-id order maximizes adjacent runs for the ring's coalescing.
  std::sort(batch.begin(), batch.end(),
            [](const Gathered& a, const Gathered& b) {
              return a.page < b.page;
            });

  // WAL once for the whole batch: a single flush to the max page LSN
  // covers every member (this replaces one flush per page).
  uint64_t batch_max_lsn = 0;
  for (const Gathered& g : batch) {
    batch_max_lsn = std::max(batch_max_lsn,
                             page::HeaderOf(FrameData(g.frame))->page_lsn);
  }
  if (log_flush_) {
    Status st = log_flush_(Lsn{batch_max_lsn});
    if (!st.ok()) {
      // Nothing was submitted: unwind every claim and report.
      for (const Gathered& g : batch) {
        in_transit_.Remove(g.page);
        frames_[g.frame].latch.ReleaseShared();
        frames_[g.frame].UnpinUntouched();
      }
      return st;
    }
  }

  // Submit the batch as coalesced vectored writes; each page's completion
  // (on the I/O worker) clears its dirty state and releases its claim, so
  // fixers blocked on a latch or the transit entry resume as soon as THAT
  // page lands, not when the whole batch drains. DPT erase precedes the
  // transit remove — a re-read waiting on the entry may re-dirty the page
  // and insert a fresh DPT record we must not clobber (same rule as the
  // eviction path).
  auto ring = io_->CreateRing();
  for (const Gathered& g : batch) {
    PageNum page = g.page;
    int frame = g.frame;
    // Fresh checksum over the image the device will see (stable under the
    // shared latch held since the gather).
    page::StampPageChecksum(FrameData(frame));
    ring->QueueWrite(page, FrameData(frame),
                     [this, page, frame](PageNum, Status st) {
                       Frame& pf = frames_[frame];
                       if (st.ok()) {
                         // Counted before the DPT erase: whoever sees the
                         // page leave the table also sees the write.
                         stats_.cleaner_writes.fetch_add(
                             1, std::memory_order_relaxed);
                         pf.dirty.store(false, std::memory_order_release);
                         pf.rec_lsn.store(0, std::memory_order_relaxed);
                         dpt_.Erase(page);
                       }
                       in_transit_.Remove(page);
                       pf.latch.ReleaseShared();
                       pf.UnpinUntouched();
                     });
  }
  ring->Submit();
  // Drain keeps the pass synchronous from the daemon's point of view
  // (the next wake-up starts from a settled dirty-page table) and blocks
  // until every callback has run.
  Status st = ring->Drain();
  stats_.cleaner_batches.fetch_add(1, std::memory_order_relaxed);
  return st;
}

size_t BufferPool::PrefetchPages(std::span<const PageNum> pages) {
  if (options_.prefetch_window == 0) return 0;
  size_t issued = 0;
  for (PageNum page : pages) {
    if (page == kInvalidPageNum) continue;
    if (prefetch_inflight_.load(std::memory_order_relaxed) >=
        options_.prefetch_window) {
      stats_.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (table_->FindOptimistic(page) >= 0) continue;  // Already resident.
    // Claim the page's device image. The entry makes concurrent fixers
    // wait (FixPage's miss path) instead of double-reading, and excludes
    // a concurrent prefetch of the same page.
    if (!in_transit_.TryAdd(page)) continue;
    // Recheck under the claim: a fixer that probed before our TryAdd may
    // have installed the mapping already (it could not AFTER the claim —
    // its miss path waits on the entry).
    if (table_->FindOptimistic(page) >= 0) {
      in_transit_.Remove(page);
      continue;
    }
    auto fr = AllocateFrame();
    if (!fr.ok()) {
      in_transit_.Remove(page);
      stats_.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;  // No evictable frame: shed, don't block a scan on this.
    }
    int frame = *fr;
    prefetch_inflight_.fetch_add(1, std::memory_order_relaxed);
    Status st = io_->TrySubmitDetached(
        io::IoOpKind::kRead, page, FrameData(frame),
        [this, frame](PageNum p, Status s) { FinishPrefetch(frame, p, s); });
    if (!st.ok()) {
      // Slots exhausted: undo the claim and recycle the frame (released
      // first — free frames are unlatched by invariant).
      prefetch_inflight_.fetch_sub(1, std::memory_order_relaxed);
      in_transit_.Remove(page);
      frames_[frame].latch.ReleaseExclusive();
      free_frames_.Push(static_cast<uint32_t>(frame));
      stats_.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    stats_.prefetch_issued.fetch_add(1, std::memory_order_relaxed);
    ++issued;
  }
  return issued;
}

void BufferPool::FinishPrefetch(int frame, PageNum page, Status st) {
  Frame& f = frames_[frame];
  bool installed = false;
  if (st.ok() && !page::VerifyPageChecksum(FrameData(frame))) {
    // Damaged image off the device. Repair must not run here — worker
    // callbacks may not block on more I/O — so just refuse to install:
    // the fixer's synchronous miss path re-reads, re-detects, and runs
    // the repairer in thread context. Count the detection, not an error.
    stats_.checksum_failures.fetch_add(1, std::memory_order_relaxed);
    st = Status::Corruption("prefetched page failed checksum");
    // Deliberately NOT recorded in prefetch_errors_: the sync path can
    // still repair this page, so no waiter should fail on it.
  } else if (!st.ok()) {
    // A real device error that survived the worker-side retry budget:
    // park it for the fixer that waited on the in-transit entry, so the
    // failure reaches the thread that wanted the page instead of being
    // silently replayed as a second device read. Bounded map — under
    // pathological storms the oldest errors just age out via consumption
    // or the cap, and the fix falls back to its own read.
    stats_.prefetch_errors.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> guard(prefetch_err_mutex_);
    if (prefetch_errors_.size() < 128) {
      prefetch_errors_.emplace(page, st);
      prefetch_error_count_.store(prefetch_errors_.size(),
                                  std::memory_order_release);
    }
  }
  if (st.ok()) {
    // Publish unpinned: the image is complete (this runs after the device
    // call), so the first fixer pins an ordinary hit.
    f.pins.store(0, std::memory_order_relaxed);
    f.dirty.store(false, std::memory_order_relaxed);
    f.rec_lsn.store(0, std::memory_order_relaxed);
    f.referenced.store(true, std::memory_order_relaxed);
    f.page.store(page, std::memory_order_release);
    if (table_->Insert(page, frame)) {
      installed = true;
      stats_.prefetch_installed.fetch_add(1, std::memory_order_relaxed);
    } else {
      // A NewPage of a recycled page id won the table; yield our copy.
      f.page.store(kInvalidPageNum, std::memory_order_relaxed);
    }
  }
  // Drop the exclusive hold taken at claim time (AllocateFrame); the
  // version bump fails any optimistic stamp that straddled the device
  // read into this frame. Released before the Push: free frames are
  // unlatched by invariant.
  f.latch.ReleaseExclusive();
  if (!installed) free_frames_.Push(static_cast<uint32_t>(frame));
  // Clear the claim LAST: waiters re-probe and now find the mapping.
  in_transit_.Remove(page);
  prefetch_inflight_.fetch_sub(1, std::memory_order_relaxed);
}

Status BufferPool::ScrubPass(size_t max_pages) {
  if (max_pages == 0) return Status::Ok();
  PageNum end = volume_->NumPages();
  if (end <= 1) return Status::Ok();
  // Private aligned scratch: the scrubber never reads into pool frames
  // (a cold page must stay cold — verifying it should not evict anything)
  // and FileVolume may be running O_DIRECT.
  std::unique_ptr<uint8_t[], FreeDeleter> scratch(
      static_cast<uint8_t*>(std::aligned_alloc(4096, kPageSize)));
  io::RetryPolicy policy{options_.io.max_retries,
                         options_.io.retry_initial_backoff_ns,
                         options_.io.retry_max_backoff_ns};
  Status first_error = Status::Ok();
  size_t verified = 0;
  PageNum cursor = scrub_cursor_.load(std::memory_order_relaxed);
  // `max_pages` bounds the device reads per pass — together with the
  // daemon interval that is the scrubber's I/O rate limit. One lap of the
  // volume bounds the walk when everything is resident or in transit.
  for (PageNum steps = 0; steps < end && verified < max_pages; ++steps) {
    if (cursor == kInvalidPageNum || cursor >= end) cursor = 1;
    PageNum page = cursor++;
    // Resident pages are skipped: their media image is refreshed (with a
    // new checksum) by the next write-back, and the frame copy is
    // authoritative anyway.
    if (table_->FindOptimistic(page) >= 0) continue;
    // Claim the device image so a concurrent fix/prefetch/eviction of the
    // same page waits instead of racing the scrub read (same protocol as
    // prefetch). Busy pages are simply skipped this lap.
    if (!in_transit_.TryAdd(page)) continue;
    if (table_->FindOptimistic(page) >= 0) {
      in_transit_.Remove(page);  // Became resident before the claim.
      continue;
    }
    Status st = io::RetryTransient(volume_, policy, [&] {
      return volume_->ReadPage(page, scratch.get());
    });
    if (st.ok()) {
      ++verified;
      stats_.scrub_pages.fetch_add(1, std::memory_order_relaxed);
      if (!page::VerifyPageChecksum(scratch.get())) {
        st = TryRepairPage(page, scratch.get());
      }
    }
    if (!st.ok() && first_error.ok()) first_error = st;
    in_transit_.Remove(page);
  }
  scrub_cursor_.store(cursor, std::memory_order_relaxed);
  return first_error;
}

void BufferPool::UnfixInternal(int frame, sync::LatchMode mode) {
  Frame& f = frames_[frame];
  f.latch.Release(mode);
  f.Unpin();
}

}  // namespace shoremt::buffer
