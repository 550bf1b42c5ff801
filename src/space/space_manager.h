#ifndef SHOREMT_SPACE_SPACE_MANAGER_H_
#define SHOREMT_SPACE_SPACE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "io/volume.h"
#include "sync/configurable_mutex.h"
#include "sync/sync_stats.h"

namespace shoremt::space {

/// Tuning knobs for the free space manager. The defaults are the Shore-MT
/// "final" configuration; the baseline presets in sm/options.h flip these
/// back to reproduce each optimization stage (§6.2.2, §7.3, §7.6, §7.7).
struct SpaceOptions {
  /// Mutex protecting the allocation tables (the Figure 6 sweep).
  sync::MutexKind mutex_kind = sync::MutexKind::kMcs;
  /// If true, the page-initialization callback passed to AllocatePage runs
  /// *after* the allocation mutex is released (the Figure 6 "Refactor"); if
  /// false it runs inside the critical section, serializing allocations
  /// behind page latch acquisition and possible I/O.
  bool refactored_alloc = true;
  /// Thread-local cache of recent extent→store lookups; cuts metadata
  /// checks per record insert by >95% (§6.2.2 problem 1).
  bool extent_cache = true;
  /// Per-store O(1) append target (the highest allocated page of the
  /// store's last extent); otherwise finding it walks every page of the
  /// store — the O(n^2) insertion pattern of §7.6.
  bool last_page_cache = true;
  /// Emulates original Shore's logical-logging ownership verification by
  /// scanning the whole extent table instead of indexing into it.
  bool full_scan_ownership = false;
};

/// Counters exposed for benches and the calibration harness.
struct SpaceStats {
  std::atomic<uint64_t> pages_allocated{0};
  std::atomic<uint64_t> ownership_checks{0};
  std::atomic<uint64_t> ownership_cache_hits{0};
  std::atomic<uint64_t> last_page_lookups{0};
  std::atomic<uint64_t> last_page_scan_steps{0};
};

/// Free space and metadata manager (§2.2.6): owns the extent map (which
/// store each 8-page extent belongs to, which pages in it are allocated).
/// Extents are handed out in increasing id order and never come back, and
/// a store fills its last extent lowest page first before taking another,
/// so a store's allocation order, last page and page count all follow from
/// its extents and their bitmaps. The same access pattern makes the
/// thread-local extent cache effective, and because an extent's owner
/// never changes once set, a cached entry can never go stale.
class SpaceManager {
 public:
  /// Runs with the new page number before the allocation is published;
  /// typically fixes the page in the buffer pool and formats it.
  using PageInitFn = std::function<Status(PageNum)>;

  SpaceManager(io::Volume* volume, SpaceOptions options);
  ~SpaceManager();

  SpaceManager(const SpaceManager&) = delete;
  SpaceManager& operator=(const SpaceManager&) = delete;

  /// Registers a store. Fails with AlreadyExists if present.
  Status CreateStore(StoreId store);
  bool StoreExists(StoreId store) const;

  /// Allocates one page for `store`, growing the volume when needed, and
  /// runs `init` on it (inside or outside the critical section depending
  /// on SpaceOptions::refactored_alloc).
  Result<PageNum> AllocatePage(StoreId store, const PageInitFn& init);

  /// Store owning `page` (the per-insert metadata check of §6.2.2).
  Result<StoreId> OwnerOf(PageNum page);
  /// The current append target of `store` (last allocated page).
  Result<PageNum> LastPageOf(StoreId store);
  /// Number of pages allocated to `store`.
  Result<uint64_t> PageCountOf(StoreId store) const;

  /// Idempotent redo hooks used by recovery, replica replay and restore
  /// to rebuild the map. ApplyExtent is the one per-extent apply: it ORs
  /// `entry`'s bitmap into `extent`, claims the extent for `entry.owner`
  /// if it is unowned, and grows the volume to cover it. Corruption if
  /// another store owns the extent, or if the entry names extent 0, no
  /// store or no page. A missing store is created: with a recycled log
  /// its kCreateStore record may be gone.
  Status ApplyCreateStore(StoreId store);
  Status ApplyExtent(ExtentId extent, ExtentEntry entry);

  /// Fuzzy copy of the map, taken under the space mutex — the checkpoint
  /// body's space map: every store id (so a store with no pages survives)
  /// and the extent table indexed by extent id. Replaying it through the
  /// Apply hooks reproduces the allocation state without the (possibly
  /// recycled) metadata records.
  void Snapshot(std::vector<StoreId>* stores,
                std::vector<ExtentEntry>* extents) const;

  const SpaceStats& stats() const { return stats_; }
  const SpaceOptions& options() const { return options_; }

 private:
  /// Allocation under space_mutex_.
  Result<PageNum> AllocateLocked(StoreId store);
  /// Extends the volume to cover `extent`.
  Status CoverExtent(ExtentId extent);
  /// Consults/updates the thread-local extent cache.
  bool CacheLookup(ExtentId extent, StoreId* store) const;
  void CacheInsert(ExtentId extent, StoreId store) const;

  io::Volume* volume_;
  SpaceOptions options_;
  sync::SyncStats mutex_stats_;
  mutable sync::ConfigurableMutex space_mutex_;
  /// Indexed by extent id; extent 0 (the volume header) is reserved.
  std::vector<ExtentEntry> extents_;
  /// Store → its extents in ascending order; the last is being filled.
  std::unordered_map<StoreId, std::vector<ExtentId>> stores_;
  SpaceStats stats_;
  /// Distinguishes this instance in the shared thread-local cache.
  const uint64_t instance_id_;
};

}  // namespace shoremt::space

#endif  // SHOREMT_SPACE_SPACE_MANAGER_H_
