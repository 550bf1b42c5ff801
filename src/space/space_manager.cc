#include "space/space_manager.h"

#include <algorithm>
#include <bit>
#include <string>

namespace shoremt::space {

namespace {

std::atomic<uint64_t> g_next_instance_id{1};

/// Thread-local extent→store cache, direct-mapped by extent id. Entries
/// are tagged with the owning SpaceManager instance so manager teardown
/// invalidates them implicitly; an extent's owner never changes, so
/// nothing else can make an entry stale.
struct ExtentCacheEntry {
  uint64_t instance = 0;
  ExtentId extent = 0;
  StoreId store = kInvalidStoreId;
  bool valid = false;
};
constexpr size_t kExtentCacheSlots = 16;
thread_local ExtentCacheEntry t_extent_cache[kExtentCacheSlots];

}  // namespace

SpaceManager::SpaceManager(io::Volume* volume, SpaceOptions options)
    : volume_(volume),
      options_(options),
      mutex_stats_("space.mutex"),
      space_mutex_(options.mutex_kind, &mutex_stats_),
      instance_id_(g_next_instance_id.fetch_add(1)) {
  sync::SyncStatsRegistry::Instance().Register(&mutex_stats_);
  // Page 0 is the volume header; reserve extent 0 so data never lands
  // there (keeps PageNum 0 == invalid).
  extents_.push_back(ExtentEntry{kInvalidStoreId, 0xff});
}

SpaceManager::~SpaceManager() {
  sync::SyncStatsRegistry::Instance().Unregister(&mutex_stats_);
}

Status SpaceManager::CreateStore(StoreId store) {
  if (store == kInvalidStoreId) {
    return Status::InvalidArgument("store id 0 is reserved");
  }
  sync::ConfigurableMutex::Guard guard(space_mutex_);
  if (stores_.contains(store)) {
    return Status::AlreadyExists("store exists");
  }
  stores_.try_emplace(store);
  return Status::Ok();
}

bool SpaceManager::StoreExists(StoreId store) const {
  sync::ConfigurableMutex::Guard guard(space_mutex_);
  return stores_.contains(store);
}

Result<PageNum> SpaceManager::AllocateLocked(StoreId store) {
  auto it = stores_.find(store);
  if (it == stores_.end()) return Status::NotFound("no such store");
  std::vector<ExtentId>& mine = it->second;

  // Fill the last extent before grabbing another (Shore's pattern).
  if (!mine.empty()) {
    ExtentEntry& e = extents_[mine.back()];
    if (e.alloc_bitmap != 0xff) {
      uint32_t i = std::countr_one(e.alloc_bitmap);
      e.alloc_bitmap |= 1u << i;
      return mine.back() * kPagesPerExtent + i;
    }
  }

  // Need a new extent: the next one past the end of the map.
  ExtentId extent = extents_.size();
  extents_.push_back(ExtentEntry{store, 0x01});
  mine.push_back(extent);
  SHOREMT_RETURN_NOT_OK(CoverExtent(extent));
  return extent * kPagesPerExtent;
}

Status SpaceManager::CoverExtent(ExtentId extent) {
  PageNum needed = (extent + 1) * kPagesPerExtent;
  if (volume_->NumPages() < needed) return volume_->Extend(needed);
  return Status::Ok();
}

Result<PageNum> SpaceManager::AllocatePage(StoreId store,
                                           const PageInitFn& init) {
  stats_.pages_allocated.fetch_add(1, std::memory_order_relaxed);
  if (options_.refactored_alloc) {
    // Shore-MT path: allocate under the mutex, initialize after release.
    PageNum page;
    {
      sync::ConfigurableMutex::Guard guard(space_mutex_);
      auto r = AllocateLocked(store);
      if (!r.ok()) return r.status();
      page = *r;
    }
    if (init) SHOREMT_RETURN_NOT_OK(init(page));
    return page;
  }
  // Original Shore path: the page latch (and possibly I/O) happens while
  // the allocation mutex is held, serializing every other allocator.
  sync::ConfigurableMutex::Guard guard(space_mutex_);
  auto r = AllocateLocked(store);
  if (!r.ok()) return r.status();
  if (init) SHOREMT_RETURN_NOT_OK(init(*r));
  return *r;
}

bool SpaceManager::CacheLookup(ExtentId extent, StoreId* store) const {
  const ExtentCacheEntry& e = t_extent_cache[extent % kExtentCacheSlots];
  if (e.valid && e.instance == instance_id_ && e.extent == extent) {
    *store = e.store;
    return true;
  }
  return false;
}

void SpaceManager::CacheInsert(ExtentId extent, StoreId store) const {
  ExtentCacheEntry& e = t_extent_cache[extent % kExtentCacheSlots];
  e.instance = instance_id_;
  e.extent = extent;
  e.store = store;
  e.valid = true;
}

Result<StoreId> SpaceManager::OwnerOf(PageNum page) {
  stats_.ownership_checks.fetch_add(1, std::memory_order_relaxed);
  ExtentId extent = ExtentOf(page);

  if (options_.extent_cache) {
    StoreId cached;
    if (CacheLookup(extent, &cached)) {
      stats_.ownership_cache_hits.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
  }

  StoreId owner = kInvalidStoreId;
  {
    sync::ConfigurableMutex::Guard guard(space_mutex_);
    if (extent >= extents_.size()) return Status::NotFound("bad page");
    if (options_.full_scan_ownership) {
      // Original Shore: walk the allocation tables looking for the extent
      // (logical logging forces a re-verification on every insert).
      for (ExtentId e = 0; e < extents_.size(); ++e) {
        if (e == extent) {
          owner = extents_[e].owner;
          break;
        }
      }
    } else {
      owner = extents_[extent].owner;
    }
    uint32_t bit = 1u << (page % kPagesPerExtent);
    if (owner == kInvalidStoreId ||
        (extents_[extent].alloc_bitmap & bit) == 0) {
      return Status::NotFound("page not allocated");
    }
  }
  if (options_.extent_cache) CacheInsert(extent, owner);
  return owner;
}

Result<PageNum> SpaceManager::LastPageOf(StoreId store) {
  stats_.last_page_lookups.fetch_add(1, std::memory_order_relaxed);
  sync::ConfigurableMutex::Guard guard(space_mutex_);
  auto it = stores_.find(store);
  if (it == stores_.end()) return Status::NotFound("no such store");
  const std::vector<ExtentId>& mine = it->second;
  if (mine.empty()) return Status::NotFound("store has no pages");
  if (options_.last_page_cache) {
    uint8_t bits = extents_[mine.back()].alloc_bitmap;
    return mine.back() * kPagesPerExtent + std::bit_width(bits) - 1;
  }
  // Walk the page chain to its end — O(pages) per lookup, O(n^2) per load
  // (§7.6's "searching a linked list of pages to find the last").
  PageNum last = kInvalidPageNum;
  for (ExtentId x : mine) {
    for (uint32_t i = 0; i < kPagesPerExtent; ++i) {
      if ((extents_[x].alloc_bitmap & (1u << i)) == 0) continue;
      stats_.last_page_scan_steps.fetch_add(1, std::memory_order_relaxed);
      last = x * kPagesPerExtent + i;
    }
  }
  return last;
}

Result<uint64_t> SpaceManager::PageCountOf(StoreId store) const {
  sync::ConfigurableMutex::Guard guard(space_mutex_);
  auto it = stores_.find(store);
  if (it == stores_.end()) return Status::NotFound("no such store");
  uint64_t count = 0;
  for (ExtentId x : it->second) {
    count += std::popcount(extents_[x].alloc_bitmap);
  }
  return count;
}

Status SpaceManager::ApplyCreateStore(StoreId store) {
  sync::ConfigurableMutex::Guard guard(space_mutex_);
  stores_.try_emplace(store);
  return Status::Ok();
}

Status SpaceManager::ApplyExtent(ExtentId extent, ExtentEntry entry) {
  sync::ConfigurableMutex::Guard guard(space_mutex_);
  if (extent == 0 || entry.owner == kInvalidStoreId ||
      entry.alloc_bitmap == 0) {
    return Status::Corruption("invalid space map entry for extent " +
                              std::to_string(extent));
  }
  if (extents_.size() <= extent) extents_.resize(extent + 1);
  ExtentEntry& e = extents_[extent];
  if (e.owner == kInvalidStoreId) {
    e.owner = entry.owner;
    std::vector<ExtentId>& mine = stores_[entry.owner];
    mine.insert(std::upper_bound(mine.begin(), mine.end(), extent), extent);
  } else if (e.owner != entry.owner) {
    return Status::Corruption("extent " + std::to_string(extent) +
                              " owned by another store");
  }
  e.alloc_bitmap |= entry.alloc_bitmap;
  return CoverExtent(extent);
}

void SpaceManager::Snapshot(std::vector<StoreId>* stores,
                            std::vector<ExtentEntry>* extents) const {
  sync::ConfigurableMutex::Guard guard(space_mutex_);
  stores->clear();
  for (const auto& entry : stores_) stores->push_back(entry.first);
  *extents = extents_;
}

}  // namespace shoremt::space
