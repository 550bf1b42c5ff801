#ifndef SHOREMT_BUFFER_DIRTY_PAGE_TABLE_H_
#define SHOREMT_BUFFER_DIRTY_PAGE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace shoremt::buffer {

/// Explicit dirty-page table (the ARIES DPT): page → rec_lsn of the first
/// record that dirtied its current in-memory incarnation, with the minimum
/// rec_lsn maintained incrementally. This replaces the O(frames)
/// ScanMinRecLsn sweep on the checkpoint path with an O(1) read, and gives
/// the background cleaner its work queue (oldest rec_lsn first — writing
/// those pages back is what advances the redo low-water mark and lets the
/// log recycle segments).
///
/// Entries are maintained at the frame dirty/clean transition points:
/// MarkDirty's 0→lsn rec_lsn CAS inserts; every successful write-back
/// (cleaner, eviction, FlushPage) erases. Both run under the frame latch,
/// so per-page transitions are ordered; this table's own mutex only
/// protects the container. The mutex is uncontended in steady state: a
/// page enters once per dirty lifecycle, not once per update.
class DirtyPageTable {
 public:
  struct Entry {
    PageNum page;
    uint64_t rec_lsn;
  };

  /// Registers `page` first-dirtied at `rec_lsn`; returns the table size
  /// after the insert (the cleaner's dirty-ratio trigger reads it without
  /// a second lock round-trip). Re-inserting an existing page keeps the
  /// older rec_lsn (first-dirty wins).
  size_t Insert(PageNum page, uint64_t rec_lsn) {
    std::lock_guard<std::mutex> guard(mutex_);
    auto [it, inserted] = by_page_.try_emplace(page, rec_lsn);
    if (inserted) by_lsn_[rec_lsn].push_back(page);
    return by_page_.size();
  }

  /// Removes `page` (no-op if absent).
  void Erase(PageNum page) {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = by_page_.find(page);
    if (it == by_page_.end()) return;
    auto lsn_it = by_lsn_.find(it->second);
    auto& pages = lsn_it->second;
    pages.erase(std::find(pages.begin(), pages.end(), page));
    if (pages.empty()) by_lsn_.erase(lsn_it);
    by_page_.erase(it);
  }

  /// Minimum rec_lsn across dirty pages — the redo low-water mark. Null
  /// when no page is dirty.
  Lsn MinRecLsn() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return by_lsn_.empty() ? Lsn::Null() : Lsn{by_lsn_.begin()->first};
  }

  size_t size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return by_page_.size();
  }

  /// The `n` oldest dirty pages with their rec_lsns, from rec_lsn `from`
  /// on (n == 0 → all). Pages sharing the last rec_lsn come whole, even
  /// past `n`, so a walk can resume at the last entry's rec_lsn + 1
  /// without skipping a page. A snapshot — entries may clean or re-dirty
  /// concurrently; callers re-verify under the frame latch.
  std::vector<Entry> OldestPages(size_t n, uint64_t from = 0) const {
    std::lock_guard<std::mutex> guard(mutex_);
    std::vector<Entry> out;
    for (auto it = by_lsn_.lower_bound(from); it != by_lsn_.end(); ++it) {
      if (n != 0 && out.size() >= n) break;
      for (PageNum p : it->second) out.push_back({p, it->first});
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<PageNum, uint64_t> by_page_;
  /// rec_lsn → pages first-dirtied there (several pages can share one
  /// record's end LSN, e.g. both sides of a B+Tree split).
  std::map<uint64_t, std::vector<PageNum>> by_lsn_;
};

}  // namespace shoremt::buffer

#endif  // SHOREMT_BUFFER_DIRTY_PAGE_TABLE_H_
