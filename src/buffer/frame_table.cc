#include "buffer/frame_table.h"

#include <atomic>
#include <bit>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "sync/spinlock.h"

namespace shoremt::buffer {

namespace {

// ------------------------------------------------------------ baseline ----

/// One std::unordered_map behind one global mutex: original Shore's design
/// ("a single, global mutex that very quickly became contended", §7.2).
class GlobalChainedTable : public FrameTable {
 public:
  explicit GlobalChainedTable(size_t capacity) { map_.reserve(capacity); }

  int FindOptimistic(PageNum /*page*/) const override {
    // No meaningful lock-free path exists for this strategy; fall back to
    // the locked lookup semantics by returning "not found".
    return -1;
  }

  int FindAndPin(PageNum page,
                 const std::function<void(int)>& pin) override {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = map_.find(page);
    if (it == map_.end()) return -1;
    pin(it->second);
    return it->second;
  }

  bool Insert(PageNum page, int frame) override {
    std::lock_guard<std::mutex> guard(mutex_);
    return map_.emplace(page, frame).second;
  }

  bool EraseIf(PageNum page,
               const std::function<bool(int)>& check) override {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = map_.find(page);
    if (it == map_.end() || !check(it->second)) return false;
    map_.erase(it);
    return true;
  }

  size_t Size() const override {
    std::lock_guard<std::mutex> guard(mutex_);
    return map_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<PageNum, int> map_;
};

// ------------------------------------------------------- per-bucket -------

/// Chained hash table with one spinlock per bucket (Shore-MT "bpool 1").
class PerBucketChainedTable : public FrameTable {
 public:
  explicit PerBucketChainedTable(size_t capacity)
      : mask_(std::bit_ceil(capacity * 2) - 1), buckets_(mask_ + 1) {}

  int FindOptimistic(PageNum /*page*/) const override {
    // Bucket chains may be rehoused concurrently; optimistic reads of a
    // std::vector are unsafe, so this strategy has no lock-free path.
    return -1;
  }

  int FindAndPin(PageNum page,
                 const std::function<void(int)>& pin) override {
    Bucket& b = BucketFor(page);
    std::lock_guard<sync::TtasLock> guard(b.lock);
    for (const Entry& e : b.entries) {
      if (e.page == page) {
        pin(e.frame);
        return e.frame;
      }
    }
    return -1;
  }

  bool Insert(PageNum page, int frame) override {
    Bucket& b = BucketFor(page);
    std::lock_guard<sync::TtasLock> guard(b.lock);
    for (const Entry& e : b.entries) {
      if (e.page == page) return false;
    }
    b.entries.push_back({page, frame});
    return true;
  }

  bool EraseIf(PageNum page,
               const std::function<bool(int)>& check) override {
    Bucket& b = BucketFor(page);
    std::lock_guard<sync::TtasLock> guard(b.lock);
    for (size_t i = 0; i < b.entries.size(); ++i) {
      if (b.entries[i].page == page) {
        if (!check(b.entries[i].frame)) return false;
        b.entries[i] = b.entries.back();
        b.entries.pop_back();
        return true;
      }
    }
    return false;
  }

  size_t Size() const override {
    size_t n = 0;
    for (const Bucket& b : buckets_) {
      std::lock_guard<sync::TtasLock> guard(b.lock);
      n += b.entries.size();
    }
    return n;
  }

 private:
  struct Entry {
    PageNum page;
    int frame;
  };
  struct Bucket {
    mutable sync::TtasLock lock;
    std::vector<Entry> entries;
  };

  Bucket& BucketFor(PageNum page) {
    return buckets_[Mix(page) & mask_];
  }
  const Bucket& BucketFor(PageNum page) const {
    return buckets_[Mix(page) & mask_];
  }
  static uint64_t Mix(PageNum page) {
    uint64_t x = page * 0x9e3779b97f4a7c15ULL;
    return x ^ (x >> 32);
  }

  size_t mask_;
  std::vector<Bucket> buckets_;
};

// ------------------------------------------------------------ cuckoo ------

/// 3-ary cuckoo hash table (§6.2.3): three independent multiply-shift hash
/// functions give each page three legal slots; a collision evicts some
/// resident entry into one of its alternates. Searches and updates only
/// interfere when they touch the same slot. Slots are guarded by segment
/// spinlocks (one lock per kSegmentShift slots); relocations bump a global
/// sequence number so synchronized probes can detect "entry moved past me"
/// races and retry.
class CuckooTable : public FrameTable {
 public:
  explicit CuckooTable(size_t capacity)
      : slot_count_(std::bit_ceil(capacity * 2)),
        shift_(64 - static_cast<int>(std::countr_zero(slot_count_))),
        slots_(slot_count_),
        seg_locks_(kSegments) {
    // Three odd multipliers drawn from a fixed-seed generator: this is the
    // "combine universal hash functions" remedy for clustering (§6.2.3
    // footnote 8).
    Rng rng(0xc0ffee);
    for (int i = 0; i < kWays; ++i) mul_[i] = rng.Next() | 1;
  }

  int FindOptimistic(PageNum page) const override {
    for (int w = 0; w < kWays; ++w) {
      const Slot& s = slots_[SlotIndex(page, w)];
      if (s.page.load(std::memory_order_acquire) == page) {
        return s.frame.load(std::memory_order_relaxed);
      }
    }
    if (overflow_in_use_.load(std::memory_order_acquire)) {
      std::lock_guard<sync::TtasLock> guard(overflow_lock_);
      auto it = overflow_.find(page);
      if (it != overflow_.end()) return it->second;
    }
    return -1;
  }

  int FindAndPin(PageNum page,
                 const std::function<void(int)>& pin) override {
    for (;;) {
      uint64_t seq_before = reloc_seq_.load(std::memory_order_acquire);
      for (int w = 0; w < kWays; ++w) {
        size_t idx = SlotIndex(page, w);
        std::lock_guard<sync::TtasLock> guard(LockFor(idx));
        Slot& s = slots_[idx];
        if (s.page.load(std::memory_order_relaxed) == page) {
          int frame = s.frame.load(std::memory_order_relaxed);
          pin(frame);
          return frame;
        }
      }
      if (overflow_in_use_.load(std::memory_order_acquire)) {
        std::lock_guard<sync::TtasLock> guard(overflow_lock_);
        auto it = overflow_.find(page);
        if (it != overflow_.end()) {
          pin(it->second);
          return it->second;
        }
      }
      // A concurrent relocation may have moved the entry from a slot we
      // had not probed yet into one we had already passed; retry.
      if (reloc_seq_.load(std::memory_order_acquire) == seq_before) {
        return -1;
      }
    }
  }

  bool Insert(PageNum page, int frame) override {
    // Inserts are serialized with one lock: they happen only on buffer
    // misses (already I/O-scale events), and this makes the
    // check-absent-then-place sequence atomic against a concurrent insert
    // of the same page. Lookups and erases stay fine-grained.
    std::lock_guard<sync::TtasLock> insert_guard(insert_lock_);
    if (FindSynchronized(page) >= 0) return false;
    TryPlace(page, frame, kMaxKicks);
    return true;
  }

  bool EraseIf(PageNum page,
               const std::function<bool(int)>& check) override {
    for (;;) {
      uint64_t seq_before = reloc_seq_.load(std::memory_order_acquire);
      for (int w = 0; w < kWays; ++w) {
        size_t idx = SlotIndex(page, w);
        std::lock_guard<sync::TtasLock> guard(LockFor(idx));
        Slot& s = slots_[idx];
        if (s.page.load(std::memory_order_relaxed) == page) {
          if (!check(s.frame.load(std::memory_order_relaxed))) return false;
          s.page.store(kInvalidPageNum, std::memory_order_release);
          return true;
        }
      }
      {
        std::lock_guard<sync::TtasLock> guard(overflow_lock_);
        auto it = overflow_.find(page);
        if (it != overflow_.end()) {
          if (!check(it->second)) return false;
          overflow_.erase(it);
          if (overflow_.empty()) {
            overflow_in_use_.store(false, std::memory_order_release);
          }
          return true;
        }
      }
      if (reloc_seq_.load(std::memory_order_acquire) == seq_before) {
        return false;
      }
    }
  }

  size_t Size() const override {
    size_t n = 0;
    for (const Slot& s : slots_) {
      if (s.page.load(std::memory_order_relaxed) != kInvalidPageNum) ++n;
    }
    std::lock_guard<sync::TtasLock> guard(overflow_lock_);
    return n + overflow_.size();
  }

 private:
  static constexpr int kWays = 3;
  static constexpr int kMaxKicks = 32;
  static constexpr size_t kSegments = 1024;

  struct Slot {
    std::atomic<PageNum> page{kInvalidPageNum};
    std::atomic<int> frame{-1};
  };

  size_t SlotIndex(PageNum page, int way) const {
    return (mul_[way] * (page + 1)) >> shift_;
  }
  sync::TtasLock& LockFor(size_t slot_idx) const {
    return seg_locks_[slot_idx % kSegments];
  }

  int FindSynchronized(PageNum page) {
    int found = -1;
    FindAndPin(page, [&](int f) { found = f; });
    return found;
  }

  /// Attempts to place (page, frame), kicking residents along a random
  /// cuckoo path of at most `budget` displacements.
  bool TryPlace(PageNum page, int frame, int budget) {
    Rng rng(page * 0x2545f4914f6cdd1dULL + 1);
    PageNum cur_page = page;
    int cur_frame = frame;
    for (int kick = 0; kick < budget; ++kick) {
      // Try an empty slot among the candidates first.
      for (int w = 0; w < kWays; ++w) {
        size_t idx = SlotIndex(cur_page, w);
        std::lock_guard<sync::TtasLock> guard(LockFor(idx));
        Slot& s = slots_[idx];
        if (s.page.load(std::memory_order_relaxed) == kInvalidPageNum) {
          s.frame.store(cur_frame, std::memory_order_relaxed);
          s.page.store(cur_page, std::memory_order_release);
          if (cur_page != page) {
            reloc_seq_.fetch_add(1, std::memory_order_acq_rel);
          }
          return true;
        }
      }
      // All full: displace a random candidate and adopt its slot.
      int victim_way = static_cast<int>(rng.Uniform(kWays));
      size_t idx = SlotIndex(cur_page, victim_way);
      PageNum displaced_page;
      int displaced_frame;
      {
        std::lock_guard<sync::TtasLock> guard(LockFor(idx));
        Slot& s = slots_[idx];
        displaced_page = s.page.load(std::memory_order_relaxed);
        if (displaced_page == kInvalidPageNum) continue;  // Raced: retry.
        displaced_frame = s.frame.load(std::memory_order_relaxed);
        s.frame.store(cur_frame, std::memory_order_relaxed);
        s.page.store(cur_page, std::memory_order_release);
        reloc_seq_.fetch_add(1, std::memory_order_acq_rel);
      }
      cur_page = displaced_page;
      cur_frame = displaced_frame;
    }
    // Out of budget: the entry left homeless by the last displacement (the
    // original insert landed during the first kick) goes to the overflow
    // map so no mapping is ever lost. The paper instead drops
    // "troublesome" pages outright — legal for a cache, but strict
    // bookkeeping keeps our frame accounting exact.
    std::lock_guard<sync::TtasLock> guard(overflow_lock_);
    overflow_[cur_page] = cur_frame;
    overflow_in_use_.store(true, std::memory_order_release);
    return true;
  }

  size_t slot_count_;
  int shift_;
  uint64_t mul_[kWays];
  std::vector<Slot> slots_;
  mutable std::vector<sync::TtasLock> seg_locks_;
  std::atomic<uint64_t> reloc_seq_{0};
  sync::TtasLock insert_lock_;
  mutable sync::TtasLock overflow_lock_;
  std::unordered_map<PageNum, int> overflow_;
  std::atomic<bool> overflow_in_use_{false};
};

}  // namespace

std::unique_ptr<FrameTable> MakeFrameTable(TableKind kind, size_t capacity) {
  switch (kind) {
    case TableKind::kGlobalChained:
      return std::make_unique<GlobalChainedTable>(capacity);
    case TableKind::kPerBucketChained:
      return std::make_unique<PerBucketChainedTable>(capacity);
    case TableKind::kCuckoo:
      return std::make_unique<CuckooTable>(capacity);
  }
  return nullptr;
}

}  // namespace shoremt::buffer
