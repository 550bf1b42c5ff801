#ifndef SHOREMT_LOCK_HEAD_TABLE_H_
#define SHOREMT_LOCK_HEAD_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "lock/lock_id.h"
#include "lock/request_pool.h"

namespace shoremt::lock {

/// The lock state of one object: its granted and waiting requests, as
/// intrusive lists of request-pool indices linked through
/// LockRequest::next. Upgrades queue at the front of `waiting`, fresh
/// requests at the back (`waiting_tail`).
struct LockHead {
  LockId id;
  uint32_t next = kNilIndex;  ///< Bucket chain, or the free list.
  uint32_t granted = kNilIndex;
  uint32_t waiting = kNilIndex;
  uint32_t waiting_tail = kNilIndex;
};

/// One shard's lock heads: fixed-size records in chunked storage, chained
/// from a power-of-two bucket array and recycled through a free list, so
/// a steady workload allocates nothing. A head lives only while some
/// request refers to it, so the shard's request-pool capacity bounds the
/// head count. Storage grows lazily, a chunk at a time, and head addresses
/// stay stable while the table grows (a parked waiter keeps its head).
/// Not thread-safe: the owning shard's latch guards it.
class HeadTable {
 public:
  HeadTable() : buckets_(size_t{1} << kMinBucketBits, kNilIndex) {}

  HeadTable(const HeadTable&) = delete;
  HeadTable& operator=(const HeadTable&) = delete;

  LockHead& operator[](uint32_t idx) {
    return chunks_[idx / kChunk][idx % kChunk];
  }
  const LockHead& operator[](uint32_t idx) const {
    return chunks_[idx / kChunk][idx % kChunk];
  }

  /// The head of `id` (whose LockIdHash is `hash`), or kNilIndex.
  uint32_t Find(const LockId& id, uint64_t hash) const {
    uint32_t h = buckets_[Bucket(hash)];
    while (h != kNilIndex && (*this)[h].id != id) h = (*this)[h].next;
    return h;
  }

  /// The head of `id`, created empty if absent.
  uint32_t FindOrInsert(const LockId& id, uint64_t hash) {
    uint32_t found = Find(id, hash);
    if (found != kNilIndex) return found;
    if (live_ >= buckets_.size()) GrowBuckets();
    if (free_ == kNilIndex) AddChunk();
    uint32_t idx = free_;
    LockHead& head = (*this)[idx];
    free_ = head.next;
    head = LockHead{};
    head.id = id;
    uint32_t& bucket = buckets_[Bucket(hash)];
    head.next = bucket;
    bucket = idx;
    ++live_;
    return idx;
  }

  /// Unlinks and frees head `idx` if no request refers to it any more.
  void EraseIfUnused(uint32_t idx) {
    LockHead& head = (*this)[idx];
    if (head.granted != kNilIndex || head.waiting != kNilIndex) return;
    uint32_t* link = &buckets_[Bucket(LockIdHash()(head.id))];
    while (*link != idx) link = &(*this)[*link].next;
    *link = head.next;
    head.next = free_;
    free_ = idx;
    --live_;
  }

  /// Heads currently in use.
  size_t size() const { return live_; }

 private:
  static constexpr uint32_t kChunk = 256;
  static constexpr int kMinBucketBits = 6;

  /// Bucket of a hash: its Fibonacci-mixed top bits, which do not depend
  /// on the `hash % shards` residue that picked this shard.
  size_t Bucket(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void AddChunk() {
    auto chunk = std::make_unique<LockHead[]>(kChunk);
    uint32_t base = static_cast<uint32_t>(chunks_.size()) * kChunk;
    for (uint32_t i = 0; i < kChunk; ++i) {
      chunk[i].next = i + 1 < kChunk ? base + i + 1 : free_;
    }
    free_ = base;
    chunks_.push_back(std::move(chunk));
  }

  /// Doubles the bucket array (load factor 1) and rechains every head.
  void GrowBuckets() {
    std::vector<uint32_t> old = std::move(buckets_);
    buckets_.assign(old.size() * 2, kNilIndex);
    --shift_;
    for (uint32_t h : old) {
      while (h != kNilIndex) {
        LockHead& head = (*this)[h];
        uint32_t next = head.next;
        uint32_t& bucket = buckets_[Bucket(LockIdHash()(head.id))];
        head.next = bucket;
        bucket = h;
        h = next;
      }
    }
  }

  std::vector<uint32_t> buckets_;
  int shift_ = 64 - kMinBucketBits;  ///< 64 - log2(buckets_.size()).
  std::vector<std::unique_ptr<LockHead[]>> chunks_;
  uint32_t free_ = kNilIndex;
  size_t live_ = 0;
};

}  // namespace shoremt::lock

#endif  // SHOREMT_LOCK_HEAD_TABLE_H_
