#ifndef SHOREMT_COMMON_TYPES_H_
#define SHOREMT_COMMON_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace shoremt {

/// Size of one database page. Shore used 8 KiB pages; we keep the same.
inline constexpr size_t kPageSize = 8192;

/// Pages per extent in the free space manager (Shore allocated 8-page
/// extents and tended to fill one before moving to the next, §6.2.2).
inline constexpr uint32_t kPagesPerExtent = 8;

/// One-based page number within a volume. Page 0 is the volume header.
using PageNum = uint64_t;
inline constexpr PageNum kInvalidPageNum = 0;

/// Identifier of a store (a table or an index) within a volume.
using StoreId = uint32_t;
inline constexpr StoreId kInvalidStoreId = 0;

/// Transaction identifier; monotonically increasing, never reused.
using TxnId = uint64_t;
inline constexpr TxnId kInvalidTxnId = 0;

/// Log sequence number: byte offset into the (conceptually infinite) log.
struct Lsn {
  uint64_t value = 0;

  static constexpr Lsn Null() { return Lsn{0}; }
  static constexpr Lsn Max() {
    return Lsn{std::numeric_limits<uint64_t>::max()};
  }
  bool IsNull() const { return value == 0; }
  friend auto operator<=>(const Lsn&, const Lsn&) = default;
};

/// Record identifier: a page plus a slot index within the page.
struct RecordId {
  PageNum page = kInvalidPageNum;
  uint16_t slot = 0;

  bool IsValid() const { return page != kInvalidPageNum; }
  friend auto operator<=>(const RecordId&, const RecordId&) = default;
};

/// Identifier of an extent (group of kPagesPerExtent consecutive pages).
using ExtentId = uint64_t;

/// Extent containing `page`.
inline ExtentId ExtentOf(PageNum page) { return page / kPagesPerExtent; }

/// One extent's row of the space map: the store that owns it
/// (kInvalidStoreId = unowned) and which of its pages are allocated (bit i
/// = page i of the extent).
struct ExtentEntry {
  StoreId owner = kInvalidStoreId;
  uint8_t alloc_bitmap = 0;
  friend bool operator==(const ExtentEntry&, const ExtentEntry&) = default;
};

}  // namespace shoremt

namespace std {
template <>
struct hash<shoremt::Lsn> {
  size_t operator()(const shoremt::Lsn& lsn) const noexcept {
    return std::hash<uint64_t>()(lsn.value);
  }
};
template <>
struct hash<shoremt::RecordId> {
  size_t operator()(const shoremt::RecordId& rid) const noexcept {
    return std::hash<uint64_t>()(rid.page * 8191 + rid.slot);
  }
};
}  // namespace std

#endif  // SHOREMT_COMMON_TYPES_H_
