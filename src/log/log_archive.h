#ifndef SHOREMT_LOG_LOG_ARCHIVE_H_
#define SHOREMT_LOG_LOG_ARCHIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace shoremt::log {

class LogStorage;

/// One archived log segment, as recorded by a MANIFEST line written by
/// LogStorage::Recycle when LogOptions::archive_dir is set:
///   v2 <base> <length> <capacity> <crc32c> <file>
struct ArchivedSegment {
  uint64_t base = 0;      ///< Absolute log byte offset of the first byte.
  uint64_t length = 0;    ///< Bytes in the archive file.
  uint64_t capacity = 0;  ///< The segment's configured capacity.
  uint32_t crc = 0;       ///< CRC32C of the file's bytes.
  std::string file;       ///< File name, relative to the archive dir.
};

/// Read-side view of a segment archive directory: parses the MANIFEST
/// and serves byte ranges out of the per-segment files, verifying each
/// touched segment against its manifest CRC. Consumers: the shipper's
/// below-horizon fallback and ReadHistory (point-in-time restore and the
/// storage manager's media auto-repair) — which is why this lives in the
/// log layer, below sm and repl.
class LogArchive {
 public:
  /// Opens `dir`. A missing directory or MANIFEST yields an EMPTY archive
  /// (archiving may simply not have recycled anything yet); a malformed
  /// MANIFEST line is Corruption.
  static Result<LogArchive> Open(const std::string& dir);

  const std::vector<ArchivedSegment>& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }
  /// First archived byte (0 when empty).
  uint64_t base_offset() const {
    return segments_.empty() ? 0 : segments_.front().base;
  }
  /// One past the last archived byte (0 when empty).
  uint64_t end_offset() const {
    return segments_.empty() ? 0
                             : segments_.back().base + segments_.back().length;
  }

  /// Finds the archived segment containing absolute offset; null if the
  /// offset is not covered.
  const ArchivedSegment* SegmentAt(uint64_t offset) const;

  /// Reads [offset, offset + len) — which may span archive files — into
  /// `out` (cleared first). IOError when the range is not fully covered;
  /// Corruption when a touched segment file fails its manifest CRC (named
  /// precisely, with stored vs computed values).
  Status Read(uint64_t offset, size_t len, std::vector<uint8_t>* out) const;

 private:
  std::string dir_;
  std::vector<ArchivedSegment> segments_;  ///< Sorted by base, contiguous.
};

/// The log's whole history from offset 0 (LSN 1) into `out`: the archive
/// in `dir` (empty = none), each segment checked against its manifest
/// CRC, then the bytes of `live` (may be null) above it. Corruption when
/// the archive does not start at offset 0 (a prefix was recycled before
/// archiving); IOError from LogStorage::ReadFrom when the live log's
/// first segment starts above the archive's end. `segment_bytes`, when
/// given, receives the segment size the history was written with (the
/// first archived segment's capacity, else the live log's).
Status ReadHistory(const std::string& dir, const LogStorage* live,
                   std::vector<uint8_t>* out, size_t* segment_bytes = nullptr);

}  // namespace shoremt::log

#endif  // SHOREMT_LOG_LOG_ARCHIVE_H_
