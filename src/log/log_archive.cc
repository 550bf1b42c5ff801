#include "log/log_archive.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/crc32c.h"
#include "log/log_storage.h"

namespace shoremt::log {

Result<LogArchive> LogArchive::Open(const std::string& dir) {
  LogArchive archive;
  archive.dir_ = dir;
  std::string manifest = dir + "/MANIFEST";
  FILE* f = std::fopen(manifest.c_str(), "r");
  if (f == nullptr) return archive;  // no archive yet — empty, not an error
  char line[4096];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '\n' || line[0] == '\0') continue;
    unsigned long long base, length, capacity;
    unsigned long crc;
    char file[1024];
    if (std::sscanf(line, "v2 %llu %llu %llu %lu %1023s", &base, &length,
                    &capacity, &crc, file) != 5) {
      std::fclose(f);
      return Status::Corruption("malformed archive MANIFEST line: " +
                                std::string(line));
    }
    ArchivedSegment seg;
    seg.crc = static_cast<uint32_t>(crc);
    seg.base = base;
    seg.length = length;
    seg.capacity = capacity;
    seg.file = file;
    archive.segments_.push_back(std::move(seg));
  }
  std::fclose(f);
  std::sort(archive.segments_.begin(), archive.segments_.end(),
            [](const ArchivedSegment& a, const ArchivedSegment& b) {
              return a.base < b.base;
            });
  for (size_t i = 1; i < archive.segments_.size(); ++i) {
    const auto& prev = archive.segments_[i - 1];
    if (archive.segments_[i].base != prev.base + prev.length) {
      return Status::Corruption("archive MANIFEST has a gap at offset " +
                                std::to_string(prev.base + prev.length));
    }
  }
  return archive;
}

const ArchivedSegment* LogArchive::SegmentAt(uint64_t offset) const {
  // First segment with base > offset, then step back.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), offset,
      [](uint64_t off, const ArchivedSegment& s) { return off < s.base; });
  if (it == segments_.begin()) return nullptr;
  --it;
  if (offset >= it->base + it->length) return nullptr;
  return &*it;
}

Status LogArchive::Read(uint64_t offset, size_t len,
                        std::vector<uint8_t>* out) const {
  out->clear();
  out->reserve(len);
  uint64_t pos = offset;
  std::vector<uint8_t> whole;  // Scratch for CRC-verified segments.
  while (out->size() < len) {
    const ArchivedSegment* seg = SegmentAt(pos);
    if (seg == nullptr) {
      return Status::IOError("archive does not cover log offset " +
                             std::to_string(pos));
    }
    uint64_t in_seg = pos - seg->base;
    size_t want = std::min<uint64_t>(len - out->size(), seg->length - in_seg);
    std::string path = dir_ + "/" + seg->file;
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::IOError("cannot open archived segment " + path);
    }
    // Verify the WHOLE file against the manifest CRC before serving any
    // byte of it: archives are cold restore/repair sources, so the full
    // read is cheap insurance against rot in the untouched remainder.
    whole.resize(seg->length);
    bool ok = std::fread(whole.data(), 1, seg->length, f) == seg->length;
    std::fclose(f);
    if (!ok) {
      return Status::IOError("short read from archived segment " + path);
    }
    uint32_t computed = Crc32c(whole.data(), whole.size());
    if (computed != seg->crc) {
      return Status::Corruption(
          "archived segment " + seg->file + " CRC mismatch (stored " +
          std::to_string(seg->crc) + ", computed " +
          std::to_string(computed) + ")");
    }
    out->insert(out->end(), whole.begin() + in_seg,
                whole.begin() + in_seg + want);
    pos += want;
  }
  return Status::Ok();
}

Status ReadHistory(const std::string& dir, const LogStorage* live,
                   std::vector<uint8_t>* out, size_t* segment_bytes) {
  out->clear();
  LogArchive archive;
  if (!dir.empty()) {
    SHOREMT_ASSIGN_OR_RETURN(archive, LogArchive::Open(dir));
  }
  if (archive.base_offset() != 0) {
    return Status::Corruption("archive starts at offset " +
                              std::to_string(archive.base_offset()) +
                              ", log prefix was recycled unarchived");
  }
  if (segment_bytes != nullptr) {
    *segment_bytes = !archive.empty() ? archive.segments().front().capacity
                     : live != nullptr ? live->segment_bytes()
                                       : 0;
  }
  if (!archive.empty()) {
    SHOREMT_RETURN_NOT_OK(archive.Read(0, archive.end_offset(), out));
  }
  if (live != nullptr && live->size() > archive.end_offset()) {
    std::vector<uint8_t> tail;
    SHOREMT_RETURN_NOT_OK(live->ReadFrom(archive.end_offset(), &tail));
    out->insert(out->end(), tail.begin(), tail.end());
  }
  return Status::Ok();
}

}  // namespace shoremt::log
