#include "log/log_storage.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/clock.h"
#include "common/crc32c.h"
#include "io/fault_injector.h"
#include "log/log_stats.h"

namespace shoremt::log {

Status LogStorage::Append(std::span<const uint8_t> data) {
  std::span<const uint8_t> parts[1] = {data};
  return AppendV(parts);
}

Status LogStorage::AppendV(std::span<const std::span<const uint8_t>> parts) {
  if (fail_appends_.load(std::memory_order_acquire)) {
    return Status::IOError("log device failure (injected)");
  }
  // Fault injection: the append may fail outright, or be TORN — only a
  // byte prefix of the batch reaches the device before the error, the
  // signature a power cut leaves in a real log file. The prefix is still
  // stored below (limit bytes) so recovery sees the torn tail.
  size_t limit = SIZE_MAX;
  Status injected = Status::Ok();
  if (io::FaultInjector* fi = injector_.load(std::memory_order_acquire)) {
    size_t full = 0;
    for (std::span<const uint8_t> part : parts) full += part.size();
    size_t torn = 0;
    injected = fi->PreAppend(full, &torn);
    if (!injected.ok()) {
      if (torn == 0) return injected;
      limit = torn;
    }
  }
  flush_calls_.fetch_add(1, std::memory_order_relaxed);
  if (append_latency_ns_ > 0) {
    if (append_latency_ns_ < 50'000) {
      uint64_t until = NowNanos() + append_latency_ns_;
      while (NowNanos() < until) {
      }
    } else {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(append_latency_ns_));
    }
  }
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t total = size_.load(std::memory_order_relaxed);
  size_t copied = 0;
  for (std::span<const uint8_t> part : parts) {
    const uint8_t* src = part.data();
    size_t remaining = part.size();
    if (copied + remaining > limit) remaining = limit - copied;
    while (remaining > 0) {
      if (segments_.empty() ||
          segments_.back().bytes.size() == segments_.back().capacity) {
        Segment seg;
        seg.base = total;
        seg.capacity = segment_bytes_;
        seg.bytes.reserve(seg.capacity);
        segments_.push_back(std::move(seg));
        segments_allocated_.fetch_add(1, std::memory_order_relaxed);
        if (attached_stats_ != nullptr) {
          attached_stats_->segments_allocated.fetch_add(
              1, std::memory_order_relaxed);
        }
      }
      Segment& tail = segments_.back();
      size_t room = tail.capacity - tail.bytes.size();
      size_t n = std::min(room, remaining);
      tail.bytes.insert(tail.bytes.end(), src, src + n);
      src += n;
      remaining -= n;
      total += n;
      copied += n;
    }
    if (copied >= limit) break;
  }
  size_.store(total, std::memory_order_release);
  return injected;
}

Status LogStorage::CheckRangeLocked(uint64_t offset, size_t len) const {
  if (offset + len > size_.load(std::memory_order_relaxed)) {
    return Status::IOError("log read past durable end");
  }
  uint64_t first_live = segments_.empty()
                            ? size_.load(std::memory_order_relaxed)
                            : segments_.front().base;
  if (len > 0 && offset < first_live) {
    return Status::IOError("log read below recycled horizon");
  }
  return Status::Ok();
}

void LogStorage::CopyOutLocked(uint64_t offset, size_t len,
                               uint8_t* out) const {
  // Locate the first overlapped segment (segments ascend by base).
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), offset,
      [](uint64_t off, const Segment& s) { return off < s.base; });
  if (it != segments_.begin()) --it;
  while (len > 0) {
    uint64_t in_seg = offset - it->base;
    size_t n = std::min<uint64_t>(len, it->bytes.size() - in_seg);
    std::memcpy(out, it->bytes.data() + in_seg, n);
    out += n;
    offset += n;
    len -= n;
    ++it;
  }
}

Status LogStorage::Read(uint64_t offset, size_t len,
                        std::vector<uint8_t>* out) const {
  std::lock_guard<std::mutex> guard(mutex_);
  SHOREMT_RETURN_NOT_OK(CheckRangeLocked(offset, len));
  out->resize(len);
  CopyOutLocked(offset, len, out->data());
  return Status::Ok();
}

Status LogStorage::ReadFrom(uint64_t offset, std::vector<uint8_t>* out) const {
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t total = size_.load(std::memory_order_relaxed);
  size_t len = offset < total ? static_cast<size_t>(total - offset) : 0;
  SHOREMT_RETURN_NOT_OK(CheckRangeLocked(offset, len));
  out->resize(len);
  CopyOutLocked(offset, len, out->data());
  return Status::Ok();
}

size_t LogStorage::Recycle(Lsn below) {
  if (below.IsNull()) return 0;
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t horizon = below.value - 1;
  horizon = std::min(horizon, size_.load(std::memory_order_relaxed));
  if (horizon > horizon_offset_.load(std::memory_order_relaxed)) {
    horizon_offset_.store(horizon, std::memory_order_release);
  } else {
    horizon = horizon_offset_.load(std::memory_order_relaxed);
  }
  size_t freed = 0;
  size_t archived = 0;
  while (!segments_.empty() &&
         segments_.front().base + segments_.front().bytes.size() <= horizon &&
         segments_.front().bytes.size() == segments_.front().capacity) {
    if (!archive_dir_.empty()) {
      // Archive BEFORE freeing: an archive write failure keeps the
      // segment live (the log grows but no byte is ever dropped
      // unarchived), so archive + live log always covers offset 0 on.
      if (!ArchiveSegmentLocked(segments_.front())) break;
      ++archived;
    }
    segments_.pop_front();
    ++freed;
  }
  if (freed > 0) {
    segments_recycled_.fetch_add(freed, std::memory_order_relaxed);
    segments_archived_.fetch_add(archived, std::memory_order_relaxed);
    if (attached_stats_ != nullptr) {
      attached_stats_->segments_recycled.fetch_add(freed,
                                                   std::memory_order_relaxed);
      attached_stats_->segments_archived.fetch_add(archived,
                                                   std::memory_order_relaxed);
    }
  }
  return freed;
}

bool LogStorage::ArchiveSegmentLocked(const Segment& seg) {
  char name[64];
  std::snprintf(name, sizeof(name), "seg-%020llu.log",
                static_cast<unsigned long long>(seg.base));
  std::string path = archive_dir_ + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = seg.bytes.empty() ||
            std::fwrite(seg.bytes.data(), 1, seg.bytes.size(), f) ==
                seg.bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return false;
  std::string manifest = archive_dir_ + "/MANIFEST";
  std::FILE* m = std::fopen(manifest.c_str(), "ab");
  if (m == nullptr) return false;
  // The line carries the CRC32C of the segment's bytes, so a restore or
  // repair can prove an archived file still holds what was recycled out
  // of the live log.
  uint32_t crc = Crc32c(seg.bytes.data(), seg.bytes.size());
  ok = std::fprintf(m, "v2 %llu %llu %llu %lu %s\n",
                    static_cast<unsigned long long>(seg.base),
                    static_cast<unsigned long long>(seg.bytes.size()),
                    static_cast<unsigned long long>(seg.capacity),
                    static_cast<unsigned long>(crc), name) > 0;
  ok = std::fclose(m) == 0 && ok;
  return ok;
}

void LogStorage::set_archive_dir(std::string dir) {
  std::lock_guard<std::mutex> guard(mutex_);
  archive_dir_ = std::move(dir);
}

std::string LogStorage::archive_dir() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return archive_dir_;
}

LogStorage::SegmentInfo LogStorage::SegmentInfoAt(uint64_t offset) const {
  std::lock_guard<std::mutex> guard(mutex_);
  SegmentInfo info;
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), offset,
      [](uint64_t off, const Segment& s) { return off < s.base; });
  if (it == segments_.begin()) return info;  // Recycled (or empty log).
  --it;
  if (offset >= it->base + it->bytes.size()) return info;  // Past the tail.
  info.base = it->base;
  info.capacity = it->capacity;
  info.filled = it->bytes.size();
  info.found = true;
  return info;
}

Status LogStorage::TruncateTo(uint64_t offset) {
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t total = size_.load(std::memory_order_relaxed);
  if (offset >= total) return Status::Ok();
  uint64_t first_live =
      segments_.empty() ? total : segments_.front().base;
  if (offset < first_live) {
    return Status::IOError("log truncate below recycled horizon");
  }
  while (!segments_.empty() && segments_.back().base >= offset) {
    segments_.pop_back();
  }
  if (!segments_.empty()) {
    Segment& tail = segments_.back();
    tail.bytes.resize(static_cast<size_t>(offset - tail.base));
  }
  size_.store(offset, std::memory_order_release);
  return Status::Ok();
}

void LogStorage::AttachStats(LogStats* stats) {
  std::lock_guard<std::mutex> guard(mutex_);
  attached_stats_ = stats;
}

}  // namespace shoremt::log
