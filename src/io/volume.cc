#include "io/volume.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/clock.h"
#include "io/fault_injector.h"

namespace shoremt::io {

namespace {

/// O_DIRECT alignment unit: the conservative logical-block-size bound.
/// kPageSize (8 KiB) is a multiple, so file offsets and lengths are always
/// aligned; only caller buffer addresses need checking.
constexpr size_t kDirectAlign = 4096;

bool Aligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kDirectAlign == 0;
}

void InjectLatency(uint64_t ns) {
  if (ns == 0) return;
  if (ns < 50'000) {
    // Short latencies: spin on the clock (sleep granularity is too coarse).
    uint64_t until = NowNanos() + ns;
    while (NowNanos() < until) {
    }
  } else {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }
}

/// One-page aligned scratch for the O_DIRECT bounce path (per thread: the
/// buffer pool arena is page-aligned so this path is cold).
uint8_t* AlignedScratch() {
  thread_local std::unique_ptr<uint8_t, decltype(&std::free)> scratch(
      static_cast<uint8_t*>(std::aligned_alloc(kDirectAlign, kPageSize)),
      &std::free);
  return scratch.get();
}

}  // namespace

// ------------------------------------------------------------ Volume base --

Status Volume::ReadPagesV(PageNum first, uint8_t* const* bufs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    SHOREMT_RETURN_NOT_OK(ReadPage(first + i, bufs[i]));
  }
  return Status::Ok();
}

Status Volume::WritePagesV(PageNum first, const uint8_t* const* bufs,
                           size_t n) {
  for (size_t i = 0; i < n; ++i) {
    SHOREMT_RETURN_NOT_OK(WritePage(first + i, bufs[i]));
  }
  return Status::Ok();
}

// -------------------------------------------------------------- MemVolume --

MemVolume::MemVolume(VolumeOptions options) : options_(options) {}

MemVolume::~MemVolume() {
  for (auto& chunk : chunks_) {
    uint8_t* p = chunk.load(std::memory_order_relaxed);
    if (p != nullptr) ::munmap(p, kChunkBytes);
  }
}

uint8_t* MemVolume::PagePtr(PageNum page) const {
  // Callers checked `page` against num_pages_ (acquire), which Extend
  // publishes after the chunk pointer.
  return chunks_[page / kPagesPerChunk].load(std::memory_order_relaxed) +
         (page % kPagesPerChunk) * kPageSize;
}

Status MemVolume::ReadPage(PageNum page, void* out) {
  if (page >= num_pages_.load(std::memory_order_acquire)) {
    return Status::IOError("read past end of volume");
  }
  FaultInjector* fi = fault_injector();
  if (fi != nullptr) SHOREMT_RETURN_NOT_OK(fi->PreRead(page));
  uint64_t t0 = NowNanos();
  InjectLatency(options_.read_latency_ns);
  std::memcpy(out, PagePtr(page), kPageSize);
  if (fi != nullptr) fi->PostRead(page, static_cast<uint8_t*>(out), kPageSize);
  CountRead(NowNanos() - t0);
  return Status::Ok();
}

Status MemVolume::WritePage(PageNum page, const void* data) {
  if (page >= num_pages_.load(std::memory_order_acquire)) {
    return Status::IOError("write past end of volume");
  }
  if (FaultInjector* fi = fault_injector()) {
    size_t torn = 0;
    Status st = fi->PreWrite(page, kPageSize, &torn);
    if (!st.ok()) {
      // A torn write persists a sector-aligned prefix before the error.
      if (torn > 0) std::memcpy(PagePtr(page), data, torn);
      return st;
    }
  }
  uint64_t t0 = NowNanos();
  InjectLatency(options_.write_latency_ns);
  std::memcpy(PagePtr(page), data, kPageSize);
  CountWrite(NowNanos() - t0);
  return Status::Ok();
}

Status MemVolume::ReadPagesV(PageNum first, uint8_t* const* bufs, size_t n) {
  if (n == 0) return Status::Ok();
  if (first + n > num_pages_.load(std::memory_order_acquire)) {
    return Status::IOError("read past end of volume");
  }
  if (fault_injector() != nullptr) {
    // Page-wise under injection so per-page fault schedules stay exact.
    return Volume::ReadPagesV(first, bufs, n);
  }
  uint64_t t0 = NowNanos();
  InjectLatency(options_.read_latency_ns);  // One charge for the whole run.
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(bufs[i], PagePtr(first + i), kPageSize);
  }
  CountRead(NowNanos() - t0, n);
  return Status::Ok();
}

Status MemVolume::WritePagesV(PageNum first, const uint8_t* const* bufs,
                              size_t n) {
  if (n == 0) return Status::Ok();
  if (first + n > num_pages_.load(std::memory_order_acquire)) {
    return Status::IOError("write past end of volume");
  }
  if (fault_injector() != nullptr) {
    return Volume::WritePagesV(first, bufs, n);
  }
  uint64_t t0 = NowNanos();
  InjectLatency(options_.write_latency_ns);  // One charge for the whole run.
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(PagePtr(first + i), bufs[i], kPageSize);
  }
  CountWrite(NowNanos() - t0, n);
  return Status::Ok();
}

PageNum MemVolume::NumPages() const {
  return num_pages_.load(std::memory_order_acquire);
}

Status MemVolume::Extend(PageNum pages) {
  std::lock_guard<std::mutex> guard(growth_mutex_);
  PageNum current = num_pages_.load(std::memory_order_relaxed);
  if (pages <= current) return Status::Ok();
  size_t chunks_needed = (pages + kPagesPerChunk - 1) / kPagesPerChunk;
  if (chunks_needed > kMaxChunks) {
    return Status::IOError("in-memory volume size limit exceeded");
  }
  for (size_t i = 0; i < chunks_needed; ++i) {
    if (chunks_[i].load(std::memory_order_relaxed) != nullptr) continue;
    void* p = ::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      return Status::IOError("mmap: " + std::string(std::strerror(errno)));
    }
    chunks_[i].store(static_cast<uint8_t*>(p), std::memory_order_relaxed);
  }
  num_pages_.store(pages, std::memory_order_release);
  return Status::Ok();
}

// ------------------------------------------------------------- FileVolume --

Result<std::unique_ptr<FileVolume>> FileVolume::Open(const std::string& path,
                                                     VolumeOptions options) {
  int flags = O_RDWR | O_CREAT;
  bool direct = false;
  int fd = -1;
  if (options.direct_io) {
    fd = ::open(path.c_str(), flags | O_DIRECT, 0644);
    direct = fd >= 0;
  }
  if (fd < 0) {
    // Either direct I/O was not requested or the filesystem rejected
    // O_DIRECT (tmpfs returns EINVAL): fall back to buffered gracefully.
    fd = ::open(path.c_str(), flags, 0644);
  }
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError("lseek: " + std::string(std::strerror(errno)));
  }
  auto pages = static_cast<PageNum>(size / kPageSize);
  return std::unique_ptr<FileVolume>(
      new FileVolume(fd, pages, options, direct));
}

FileVolume::~FileVolume() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileVolume::ReadPage(PageNum page, void* out) {
  if (page >= num_pages_.load(std::memory_order_acquire)) {
    return Status::IOError("read past end of volume");
  }
  FaultInjector* fi = fault_injector();
  if (fi != nullptr) SHOREMT_RETURN_NOT_OK(fi->PreRead(page));
  uint64_t t0 = NowNanos();
  InjectLatency(options_.read_latency_ns);
  void* dst = out;
  if (direct_active_ && !Aligned(out)) dst = AlignedScratch();
  ssize_t n = ::pread(fd_, dst, kPageSize,
                      static_cast<off_t>(page * kPageSize));
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pread returned " + std::to_string(n));
  }
  if (dst != out) std::memcpy(out, dst, kPageSize);
  if (fi != nullptr) fi->PostRead(page, static_cast<uint8_t*>(out), kPageSize);
  CountRead(NowNanos() - t0);
  return Status::Ok();
}

Status FileVolume::WritePage(PageNum page, const void* data) {
  if (page >= num_pages_.load(std::memory_order_acquire)) {
    return Status::IOError("write past end of volume");
  }
  if (FaultInjector* fi = fault_injector()) {
    size_t torn = 0;
    Status st = fi->PreWrite(page, kPageSize, &torn);
    if (!st.ok()) {
      if (torn > 0) {
        (void)!::pwrite(fd_, data, torn, static_cast<off_t>(page * kPageSize));
      }
      return st;
    }
  }
  uint64_t t0 = NowNanos();
  InjectLatency(options_.write_latency_ns);
  const void* src = data;
  if (direct_active_ && !Aligned(data)) {
    std::memcpy(AlignedScratch(), data, kPageSize);
    src = AlignedScratch();
  }
  ssize_t n = ::pwrite(fd_, src, kPageSize,
                       static_cast<off_t>(page * kPageSize));
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pwrite returned " + std::to_string(n));
  }
  CountWrite(NowNanos() - t0);
  return Status::Ok();
}

Status FileVolume::ReadPagesV(PageNum first, uint8_t* const* bufs, size_t n) {
  if (n == 0) return Status::Ok();
  if (first + n > num_pages_.load(std::memory_order_acquire)) {
    return Status::IOError("read past end of volume");
  }
  if (fault_injector() != nullptr) {
    return Volume::ReadPagesV(first, bufs, n);
  }
  if (direct_active_) {
    for (size_t i = 0; i < n; ++i) {
      // O_DIRECT demands every iov_base aligned; bounce page-wise if not.
      if (!Aligned(bufs[i])) return Volume::ReadPagesV(first, bufs, n);
    }
  }
  uint64_t t0 = NowNanos();
  InjectLatency(options_.read_latency_ns);
  std::vector<iovec> iov(n);
  for (size_t i = 0; i < n; ++i) {
    iov[i] = {bufs[i], kPageSize};
  }
  off_t off = static_cast<off_t>(first * kPageSize);
  size_t done = 0;
  size_t iov_at = 0;
  // preadv may return short on signals or near EOF; resume at the boundary
  // (offsets are always page-aligned because runs never straddle a page).
  while (done < n * kPageSize) {
    ssize_t got = ::preadv(fd_, iov.data() + iov_at,
                           static_cast<int>(n - iov_at), off);
    if (got <= 0) {
      return Status::IOError("preadv returned " + std::to_string(got));
    }
    done += static_cast<size_t>(got);
    if (done % kPageSize != 0) {
      return Status::IOError("preadv split a page");
    }
    iov_at = done / kPageSize;
    off = static_cast<off_t>((first + iov_at) * kPageSize);
  }
  CountRead(NowNanos() - t0, n);
  return Status::Ok();
}

Status FileVolume::WritePagesV(PageNum first, const uint8_t* const* bufs,
                               size_t n) {
  if (n == 0) return Status::Ok();
  if (first + n > num_pages_.load(std::memory_order_acquire)) {
    return Status::IOError("write past end of volume");
  }
  if (fault_injector() != nullptr) {
    return Volume::WritePagesV(first, bufs, n);
  }
  if (direct_active_) {
    for (size_t i = 0; i < n; ++i) {
      if (!Aligned(bufs[i])) return Volume::WritePagesV(first, bufs, n);
    }
  }
  uint64_t t0 = NowNanos();
  InjectLatency(options_.write_latency_ns);
  std::vector<iovec> iov(n);
  for (size_t i = 0; i < n; ++i) {
    iov[i] = {const_cast<uint8_t*>(bufs[i]), kPageSize};
  }
  off_t off = static_cast<off_t>(first * kPageSize);
  size_t done = 0;
  size_t iov_at = 0;
  while (done < n * kPageSize) {
    ssize_t put = ::pwritev(fd_, iov.data() + iov_at,
                            static_cast<int>(n - iov_at), off);
    if (put <= 0) {
      return Status::IOError("pwritev returned " + std::to_string(put));
    }
    done += static_cast<size_t>(put);
    if (done % kPageSize != 0) {
      return Status::IOError("pwritev split a page");
    }
    iov_at = done / kPageSize;
    off = static_cast<off_t>((first + iov_at) * kPageSize);
  }
  CountWrite(NowNanos() - t0, n);
  return Status::Ok();
}

PageNum FileVolume::NumPages() const {
  return num_pages_.load(std::memory_order_acquire);
}

Status FileVolume::Extend(PageNum pages) {
  std::lock_guard<std::mutex> guard(growth_mutex_);
  PageNum current = num_pages_.load(std::memory_order_relaxed);
  if (pages <= current) return Status::Ok();
  if (::ftruncate(fd_, static_cast<off_t>(pages * kPageSize)) != 0) {
    return Status::IOError("ftruncate: " + std::string(std::strerror(errno)));
  }
  num_pages_.store(pages, std::memory_order_release);
  return Status::Ok();
}

}  // namespace shoremt::io
