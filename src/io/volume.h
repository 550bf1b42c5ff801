#ifndef SHOREMT_IO_VOLUME_H_
#define SHOREMT_IO_VOLUME_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace shoremt::io {

class FaultInjector;

/// Per-volume I/O accounting. `reads`/`writes` count device calls (a
/// vectored call is one); `pages_read`/`pages_written` count pages, so
/// their difference against the call counts is the coalescing win;
/// `batched_reads`/`batched_writes` count the calls that carried more
/// than one page.
struct IoStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> write_ns{0};
  std::atomic<uint64_t> pages_read{0};
  std::atomic<uint64_t> pages_written{0};
  std::atomic<uint64_t> batched_reads{0};
  std::atomic<uint64_t> batched_writes{0};
  /// Transient-error retries against this volume and the total backoff
  /// time they spent sleeping (io::RetryTransient policy).
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> retry_backoff_ns{0};
};

/// Device latency model. The paper's testbed put data on a disk array and
/// the log on an in-memory filesystem; benches inject latency here to move
/// I/O on or off the critical path. Latency is charged per device CALL,
/// not per page — which is exactly why vectored multi-page operations win.
struct VolumeOptions {
  uint64_t read_latency_ns = 0;
  uint64_t write_latency_ns = 0;
  /// File-backed volumes only: open with O_DIRECT (page cache bypassed,
  /// buffers must be block-aligned — the buffer pool's arena is). Falls
  /// back to buffered I/O where the filesystem rejects O_DIRECT (tmpfs);
  /// FileVolume::direct_io_active() reports what actually stuck.
  bool direct_io = false;
};

/// Page-granularity block device. Thread safe: concurrent reads/writes to
/// distinct pages proceed in parallel; the buffer pool guarantees a page is
/// never concurrently read and written.
class Volume {
 public:
  virtual ~Volume() = default;

  /// Reads page `page` into `out` (kPageSize bytes).
  virtual Status ReadPage(PageNum page, void* out) = 0;
  /// Writes kPageSize bytes from `data` to page `page`.
  virtual Status WritePage(PageNum page, const void* data) = 0;

  /// Vectored read: pages [first, first+n) into the n scattered buffers
  /// of `bufs` — ONE device call (one latency charge), the primitive the
  /// io::IoScheduler coalesces adjacent-page runs into. The default
  /// implementations loop the single-page ops; MemVolume and FileVolume
  /// override with one real device call.
  virtual Status ReadPagesV(PageNum first, uint8_t* const* bufs, size_t n);
  /// Vectored write of pages [first, first+n) from n scattered buffers.
  virtual Status WritePagesV(PageNum first, const uint8_t* const* bufs,
                             size_t n);

  /// Current size in pages.
  virtual PageNum NumPages() const = 0;
  /// Grows the volume to at least `pages` pages (zero-filled).
  virtual Status Extend(PageNum pages) = 0;

  const IoStats& stats() const { return stats_; }

  /// Counts one transient-error retry (and the backoff slept before it)
  /// against this volume. Public: the retry loops live in the scheduler
  /// and buffer pool, not in the volume.
  void CountRetry(uint64_t backoff_ns) {
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    stats_.retry_backoff_ns.fetch_add(backoff_ns, std::memory_order_relaxed);
  }

  /// Installs (or clears, with nullptr) a fault injector consulted on
  /// every read/write. The injector must outlive its installation.
  void set_fault_injector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return injector_.load(std::memory_order_acquire);
  }

 protected:
  void CountRead(uint64_t ns, uint64_t pages = 1) {
    stats_.reads.fetch_add(1, std::memory_order_relaxed);
    stats_.read_ns.fetch_add(ns, std::memory_order_relaxed);
    stats_.pages_read.fetch_add(pages, std::memory_order_relaxed);
    if (pages > 1) {
      stats_.batched_reads.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void CountWrite(uint64_t ns, uint64_t pages = 1) {
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    stats_.write_ns.fetch_add(ns, std::memory_order_relaxed);
    stats_.pages_written.fetch_add(pages, std::memory_order_relaxed);
    if (pages > 1) {
      stats_.batched_writes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  IoStats stats_;
  std::atomic<FaultInjector*> injector_{nullptr};
};

/// Memory-backed volume: chunked so growth never moves existing pages,
/// letting reads/writes proceed without a lock.
class MemVolume : public Volume {
 public:
  explicit MemVolume(VolumeOptions options = {});
  ~MemVolume() override;

  Status ReadPage(PageNum page, void* out) override;
  Status WritePage(PageNum page, const void* data) override;
  Status ReadPagesV(PageNum first, uint8_t* const* bufs, size_t n) override;
  Status WritePagesV(PageNum first, const uint8_t* const* bufs,
                     size_t n) override;
  PageNum NumPages() const override;
  Status Extend(PageNum pages) override;

 private:
  static constexpr PageNum kPagesPerChunk = 1024;  // 8 MiB per chunk.
  static constexpr size_t kChunkBytes = kPagesPerChunk * kPageSize;
  static constexpr size_t kMaxChunks = 4096;  // 32 GiB per volume.

  uint8_t* PagePtr(PageNum page) const;

  VolumeOptions options_;
  std::mutex growth_mutex_;
  // Chunk directory with stable addresses: Extend only fills empty slots,
  // so I/O threads index it without the growth mutex while it grows.
  // Chunks are lazily zero-filled anonymous mappings: pages never written
  // stay non-resident.
  std::array<std::atomic<uint8_t*>, kMaxChunks> chunks_{};
  std::atomic<PageNum> num_pages_{0};
};

/// File-backed volume using positional reads/writes (preadv/pwritev for
/// the vectored ops). With VolumeOptions::direct_io the file is opened
/// O_DIRECT when the filesystem supports it; callers' buffers are used
/// in place when block-aligned and bounced through an aligned scratch
/// page otherwise.
class FileVolume : public Volume {
 public:
  /// Opens (creating if needed) the volume file.
  static Result<std::unique_ptr<FileVolume>> Open(const std::string& path,
                                                  VolumeOptions options = {});
  ~FileVolume() override;

  Status ReadPage(PageNum page, void* out) override;
  Status WritePage(PageNum page, const void* data) override;
  Status ReadPagesV(PageNum first, uint8_t* const* bufs, size_t n) override;
  Status WritePagesV(PageNum first, const uint8_t* const* bufs,
                     size_t n) override;
  PageNum NumPages() const override;
  Status Extend(PageNum pages) override;

  /// True when the file is actually open with O_DIRECT (the option was
  /// set AND the filesystem accepted it).
  bool direct_io_active() const { return direct_active_; }

 private:
  FileVolume(int fd, PageNum pages, VolumeOptions options, bool direct)
      : fd_(fd), num_pages_(pages), options_(options), direct_active_(direct) {}

  int fd_;
  std::atomic<PageNum> num_pages_;
  VolumeOptions options_;
  bool direct_active_ = false;
  std::mutex growth_mutex_;
};

}  // namespace shoremt::io

#endif  // SHOREMT_IO_VOLUME_H_
