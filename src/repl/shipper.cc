#include "repl/shipper.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "log/log_archive.h"
#include "obs/metrics.h"
#include "repl/framing.h"

namespace shoremt::repl {

SegmentShipper::SegmentShipper(log::LogManager* log, int fd, Options opts)
    : log_(log), fd_(fd), opts_(opts) {}

SegmentShipper::~SegmentShipper() { Stop(); }

void SegmentShipper::Start() {
  thread_ = std::thread([this] {
    Status st = Serve();
    std::lock_guard<std::mutex> lk(status_mutex_);
    status_ = st;
  });
}

void SegmentShipper::Stop() {
  if (!stop_.exchange(true)) {
    // Under fd_mutex_ so the shutdown hits whichever socket the serve
    // loop currently owns (a reconnect may have swapped it), plus any
    // replacement parked but not yet adopted.
    std::lock_guard<std::mutex> lk(fd_mutex_);
    // Unblocks both our reads and the replica's (it sees EOF).
    ::shutdown(fd_, SHUT_RDWR);
    if (pending_fd_ >= 0) ::shutdown(pending_fd_, SHUT_RDWR);
    fd_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void SegmentShipper::ReplaceSocket(int fd) {
  std::lock_guard<std::mutex> lk(fd_mutex_);
  pending_fd_ = fd;
  fd_cv_.notify_all();
}

bool SegmentShipper::WaitForReplacementFd() {
  std::unique_lock<std::mutex> lk(fd_mutex_);
  uint64_t waited_ms = 0;
  uint64_t slice_ms = std::max<uint64_t>(1, opts_.reconnect_backoff_initial_ms);
  while (pending_fd_ < 0 && !stop_.load(std::memory_order_acquire)) {
    if (opts_.reconnect_wait_budget_ms != 0 &&
        waited_ms >= opts_.reconnect_wait_budget_ms) {
      return false;
    }
    fd_cv_.wait_for(lk, std::chrono::milliseconds(slice_ms));
    waited_ms += slice_ms;
    slice_ms = std::min(slice_ms * 2, std::max<uint64_t>(
                                          1, opts_.reconnect_backoff_max_ms));
  }
  if (stop_.load(std::memory_order_acquire) || pending_fd_ < 0) return false;
  fd_ = pending_fd_;
  pending_fd_ = -1;
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status SegmentShipper::status() const {
  std::lock_guard<std::mutex> lk(status_mutex_);
  return status_;
}

uint64_t SegmentShipper::lag_bytes() const {
  uint64_t durable = log_->durable_lsn().value;
  uint64_t replayed = acked_replayed_.load(std::memory_order_relaxed);
  // Both are LSNs (byte offset + 1); an unacked replica lags by the whole
  // durable prefix.
  if (replayed == 0) return durable > 0 ? durable - 1 : 0;
  return durable > replayed ? durable - replayed : 0;
}

void SegmentShipper::RegisterMetrics(obs::MetricsRegistry* reg) {
  reg->AddSource([this](std::array<uint64_t, obs::kMetricCount>* totals) {
    using obs::Metric;
    (*totals)[static_cast<size_t>(Metric::kReplSegmentsShipped)] +=
        segments_shipped();
    (*totals)[static_cast<size_t>(Metric::kReplBytesStreamed)] +=
        bytes_streamed();
    (*totals)[static_cast<size_t>(Metric::kReplLagBytes)] += lag_bytes();
  });
}

bool SegmentShipper::DrainControl(int timeout_ms, bool* rewound) {
  *rewound = false;
  int wait = timeout_ms;
  while (WaitReadable(fd_, wait)) {
    wait = 0;  // after the first frame, only drain what is already queued
    Frame f;
    Status st = ReadFrame(fd_, &f);
    if (!st.ok()) return false;  // EOF or a broken stream: stop serving
    size_t pos = 0;
    uint64_t a = 0, b = 0;
    switch (f.type) {
      case FrameType::kAck:
        if (GetU64(f.payload, &pos, &a) && GetU64(f.payload, &pos, &b)) {
          acked_replayed_.store(b, std::memory_order_relaxed);
        }
        break;
      case FrameType::kResend:
        if (GetU64(f.payload, &pos, &a)) {
          cursor_ = a;
          *rewound = true;
        }
        break;
      default:
        break;  // a replica never sends anything else; ignore
    }
  }
  return true;
}

Status SegmentShipper::ShipNext(bool* progressed) {
  *progressed = false;
  log::LogStorage* storage = log_->storage();
  uint64_t durable = storage->size();
  if (cursor_ >= durable) return Status::Ok();

  log::LogStorage::SegmentInfo info = storage->SegmentInfoAt(cursor_);
  std::vector<uint8_t> bytes;
  if (!info.found) {
    // Below the first live segment: the primary recycled it. Serve the
    // range from the archive (reopened per miss — recycling appends to
    // the manifest concurrently, so a cached view would go stale).
    std::string dir = storage->archive_dir();
    if (dir.empty()) {
      return Status::IOError(
          "replica requires log offset " + std::to_string(cursor_) +
          " which was recycled and no archive_dir is configured");
    }
    SHOREMT_ASSIGN_OR_RETURN(log::LogArchive archive,
                             log::LogArchive::Open(dir));
    const log::ArchivedSegment* seg = archive.SegmentAt(cursor_);
    if (seg == nullptr) {
      return Status::IOError("log offset " + std::to_string(cursor_) +
                             " is in neither the live log nor the archive");
    }
    uint64_t end = seg->base + seg->length;
    SHOREMT_RETURN_NOT_OK(archive.Read(cursor_, end - cursor_, &bytes));
    uint64_t head[3] = {cursor_, seg->base, seg->capacity};
    SHOREMT_RETURN_NOT_OK(
        WriteFrame(fd_, FrameType::kSegment, head, bytes));
    cursor_ = end;
  } else if (info.filled == info.capacity) {
    // Sealed segment: one frame completes it, giving the replica geometry
    // to validate the shipment against.
    uint64_t end = info.base + info.capacity;
    Status rd = storage->Read(cursor_, end - cursor_, &bytes);
    if (!rd.ok()) {
      // The segment was recycled between SegmentInfoAt and Read; the next
      // iteration's lookup will take the archive path.
      if (!storage->archive_dir().empty()) return Status::Ok();
      return rd;
    }
    uint64_t head[3] = {cursor_, info.base, info.capacity};
    SHOREMT_RETURN_NOT_OK(
        WriteFrame(fd_, FrameType::kSegment, head, bytes));
    cursor_ = end;
  } else {
    // Open tail: ship what is durable so far.
    uint64_t end = std::min<uint64_t>(durable, info.base + info.filled);
    if (end <= cursor_) return Status::Ok();
    SHOREMT_RETURN_NOT_OK(storage->Read(cursor_, end - cursor_, &bytes));
    uint64_t head[1] = {cursor_};
    SHOREMT_RETURN_NOT_OK(
        WriteFrame(fd_, FrameType::kTailDelta, head, bytes));
    cursor_ = end;
  }
  segments_shipped_.fetch_add(1, std::memory_order_relaxed);
  bytes_streamed_.fetch_add(bytes.size(), std::memory_order_relaxed);
  shipped_offset_.store(cursor_, std::memory_order_relaxed);
  *progressed = true;
  return Status::Ok();
}

Status SegmentShipper::Serve() {
  Status st = ServeSession();
  // Reconnect mode: a dead connection (a peer that closed or reset — Ok —
  // or another socket error) parks the loop waiting for a replacement fd
  // instead of ending replication. Protocol violations (Corruption) still
  // end it: a peer that speaks garbage will speak garbage again. The
  // replica's kHello on the new connection carries its cursor, so shipping
  // resumes exactly where the replica's durable state ends — no bytes
  // skipped or doubled.
  while (opts_.reconnect && !stop_.load(std::memory_order_acquire) &&
         (st.ok() || st.code() == StatusCode::kIOError)) {
    if (!WaitForReplacementFd()) break;
    st = ServeSession();
  }
  return st;
}

Status SegmentShipper::ServeSession() {
  // The replica opens with kHello{next_offset}.
  Frame hello;
  Status st = ReadFrame(fd_, &hello);
  if (st.IsNotFound()) return Status::Ok();
  if (stop_.load(std::memory_order_acquire)) return Status::Ok();
  SHOREMT_RETURN_NOT_OK(st);
  if (hello.type != FrameType::kHello) {
    return Status::Corruption("expected kHello from replica");
  }
  size_t pos = 0;
  if (!GetU64(hello.payload, &pos, &cursor_)) {
    return Status::Corruption("short kHello payload");
  }
  shipped_offset_.store(cursor_, std::memory_order_relaxed);

  while (!stop_.load(std::memory_order_acquire)) {
    bool progressed = false;
    Status ship = ShipNext(&progressed);
    // NotFound from ShipNext is only ever the framing layer's "peer
    // closed": a replica that went away mid-send disconnects as cleanly as
    // one whose EOF DrainControl reads.
    if (!ship.ok()) {
      return stop_.load(std::memory_order_acquire) || ship.IsNotFound()
                 ? Status::Ok()
                 : ship;
    }
    // Drain acks/resends; when nothing was shipped, park in poll() so an
    // idle primary costs no CPU.
    bool rewound = false;
    if (!DrainControl(progressed ? 0 : opts_.poll_interval_ms, &rewound)) {
      return Status::Ok();  // replica disconnected
    }
  }
  return Status::Ok();
}

}  // namespace shoremt::repl
