#ifndef SHOREMT_IO_IO_SCHEDULER_H_
#define SHOREMT_IO_IO_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "io/volume.h"

namespace shoremt::io {

/// Tuning for the async I/O spine. Sizes are page-granularity requests;
/// a coalesced run occupies one slot per member page.
struct IoSchedulerOptions {
  /// Device threads executing coalesced vectored calls. The scheduler is
  /// what turns the Volume's synchronous interface into an asynchronous
  /// one, so at least one worker always runs.
  uint32_t workers = 2;
  /// Fixed request pool shared by every ring: acquiring a slot when all
  /// are in flight blocks (global backpressure).
  uint32_t slots = 256;
  /// Max in-flight requests per ring — the ring's bounded window. Submit
  /// blocks until completions open the window (per-client backpressure).
  uint32_t ring_window = 64;
  /// Coalescing cap: adjacent-page runs longer than this are split into
  /// multiple device calls.
  uint32_t max_run_pages = 16;
  /// Transient-error retry budget per device run (io::RetryPolicy):
  /// workers re-execute a failed run up to `max_retries` times with
  /// doubling backoff before the error goes sticky to the requests.
  uint32_t max_retries = 4;
  uint64_t retry_initial_backoff_ns = 100'000;
  uint64_t retry_max_backoff_ns = 10'000'000;
};

struct IoSchedulerStats {
  std::atomic<uint64_t> submitted{0};           ///< Page requests accepted.
  std::atomic<uint64_t> completed{0};           ///< Page requests finished.
  std::atomic<uint64_t> device_calls{0};        ///< Coalesced runs executed.
  std::atomic<uint64_t> batched_calls{0};       ///< Runs carrying > 1 page.
  std::atomic<uint64_t> coalesced_pages{0};     ///< Pages beyond each run's first.
  std::atomic<uint64_t> backpressure_waits{0};  ///< Blocked slot/window acquisitions.
  std::atomic<uint64_t> errors{0};              ///< Requests completed with !ok.
  std::atomic<uint64_t> retries{0};             ///< Transient-error re-executions.
  std::atomic<uint64_t> retry_backoff_ns{0};    ///< Backoff time slept by workers.
};

enum class IoOpKind : uint8_t { kRead, kWrite };

/// Completion callback: runs ON THE I/O WORKER THREAD, immediately after
/// the device call, once per page request with that request's own status.
/// It must not block and must not submit more I/O; it may release latches
/// and pins (the pool's primitives are plain atomics) and poke cvs — the
/// buffer pool's prefetch install and the cleaner's dirty-clear both ride
/// here, which is what lets a waiter in the miss path make progress
/// without the submitting thread ever polling.
using IoCallback = std::function<void(PageNum, Status)>;

class IoScheduler;

/// A client's submission/completion ring. NOT thread-safe: one ring per
/// submitting thread (each cleaner daemon owns one; benches own one per
/// worker). Queue* stages page requests locally; Submit() coalesces
/// adjacent-page runs, applies the bounded-window backpressure and hands
/// the runs to the scheduler's workers; Poll()/Drain() harvest. Errors are
/// sticky per REQUEST (each callback sees its own run's status; one failed
/// run never poisons the rest of the batch) and the ring keeps the first
/// error for Drain() to surface.
///
/// A ring must be destroyed before its scheduler; destruction drains.
class IoRing {
 public:
  ~IoRing();

  IoRing(const IoRing&) = delete;
  IoRing& operator=(const IoRing&) = delete;

  /// Stages one page read into `buf` (kPageSize bytes, caller-owned until
  /// the request completes).
  void QueueRead(PageNum page, void* buf, IoCallback cb = {});
  /// Stages one page write from `buf` (stable until completion).
  void QueueWrite(PageNum page, const void* buf, IoCallback cb = {});

  /// Coalesces the staged requests into adjacent-page runs (in staging
  /// order — sort before staging when ordering helps, as the cleaner
  /// does) and submits them. Blocks while the in-flight window is full.
  /// Returns the number of device runs formed.
  size_t Submit();

  /// Non-blocking harvest: number of requests completed since the last
  /// Poll/Drain (their callbacks have already run on the worker).
  size_t Poll();

  /// Blocks until every in-flight request of this ring has completed,
  /// then returns the sticky first error (Ok if none) and clears it.
  Status Drain();

  size_t in_flight() const;

 private:
  friend class IoScheduler;
  explicit IoRing(IoScheduler* scheduler) : scheduler_(scheduler) {}

  struct Staged {
    IoOpKind kind;
    PageNum page;
    void* buf;  ///< Const-cast for writes; kind disambiguates.
    IoCallback cb;
  };

  IoScheduler* scheduler_;
  std::vector<Staged> staged_;

  /// Completion side, written by I/O workers.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  size_t in_flight_ = 0;
  size_t completed_since_poll_ = 0;
  Status sticky_error_ = Status::Ok();
};

/// The async batched I/O spine: a fixed-slot request pool, a run queue
/// and a small crew of device threads over one Volume. Clients submit
/// through per-client IoRings (or fire-and-forget via TrySubmitDetached);
/// workers execute each run as ONE vectored Volume call and complete the
/// member requests via their callbacks.
///
/// Destruction executes everything already queued, then stops the
/// workers — in-flight teardown is safe as long as request buffers
/// outlive the scheduler (the buffer pool destroys its scheduler before
/// the frame arena for exactly this reason).
class IoScheduler {
 public:
  explicit IoScheduler(Volume* volume, IoSchedulerOptions options = {});
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// A new ring bound to this scheduler (destroy it before the scheduler).
  std::unique_ptr<IoRing> CreateRing();

  /// Detached one-page submission: no ring, no harvest — the slot is
  /// recycled right after the callback runs on the worker. Returns Busy
  /// (nothing submitted) when no slot is free: detached consumers
  /// (prefetch) shed load instead of blocking.
  Status TrySubmitDetached(IoOpKind kind, PageNum page, void* buf,
                           IoCallback cb);

  const IoSchedulerStats& stats() const { return stats_; }
  const IoSchedulerOptions& options() const { return options_; }
  Volume* volume() { return volume_; }

 private:
  friend class IoRing;

  struct Slot {
    IoOpKind kind = IoOpKind::kRead;
    PageNum page = kInvalidPageNum;
    void* buf = nullptr;
    IoCallback cb;
    IoRing* ring = nullptr;  ///< Null for detached requests.
  };

  /// One coalesced device call: slots_[ids] cover pages
  /// [first, first + ids.size()) in order, all the same kind.
  struct Run {
    PageNum first = kInvalidPageNum;
    IoOpKind kind = IoOpKind::kRead;
    std::vector<uint32_t> ids;
  };

  uint32_t AcquireSlot();  ///< Blocks until a slot frees (backpressure).
  int TryAcquireSlot();    ///< -1 when none free.
  void ReleaseSlot(uint32_t id);
  void EnqueueRun(Run run);
  void WorkerLoop();
  void ExecuteRun(const Run& run);

  Volume* volume_;
  IoSchedulerOptions options_;
  IoSchedulerStats stats_;

  std::vector<Slot> slots_;
  std::mutex slot_mutex_;
  std::condition_variable slot_cv_;
  std::vector<uint32_t> free_slots_;  ///< Guarded by slot_mutex_.

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Run> queue_;  ///< Guarded by queue_mutex_.
  bool stop_ = false;      ///< Guarded by queue_mutex_.

  std::vector<std::thread> workers_;
};

}  // namespace shoremt::io

#endif  // SHOREMT_IO_IO_SCHEDULER_H_
