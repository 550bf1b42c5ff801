#include "io/io_scheduler.h"

#include <algorithm>

#include "io/retry.h"

namespace shoremt::io {

// ----------------------------------------------------------------- IoRing --

IoRing::~IoRing() { (void)Drain(); }

void IoRing::QueueRead(PageNum page, void* buf, IoCallback cb) {
  staged_.push_back({IoOpKind::kRead, page, buf, std::move(cb)});
}

void IoRing::QueueWrite(PageNum page, const void* buf, IoCallback cb) {
  staged_.push_back(
      {IoOpKind::kWrite, page, const_cast<void*>(buf), std::move(cb)});
}

size_t IoRing::Submit() {
  const uint32_t max_run = std::max<uint32_t>(
      1, std::min({scheduler_->options_.max_run_pages,
                   scheduler_->options_.ring_window,
                   scheduler_->options_.slots}));
  size_t runs = 0;
  size_t i = 0;
  while (i < staged_.size()) {
    // Coalesce the longest adjacent-page run of one kind (capped so a run
    // always fits the window).
    size_t j = i + 1;
    while (j < staged_.size() && j - i < max_run &&
           staged_[j].kind == staged_[i].kind &&
           staged_[j].page == staged_[i].page + (j - i)) {
      ++j;
    }
    size_t len = j - i;
    // Bounded window: block until this whole run fits among this ring's
    // in-flight requests.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (in_flight_ + len > scheduler_->options_.ring_window) {
        scheduler_->stats_.backpressure_waits.fetch_add(
            1, std::memory_order_relaxed);
        cv_.wait(lock, [&] {
          return in_flight_ + len <= scheduler_->options_.ring_window;
        });
      }
      in_flight_ += len;
    }
    IoScheduler::Run run;
    run.first = staged_[i].page;
    run.kind = staged_[i].kind;
    run.ids.reserve(len);
    for (size_t k = i; k < j; ++k) {
      uint32_t id = scheduler_->AcquireSlot();
      IoScheduler::Slot& s = scheduler_->slots_[id];
      s.kind = staged_[k].kind;
      s.page = staged_[k].page;
      s.buf = staged_[k].buf;
      s.cb = std::move(staged_[k].cb);
      s.ring = this;
      run.ids.push_back(id);
    }
    scheduler_->stats_.submitted.fetch_add(len, std::memory_order_relaxed);
    scheduler_->EnqueueRun(std::move(run));
    ++runs;
    i = j;
  }
  staged_.clear();
  return runs;
}

size_t IoRing::Poll() {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t done = completed_since_poll_;
  completed_since_poll_ = 0;
  return done;
}

Status IoRing::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return in_flight_ == 0; });
  completed_since_poll_ = 0;
  Status first = sticky_error_;
  sticky_error_ = Status::Ok();
  return first;
}

size_t IoRing::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

// ------------------------------------------------------------ IoScheduler --

IoScheduler::IoScheduler(Volume* volume, IoSchedulerOptions options)
    : volume_(volume), options_(options) {
  options_.workers = std::max<uint32_t>(1, options_.workers);
  options_.slots = std::max<uint32_t>(1, options_.slots);
  options_.ring_window = std::max<uint32_t>(1, options_.ring_window);
  slots_.resize(options_.slots);
  free_slots_.reserve(options_.slots);
  for (uint32_t i = 0; i < options_.slots; ++i) free_slots_.push_back(i);
  workers_.reserve(options_.workers);
  for (uint32_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoScheduler::~IoScheduler() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::unique_ptr<IoRing> IoScheduler::CreateRing() {
  return std::unique_ptr<IoRing>(new IoRing(this));
}

Status IoScheduler::TrySubmitDetached(IoOpKind kind, PageNum page, void* buf,
                                      IoCallback cb) {
  int id = TryAcquireSlot();
  if (id < 0) return Status::Busy("io scheduler slots exhausted");
  Slot& s = slots_[static_cast<uint32_t>(id)];
  s.kind = kind;
  s.page = page;
  s.buf = buf;
  s.cb = std::move(cb);
  s.ring = nullptr;
  Run run;
  run.first = page;
  run.kind = kind;
  run.ids.push_back(static_cast<uint32_t>(id));
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  EnqueueRun(std::move(run));
  return Status::Ok();
}

uint32_t IoScheduler::AcquireSlot() {
  std::unique_lock<std::mutex> lock(slot_mutex_);
  if (free_slots_.empty()) {
    stats_.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
    slot_cv_.wait(lock, [&] { return !free_slots_.empty(); });
  }
  uint32_t id = free_slots_.back();
  free_slots_.pop_back();
  return id;
}

int IoScheduler::TryAcquireSlot() {
  std::lock_guard<std::mutex> lock(slot_mutex_);
  if (free_slots_.empty()) return -1;
  uint32_t id = free_slots_.back();
  free_slots_.pop_back();
  return static_cast<int>(id);
}

void IoScheduler::ReleaseSlot(uint32_t id) {
  slots_[id].cb = nullptr;  // Drop closure state eagerly.
  {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    free_slots_.push_back(id);
  }
  slot_cv_.notify_one();
}

void IoScheduler::EnqueueRun(Run run) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(run));
  }
  queue_cv_.notify_one();
}

void IoScheduler::WorkerLoop() {
  for (;;) {
    Run run;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      // Drain-before-stop: everything submitted before destruction still
      // executes, so teardown with in-flight requests loses nothing.
      if (queue_.empty()) return;
      run = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecuteRun(run);
  }
}

void IoScheduler::ExecuteRun(const Run& run) {
  const size_t n = run.ids.size();
  // Gather the scattered buffers in page order for one vectored call.
  std::vector<uint8_t*> bufs(n);
  for (size_t i = 0; i < n; ++i) {
    bufs[i] = static_cast<uint8_t*>(slots_[run.ids[i]].buf);
  }
  // Transient device errors (EIO, busy, timeout) are retried here with
  // bounded backoff — retrying the whole run is safe because page reads
  // and writes are idempotent. Only an exhausted budget (or a permanent
  // error like Corruption) reaches the requests' callbacks.
  RetryPolicy policy{options_.max_retries, options_.retry_initial_backoff_ns,
                     options_.retry_max_backoff_ns};
  uint32_t retries = 0;
  Status st = RetryTransient(
      volume_, policy,
      [&] {
        return run.kind == IoOpKind::kRead
                   ? volume_->ReadPagesV(run.first, bufs.data(), n)
                   : volume_->WritePagesV(
                         run.first,
                         const_cast<const uint8_t* const*>(bufs.data()), n);
      },
      &retries);
  if (retries > 0) {
    stats_.retries.fetch_add(retries, std::memory_order_relaxed);
    uint64_t slept = 0;
    uint64_t b = policy.initial_backoff_ns;
    for (uint32_t i = 0; i < retries; ++i) {
      slept += b;
      b = std::min<uint64_t>(b * 2, policy.max_backoff_ns);
    }
    stats_.retry_backoff_ns.fetch_add(slept, std::memory_order_relaxed);
  }
  stats_.device_calls.fetch_add(1, std::memory_order_relaxed);
  if (n > 1) {
    stats_.batched_calls.fetch_add(1, std::memory_order_relaxed);
    stats_.coalesced_pages.fetch_add(n - 1, std::memory_order_relaxed);
  }
  if (!st.ok()) stats_.errors.fetch_add(n, std::memory_order_relaxed);
  // Count completion before delivering it: once the ring below is
  // notified, a Drain()ing observer may read the stats immediately.
  stats_.completed.fetch_add(n, std::memory_order_relaxed);

  // Per-request completion: the run's status applies to each member (a
  // failed run never touches requests in OTHER runs of the same batch —
  // that is the "sticky per request, not per batch" contract).
  IoRing* ring = slots_[run.ids[0]].ring;
  for (uint32_t id : run.ids) {
    Slot& s = slots_[id];
    if (s.cb) s.cb(s.page, st);
    if (s.ring == nullptr) ReleaseSlot(id);
  }
  if (ring != nullptr) {
    // Slots go back to the pool BEFORE the ring learns the run finished,
    // and the cv notify happens under the ring lock: once Drain observes
    // in_flight_ == 0 the ring may be destroyed immediately, so the
    // worker must be completely done with it at that point.
    for (uint32_t id : run.ids) ReleaseSlot(id);
    {
      std::lock_guard<std::mutex> lock(ring->mutex_);
      ring->in_flight_ -= n;
      ring->completed_since_poll_ += n;
      if (!st.ok() && ring->sticky_error_.ok()) ring->sticky_error_ = st;
      ring->cv_.notify_all();
    }
  }
}

}  // namespace shoremt::io
