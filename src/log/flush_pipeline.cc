#include "log/flush_pipeline.h"

#include <algorithm>
#include <chrono>

#include "log/log_buffer.h"
#include "log/log_manager.h"

namespace shoremt::log {

FlushPipeline::FlushPipeline(LogBuffer* buffer, LogStats* stats,
                             uint64_t idle_flush_interval_us)
    : buffer_(buffer),
      stats_(stats),
      idle_flush_interval_us_(idle_flush_interval_us),
      callback_executor_(
          std::make_unique<sync::BoundedExecutor>(kCallbackQueue)),
      daemon_([this] { DaemonLoop(); }) {}

FlushPipeline::~FlushPipeline() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (daemon_.joinable()) daemon_.join();
  // The daemon's final pass submitted whatever remained; draining the
  // executor here guarantees every registered closure has fired before the
  // pipeline is gone.
  callback_executor_.reset();
}

bool FlushPipeline::IsDurable(Lsn upto) const {
  return buffer_->durable_lsn() >= upto;
}

Status FlushPipeline::error() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return error_;
}

void FlushPipeline::Abandon() {
  std::lock_guard<std::mutex> guard(mutex_);
  abandoned_ = true;
}

void FlushPipeline::SetPostBatchHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> guard(mutex_);
  post_batch_hook_ = std::move(hook);
}

void FlushPipeline::Submit(Lsn upto) {
  if (upto.IsNull() || IsDurable(upto)) return;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++pending_submits_;
    requested_ = std::max(requested_, upto.value);
  }
  work_cv_.notify_one();
}

void FlushPipeline::OnDurable(Lsn upto, std::function<void(Status)> fn) {
  if (!fn) return;
  if (upto.IsNull() || IsDurable(upto)) {
    fn(Status::Ok());
    return;
  }
  bool fire_now = false;
  Status fire_status;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (!error_.ok()) {
      // The pipeline is poisoned: this target can never become durable.
      fire_now = true;
      fire_status = error_;
    } else if (IsDurable(upto)) {
      // Became durable between the unlocked check and the lock.
      fire_now = true;
      fire_status = Status::Ok();
    } else if (daemon_exited_) {
      fire_now = true;
      fire_status =
          Status::Internal("flush pipeline stopped before LSN became durable");
    } else {
      callbacks_.emplace(upto.value, std::move(fn));
      // The registration doubles as a flush submission: the daemon owes
      // this target a batch even if nobody ever Waits on it. It is not a
      // commit request though — pending_submits_ stays untouched so the
      // transactions-per-flush stat is not double-counted when a commit
      // is both submitted and callback-acknowledged.
      requested_ = std::max(requested_, upto.value);
    }
  }
  if (fire_now) {
    fn(fire_status);
    return;
  }
  work_cv_.notify_one();
}

std::vector<std::pair<FlushPipeline::Callback, Status>>
FlushPipeline::CollectDueCallbacksLocked(bool final_pass,
                                         const Status& fallback) {
  std::vector<std::pair<Callback, Status>> due;
  uint64_t durable = buffer_->durable_lsn().value;
  auto it = callbacks_.begin();
  while (it != callbacks_.end()) {
    if (it->first <= durable) {
      due.emplace_back(std::move(it->second), Status::Ok());
    } else if (!error_.ok()) {
      // Sticky error: durability can never be promised again — every
      // pending closure learns it now.
      due.emplace_back(std::move(it->second), error_);
    } else if (final_pass) {
      due.emplace_back(std::move(it->second), fallback);
    } else {
      break;  // Keys ascend; nothing further is due.
    }
    it = callbacks_.erase(it);
  }
  return due;
}

void FlushPipeline::DispatchDue(std::unique_lock<std::mutex>& lk,
                                bool final_pass, const Status& fallback) {
  auto due = CollectDueCallbacksLocked(final_pass, fallback);
  if (due.empty()) return;
  lk.unlock();
  // The whole batch is one executor task: the single worker's FIFO queue
  // preserves ascending-LSN dispatch order within AND across batches,
  // while the daemon goes straight back to flushing — a slow closure can
  // no longer stall group-commit acknowledgement.
  callback_executor_->Submit([batch = std::move(due)]() mutable {
    for (auto& [fn, st] : batch) fn(st);
  });
  lk.lock();
}

void FlushPipeline::NotifyDurableAdvanced() {
  durable_cv_.notify_all();
  // Callbacks satisfied by the synchronous flush are dispatched by the
  // daemon (woken here), never on this caller's thread: the documented
  // contract is one dispatching thread and ascending-LSN order, which
  // concurrent Invoke loops would both break.
  work_cv_.notify_one();
}

bool FlushPipeline::HasDueCallbacksLocked() const {
  return !callbacks_.empty() &&
         callbacks_.begin()->first <= buffer_->durable_lsn().value;
}

Status FlushPipeline::Wait(Lsn upto) {
  if (upto.IsNull()) return Status::Ok();
  if (IsDurable(upto)) {
    stats_->waits_avoided.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lk(mutex_);
  if (upto.value > requested_) {
    // Nobody submitted this target yet (Wait without a prior Submit):
    // register it ourselves so the daemon has a reason to run.
    ++pending_submits_;
    requested_ = upto.value;
    work_cv_.notify_one();
  }
  stats_->flush_waits.fetch_add(1, std::memory_order_relaxed);
  // Bounded wait, re-checking the predicate: the durable horizon can also
  // advance through paths that do not notify this cv (a synchronous
  // FlushTo on another thread, an appender's ring-full self-drain), and
  // the daemon goes back to sleep without notifying when it wakes to find
  // its work already done. NotifyDurableAdvanced() keeps the common case
  // prompt; the timeout guarantees liveness against every missed-notify
  // interleaving.
  while (!IsDurable(upto) && error_.ok() && !daemon_exited_) {
    durable_cv_.wait_for(lk, std::chrono::milliseconds(1));
  }
  if (IsDurable(upto)) return Status::Ok();
  if (!error_.ok()) return error_;
  return Status::Internal("flush pipeline stopped before LSN became durable");
}

bool FlushPipeline::HasWorkLocked() const {
  return requested_ > buffer_->durable_lsn().value;
}

void FlushPipeline::DaemonLoop() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (!stop_) {
    if (idle_flush_interval_us_ > 0) {
      work_cv_.wait_for(lk, std::chrono::microseconds(idle_flush_interval_us_),
                        [&] {
                          return stop_ || HasWorkLocked() ||
                                 HasDueCallbacksLocked();
                        });
    } else {
      work_cv_.wait(lk, [&] {
        return stop_ || HasWorkLocked() || HasDueCallbacksLocked();
      });
    }
    if (stop_) break;
    // Dispatch anything a synchronous flush already made durable before
    // (and regardless of) running a batch of our own.
    if (HasDueCallbacksLocked()) {
      DispatchDue(lk, /*final_pass=*/false, Status::Ok());
      if (stop_) break;
    }
    if (!error_.ok()) {
      // The device already failed once; durability promises are off. Park
      // until shutdown instead of hammering a broken device — but tell
      // every registered durability closure first.
      DispatchDue(lk, /*final_pass=*/false, error_);
      work_cv_.wait(lk, [&] { return stop_; });
      break;
    }
    uint64_t target = requested_;
    if (idle_flush_interval_us_ > 0) {
      // Periodic mode also drains unsubmitted appends (background flush).
      // The target is the buffer's completion watermark, not its claim
      // frontier: flushing to head would park the daemon behind in-flight
      // copiers in an out-of-order-completion buffer.
      target = std::max(target, buffer_->completed_lsn().value);
    }
    if (buffer_->durable_lsn().value >= target) continue;
    uint64_t batched = pending_submits_;
    pending_submits_ = 0;
    lk.unlock();
    // One device flush covers every target submitted so far — the group
    // commit: `batched` commit requests amortize this single call.
    Status st = buffer_->FlushTo(Lsn{target});
    lk.lock();
    // Pressure nudge: this flush may have filled the log past the recycle
    // threshold — wake the cleaner/checkpoint services (cv notifies, no
    // busy-wait) so the low-water mark advances and segments can be freed.
    // Invoked UNDER the lock so SetPostBatchHook(nullptr) synchronizes
    // with any in-flight invocation (the owner clears it at teardown,
    // before the structures the hook pokes are destroyed).
    if (st.ok() && post_batch_hook_) post_batch_hook_();
    if (st.ok()) {
      stats_->group_batches.fetch_add(1, std::memory_order_relaxed);
      stats_->group_batch_txns.fetch_add(batched, std::memory_order_relaxed);
    } else if (error_.ok()) {
      error_ = st;  // A failed batch acknowledged nothing: only the error.
    }
    durable_cv_.notify_all();
    // Dispatch the durability callbacks this batch satisfied (or, on a
    // failed batch, poison every pending one) without holding the lock.
    DispatchDue(lk, /*final_pass=*/false, Status::Ok());
  }
  // Final drain: a clean shutdown must not lose submitted commits. An
  // abandoned pipeline (simulated crash) skips this on purpose.
  if (!abandoned_ && error_.ok() &&
      requested_ > buffer_->durable_lsn().value) {
    uint64_t target = requested_;
    lk.unlock();
    Status st = buffer_->FlushTo(Lsn{target});
    lk.lock();
    if (!st.ok() && error_.ok()) error_ = st;
  }
  daemon_exited_ = true;
  durable_cv_.notify_all();
  // Whatever remains fires now: Ok if the final drain covered it, the
  // sticky/stop error otherwise — a registered closure never silently
  // vanishes.
  DispatchDue(lk, /*final_pass=*/true,
              !error_.ok()
                  ? error_
                  : Status::Internal(
                        "flush pipeline stopped before LSN became durable"));
}

}  // namespace shoremt::log
