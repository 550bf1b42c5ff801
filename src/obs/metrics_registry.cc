#include "obs/metrics_registry.h"

namespace shoremt::obs {

MetricsRegistry::MetricsRegistry()
    : slots_(new WorkerCounters[kMaxWorkers]) {}

WorkerCounters* MetricsRegistry::RegisterWorker() {
  for (size_t i = 0; i < kMaxWorkers; ++i) {
    WorkerCounters& slot = slots_[i];
    bool expected = false;
    // Acquire pairs with the release in UnregisterWorker: a re-claimed
    // slot's counters are observed zeroed.
    if (slot.used_.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire)) {
      return &slot;
    }
  }
  return nullptr;
}

void MetricsRegistry::UnregisterWorker(WorkerCounters* wc) {
  if (wc == nullptr) return;
  // Move each counter from the slot into the retired accumulator. The
  // exchange empties the slot before the (release) fold lands, and
  // Snapshot reads the retired side first (acquire), so a concurrent
  // Snapshot sees the value in at most one place (never both): totals can
  // transiently dip by one worker's contribution, never double-count.
  for (size_t i = 0; i < kMetricCount; ++i) {
    uint64_t v = wc->counters_[i].exchange(0, std::memory_order_relaxed);
    if (v != 0) retired_[i].fetch_add(v, std::memory_order_release);
  }
  for (int i = 0; i < kLatencyBuckets; ++i) {
    uint64_t v = wc->latency_buckets_[i].exchange(0, std::memory_order_relaxed);
    if (v != 0) retired_latency_[i].fetch_add(v, std::memory_order_release);
  }
  uint64_t c = wc->latency_count_.exchange(0, std::memory_order_relaxed);
  if (c != 0) retired_latency_count_.fetch_add(c, std::memory_order_release);
  uint64_t s = wc->latency_sum_.exchange(0, std::memory_order_relaxed);
  if (s != 0) retired_latency_sum_.fetch_add(s, std::memory_order_release);
  // Release pairs with RegisterWorker's acquire-CAS.
  wc->used_.store(false, std::memory_order_release);
}

void MetricsRegistry::AddSource(Source source) {
  std::lock_guard<std::mutex> guard(source_mutex_);
  sources_.push_back(std::move(source));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  // Retired side first: reading a slot before its fold and the retired
  // total after it would count the worker twice.
  for (size_t i = 0; i < kMetricCount; ++i) {
    snap.totals[i] += retired_[i].load(std::memory_order_acquire);
  }
  for (int i = 0; i < kLatencyBuckets; ++i) {
    snap.latency.buckets[i] +=
        retired_latency_[i].load(std::memory_order_acquire);
  }
  snap.latency.count += retired_latency_count_.load(std::memory_order_acquire);
  snap.latency.sum += retired_latency_sum_.load(std::memory_order_acquire);
  // Sum every slot regardless of its used flag: a block mid-unregister
  // contributes through whichever side (slot or retired) its values
  // currently sit on.
  for (size_t w = 0; w < kMaxWorkers; ++w) {
    const WorkerCounters& slot = slots_[w];
    for (size_t i = 0; i < kMetricCount; ++i) {
      snap.totals[i] += slot.counters_[i].load(std::memory_order_relaxed);
    }
    for (int i = 0; i < kLatencyBuckets; ++i) {
      snap.latency.buckets[i] +=
          slot.latency_buckets_[i].load(std::memory_order_relaxed);
    }
    snap.latency.count += slot.latency_count_.load(std::memory_order_relaxed);
    snap.latency.sum += slot.latency_sum_.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> guard(source_mutex_);
    for (const Source& src : sources_) src(&snap.totals);
  }
  return snap;
}

size_t MetricsRegistry::active_workers() const {
  size_t n = 0;
  for (size_t i = 0; i < kMaxWorkers; ++i) {
    if (slots_[i].used_.load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

}  // namespace shoremt::obs
