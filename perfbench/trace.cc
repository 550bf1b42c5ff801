#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kBegin: return "sm.begin";
    case SpanKind::kRead: return "sm.read";
    case SpanKind::kUpdate: return "sm.update";
    case SpanKind::kInsert: return "sm.insert";
    case SpanKind::kCommit: return "sm.commit";
    case SpanKind::kAbort: return "sm.abort";
    case SpanKind::kIoRead: return "io.read";
    case SpanKind::kIoWrite: return "io.write";
  }
  return "?";
}

namespace {

struct SpanRecord {
  uint64_t id;
  uint64_t parent;  ///< 0 = root.
  uint64_t txn;     ///< 0 = outside any transaction.
  uint64_t start_ns;
  uint64_t end_ns;
  SpanKind kind;
};

struct OpenSpan {
  uint64_t id;
  uint64_t start_ns;
  uint64_t child_ns;
  SpanKind kind;
};

thread_local uint64_t tl_txn = 0;

}  // namespace

/// One thread's span state. Written only by its thread; read by
/// Summarize/WriteJson after that thread stopped recording.
struct Tracer::ThreadLog {
  uint64_t thread_tag;  ///< High bits of this thread's span ids.
  uint64_t next_seq = 1;
  std::vector<OpenSpan> open;
  std::vector<SpanRecord> kept;
  size_t keep_cap;
  TraceSummary totals;

  void Begin(SpanKind kind) {
    open.push_back(OpenSpan{thread_tag | next_seq++, NowNs(), 0, kind});
  }

  void End() {
    uint64_t end = NowNs();
    OpenSpan s = open.back();
    open.pop_back();
    uint64_t dur = end - s.start_ns;
    KindTotals& k = totals.kinds[static_cast<size_t>(s.kind)];
    k.count += 1;
    k.total_ns += dur;
    k.self_ns += dur - std::min(dur, s.child_ns);
    k.durations.Add(dur);
    uint64_t parent = 0;
    if (!open.empty()) {
      OpenSpan& p = open.back();
      p.child_ns += dur;
      totals.child_ns[static_cast<size_t>(p.kind)]
                     [static_cast<size_t>(s.kind)] += dur;
      parent = p.id;
    }
    totals.spans += 1;
    if (kept.size() < keep_cap) {
      kept.push_back(SpanRecord{s.id, parent, tl_txn, s.start_ns, end, s.kind});
    }
  }
};

std::atomic<Tracer*> Tracer::current_{nullptr};

Tracer::Tracer(size_t keep_per_thread) : keep_per_thread_(keep_per_thread) {}

Tracer::~Tracer() {
  Tracer* self = this;
  current_.compare_exchange_strong(self, nullptr);
}

void Tracer::Install(Tracer* tracer) {
  current_.store(tracer, std::memory_order_release);
}

void Tracer::SetTxn(uint64_t txn) { tl_txn = txn; }

Tracer::ThreadLog* Tracer::Local() {
  // One tracer lives per process run, so the cached pointer only has to
  // be re-validated against the tracer it was registered with.
  thread_local ThreadLog* log = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (owner != this) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->keep_cap = keep_per_thread_;
    std::lock_guard<std::mutex> g(logs_mutex_);
    fresh->thread_tag = static_cast<uint64_t>(logs_.size() + 1) << 40;
    log = fresh.get();
    logs_.push_back(std::move(fresh));
    owner = this;
  }
  return log;
}

void Tracer::RecordAck(uint64_t ns) {
  std::lock_guard<std::mutex> g(acks_mutex_);
  acks_.Add(ns);
}

bool Tracer::WaitForAcks(uint64_t timeout_ms) const {
  uint64_t deadline = NowNs() + timeout_ms * 1'000'000;
  while (true) {
    {
      std::lock_guard<std::mutex> g(acks_mutex_);
      if (acks_.count() >= acks_expected_.load(std::memory_order_relaxed)) {
        return true;
      }
    }
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

LatencyHistogram Tracer::Acks() const {
  std::lock_guard<std::mutex> g(acks_mutex_);
  return acks_;
}

TraceSummary Tracer::Summarize() const {
  TraceSummary sum;
  std::lock_guard<std::mutex> g(logs_mutex_);
  for (const auto& log : logs_) {
    for (size_t k = 0; k < kSpanKinds; ++k) {
      const KindTotals& src = log->totals.kinds[k];
      KindTotals& dst = sum.kinds[k];
      dst.count += src.count;
      dst.total_ns += src.total_ns;
      dst.self_ns += src.self_ns;
      dst.durations.Merge(src.durations);
      for (size_t c = 0; c < kSpanKinds; ++c) {
        sum.child_ns[k][c] += log->totals.child_ns[k][c];
      }
    }
    sum.spans += log->totals.spans;
    sum.spans_kept += log->kept.size();
  }
  return sum;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& host_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  TraceSummary sum = Summarize();
  std::fprintf(f,
               "{\"host\": %s,\n \"spans_total\": %llu, \"spans_kept\": %llu,"
               "\n \"spans\": [",
               host_json.c_str(), static_cast<unsigned long long>(sum.spans),
               static_cast<unsigned long long>(sum.spans_kept));
  bool first = true;
  std::lock_guard<std::mutex> g(logs_mutex_);
  for (const auto& log : logs_) {
    for (const SpanRecord& r : log->kept) {
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"txn\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}",
                   first ? "" : ",", SpanKindName(r.kind),
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.txn),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(SpanKind kind) {
  Tracer* tracer = Tracer::Current();
  if (tracer == nullptr) return;
  log_ = tracer->Local();
  log_->Begin(kind);
}

Span::~Span() {
  if (log_ != nullptr) log_->End();
}

}  // namespace perfbench
