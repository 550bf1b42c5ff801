#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "latency.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds (steady_clock).
uint64_t NowNs();

/// The layer boundaries the benchmark records spans at: the client's
/// transaction, each sm::Session call, and each io::Volume device call.
enum class SpanKind : uint8_t {
  kTxn,
  kBegin,
  kRead,
  kUpdate,
  kInsert,
  kCommit,
  kAbort,
  kIoRead,
  kIoWrite,
};
inline constexpr size_t kSpanKinds = 9;

const char* SpanKindName(SpanKind kind);

/// Totals for one span kind. Self time is duration minus the time covered
/// by child spans (children on one thread are nested and never overlap,
/// so covered time is the sum of their durations).
struct KindTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  LatencyHistogram durations;
};

/// Merged view over every thread's spans.
struct TraceSummary {
  std::array<KindTotals, kSpanKinds> kinds;
  /// child_ns[p][c]: time spent in spans of kind c whose parent is kind p.
  std::array<std::array<uint64_t, kSpanKinds>, kSpanKinds> child_ns = {};
  uint64_t spans = 0;
  uint64_t spans_kept = 0;
};

/// In-memory span recorder. While installed (Install), every Span on any
/// thread records name, start, end, parent span and the thread's current
/// transaction id; the parent is the innermost open span on the calling
/// thread, so a device call made from inside Session::Read is a child of
/// that read. Aggregates cover every span; the first `keep_per_thread`
/// span records of each thread are also kept verbatim for WriteJson.
///
/// Summarize/WriteJson may run only once no thread can still be inside a
/// Span that began while the tracer was installed (workers joined, the
/// storage manager whose daemons made device calls destroyed).
class Tracer {
 public:
  explicit Tracer(size_t keep_per_thread);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts (tracer) or stops (nullptr) recording process-wide.
  static void Install(Tracer* tracer);
  static Tracer* Current() {
    return current_.load(std::memory_order_acquire);
  }
  /// Tags the calling thread's spans with transaction `txn` until the next
  /// call (engine threads never call it, so their spans carry 0).
  static void SetTxn(uint64_t txn);

  /// Commit-acknowledgment latencies: a caller registers one expected
  /// acknowledgment, and the durability callback later records it (from
  /// any thread).
  void ExpectAck() { acks_expected_.fetch_add(1, std::memory_order_relaxed); }
  void RecordAck(uint64_t ns);
  /// Waits (up to `timeout_ms`) until every expected acknowledgment has
  /// been recorded; false on timeout.
  bool WaitForAcks(uint64_t timeout_ms) const;
  /// Acknowledgment latencies recorded so far.
  LatencyHistogram Acks() const;

  TraceSummary Summarize() const;
  /// Writes {"host": ..., "spans": [...]} with the kept span records.
  bool WriteJson(const std::string& path, const std::string& host_json) const;

 private:
  friend class Span;
  struct ThreadLog;

  ThreadLog* Local();

  static std::atomic<Tracer*> current_;

  const size_t keep_per_thread_;
  mutable std::mutex logs_mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // Guarded by logs_mutex_.

  std::atomic<uint64_t> acks_expected_{0};
  mutable std::mutex acks_mutex_;
  LatencyHistogram acks_;  // Guarded by acks_mutex_.
};

/// Scoped span: records from construction to destruction when a tracer is
/// installed, and costs one atomic load otherwise.
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadLog* log_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
