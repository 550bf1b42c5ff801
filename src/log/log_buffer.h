#ifndef SHOREMT_LOG_LOG_BUFFER_H_
#define SHOREMT_LOG_LOG_BUFFER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "log/log_storage.h"
#include "sync/hybrid_mutex.h"
#include "sync/sync_stats.h"

namespace shoremt::log {

struct LogStats;

/// Which log buffer implementation to use — the §6.2.2/§6.2.4/§7.4 story,
/// one kind per development stage that selects it (StorageOptions::ForStage):
enum class LogBufferKind : uint8_t {
  /// Original Shore: one mutex over a non-circular buffer; a full buffer
  /// triggers a synchronous flush that stalls every inserter; each insert
  /// also pokes the daemon wakeup mutex.
  kMutex,
  /// Circular buffer with separate insert/compensation/flush critical
  /// sections; flushes no longer stall inserts unless the ring is full.
  kDecoupled,
  /// Consolidation-array buffer: insert serialization is reduced to
  /// claiming buffer space with one CAS (the moral equivalent of the
  /// extended MCS queue of §6.2.4). Threads that collide on the claim
  /// join an open group slot (atomically adding their sizes), one leader
  /// claims the combined extent, and members copy their sub-ranges in
  /// parallel. Completion is published OUT OF ORDER through per-region
  /// completed-byte counters; the flusher advances a contiguous watermark
  /// over fully-completed regions. No predecessor spin, no global
  /// ordering point.
  kCArray,
};

/// Outcome of appending one record.
struct Appended {
  Lsn lsn;  ///< Start LSN (locates the record for undo chains).
  Lsn end;  ///< End LSN (what page LSNs store; flush targets).
};

/// In-memory staging buffer between log producers and the durable
/// LogStorage. LSNs are byte offsets + 1 in the storage stream.
class LogBuffer {
 public:
  virtual ~LogBuffer() = default;

  /// Appends a serialized record; `compensation` marks CLR traffic (kept
  /// as a separate logical operation per §6.2.2, although this
  /// implementation routes both through the insert path).
  virtual Result<Appended> Append(std::span<const uint8_t> rec,
                                  bool compensation) = 0;

  /// Blocks until every byte below `upto` is durable.
  virtual Status FlushTo(Lsn upto) = 0;

  /// All records with end ≤ durable_lsn() survive a crash.
  Lsn durable_lsn() const { return Lsn{storage_->size() + 1}; }
  /// LSN the next append will receive.
  virtual Lsn next_lsn() const = 0;
  /// Everything below this LSN has finished copying into the buffer and
  /// can be flushed without waiting on in-flight appenders — the natural
  /// background-flush target. Buffers whose copies complete in claim
  /// order report next_lsn(); the consolidation-array buffer advances and
  /// reports its completion watermark.
  virtual Lsn completed_lsn() { return next_lsn(); }

  LogStorage* storage() { return storage_; }

 protected:
  explicit LogBuffer(LogStorage* storage) : storage_(storage) {}
  LogStorage* storage_;
};

/// Builds the buffer for `kind` over `storage` with a `capacity`-byte
/// staging area. `stats` (optional) receives the consolidation counters of
/// the kCArray buffer (group sizes, slot joins vs solo claims, watermark
/// stalls); kMutex and kDecoupled ignore it. `force_consolidation` is the
/// LogOptions::carray_force_consolidation test hook.
std::unique_ptr<LogBuffer> MakeLogBuffer(LogBufferKind kind,
                                         LogStorage* storage,
                                         size_t capacity,
                                         LogStats* stats = nullptr,
                                         bool force_consolidation = false);

}  // namespace shoremt::log

#endif  // SHOREMT_LOG_LOG_BUFFER_H_
