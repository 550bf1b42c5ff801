#ifndef SHOREMT_REPL_REPLICA_H_
#define SHOREMT_REPL_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "io/volume.h"
#include "log/log_record.h"
#include "log/log_storage.h"
#include "obs/metrics_registry.h"
#include "sm/storage_manager.h"

namespace shoremt::repl {

/// A log-shipping replica: receives the primary's durable log over a
/// stream socket, appends it verbatim to its own LogStorage, and applies
/// it on the receive thread, publishing a `replayed_lsn` visibility
/// horizon after each received frame. Reads are served through the
/// attached StorageManager's normal Session path
/// (`replica.sm()->OpenSession()`); a read-only transaction at the
/// horizon sees exactly the committed prefix up to it.
///
/// Apply discipline (commit-gated deferred replay): heap DML and heap
/// CLRs are buffered per transaction and applied only at that
/// transaction's kCommit — an aborted transaction's heap records are
/// simply discarded, so the replica never applies (and never needs to
/// undo) uncommitted row state. Structure records — page formats, B-tree
/// inserts/deletes/splits, allocation, store/catalog metadata — are
/// applied immediately in log order: structure is redo-only on the
/// primary (never undone on abort), and a later committed transaction may
/// legitimately build on an earlier uncommitted transaction's structure
/// (e.g. insert into a page the other formatted). Released records arrive
/// in COMMIT order, not LSN order, so every apply is forced (ApplyRedo
/// force=true) and page LSNs only ratchet upward.
///
/// Promotion (the primary died): Promote() stops the stream, joining the
/// only thread that applies, truncates the received log at the last
/// complete record, and reopens the engine with OpenMode::kPromote —
/// analysis finds transactions with no commit record, undoes their
/// structure records (their heap records were never applied), and
/// formally aborts them. The promoted manager then serves reads AND
/// writes: it is the new primary, and its log is a valid restart log.
class Replica {
 public:
  struct Options {
    /// Base configuration for the attached (and later promoted) manager.
    sm::StorageOptions storage;
  };

  /// `volume` and `storage` are the replica's durable state, owned by the
  /// caller (alive across Promote). `storage` is usually empty (fresh
  /// replica) but may be a previously received prefix (reconnect).
  Replica(io::Volume* volume, log::LogStorage* storage, Options opts);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Attaches the engine (OpenMode::kReplicaAttach: no recovery, no
  /// checkpoint daemon), sends kHello{local size} on `fd` (owned by the
  /// caller), and spawns the receive thread.
  Status Start(int fd);
  /// Stops the receive thread (idempotent; also called by Promote).
  void Stop();

  /// Read (and post-promotion write) access; never null after a
  /// successful Start. Swapped for the promoted manager by Promote().
  sm::StorageManager* sm() { return sm_.get(); }

  /// Fails over to primary; see class comment. After Ok, promoted() is
  /// true and sm() is the new read-write manager.
  Status Promote();
  bool promoted() const { return promoted_; }

  // --- observability --------------------------------------------------------

  /// Every committed record with end LSN <= this has been applied.
  uint64_t replayed_lsn() const {
    return replayed_.load(std::memory_order_acquire);
  }
  /// Waits for the horizon to reach `lsn`; false on timeout, on a
  /// receive/replay error, or once the stream ended below `lsn`.
  bool WaitReplayed(uint64_t lsn, int timeout_ms);
  /// Bytes durably received from the primary.
  uint64_t received_bytes() const { return storage_->size(); }
  /// True once the primary's side of the socket closed.
  bool stream_ended() const {
    return eof_.load(std::memory_order_acquire);
  }
  /// Blocks until the stream ends (primary closed/crashed) or timeout.
  bool WaitStreamEnd(int timeout_ms);
  /// Sticky receive/replay error.
  Status error() const;

  uint64_t frames_applied() const {
    return frames_applied_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_streamed() const {
    return bytes_streamed_.load(std::memory_order_relaxed);
  }

  /// Registers replica counters (segments applied, bytes streamed, replay
  /// passes, replayed-LSN lag gauge) on the ATTACHED manager's registry.
  /// Any ProfilingThread over it must stop before Promote() (promotion
  /// replaces the manager and its registry).
  void RegisterMetrics();

 private:
  Status ReceiveLoop();
  /// Parses complete records in [parse_pos_, storage size), applies them
  /// through the commit gate, and publishes replayed_lsn = parse_pos_ + 1.
  Status ProcessNewBytes();

  io::Volume* volume_;
  log::LogStorage* storage_;
  Options opts_;

  std::unique_ptr<sm::StorageManager> sm_;

  int fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool promoted_ = false;

  /// Receive-thread state: next unparsed offset and the commit gate —
  /// per-transaction buffered heap records awaiting kCommit.
  uint64_t parse_pos_ = 0;
  std::unordered_map<TxnId, std::vector<std::pair<log::LogRecord, Lsn>>>
      pending_;

  std::atomic<uint64_t> frames_applied_{0};
  std::atomic<uint64_t> bytes_streamed_{0};
  /// ProcessNewBytes passes that parsed at least one record.
  std::atomic<uint64_t> replay_passes_{0};

  /// Guards error_; with cv_ it wakes WaitReplayed and WaitStreamEnd when
  /// the horizon advances, the stream ends, or the receive thread fails.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<uint64_t> replayed_{0};
  std::atomic<bool> eof_{false};
  Status error_ = Status::Ok();
  std::atomic<bool> has_error_{false};
};

}  // namespace shoremt::repl

#endif  // SHOREMT_REPL_REPLICA_H_
