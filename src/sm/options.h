#ifndef SHOREMT_SM_OPTIONS_H_
#define SHOREMT_SM_OPTIONS_H_

#include <string_view>

#include "btree/btree.h"
#include "buffer/buffer_pool.h"
#include "lock/lock_manager.h"
#include "log/log_manager.h"
#include "space/space_manager.h"
#include "txn/txn_manager.h"

namespace shoremt::sm {

/// The optimization stages of §7, in order. Each stage preset configures
/// every component exactly as the corresponding Shore-MT development
/// snapshot: Figure 7 sweeps these presets.
enum class Stage {
  kBaseline,     ///< §7.1: pthreads + coarse mutexes everywhere.
  kBufferPool1,  ///< §7.2: per-bucket bpool locks, pin-if-pinned, TAS.
  kCaching,      ///< §7.3: free-space refactor, oldest-txn cache.
  kLog,          ///< §7.4: decoupled log buffer, extent cache, cuckoo.
  kLockManager,  ///< §7.5: per-bucket lock table, lock-free request pool.
  kBufferPool2,  ///< §7.6: clock-hand release, distributed transit lists.
  kFinal,        ///< §7.7: consolidated log inserts, decoupled checkpoint,
                 ///<        no redundant B+Tree probe locks.
};

constexpr std::string_view StageName(Stage s) {
  switch (s) {
    case Stage::kBaseline: return "baseline";
    case Stage::kBufferPool1: return "bpool 1";
    case Stage::kCaching: return "caching";
    case Stage::kLog: return "log";
    case Stage::kLockManager: return "lock mgr";
    case Stage::kBufferPool2: return "bpool 2";
    case Stage::kFinal: return "final";
  }
  return "?";
}

inline constexpr Stage kAllStages[] = {
    Stage::kBaseline,     Stage::kBufferPool1, Stage::kCaching,
    Stage::kLog,          Stage::kLockManager, Stage::kBufferPool2,
    Stage::kFinal,
};

/// How StorageManager::Open treats the durable state it is handed.
enum class OpenMode {
  /// Normal: full ARIES restart (analysis/redo/undo) when the log is
  /// non-empty.
  kRecover,
  /// Replication replica: no recovery and no checkpoint daemon — the
  /// repl::Replica's replay pool applies the shipped log itself and owns
  /// the visibility horizon; the manager only provides the read path.
  kReplicaAttach,
  /// Replica promotion: the replay pool already applied every committed
  /// record, so redo is skipped; analysis still runs to find in-flight
  /// (loser) transactions, which are rolled back structure-only (their
  /// deferred heap records were never applied) and formally aborted.
  kPromote,
  /// Point-in-time restore: full restart over a reconstructed log and an
  /// EMPTY volume — redo starts at LSN 1 and ignores checkpoint redo
  /// low-water marks (they describe a volume state the fresh one lacks).
  kRestore,
};

/// Aggregated configuration of the whole storage manager.
struct StorageOptions {
  buffer::BufferPoolOptions buffer;
  space::SpaceOptions space;
  log::LogOptions log;
  lock::LockOptions lock;
  txn::TxnOptions txn;
  btree::BTreeOptions btree;
  /// §7.7: derive the checkpoint redo point from the dirty-page table's
  /// incremental minimum (maintained by MarkDirty / write-back, advanced
  /// by the page cleaner) instead of scanning the whole buffer pool while
  /// holding the transaction table still.
  bool decoupled_checkpoint = true;
  /// Background checkpoint daemon: takes a fuzzy checkpoint (and recycles
  /// log segments below its low-water mark) every interval, plus whenever
  /// log-segment pressure wakes it through the flush pipeline's hook.
  /// Paired with buffer.enable_cleaner and log.segment_bytes this closes
  /// the full loop — cleaner advances the low-water mark, checkpoint
  /// records it, Recycle frees segments, recovery redoes only the tail.
  bool checkpoint_daemon = false;
  uint64_t checkpoint_interval_ms = 100;
  /// Unused: nothing reads it. Every checkpoint carries the catalog and
  /// the extent map, and recycles the log to its own redo LSN. It stays
  /// declared only because the benchmark driver still reads it; the
  /// benchmark change that stops reading it deletes it.
  size_t checkpoint_snapshot_every = 4;
  /// Cursor range scans prefetch up to this many upcoming heap/leaf pages
  /// through the buffer pool's detached async-read path (0 = off). Issued
  /// once per buffered-leaf generation, so a scan stays at most one leaf
  /// ahead of consumption.
  size_t scan_readahead = 8;
  /// Unused: nothing reads it. Restart redo applies each record straight
  /// from the log reader with no readahead window. It stays declared only
  /// because the benchmark driver still assigns it; the benchmark change
  /// that stops setting it deletes it.
  size_t recovery_prefetch_window = 64;
  /// See OpenMode; replication paths (src/repl) set the non-default modes.
  OpenMode open_mode = OpenMode::kRecover;

  /// Configuration corresponding to a §7 development stage. Later stages
  /// include all earlier optimizations (the paper's process was strictly
  /// cumulative).
  static StorageOptions ForStage(Stage stage);
};

}  // namespace shoremt::sm

#endif  // SHOREMT_SM_OPTIONS_H_
