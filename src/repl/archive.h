#ifndef SHOREMT_REPL_ARCHIVE_H_
#define SHOREMT_REPL_ARCHIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "io/volume.h"
#include "log/log_archive.h"
#include "log/log_storage.h"
#include "sm/options.h"
#include "sm/storage_manager.h"

namespace shoremt::repl {

/// A point-in-time-restored engine instance. Declaration order matters:
/// the manager is destroyed first (it borrows the log and volume).
struct RestoredInstance {
  std::unique_ptr<log::LogStorage> log;
  std::unique_ptr<io::MemVolume> volume;
  std::unique_ptr<sm::StorageManager> sm;
};

/// Point-in-time restore: reads the full log history (log::ReadHistory —
/// archived segments first, then the live storage's surviving bytes),
/// keeps it up to the last record whose end LSN is <= `target`, and runs
/// a full restart (OpenMode::kRestore: redo from LSN 1 over a fresh
/// volume) on the result. Transactions still in flight at `target` are
/// rolled back by restart undo, exactly as if the primary had crashed at
/// that LSN. A damaged length prefix or record below the target refuses
/// the restore with Corruption (log::RecordReader), as does an archived
/// segment that fails its manifest CRC.
///
/// `live` may be null (restore purely from the archive — e.g. the primary
/// host is gone but its tail had been recycled-and-archived). `opts` is
/// the restored instance's configuration; its log.archive_dir is cleared
/// (the restored instance must never append to the source archive).
Result<std::unique_ptr<RestoredInstance>> RestoreToLsn(
    const std::string& archive_dir, const log::LogStorage* live, Lsn target,
    sm::StorageOptions opts);

}  // namespace shoremt::repl

#endif  // SHOREMT_REPL_ARCHIVE_H_
