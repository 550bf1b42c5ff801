#include "repl/archive.h"

#include <span>
#include <utility>

#include "log/log_record.h"

namespace shoremt::repl {

Result<std::unique_ptr<RestoredInstance>> RestoreToLsn(
    const std::string& archive_dir, const log::LogStorage* live, Lsn target,
    sm::StorageOptions opts) {
  std::vector<uint8_t> history;
  size_t segment_bytes = 0;
  SHOREMT_RETURN_NOT_OK(
      log::ReadHistory(archive_dir, live, &history, &segment_bytes));
  if (history.empty()) {
    return Status::InvalidArgument("nothing to restore: empty archive + log");
  }

  // Cut after the last record whose END LSN is <= target; a record that
  // starts at or past the target cannot end by it, so it is never read.
  log::RecordReader reader(history, 0);
  log::LogRecord rec;
  Lsn end;
  uint64_t keep = 0;
  while (reader.offset() + 1 < target.value) {
    SHOREMT_ASSIGN_OR_RETURN(bool more, reader.Next(&rec, &end));
    if (!more || end > target) break;
    keep = reader.offset();
  }
  if (keep == 0) {
    return Status::InvalidArgument("restore target " +
                                   std::to_string(target.value) +
                                   " precedes the first archived record");
  }
  auto inst = std::make_unique<RestoredInstance>();
  inst->log = std::make_unique<log::LogStorage>(/*append_latency_ns=*/0,
                                                segment_bytes);
  SHOREMT_RETURN_NOT_OK(inst->log->Append(
      std::span<const uint8_t>(history).first(keep)));

  inst->volume = std::make_unique<io::MemVolume>();
  opts.open_mode = sm::OpenMode::kRestore;
  // Never archive from (or into) the source archive again.
  opts.log.archive_dir.clear();
  SHOREMT_ASSIGN_OR_RETURN(
      inst->sm,
      sm::StorageManager::Open(opts, inst->volume.get(), inst->log.get()));
  return inst;
}

}  // namespace shoremt::repl
