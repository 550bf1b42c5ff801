#include "repl/archive.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "log/log_record.h"

namespace shoremt::repl {

Result<std::unique_ptr<RestoredInstance>> RestoreToLsn(
    const std::string& archive_dir, const log::LogStorage* live, Lsn target,
    sm::StorageOptions opts) {
  SHOREMT_ASSIGN_OR_RETURN(log::LogArchive archive,
                           log::LogArchive::Open(archive_dir));

  auto inst = std::make_unique<RestoredInstance>();
  size_t segment_bytes = archive.empty()
                             ? (live != nullptr ? live->segment_bytes() : 0)
                             : archive.segments().front().capacity;
  inst->log = std::make_unique<log::LogStorage>(/*append_latency_ns=*/0,
                                                segment_bytes);

  // Reassemble the stream: the archive must start at offset 0 (recycling
  // archives oldest-first, so a non-zero base means segments were freed
  // before archiving was switched on — the prefix is unrecoverable).
  if (!archive.empty() && archive.base_offset() != 0) {
    return Status::IOError("archive starts at offset " +
                           std::to_string(archive.base_offset()) +
                           ", log prefix was recycled unarchived");
  }
  std::vector<uint8_t> buf;
  if (!archive.empty()) {
    SHOREMT_RETURN_NOT_OK(
        archive.Read(0, archive.end_offset(), &buf));
    SHOREMT_RETURN_NOT_OK(inst->log->Append(buf));
  }
  if (live != nullptr && live->size() > archive.end_offset()) {
    buf.clear();
    // ReadFrom fails below the live reclamation horizon, which catches a
    // gap between archive end and the first live segment.
    SHOREMT_RETURN_NOT_OK(live->ReadFrom(archive.end_offset(), &buf));
    SHOREMT_RETURN_NOT_OK(inst->log->Append(buf));
  }
  if (inst->log->size() == 0) {
    return Status::InvalidArgument("nothing to restore: empty archive + log");
  }

  // Cut after the last record whose END LSN is <= target. Records are
  // length-prefixed; the reassembled stream starts at offset 0, so a
  // simple forward walk finds the boundary.
  std::vector<uint8_t> stream = inst->log->Snapshot();
  uint64_t keep = 0;
  uint64_t pos = 0;
  while (pos + 4 <= stream.size()) {
    uint32_t len;
    std::memcpy(&len, stream.data() + pos, 4);
    if (len < log::kLogRecordHeaderSize || pos + len > stream.size()) break;
    if (pos + len + 1 > target.value) break;  // end LSN past the target
    pos += len;
    keep = pos;
  }
  if (keep == 0) {
    return Status::InvalidArgument("restore target " +
                                   std::to_string(target.value) +
                                   " precedes the first archived record");
  }
  SHOREMT_RETURN_NOT_OK(inst->log->TruncateTo(keep));

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
