#ifndef SHOREMT_LOG_LOG_RECORD_H_
#define SHOREMT_LOG_LOG_RECORD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace shoremt::log {

/// Write-ahead log record kinds. Page-level physical records carry before/
/// after images for idempotent redo (guarded by page LSN) and logical undo.
enum class LogRecordType : uint8_t {
  kNoop = 0,
  kPageFormat,   ///< Page formatted/initialized for a store.
  kPageInsert,   ///< Record inserted: after = payload.
  kPageUpdate,   ///< Record updated: before/after = old/new payload.
  kPageDelete,   ///< Record deleted: before = old payload.
  kAllocPage,    ///< Free-space map: page allocated to store.
  kCreateStore,  ///< Store directory: store created.
  kCommit,       ///< Transaction committed (forces a flush).
  kAbort,        ///< Transaction rollback completed.
  kClr,          ///< Compensation record: an undo step was applied.
  kCheckpoint,   ///< Fuzzy checkpoint: payload = CheckpointBody.
  // B+Tree physiological records (§ARIES-style: page-oriented redo,
  // logical undo within the page).
  kBtreeInsert,      ///< after = packed {key,value} entry added to a node.
  kBtreeDelete,      ///< before = packed {key,value} entry removed.
  kBtreeSetContent,  ///< after = full node content (splits; redo-only,
                     ///< structure changes are never undone).
  kCatalog,          ///< after = serialized catalog entry (table created).
};

/// Size of the fixed serialized header:
///   u32 total_len | u8 type | u8 page_type | u16 slot
///   u64 txn | u64 prev_lsn | u64 undo_next | u64 page
///   u32 store | u32 before_len | u32 after_len
/// No valid record is smaller (with the CRC below), which makes it the
/// lower bound RecordReader uses to validate a length prefix before
/// trusting it.
inline constexpr size_t kLogRecordHeaderSize =
    4 + 1 + 1 + 2 + 8 + 8 + 8 + 8 + 4 + 4 + 4;

/// Trailing u32 CRC32C over the record's first total_len - 4 bytes
/// (header + payloads, length prefix included), inside total_len. The
/// length prefix says where a record ends; the CRC says whether what is
/// there is the record that was appended — together they distinguish a
/// torn tail from silent media corruption.
inline constexpr size_t kLogRecordCrcSize = 4;

/// In-memory form of a WAL record.
struct LogRecord {
  LogRecordType type = LogRecordType::kNoop;
  TxnId txn = kInvalidTxnId;
  Lsn prev_lsn;       ///< Previous record of the same transaction (undo chain).
  Lsn undo_next;      ///< CLR only: next record to undo.
  PageNum page = kInvalidPageNum;
  StoreId store = kInvalidStoreId;
  uint16_t slot = 0;
  uint8_t page_type = 0;  ///< kPageFormat only: page::PageType value.
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;

  /// Set when read back from the log.
  Lsn lsn;

  /// Serialized size in bytes.
  size_t SerializedSize() const;
};

/// Serializes `rec` to `out` (resized to fit). Format is length-prefixed so
/// the log can be scanned forward.
void SerializeLogRecord(const LogRecord& rec, std::vector<uint8_t>* out);

/// Parses one record starting at `data`. On success fills `rec` (except
/// lsn) and sets `consumed` to the record's total length.
Status DeserializeLogRecord(std::span<const uint8_t> data, LogRecord* rec,
                            size_t* consumed);

/// Walks a slice of the log record by record. Every reader of log bytes
/// (restart's scan, point reads, media repair, point-in-time restore and
/// the replica's parser) goes through it, so they share one framing rule:
///  - a length prefix smaller than header + CRC is Corruption: bytes below
///    the durable end were written whole, so this is media damage;
///  - a record that reaches past the slice is a torn tail: Next returns
///    false and offset() stays at the record's start;
///  - a contained record that fails DeserializeLogRecord (CRC or format)
///    is Corruption — those bytes were durably written and are now wrong.
/// Both Corruption messages name the record's LSN.
class RecordReader {
 public:
  /// `base` is the absolute log offset of bytes[0] (its LSN is base + 1).
  RecordReader(std::span<const uint8_t> bytes, uint64_t base)
      : bytes_(bytes), base_(base) {}

  /// Parses the next record into `rec` (lsn included) and sets `end` to
  /// the LSN just past it. False at the end of the slice or a torn tail.
  Result<bool> Next(LogRecord* rec, Lsn* end);

  /// Absolute offset of the next unread byte.
  uint64_t offset() const { return base_ + pos_; }

 private:
  std::span<const uint8_t> bytes_;
  uint64_t base_;
  size_t pos_ = 0;
};

/// One active transaction captured by a fuzzy checkpoint.
struct CheckpointTxn {
  TxnId id = kInvalidTxnId;
  Lsn last_lsn;   ///< Undo-chain tail at snapshot time (restart undo cursor).
  Lsn first_lsn;  ///< Begin LSN: the log append horizon when the
                  ///< transaction started — no record of it can sit below
                  ///< this, so it floors the log-recycling horizon.
};

/// Payload of a kCheckpoint record. Besides the classic redo low-water
/// mark and active-transaction table, it carries a catalog + space-map
/// snapshot: once segments below the horizon are recycled, the metadata
/// records that built those maps are gone, so analysis bootstraps from
/// the snapshot and replays only post-snapshot metadata records (all
/// apply hooks are idempotent — the snapshot is fuzzy).
struct CheckpointBody {
  /// Redo scan start: min(dirty-page-table min rec_lsn, oldest active
  /// transaction's begin LSN). Also the log-recycling horizon.
  Lsn redo_lsn;
  std::vector<CheckpointTxn> active_txns;
  /// Catalog snapshot: serialized sm-layer TableInfo entries (opaque to
  /// the log layer).
  std::vector<std::vector<uint8_t>> tables;
  /// Space snapshot: store → pages in allocation order.
  std::vector<std::pair<StoreId, std::vector<PageNum>>> stores;
};

void SerializeCheckpoint(const CheckpointBody& body, std::vector<uint8_t>* out);
Status DeserializeCheckpoint(std::span<const uint8_t> data,
                             CheckpointBody* body);

}  // namespace shoremt::log

#endif  // SHOREMT_LOG_LOG_RECORD_H_
