#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

namespace perfbench {

/// Closed-loop client threads, each with its own Session. Two leave the
/// rest of a 4-way host to the engine's flush, cleaner, checkpoint and
/// I/O threads.
inline constexpr int kWorkers = 2;

/// Last acknowledged value of every row a run wrote through
/// Workload::RunWriteTxn, keyed by (table index, key).
using AckedWrites =
    std::map<std::pair<int, uint64_t>, std::vector<uint8_t>>;

/// Rows one transaction wrote, in order; folded into AckedWrites once the
/// transaction's commit is acknowledged.
using TxnWrites =
    std::vector<std::pair<std::pair<int, uint64_t>, std::vector<uint8_t>>>;

/// One benchmark workload: its engine configuration, loader, closed-loop
/// transaction, write transaction for the recovery batch, and the
/// consistency checks its database must satisfy. Every Session call a
/// workload makes is wrapped in a span (see trace.h).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual shoremt::sm::StorageOptions Options() const = 0;
  /// Creates and loads the tables through `s`.
  virtual shoremt::Status Load(shoremt::sm::Session* s) = 0;
  /// Re-binds the table handles after the database was recovered.
  virtual shoremt::Status Reopen(shoremt::sm::Session* s) = 0;
  /// Seeds worker `worker`'s request generators; `s` is its session.
  virtual void StartWorker(shoremt::sm::Session* s, int worker,
                           uint64_t seed) = 0;
  /// One closed-loop transaction, committed with CommitAsync. False when
  /// it aborted or failed.
  virtual bool RunTxn(shoremt::sm::Session* s, int worker) = 0;
  /// The `i`th transaction of the recovery batch: one of the workload's
  /// own write transactions, drawing from `s->rng()`, recording every
  /// row it writes into `writes`.
  virtual bool RunWriteTxn(shoremt::sm::Session* s, uint64_t i,
                           TxnWrites* writes) = 0;
  /// A row no transaction touches, for the in-flight transaction that
  /// pins the recovery redo start; distinct per `cycle`.
  virtual std::pair<int, uint64_t> PinRow(int cycle) const = 0;
  virtual const shoremt::sm::TableInfo& Table(int index) const = 0;
  /// The workload's database-wide consistency conditions.
  virtual shoremt::Status Check(shoremt::sm::Session* s) = 0;
  /// Rows read during the window whose contents were wrong.
  virtual uint64_t bad_reads() const { return 0; }
};

/// "tpcc", "ycsb_hot" or "ycsb_cold"; nullptr for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
