#ifndef SHOREMT_WORKLOAD_ENGINE_PROFILES_H_
#define SHOREMT_WORKLOAD_ENGINE_PROFILES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/simulation.h"
#include "sm/options.h"

namespace shoremt::workload {

/// Per-operation service times (nanoseconds) for the simulator profiles.
/// The defaults approximate the real engine measured single-threaded on
/// the build machine, rescaled to the paper's 1 GHz Niagara magnitudes;
/// bench/calibrate regenerates them from live sync-stats measurements.
struct Calibration {
  // Insert-microbenchmark path pieces (per record insert).
  uint64_t insert_compute = 9000;     ///< Non-critical-section work.
  uint64_t bpool_cs = 700;            ///< Buffer pool table CS, per fix.
  int bpool_fixes = 3;                ///< Table fixes per insert.
  uint64_t fsm_cs_short = 500;        ///< Refactored free-space CS.
  uint64_t fsm_cs_long = 2600;        ///< Original CS incl. metadata scan.
  uint64_t fsm_latch_extra = 1800;    ///< Page latch held inside the CS.
  uint64_t fsm_refactor_overhead = 2500;  ///< +30%-ish single-thread cost.
  uint64_t log_cs_mutex = 2200;       ///< Mutex log buffer insert CS.
  uint64_t log_cs_decoupled = 400;    ///< Decoupled circular buffer CS.
  /// Consolidation-array buffer: colliders share one claim CAS and
  /// completion publication leaves the serialized path entirely.
  uint64_t log_cs_carray = 100;
  uint64_t lock_cs = 450;             ///< Lock manager CS, per acquire.
  int lock_acquires = 2;              ///< Lock manager CSs per insert.
  uint64_t commit_flush_ns = 60000;   ///< Log flush (in-memory log fs).
  uint64_t records_per_txn = 100;     ///< Inserts per commit (scaled).

  // TPC-C path pieces (per row operation).
  uint64_t tpcc_row_compute = 6000;
  uint64_t tpcc_row_lock_hold = 2500;  ///< Row lock held across the op.
};

/// One serialized section of the modeled code path.
struct ModelSection {
  /// Lock protecting the section; nullopt-style: private (no shared lock,
  /// pure compute) when `shared` is false.
  bool shared = true;
  simcore::SimLockType lock_type = simcore::SimLockType::kBlocking;
  uint64_t cs_ns = 0;
  int repeat = 1;
  std::string name;
  /// Fraction of records that execute this section (thread-local caches
  /// let most operations bypass a critical section entirely, §6.2.2).
  double probability = 1.0;
};

/// A complete workload model for the simulator: per-record sections plus
/// commit behaviour.
struct WorkloadModel {
  std::vector<ModelSection> sections;
  uint64_t compute_ns = 0;        ///< Private work per record.
  uint64_t records_per_txn = 100;
  uint64_t commit_io_ns = 60000;  ///< Blocking log flush at commit.
  /// Sections executed once per txn under per-thread contention (e.g.
  /// TPC-C hot rows): pairs of (lock index into `hot_locks`, hold ns).
  std::vector<std::pair<int, uint64_t>> hot_row_ops;
  int hot_lock_count = 0;  ///< Number of distinct hot row locks.
  /// Picks which hot lock a txn uses (else uniform over hot_lock_count).
  bool hot_zipf = false;
};

/// Instantiates `model` on `sim` with `threads` workers. Returns the ids
/// of the created locks (diagnostics).
void BuildModel(simcore::Simulation* sim, int threads,
                const WorkloadModel& model);

/// The engines compared in Figures 1 and 4.
enum class EngineKind {
  kShore,     ///< Original Shore: effectively one big serial section.
  kBdb,       ///< BerkeleyDB: TATAS everywhere + page-level root locking.
  kMysql,     ///< MySQL/InnoDB: srv_conc_enter gate + log flush stalls.
  kPostgres,  ///< PostgreSQL: XLogInsert + malloc + index metadata locks.
  kDbmsX,     ///< Commercial engine: tuned, mild log-insert contention.
  kShoreMt,   ///< Shore-MT at a given optimization stage.
};

std::string_view EngineName(EngineKind e);

/// Insert-microbenchmark model for one engine (§4's profiling results
/// translated into serialization structure). For kShoreMt, `stage` picks
/// the §7 snapshot.
WorkloadModel InsertMicroModel(EngineKind engine, sm::Stage stage,
                               const Calibration& calib);

/// TPC-C Payment / New Order models for Figure 5. `warehouses` scales the
/// hot-row set; New Order adds the shared STOCK/ITEM contention that
/// causes the paper's dip around 16 clients.
WorkloadModel TpccModel(EngineKind engine, bool new_order, int warehouses,
                        const Calibration& calib);

}  // namespace shoremt::workload

#endif  // SHOREMT_WORKLOAD_ENGINE_PROFILES_H_
