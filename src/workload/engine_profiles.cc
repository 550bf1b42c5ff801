#include "workload/engine_profiles.h"

namespace shoremt::workload {

using simcore::SimLockType;
using simcore::StepProgram;

std::string_view EngineName(EngineKind e) {
  switch (e) {
    case EngineKind::kShore: return "shore";
    case EngineKind::kBdb: return "bdb";
    case EngineKind::kMysql: return "mysql";
    case EngineKind::kPostgres: return "postgres";
    case EngineKind::kDbmsX: return "dbms-x";
    case EngineKind::kShoreMt: return "shore-mt";
  }
  return "?";
}

void BuildModel(simcore::Simulation* sim, int threads,
                const WorkloadModel& model) {
  // Shared locks, one per shared section. Uncontended acquisition cost
  // depends on the primitive: a pthread mutex pair costs over a
  // microsecond of function + atomic + bookkeeping overhead on the
  // paper's hardware, spinlocks cost one atomic.
  std::vector<int> section_locks(model.sections.size(), -1);
  for (size_t i = 0; i < model.sections.size(); ++i) {
    const ModelSection& s = model.sections[i];
    if (s.shared) {
      // Roughly half the pthread overhead lands inside the lock-word
      // critical path; the rest (function + bookkeeping) is private and
      // folded into compute by the model builders.
      uint64_t uncontended =
          s.lock_type == simcore::SimLockType::kBlocking ? 500 : 60;
      section_locks[i] = sim->AddLock({s.lock_type, uncontended}, s.name);
    }
  }
  std::vector<int> hot_locks;
  for (int i = 0; i < model.hot_lock_count; ++i) {
    hot_locks.push_back(sim->AddLock({SimLockType::kBlocking, 80},
                                     "hot_row_" + std::to_string(i)));
  }

  for (int t = 0; t < threads; ++t) {
    sim->AddThread([&model, section_locks, hot_locks](Rng& rng,
                                                      StepProgram* p) {
      // Hot per-txn row ops (TPC-C): pick the row, hold it across the op.
      if (!hot_locks.empty()) {
        for (const auto& [lock_sel, hold_ns] : model.hot_row_ops) {
          size_t pick =
              lock_sel >= 0
                  ? static_cast<size_t>(lock_sel) % hot_locks.size()
                  : rng.Uniform(hot_locks.size());
          p->CriticalSection(hot_locks[pick], hold_ns);
        }
      }
      for (uint64_t r = 0; r < model.records_per_txn; ++r) {
        p->Compute(model.compute_ns);
        for (size_t i = 0; i < model.sections.size(); ++i) {
          const ModelSection& s = model.sections[i];
          for (int k = 0; k < s.repeat; ++k) {
            if (s.probability < 1.0 && !rng.Bernoulli(s.probability)) {
              continue;  // Bypassed via a thread-local cache.
            }
            if (s.shared) {
              p->CriticalSection(section_locks[i], s.cs_ns);
            } else {
              // Distributed (per-bucket) structures: same work, but the
              // probability of colliding on a bucket is negligible.
              p->Compute(s.cs_ns);
            }
          }
        }
        // Progress is counted per record so slow configurations still
        // resolve within short measurement windows; callers divide by
        // records_per_txn to report transaction rates.
        p->TxnEnd();
      }
      if (model.commit_io_ns > 0) p->Io(model.commit_io_ns);
    });
  }
}

WorkloadModel InsertMicroModel(EngineKind engine, sm::Stage stage,
                               const Calibration& c) {
  WorkloadModel m;
  m.records_per_txn = c.records_per_txn;
  m.commit_io_ns = c.commit_flush_ns;

  switch (engine) {
    case EngineKind::kShore: {
      // User-level threads on one OS thread: the entire path is one big
      // serial section — more threads never help.
      m.compute_ns = 0;
      m.sections.push_back({true, SimLockType::kBlocking,
                            c.insert_compute + c.bpool_fixes * c.bpool_cs +
                                c.fsm_cs_long + c.fsm_latch_extra +
                                c.log_cs_mutex + c.lock_acquires * c.lock_cs,
                            1, "shore.global"});
      return m;
    }
    case EngineKind::kBdb: {
      // §4: 80% of time in test-and-set lock code; page-level locking
      // means the B-tree root lock covers most of the path. Very cheap
      // when uncontended, collapses under contention.
      m.compute_ns = c.insert_compute / 3;  // Lean embedded code path.
      m.sections.push_back({true, SimLockType::kTatas,
                            2 * c.insert_compute / 3, 1, "bdb.tree_page"});
      m.sections.push_back(
          {true, SimLockType::kTatas, c.log_cs_decoupled, 1, "bdb.log"});
      return m;
    }
    case EngineKind::kMysql: {
      // §4: srv_conc_enter_innodb blocks ~39% of execution; log flush
      // stalls ~20% even with long transactions; malloc contention.
      m.compute_ns = c.insert_compute;
      m.sections.push_back({true, SimLockType::kBlocking,
                            4 * c.insert_compute / 10, 1, "mysql.srv_conc"});
      m.sections.push_back({true, SimLockType::kBlocking,
                            2 * c.insert_compute / 10, 1,
                            "mysql.log_preflush"});
      // malloc hot path behind a test-and-set lock (§4 observes
      // take_deferred_signal / mutex_lock_internal): the piece that turns
      // MySQL's plateau into a decline at high thread counts.
      m.sections.push_back(
          {true, SimLockType::kTatas, 3 * c.lock_cs, 1, "mysql.malloc"});
      return m;
    }
    case EngineKind::kPostgres: {
      // §4: XLogInsert + malloc during executor setup/teardown + index
      // metadata locking — 10-15% of thread time, enough to flatten.
      m.compute_ns = c.insert_compute;
      m.sections.push_back({true, SimLockType::kBlocking,
                            c.insert_compute / 14, 1, "pg.xloginsert"});
      m.sections.push_back({true, SimLockType::kBlocking,
                            c.insert_compute / 33, 1, "pg.malloc"});
      m.sections.push_back({true, SimLockType::kBlocking,
                            c.insert_compute / 40, 1, "pg.index_meta"});
      return m;
    }
    case EngineKind::kDbmsX: {
      // Tuned commercial engine: scalable primitives but a heavier code
      // path (SQL front end, socket clients — §5 footnote 7 puts
      // Shore-MT at ~2x its absolute throughput); the looming log-insert
      // bottleneck §5 mentions.
      m.compute_ns = 2 * c.insert_compute;
      m.sections.push_back({true, SimLockType::kMcs, c.log_cs_decoupled / 2,
                            1, "x.log_insert"});
      m.sections.push_back(
          {false, SimLockType::kMcs, c.lock_cs, c.lock_acquires, "x.locks"});
      return m;
    }
    case EngineKind::kShoreMt:
      break;  // Stage-dependent, below.
  }

  // Shore-MT at a §7 stage. Sections mirror sm::StorageOptions::ForStage.
  sm::StorageOptions o = sm::StorageOptions::ForStage(stage);
  bool after_caching = static_cast<int>(stage) >= static_cast<int>(
                                                      sm::Stage::kCaching);
  bool after_log = static_cast<int>(stage) >= static_cast<int>(
                                                  sm::Stage::kLog);
  bool after_bpool2 = static_cast<int>(stage) >= static_cast<int>(
                                                     sm::Stage::kBufferPool2);

  // The optimizations both shorten the code path (the 3x single-thread
  // speedup of §5) and move work out of critical sections. Baseline Shore
  // funnels most of every insert through the buffer pool's single global
  // mutex — "a crippling bottleneck for more than about four threads"
  // (§6.2.3) — so its private compute is small and one giant critical
  // section dominates.
  m.compute_ns = stage == sm::Stage::kBaseline
                     ? 3000
                     : (stage == sm::Stage::kBufferPool1
                            ? c.insert_compute + 3000
                            : c.insert_compute);

  // Buffer pool table (3 fixes per insert).
  if (o.buffer.table_kind == buffer::TableKind::kGlobalChained) {
    m.sections.push_back({true, SimLockType::kBlocking,
                          2 * c.insert_compute + c.bpool_fixes * c.bpool_cs,
                          1, "smt.bpool_global"});
  } else {
    // Per-bucket / cuckoo: effectively private. Misses still serialize on
    // the clock hand + the (long) in-transit list scans until bpool2
    // (§7.6: misses grow with thread count; each walks the shared lists).
    m.sections.push_back({false, SimLockType::kMcs, c.bpool_cs,
                          c.bpool_fixes, "smt.bpool"});
    if (!after_bpool2) {
      m.sections.push_back({true, SimLockType::kTtas, 2 * c.bpool_cs, 1,
                            "smt.clock_transit", 0.3});
    }
  }

  // Global allocator: Shore leaned on malloc/free per operation until the
  // §7.4 switch to thread-local allocation.
  if (!after_log) {
    m.sections.push_back({true, SimLockType::kBlocking, 350, 2,
                          "smt.malloc"});
  }

  // Free space manager. The §6.2.2 thread-local extent cache lets >95%
  // of inserts skip the critical section entirely.
  {
    uint64_t cs = o.space.refactored_alloc ? c.fsm_cs_short : c.fsm_cs_long;
    if (!o.space.refactored_alloc) cs += c.fsm_latch_extra;
    if (!o.space.extent_cache) cs += c.fsm_cs_long / 2;  // Ownership scan.
    SimLockType t = o.space.mutex_kind == sync::MutexKind::kPthread
                        ? SimLockType::kBlocking
                        : (o.space.mutex_kind == sync::MutexKind::kTtas
                               ? SimLockType::kTtas
                               : SimLockType::kMcs);
    double probability = o.space.extent_cache ? 0.05 : 1.0;
    m.sections.push_back({true, t, cs, 1, "smt.fsm", probability});
    if (o.space.refactored_alloc) m.compute_ns += c.fsm_refactor_overhead / 4;
  }

  // Log manager.
  {
    uint64_t cs = c.log_cs_mutex;
    if (o.log.buffer_kind == log::LogBufferKind::kDecoupled) {
      cs = c.log_cs_decoupled;
    }
    if (o.log.buffer_kind == log::LogBufferKind::kCArray) {
      cs = c.log_cs_carray;
    }
    SimLockType t = o.log.buffer_kind == log::LogBufferKind::kMutex
                        ? SimLockType::kBlocking
                        : SimLockType::kMcs;
    m.sections.push_back({true, t, cs, 1, "smt.log"});
  }

  // Lock manager.
  if (o.lock.per_shard_latch) {
    m.sections.push_back(
        {false, SimLockType::kMcs, c.lock_cs, c.lock_acquires, "smt.lock"});
  } else {
    m.sections.push_back({true, SimLockType::kBlocking, c.lock_cs,
                          c.lock_acquires, "smt.lock"});
  }

  // Transaction list (oldest-txn queries) — folded into lock traffic
  // before caching.
  if (!after_caching) {
    m.sections.push_back({true, SimLockType::kBlocking, c.lock_cs / 2, 1,
                          "smt.txn_list"});
  }

  // The private half of each pthread acquisition's overhead (see
  // BuildModel): keeps single-thread cost honest without inflating the
  // serialized portion.
  for (const ModelSection& s : m.sections) {
    if (s.shared && s.lock_type == SimLockType::kBlocking) {
      m.compute_ns += static_cast<uint64_t>(600.0 * s.repeat * s.probability);
    }
  }
  return m;
}

WorkloadModel TpccModel(EngineKind engine, bool new_order, int warehouses,
                        const Calibration& c) {
  // Start from the engine's internal-structure model, then add the
  // transaction's logical row traffic on top.
  WorkloadModel m = InsertMicroModel(
      engine, engine == EngineKind::kShoreMt ? sm::Stage::kFinal
                                             : sm::Stage::kBaseline,
      c);
  // Payment: ~8 row ops; New Order: ~40 (a dozen inserts + item/stock
  // reads and updates). One "record" models one row operation.
  m.records_per_txn = new_order ? 40 : 8;
  m.compute_ns = c.tpcc_row_compute;
  // Per-row path weights: PostgreSQL's full SQL executor keeps it 2-4x
  // below the storage-manager-API engines (Figure 5); DBMS "X" pays for
  // its SQL front end and socket clients (§5 footnote 7).
  if (engine == EngineKind::kPostgres) m.compute_ns = 5 * m.compute_ns / 2;
  if (engine == EngineKind::kDbmsX) m.compute_ns = 8 * m.compute_ns / 5;
  m.commit_io_ns = c.commit_flush_ns;

  // Hot rows: Payment updates its home WAREHOUSE row (distinct per
  // terminal when warehouses scale with clients — no logical contention);
  // New Order hits the shared STOCK/ITEM pool, which saturates around 16
  // clients in the paper.
  if (new_order) {
    m.hot_lock_count = 16;  // Hot stock rows (scaled-down ITEM table).
    for (int i = 0; i < 6; ++i) {
      m.hot_row_ops.push_back({-1, c.tpcc_row_lock_hold + 1000});
    }
  } else {
    m.hot_lock_count = warehouses;
    m.hot_row_ops.push_back({-1, c.tpcc_row_lock_hold});
  }
  return m;
}

}  // namespace shoremt::workload
