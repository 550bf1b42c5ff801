// Benchmark of record for the storage manager: seeded closed-loop TPC-C,
// YCSB-hot and YCSB-cold runs through sm::Session, with correctness
// checks, crash-recovery timing and (with --trace 1) per-layer costs.
//
//   perfbench --workload tpcc --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md for the workloads, the metrics and the flush policy.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "io/volume.h"
#include "latency.h"
#include "log/log_storage.h"
#include "sm/session.h"
#include "sm/storage_manager.h"
#include "timed_volume.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using shoremt::Rng;
using shoremt::Status;
namespace sm = shoremt::sm;
namespace obs = shoremt::obs;

/// Setups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Crash-recovery cycles per run; recovery_s is their median.
constexpr int kRecoveryCycles = 5;
/// Untimed closed-loop warm-up before each measured window.
constexpr int kWarmupMs = 1000;
/// Span records kept verbatim per thread for the trace file.
constexpr size_t kKeptSpansPerThread = 50'000;

/// CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinCallingThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Client CPUs: with at least two CPUs to spare for the engine's daemon
/// and I/O threads, each client is pinned to a CPU of its own (engine
/// threads stay free to run anywhere, including on a client's CPU while
/// that client waits on them). Empty when the host is too small.
std::vector<int> ClientCpus() {
  std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < static_cast<size_t>(kWorkers) + 2) return {};
  cpus.resize(kWorkers);
  return cpus;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// The durable state (device + log) and the engine over it. The device
/// and log outlive every StorageManager opened over them.
struct Database {
  shoremt::io::MemVolume device;
  TimedVolume volume{&device};
  shoremt::log::LogStorage wal{/*append_latency_ns=*/0, 1 << 20};
  std::unique_ptr<sm::StorageManager> sm;
};

/// Counter values at one instant, from the engine's metrics registry and
/// its subsystems' stats.
struct Counters {
  obs::MetricsSnapshot m;
  uint64_t lock_acquired, lock_waits;
  uint64_t log_bytes, log_records, group_batches, group_txns, flushes;
  uint64_t evictions, pages_allocated;
  uint64_t dev_reads, dev_writes, dev_pages_written;
};

Counters Take(Database& db) {
  Counters c;
  sm::StorageManager* s = db.sm.get();
  c.m = s->metrics()->Snapshot();
  c.lock_acquired = s->locks()->stats().acquired.load();
  c.lock_waits = s->locks()->stats().waits.load();
  c.log_bytes = s->log()->stats().bytes.load();
  c.log_records = s->log()->stats().records.load();
  c.group_batches = s->log()->stats().group_batches.load();
  c.group_txns = s->log()->stats().group_batch_txns.load();
  c.flushes = db.wal.flush_calls();
  c.evictions = s->pool()->stats().evictions.load();
  c.pages_allocated = s->space()->stats().pages_allocated.load();
  c.dev_reads = db.device.stats().reads.load();
  c.dev_writes = db.device.stats().writes.load();
  c.dev_pages_written = db.device.stats().pages_written.load();
  return c;
}

struct Window {
  uint64_t attempts = 0;
  uint64_t commits = 0;
  uint64_t failures = 0;
  double seconds = 0;
  SlicedSamples latency{1};  ///< One sample per committed transaction.
  bool acks_ok = true;
  Counters before, after;

  /// Committed transactions per second, median over one-second slices.
  double tps() const { return latency.MedianRate(); }
  uint64_t delta(uint64_t Counters::*field) const {
    return after.*field - before.*field;
  }
  uint64_t delta(obs::Metric m) const { return after.m[m] - before.m[m]; }
};

/// Runs kWorkers closed-loop clients for a warm-up and then a measured
/// window of `seconds`. A transaction counts when it started inside the
/// window and its CommitAsync succeeded; each client ends the window with
/// WaitAll, so every counted commit is acknowledged before the clock stops.
/// Latencies are kept per one-second slice of the window, by start time.
Window RunWindow(Database& db, Workload& wl, uint64_t seed, int seconds,
                 const std::vector<int>& client_cpus, Tracer* tracer) {
  enum Phase { kWarmup, kMeasure, kStop };
  std::atomic<int> phase{kWarmup};
  uint64_t start = 0;  // Written before phase turns kMeasure.
  // Cache-line aligned: each worker bumps its own counters per txn.
  struct alignas(64) PerWorker {
    explicit PerWorker(int slices) : latency(slices) {}
    uint64_t attempts = 0, commits = 0, failures = 0, end_ns = 0;
    SlicedSamples latency;
    bool acks_ok = true;
  };
  std::vector<PerWorker> per(kWorkers, PerWorker(seconds));
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      if (!client_cpus.empty()) PinCallingThread(client_cpus[w]);
      // Opened on the worker thread: the session binds its metrics block
      // to the thread that creates it.
      std::unique_ptr<sm::Session> s = db.sm->OpenSession();
      wl.StartWorker(s.get(), w, Mix(seed, static_cast<uint64_t>(w)));
      PerWorker& me = per[w];
      while (true) {
        int ph = phase.load(std::memory_order_acquire);
        if (ph == kStop) break;
        uint64_t t0 = NowNs();
        bool ok;
        {
          Span span(SpanKind::kTxn);
          ok = wl.RunTxn(s.get(), w);
        }
        uint64_t t1 = NowNs();
        if (ph != kMeasure) continue;
        me.attempts++;
        if (ok) {
          me.commits++;
          me.latency.Add(t0 - start, t1 - t0);
        } else {
          me.failures++;
        }
      }
      me.acks_ok = s->WaitAll().ok();
      me.end_ns = NowNs();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
  Window out;
  out.before = Take(db);
  Tracer::Install(tracer);
  start = NowNs();
  phase.store(kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  phase.store(kStop, std::memory_order_release);
  for (auto& t : threads) t.join();
  Tracer::Install(nullptr);
  out.after = Take(db);
  uint64_t end = start;
  out.latency = SlicedSamples(seconds);
  for (PerWorker& p : per) {
    out.attempts += p.attempts;
    out.commits += p.commits;
    out.failures += p.failures;
    out.acks_ok = out.acks_ok && p.acks_ok;
    end = std::max(end, p.end_ns);
    out.latency.Merge(p.latency);
  }
  out.seconds = static_cast<double>(end - start) / 1e9;
  return out;
}

struct Recovery {
  double seconds = 0;
  double redo_mb = 0;
  uint64_t attempts = 0;
  uint64_t failures = 0;
};

/// Write transactions in the recovery batch, sized so one recovery takes
/// a few hundred milliseconds.
uint64_t BatchTxns(const std::string& workload) {
  if (workload == "tpcc") return 4000;
  // Cold redo misses in the small pool on most records.
  return workload == "ycsb_cold" ? 10000 : 20000;
}

/// One crash-recovery cycle whose redo work is fixed by seed and count,
/// not by how long the window ran: write back every dirty page and
/// checkpoint (so redo cannot start before this point), open a
/// transaction that writes one private row and stays in flight (so no
/// later checkpoint can move the redo start past it), run a seeded batch
/// of the workload's write transactions and wait for their
/// acknowledgments, crash, and time StorageManager::Open over the crashed
/// log. Then every acknowledged write must read back with its value, the
/// in-flight row must be gone, and the workload's checks must hold.
Status RecoveryCycle(Database& db, Workload& wl, const std::string& name,
                     uint64_t seed, int cycle, AckedWrites* acked,
                     Recovery* out) {
  sm::StorageManager* engine = db.sm.get();
  SHOREMT_RETURN_NOT_OK(engine->pool()->FlushAll());
  // Snapshot-carrying checkpoints come every checkpoint_snapshot_every
  // (4); taking that many guarantees one at this point.
  for (size_t i = 0; i < engine->options().checkpoint_snapshot_every; ++i) {
    SHOREMT_RETURN_NOT_OK(engine->Checkpoint().status());
  }
  auto [pin_table, pin_key] = wl.PinRow(cycle);
  const std::vector<uint8_t> pin_row(16, 0xAB);
  shoremt::txn::Transaction* pin = engine->Begin();
  SHOREMT_RETURN_NOT_OK(
      engine->Insert(pin, wl.Table(pin_table), pin_key, pin_row).status());

  AckedWrites batch;
  {
    std::unique_ptr<sm::Session> s = engine->OpenSession();
    s->rng() = Rng(Mix(seed, 1000 + static_cast<uint64_t>(cycle)));
    TxnWrites writes;
    for (uint64_t i = 0, n = BatchTxns(name); i < n; ++i) {
      writes.clear();
      out->attempts++;
      if (!wl.RunWriteTxn(s.get(), i, &writes)) {
        out->failures++;
        continue;
      }
      for (auto& [row, bytes] : writes) batch[row] = std::move(bytes);
    }
    SHOREMT_RETURN_NOT_OK(s->WaitAll());
  }
  for (auto& [row, bytes] : batch) (*acked)[row] = std::move(bytes);

  engine->SimulateCrash();
  db.sm.reset();
  uint64_t t0 = NowNs();
  auto reopened = sm::StorageManager::Open(wl.Options(), &db.volume, &db.wal);
  uint64_t t1 = NowNs();
  SHOREMT_RETURN_NOT_OK(reopened.status());
  db.sm = std::move(*reopened);
  out->seconds = static_cast<double>(t1 - t0) / 1e9;
  out->redo_mb =
      static_cast<double>(db.sm->log()->stats().redo_scan_bytes.load()) / 1e6;

  std::unique_ptr<sm::Session> s = db.sm->OpenSession();
  SHOREMT_RETURN_NOT_OK(wl.Reopen(s.get()));
  SHOREMT_RETURN_NOT_OK(s->Begin());
  for (const auto& [row, bytes] : *acked) {
    auto got = s->Read(wl.Table(row.first), row.second);
    if (!got.ok() || !std::equal(got->begin(), got->end(), bytes.begin(),
                                 bytes.end())) {
      (void)s->Abort();
      return Status::Corruption("acknowledged write to table " +
                                std::to_string(row.first) + " key " +
                                std::to_string(row.second) +
                                " lost in recovery");
    }
  }
  if (!s->Read(wl.Table(pin_table), pin_key).status().IsNotFound()) {
    (void)s->Abort();
    return Status::Corruption("in-flight write survived recovery");
  }
  SHOREMT_RETURN_NOT_OK(s->Commit());
  return wl.Check(s.get());
}

std::string HostJson(const Args& args) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %d}",
                std::thread::hardware_concurrency(), cpu.c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds);
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Ordered (name, value, unit) metrics for the result line.
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.emplace_back(name, value, unit);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", std::get<0>(items[i]).c_str(),
                    std::get<1>(items[i]), std::get<2>(items[i]).c_str());
      out += buf;
    }
    return out + "}";
  }
};

double PerTxn(uint64_t count, uint64_t txns) {
  return txns == 0 ? 0 : static_cast<double>(count) / static_cast<double>(txns);
}

double P50Us(const KindTotals& k) { return Us(k.durations.Percentile(0.50)); }

/// Per-layer metrics from a traced window.
void AddLayerMetrics(const Window& w, const Window& untraced,
                     const TraceSummary& t, const LatencyHistogram& acks,
                     const std::vector<Recovery>& rec, Metrics* m) {
  auto kind = [&](SpanKind k) -> const KindTotals& {
    return t.kinds[static_cast<size_t>(k)];
  };
  uint64_t txns = w.commits;
  m->Add("sm.read_p50_us", P50Us(kind(SpanKind::kRead)), "us");
  m->Add("sm.update_p50_us", P50Us(kind(SpanKind::kUpdate)), "us");
  m->Add("sm.insert_p50_us", P50Us(kind(SpanKind::kInsert)), "us");
  m->Add("sm.commit_p50_us", P50Us(kind(SpanKind::kCommit)), "us");
  // Self time per committed transaction: client code (txn), engine work
  // inside Session calls (sm.*), and device calls (io.*).
  uint64_t sm_self = 0;
  for (SpanKind k : {SpanKind::kBegin, SpanKind::kRead, SpanKind::kUpdate,
                     SpanKind::kInsert, SpanKind::kCommit, SpanKind::kAbort}) {
    sm_self += kind(k).self_ns;
  }
  m->Add("txn.self_us_per_txn", Us(kind(SpanKind::kTxn).self_ns) / txns, "us");
  m->Add("sm.self_us_per_txn", Us(sm_self) / txns, "us");
  uint64_t io_self =
      kind(SpanKind::kIoRead).self_ns + kind(SpanKind::kIoWrite).self_ns;
  m->Add("io.self_us_per_txn", Us(io_self) / txns, "us");
  m->Add("txn.failed_per_1k", 1000.0 * PerTxn(w.failures, w.attempts), "count");
  m->Add("txn.latency_samples", static_cast<double>(w.latency.count()),
         "count");
  m->Add("lock.acquired_per_txn",
         PerTxn(w.delta(&Counters::lock_acquired), txns), "count");
  m->Add("lock.waits_per_1k_txn",
         1000.0 * PerTxn(w.delta(&Counters::lock_waits), txns), "count");
  m->Add("log.bytes_per_txn", PerTxn(w.delta(&Counters::log_bytes), txns),
         "B");
  m->Add("log.records_per_txn", PerTxn(w.delta(&Counters::log_records), txns),
         "count");
  m->Add("log.txns_per_group",
         PerTxn(w.delta(&Counters::group_txns),
                w.delta(&Counters::group_batches)),
         "count");
  m->Add("log.flushes_per_txn", PerTxn(w.delta(&Counters::flushes), txns),
         "count");
  m->Add("log.ack_p50_us", Us(acks.Percentile(0.50)), "us");
  m->Add("log.ack_p99_us", Us(acks.Percentile(0.99)), "us");
  uint64_t hits = w.delta(obs::Metric::kBufferHits);
  uint64_t misses = w.delta(obs::Metric::kBufferMisses);
  m->Add("buffer.hit_ratio", PerTxn(hits, hits + misses), "ratio");
  m->Add("buffer.misses_per_txn", PerTxn(misses, txns), "count");
  m->Add("buffer.evictions_per_txn",
         PerTxn(w.delta(&Counters::evictions), txns), "count");
  m->Add("buffer.cleaner_writebacks_per_txn",
         PerTxn(w.delta(obs::Metric::kCleanerWritebacks), txns), "count");
  uint64_t finds = w.delta(obs::Metric::kBtreeFinds);
  m->Add("btree.finds_per_txn", PerTxn(finds, txns), "count");
  m->Add("btree.restarts_per_1k_finds",
         1000.0 * PerTxn(w.delta(obs::Metric::kBtreeRestarts), finds), "count");
  m->Add("btree.fallbacks_per_1k_finds",
         1000.0 * PerTxn(w.delta(obs::Metric::kBtreeLatchFallbacks), finds),
         "count");
  m->Add("io.read_calls_per_txn", PerTxn(w.delta(&Counters::dev_reads), txns),
         "count");
  m->Add("io.read_p50_us", P50Us(kind(SpanKind::kIoRead)), "us");
  uint64_t read_ns = kind(SpanKind::kRead).total_ns;
  m->Add("io.read_share",
         read_ns == 0
             ? 0
             : static_cast<double>(
                   t.child_ns[static_cast<size_t>(SpanKind::kRead)]
                             [static_cast<size_t>(SpanKind::kIoRead)]) /
                   static_cast<double>(read_ns),
         "ratio");
  uint64_t writes = w.delta(&Counters::dev_writes);
  m->Add("io.write_calls_per_txn", PerTxn(writes, txns), "count");
  m->Add("io.pages_per_write_call",
         PerTxn(w.delta(&Counters::dev_pages_written), writes), "count");
  m->Add("space.pages_allocated_per_txn",
         PerTxn(w.delta(&Counters::pages_allocated), txns), "count");
  m->Add("ckpt.per_s",
         static_cast<double>(w.delta(obs::Metric::kCheckpoints)) / w.seconds,
         "1/s");
  std::vector<double> redo_mb, redo_rate;
  for (const Recovery& r : rec) {
    redo_mb.push_back(r.redo_mb);
    redo_rate.push_back(r.redo_mb / r.seconds);
  }
  m->Add("recovery.redo_mb", Median(redo_mb), "MB");
  m->Add("recovery.redo_mb_per_s", Median(redo_rate), "MB/s");
  m->Add("trace.overhead_pct",
         100.0 * (untraced.tps() - w.tps()) / untraced.tps(), "%");
}

int Run(const Args& args) {
  const std::vector<int> client_cpus = ClientCpus();
  // --- setup: kSetups fresh databases, keep the last -----------------------
  std::unique_ptr<Database> db;
  std::unique_ptr<Workload> wl;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    wl.reset();
    db.reset();
    db = std::make_unique<Database>();
    wl = MakeWorkload(args.workload);
    uint64_t t0 = NowNs();
    auto opened =
        sm::StorageManager::Open(wl->Options(), &db->volume, &db->wal);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    db->sm = std::move(*opened);
    Status st;
    {
      std::unique_ptr<sm::Session> loader = db->sm->OpenSession();
      st = wl->Load(loader.get());
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // --- measured window(s) --------------------------------------------------
  std::unique_ptr<Tracer> tracer;
  Window window =
      RunWindow(*db, *wl, args.seed, args.seconds, client_cpus, nullptr);
  Window traced;
  if (args.trace) {
    tracer = std::make_unique<Tracer>(kKeptSpansPerThread);
    traced = RunWindow(*db, *wl, Mix(args.seed, 77), args.seconds, client_cpus,
                       tracer.get());
  }
  std::vector<std::string> errors;
  if (!window.acks_ok || !traced.acks_ok) {
    errors.push_back("WaitAll failed");
  }
  if (tracer != nullptr && !tracer->WaitForAcks(10'000)) {
    errors.push_back("durability callbacks did not all run");
  }
  if (wl->bad_reads() != 0) {
    errors.push_back(std::to_string(wl->bad_reads()) +
                     " reads returned wrong rows");
  }
  {
    std::unique_ptr<sm::Session> s = db->sm->OpenSession();
    Status st = wl->Check(s.get());
    if (!st.ok()) errors.push_back("after window: " + st.ToString());
  }

  // --- crash recovery --------------------------------------------------------
  AckedWrites acked;
  std::vector<Recovery> recoveries;
  for (int c = 0; c < kRecoveryCycles; ++c) {
    Recovery r;
    Status st =
        RecoveryCycle(*db, *wl, args.workload, args.seed, c, &acked, &r);
    if (!st.ok()) {
      errors.push_back("recovery cycle " + std::to_string(c) + ": " +
                       st.ToString());
      if (db->sm == nullptr) break;
    }
    recoveries.push_back(r);
  }
  std::vector<double> recovery_s;
  uint64_t attempted = window.attempts + traced.attempts;
  uint64_t failed = window.failures + traced.failures;
  for (const Recovery& r : recoveries) {
    recovery_s.push_back(r.seconds);
    attempted += r.attempts;
    failed += r.failures;
  }

  std::string host = HostJson(args);
  Metrics metrics;
  if (!args.trace) {
    metrics.Add("tps", window.tps(), "1/s");
    metrics.Add("p50_us", window.latency.MedianPercentile(0.50) / 1000.0,
                "us");
    metrics.Add("p99_us", window.latency.MedianPercentile(0.99) / 1000.0,
                "us");
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("recovery_s", Median(recovery_s), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // The engine (and its daemons, which make device calls) of the traced
    // window was torn down by the first recovery cycle: no span is open.
    TraceSummary summary = tracer->Summarize();
    AddLayerMetrics(traced, window, summary, tracer->Acks(), recoveries,
                    &metrics);
    if (!args.trace_out.empty() && !tracer->WriteJson(args.trace_out, host)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }

  std::printf("host: %s\n", host.c_str());
  std::printf("%s: window %.3f s, %llu attempted, %llu committed (%.1f/s), "
              "%llu failed, latency n=%zu; setups %zu; recoveries %zu\n",
              args.workload.c_str(), window.seconds,
              static_cast<unsigned long long>(window.attempts),
              static_cast<unsigned long long>(window.commits),
              static_cast<double>(window.commits) / window.seconds,
              static_cast<unsigned long long>(window.failures),
              static_cast<size_t>(window.latency.count()), setup_s.size(),
              recovery_s.size());
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  // Tear the engine down before the tracer its volume wrapper reports to.
  db.reset();
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && MakeWorkload(args->workload) != nullptr &&
         args->seconds >= 1 && args->seconds <= 60;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload tpcc|ycsb_hot|ycsb_cold "
                 "--seed N --seconds 1..60 --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
