/// Quickstart: open a storage manager, open a session, run transactions.
///
/// Demonstrates the core public API: StorageManager::Open, OpenSession,
/// Begin/Commit/Abort, Insert/Read/Update/Delete, cursor scans, batched
/// Apply, live engine metrics, and what rollback means.

#include <cstdio>
#include <string>

#include "io/volume.h"
#include "log/log_storage.h"
#include "obs/metrics_registry.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

using namespace shoremt;

namespace {

std::vector<uint8_t> Row(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

}  // namespace

int main() {
  // Durable state: a volume (the database) and a log device. MemVolume is
  // the in-memory backend; FileVolume works the same way on disk.
  io::MemVolume volume;
  log::LogStorage wal;

  // The options preset picks the fully-optimized Shore-MT configuration;
  // StorageOptions::ForStage(sm::Stage::kBaseline) would give you the
  // original Shore behaviour (every knob is individually settable too).
  auto opened = sm::StorageManager::Open(
      sm::StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto& db = *opened;

  // Every worker thread opens one session; it owns the thread's RNG, read
  // buffer and statistics.
  auto session = db->OpenSession();

  // DDL + a few inserts in one transaction.
  if (!session->Begin().ok()) return 1;
  auto table = session->CreateTable("greetings");
  if (!table.ok()) return 1;
  for (uint64_t key = 1; key <= 5; ++key) {
    auto rid = session->Insert(*table, key, Row("hello #" + std::to_string(key)));
    if (!rid.ok()) return 1;
  }
  if (!session->Commit().ok()) return 1;
  std::printf("committed 5 rows into 'greetings'\n");

  // Point read (the span points into the session's reusable buffer).
  if (!session->Begin().ok()) return 1;
  auto row = session->Read(*table, 3);
  std::printf("key 3 -> \"%.*s\"\n", static_cast<int>(row->size()),
              reinterpret_cast<const char*>(row->data()));
  (void)session->Commit();

  // Rollback: the update below never happened.
  (void)session->Begin();
  (void)session->Update(*table, 3, Row("tampered"));
  (void)session->Abort();
  (void)session->Begin();
  auto after = session->Read(*table, 3);
  std::printf("after abort, key 3 -> \"%.*s\"\n",
              static_cast<int>(after->size()),
              reinterpret_cast<const char*>(after->data()));
  (void)session->Commit();

  // Ordered range scan with a pull-style cursor.
  (void)session->Begin();
  auto cur = session->OpenCursor(*table);
  std::printf("cursor [2,4]: ");
  for (auto st = cur.Seek(2); cur.Valid() && cur.key() <= 4; st = cur.Next()) {
    std::printf("%llu=\"%.*s\" ", static_cast<unsigned long long>(cur.key()),
                static_cast<int>(cur.value().size()),
                reinterpret_cast<const char*>(cur.value().data()));
  }
  std::printf("\n");
  (void)session->Commit();

  // Batched writes: one atomic Apply, one commit, one log flush.
  std::vector<uint8_t> six = Row("hello #6"), seven = Row("hello #7");
  sm::Op batch[] = {
      {sm::OpType::kInsert, 6, six},
      {sm::OpType::kInsert, 7, seven},
      {sm::OpType::kDelete, 1, {}},
  };
  if (!session->Apply(*table, batch).ok()) return 1;
  std::printf("applied a 3-op batch (insert 6, insert 7, delete 1)\n");

  // Checkpoint + live metrics + clean shutdown.
  (void)db->Checkpoint();
  obs::MetricsSnapshot m = db->metrics()->Snapshot();
  uint64_t ops = m[obs::Metric::kInserts] + m[obs::Metric::kReads] +
                 m[obs::Metric::kUpdates] + m[obs::Metric::kDeletes] +
                 m[obs::Metric::kScanRows];
  std::printf("session did %llu ops (%llu inserts) over %llu commits, "
              "%llu WAL bytes\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(m[obs::Metric::kInserts]),
              static_cast<unsigned long long>(m[obs::Metric::kTxnCommits]),
              static_cast<unsigned long long>(m[obs::Metric::kLogBytes]));
  std::printf("done; log wrote %llu bytes\n",
              static_cast<unsigned long long>(wal.size()));
  return 0;
}
