/// Banking OLTP example: concurrent money transfers with strict 2PL.
///
/// A classic short-transaction workload on the session API: N teller
/// threads — one sm::Session each — move money between accounts; deadlock
/// victims retry. At the end the total balance must be exactly what we
/// started with — demonstrating isolation + atomicity under real
/// concurrency, plus a crash-recovery epilogue showing durability. The
/// engine's live metrics show where the contention went.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "io/volume.h"
#include "log/log_storage.h"
#include "obs/metrics_registry.h"
#include "sm/options.h"
#include "sm/session.h"
#include "sm/storage_manager.h"

using namespace shoremt;

namespace {

constexpr int kAccounts = 200;
constexpr int kTellers = 4;
constexpr int kTransfersPerTeller = 300;
constexpr int64_t kInitialBalance = 1000;

std::span<const uint8_t> BalanceBytes(const int64_t& v) {
  return {reinterpret_cast<const uint8_t*>(&v), sizeof(v)};
}

int64_t ToBalance(std::span<const uint8_t> bytes) {
  int64_t v;
  std::memcpy(&v, bytes.data(), sizeof(v));
  return v;
}

/// Sums every account with a cursor under one transaction.
int64_t AuditTotal(sm::Session* session, const sm::TableInfo& accounts) {
  int64_t total = 0;
  (void)session->Begin();
  auto cur = session->OpenCursor(accounts);
  for (auto st = cur.Seek(0); cur.Valid(); st = cur.Next()) {
    total += ToBalance(cur.value());
  }
  (void)session->Commit();
  return total;
}

}  // namespace

int main() {
  io::MemVolume volume;
  log::LogStorage wal;
  sm::TableInfo accounts;
  constexpr int64_t kExpected = int64_t{kAccounts} * kInitialBalance;

  {
    auto opened = sm::StorageManager::Open(
        sm::StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
    if (!opened.ok()) return 1;
    auto& db = *opened;

    auto setup = db->OpenSession();
    if (!setup->Begin().ok()) return 1;
    auto table = setup->CreateTable("accounts");
    if (!table.ok()) return 1;
    accounts = *table;
    for (uint64_t acct = 1; acct <= kAccounts; ++acct) {
      if (!setup->Insert(accounts, acct, BalanceBytes(kInitialBalance)).ok()) {
        return 1;
      }
    }
    if (!setup->Commit().ok()) return 1;
    std::printf("opened %d accounts with %lld each\n", kAccounts,
                static_cast<long long>(kInitialBalance));

    obs::MetricsSnapshot before = db->metrics()->Snapshot();
    std::atomic<int> commits{0};
    std::atomic<int> retries{0};
    std::vector<std::thread> tellers;
    for (int t = 0; t < kTellers; ++t) {
      tellers.emplace_back([&] {
        // One session per teller thread; its RNG drives the workload.
        auto session = db->OpenSession();
        for (int i = 0; i < kTransfersPerTeller; ++i) {
          uint64_t from = 1 + session->rng().Uniform(kAccounts);
          uint64_t to = 1 + session->rng().Uniform(kAccounts);
          if (from == to) continue;
          int64_t amount =
              1 + static_cast<int64_t>(session->rng().Uniform(50));
          for (;;) {  // Retry deadlock victims.
            (void)session->Begin();
            auto src = session->Read(accounts, from);
            int64_t s = src.ok() ? ToBalance(*src) - amount : 0;
            auto dst = session->Read(accounts, to);
            int64_t d = dst.ok() ? ToBalance(*dst) + amount : 0;
            bool ok = src.ok() && dst.ok() &&
                      session->Update(accounts, from, BalanceBytes(s)).ok() &&
                      session->Update(accounts, to, BalanceBytes(d)).ok();
            if (ok && session->Commit().ok()) {
              commits.fetch_add(1);
              break;
            }
            (void)session->Abort();
            retries.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : tellers) t.join();
    std::printf("transfers committed: %d (deadlock retries: %d)\n",
                commits.load(), retries.load());
    obs::MetricsSnapshot after = db->metrics()->Snapshot();
    auto delta = [&](obs::Metric m) {
      return static_cast<unsigned long long>(after[m] - before[m]);
    };
    std::printf("teller sessions: %llu ops, %llu lock waits, %llu WAL bytes\n",
                delta(obs::Metric::kReads) + delta(obs::Metric::kUpdates),
                delta(obs::Metric::kLockWaits), delta(obs::Metric::kLogBytes));

    // Audit: money is conserved.
    auto auditor = db->OpenSession();
    int64_t total = AuditTotal(auditor.get(), accounts);
    std::printf("audit total: %lld (expected %lld) -> %s\n",
                static_cast<long long>(total),
                static_cast<long long>(kExpected),
                total == kExpected ? "OK" : "BROKEN");

    // Simulate a power failure: nothing flushed beyond the WAL.
    db->SimulateCrash();
  }

  // Restart: ARIES recovery replays the committed transfers.
  auto reopened = sm::StorageManager::Open(
      sm::StorageOptions::ForStage(sm::Stage::kFinal), &volume, &wal);
  if (!reopened.ok()) return 1;
  auto& db = *reopened;
  auto session = db->OpenSession();
  auto table = session->OpenTable("accounts");
  if (!table.ok()) return 1;
  int64_t total = AuditTotal(session.get(), *table);
  std::printf("after crash+recovery, audit total: %lld -> %s\n",
              static_cast<long long>(total),
              total == kExpected ? "OK" : "BROKEN");
  return total == kExpected ? 0 : 1;
}
