#include "workloads.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <span>

#include "trace.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace perfbench {

using shoremt::Result;
using shoremt::Rng;
using shoremt::Status;
namespace sm = shoremt::sm;
namespace wl = shoremt::workload;

namespace {

// --- Session calls, each inside its span ------------------------------------

bool TxBegin(sm::Session* s) {
  Span span(SpanKind::kBegin);
  if (!s->Begin().ok()) return false;
  Tracer::SetTxn(s->txn()->id);
  return true;
}

Result<std::span<const uint8_t>> TxRead(sm::Session* s,
                                        const sm::TableInfo& t,
                                        uint64_t key) {
  Span span(SpanKind::kRead);
  return s->Read(t, key);
}

template <typename T>
Result<T> TxReadRow(sm::Session* s, const sm::TableInfo& t, uint64_t key) {
  Span span(SpanKind::kRead);
  return wl::ReadTpccRow<T>(s, t, key);
}

bool TxUpdate(sm::Session* s, const sm::TableInfo& t, uint64_t key,
              std::span<const uint8_t> bytes) {
  Span span(SpanKind::kUpdate);
  return s->Update(t, key, bytes).ok();
}

bool TxInsert(sm::Session* s, const sm::TableInfo& t, uint64_t key,
              std::span<const uint8_t> bytes) {
  Span span(SpanKind::kInsert);
  return s->Insert(t, key, bytes).ok();
}

/// CommitAsync; under tracing also registers a durability callback that
/// measures the commit-to-acknowledgment latency.
bool TxCommit(sm::Session* s) {
  Result<shoremt::txn::CommitToken> token = [&] {
    Span span(SpanKind::kCommit);
    return s->CommitAsync();
  }();
  if (!token.ok()) return false;
  Tracer* tracer = Tracer::Current();
  if (tracer != nullptr && !token->lsn.IsNull()) {
    uint64_t start = NowNs();
    tracer->ExpectAck();
    s->OnDurable(token->lsn, [tracer, start](Status) {
      tracer->RecordAck(NowNs() - start);
    });
  }
  return true;
}

bool TxAbort(sm::Session* s) {
  {
    Span span(SpanKind::kAbort);
    (void)s->Abort();
  }
  return false;
}

template <typename T>
std::span<const uint8_t> Bytes(const T& row) {
  return {reinterpret_cast<const uint8_t*>(&row), sizeof(T)};
}

void Note(TxnWrites* writes, int table, uint64_t key,
          std::span<const uint8_t> bytes) {
  if (writes != nullptr) {
    writes->push_back({{table, key}, {bytes.begin(), bytes.end()}});
  }
}

/// Settings every workload shares: the final-stage engine with waits-for
/// deadlock detection, 1 MiB log segments recycled by the page cleaner
/// and checkpoint daemon, and no periodic log flush daemon (commits are
/// flushed by the group-commit pipeline they submit to).
sm::StorageOptions CommonOptions(size_t frames) {
  sm::StorageOptions o = sm::StorageOptions::ForStage(sm::Stage::kFinal);
  o.buffer.frame_count = frames;
  o.buffer.enable_cleaner = true;
  o.checkpoint_daemon = true;
  o.log.segment_bytes = 1 << 20;
  o.log.flush_daemon = false;
  o.lock.deadlock_policy = shoremt::lock::DeadlockPolicy::kWaitsForGraph;
  o.recovery_prefetch_window = 0;
  return o;
}

// --- TPC-C -------------------------------------------------------------------

/// New-Order / Payment 50/50 at spec scale per warehouse, one home
/// warehouse per terminal. The transaction bodies mirror
/// workload/tpcc.cc call for call so that every Session call can be
/// wrapped in a span, with two differences: customer and item ids are
/// drawn as NURand(A, 1, n), the loaded range, where workload/tpcc.cc
/// draws 1 + NURand(A, 1, n) and so sometimes asks for the unloaded id
/// n + 1; and HISTORY keys come from a per-warehouse sequence instead of
/// a process-wide one.
class Tpcc final : public Workload {
 public:
  enum TableIndex {
    kWarehouse, kDistrict, kCustomer, kItem, kStock,
    kOrders, kOrderLine, kNewOrder, kHistory, kTables,
  };

  Tpcc() {
    db_.config.warehouses = 2;
    db_.config.districts_per_warehouse = 10;
    db_.config.customers_per_district = 3000;
    db_.config.items = 100'000;
  }

  sm::StorageOptions Options() const override {
    return CommonOptions(16384);
  }

  Status Load(sm::Session* s) override {
    SHOREMT_ASSIGN_OR_RETURN(db_, wl::LoadTpcc(s, db_.config));
    return Status::Ok();
  }

  Status Reopen(sm::Session* s) override {
    for (int t = 0; t < kTables; ++t) {
      sm::TableInfo* info = MutableTable(t);
      SHOREMT_ASSIGN_OR_RETURN(*info, s->OpenTable(info->name));
    }
    return Status::Ok();
  }

  void StartWorker(sm::Session* s, int, uint64_t seed) override {
    s->rng() = Rng(seed);
  }

  bool RunTxn(sm::Session* s, int worker) override {
    uint32_t home_w = 1 + static_cast<uint32_t>(worker) % db_.config.warehouses;
    return s->rng().NextDouble() < 0.5 ? NewOrder(s, home_w, nullptr)
                                       : Payment(s, home_w, nullptr);
  }

  bool RunWriteTxn(sm::Session* s, uint64_t i, TxnWrites* writes) override {
    uint32_t home_w = 1 + static_cast<uint32_t>(i % db_.config.warehouses);
    return s->rng().NextDouble() < 0.5 ? NewOrder(s, home_w, writes)
                                       : Payment(s, home_w, writes);
  }

  std::pair<int, uint64_t> PinRow(int cycle) const override {
    // Warehouse 0 does not exist, so no transaction writes this key.
    return {kHistory, wl::HistoryKey(0, static_cast<uint64_t>(cycle) + 1)};
  }

  const sm::TableInfo& Table(int index) const override {
    return *const_cast<Tpcc*>(this)->MutableTable(index);
  }

  /// TPC-C consistency conditions 1 and 2: W_YTD = sum(D_YTD), and
  /// D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) in every district.
  Status Check(sm::Session* s) override {
    const wl::TpccConfig& cfg = db_.config;
    SHOREMT_RETURN_NOT_OK(s->Begin());
    Status st = CheckBody(s, cfg);
    if (!st.ok()) {
      (void)s->Abort();
      return st;
    }
    return s->Commit();
  }

 private:
  sm::TableInfo* MutableTable(int index) {
    sm::TableInfo* tables[kTables] = {
        &db_.warehouse, &db_.district, &db_.customer,
        &db_.item,      &db_.stock,    &db_.orders,
        &db_.order_line, &db_.new_order, &db_.history};
    return tables[index];
  }

  Status CheckBody(sm::Session* s, const wl::TpccConfig& cfg) {
    for (uint32_t w = 1; w <= cfg.warehouses; ++w) {
      SHOREMT_ASSIGN_OR_RETURN(
          wl::WarehouseRow wr,
          wl::ReadTpccRow<wl::WarehouseRow>(s, db_.warehouse,
                                            wl::WarehouseKey(w)));
      double d_sum = 0;
      for (uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
        SHOREMT_ASSIGN_OR_RETURN(
            wl::DistrictRow dr,
            wl::ReadTpccRow<wl::DistrictRow>(s, db_.district,
                                             wl::DistrictKey(w, d)));
        d_sum += dr.ytd;
        SHOREMT_RETURN_NOT_OK(CheckMaxOrder(s, db_.orders, w, d, dr.next_o_id));
        SHOREMT_RETURN_NOT_OK(
            CheckMaxOrder(s, db_.new_order, w, d, dr.next_o_id));
      }
      if (std::fabs(wr.ytd - d_sum) > 1e-9 * std::max(1.0, std::fabs(wr.ytd))) {
        return Status::Corruption("W_YTD != sum(D_YTD) for warehouse " +
                                  std::to_string(w));
      }
    }
    return Status::Ok();
  }

  /// The district's highest order id in `table` is next_o_id - 1.
  static Status CheckMaxOrder(sm::Session* s, const sm::TableInfo& table,
                              uint32_t w, uint32_t d, uint32_t next_o_id) {
    std::string where = table.name + " district " + std::to_string(w) + "/" +
                        std::to_string(d);
    if (next_o_id > 1) {
      auto last = s->Read(table, wl::OrderKey(w, d, next_o_id - 1));
      if (!last.ok()) {
        return Status::Corruption("missing order next_o_id-1 in " + where);
      }
    }
    sm::Cursor cur = s->OpenCursor(table);
    SHOREMT_RETURN_NOT_OK(cur.Seek(wl::OrderKey(w, d, next_o_id)));
    if (cur.Valid() && cur.key() <= wl::OrderKey(w, d, 9'999'999)) {
      return Status::Corruption("order id >= next_o_id in " + where);
    }
    return Status::Ok();
  }

  bool Payment(sm::Session* s, uint32_t home_w, TxnWrites* writes) {
    const wl::TpccConfig& cfg = db_.config;
    Rng& rng = s->rng();
    uint32_t d = 1 + static_cast<uint32_t>(
                         rng.Uniform(cfg.districts_per_warehouse));
    uint32_t c = static_cast<uint32_t>(
        rng.NonUniform(1023, 1, cfg.customers_per_district));
    double amount = 1.0 + rng.NextDouble() * 4999.0;

    if (!TxBegin(s)) return false;
    auto wr = TxReadRow<wl::WarehouseRow>(s, db_.warehouse,
                                          wl::WarehouseKey(home_w));
    if (!wr.ok()) return TxAbort(s);
    wr->ytd += amount;
    if (!TxUpdate(s, db_.warehouse, wl::WarehouseKey(home_w), Bytes(*wr))) {
      return TxAbort(s);
    }
    Note(writes, kWarehouse, wl::WarehouseKey(home_w), Bytes(*wr));

    uint64_t dkey = wl::DistrictKey(home_w, d);
    auto dr = TxReadRow<wl::DistrictRow>(s, db_.district, dkey);
    if (!dr.ok()) return TxAbort(s);
    dr->ytd += amount;
    if (!TxUpdate(s, db_.district, dkey, Bytes(*dr))) return TxAbort(s);
    Note(writes, kDistrict, dkey, Bytes(*dr));

    uint64_t ckey = wl::CustomerKey(home_w, d, c);
    auto cr = TxReadRow<wl::CustomerRow>(s, db_.customer, ckey);
    if (!cr.ok()) return TxAbort(s);
    cr->balance -= amount;
    cr->ytd_payment += amount;
    cr->payment_cnt += 1;
    if (!TxUpdate(s, db_.customer, ckey, Bytes(*cr))) return TxAbort(s);
    Note(writes, kCustomer, ckey, Bytes(*cr));

    wl::HistoryRow hr{ckey, amount};
    uint64_t seq =
        history_seq_[home_w].next.fetch_add(1, std::memory_order_relaxed);
    uint64_t hkey = wl::HistoryKey(home_w, seq);
    if (!TxInsert(s, db_.history, hkey, Bytes(hr))) return TxAbort(s);
    Note(writes, kHistory, hkey, Bytes(hr));
    return TxCommit(s);
  }

  bool NewOrder(sm::Session* s, uint32_t home_w, TxnWrites* writes) {
    const wl::TpccConfig& cfg = db_.config;
    Rng& rng = s->rng();
    uint32_t d = 1 + static_cast<uint32_t>(
                         rng.Uniform(cfg.districts_per_warehouse));
    uint32_t c = static_cast<uint32_t>(
        rng.NonUniform(1023, 1, cfg.customers_per_district));
    uint32_t ol_cnt = 5 + static_cast<uint32_t>(rng.Uniform(11));

    if (!TxBegin(s)) return false;
    auto wr = TxReadRow<wl::WarehouseRow>(s, db_.warehouse,
                                          wl::WarehouseKey(home_w));
    if (!wr.ok()) return TxAbort(s);

    uint64_t dkey = wl::DistrictKey(home_w, d);
    auto dr = TxReadRow<wl::DistrictRow>(s, db_.district, dkey);
    if (!dr.ok()) return TxAbort(s);
    uint32_t o_id = dr->next_o_id;
    dr->next_o_id += 1;
    if (!TxUpdate(s, db_.district, dkey, Bytes(*dr))) return TxAbort(s);
    Note(writes, kDistrict, dkey, Bytes(*dr));

    auto cr = TxReadRow<wl::CustomerRow>(s, db_.customer,
                                         wl::CustomerKey(home_w, d, c));
    if (!cr.ok()) return TxAbort(s);

    uint64_t okey = wl::OrderKey(home_w, d, o_id);
    wl::OrderRow orow{c, ol_cnt, 20260610};
    if (!TxInsert(s, db_.orders, okey, Bytes(orow))) return TxAbort(s);
    Note(writes, kOrders, okey, Bytes(orow));
    uint8_t no_marker = 1;
    if (!TxInsert(s, db_.new_order, okey, {&no_marker, 1})) return TxAbort(s);
    Note(writes, kNewOrder, okey, {&no_marker, 1});

    for (uint32_t l = 1; l <= ol_cnt; ++l) {
      uint32_t i_id =
          static_cast<uint32_t>(rng.NonUniform(8191, 1, cfg.items));
      auto ir = TxReadRow<wl::ItemRow>(s, db_.item, wl::ItemKey(i_id));
      if (!ir.ok()) return TxAbort(s);
      uint64_t skey = wl::StockKey(home_w, i_id);
      auto sr = TxReadRow<wl::StockRow>(s, db_.stock, skey);
      if (!sr.ok()) return TxAbort(s);
      uint32_t qty = 1 + static_cast<uint32_t>(rng.Uniform(10));
      sr->quantity = sr->quantity > qty + 10 ? sr->quantity - qty
                                             : sr->quantity + 91 - qty;
      sr->ytd += qty;
      sr->order_cnt += 1;
      if (!TxUpdate(s, db_.stock, skey, Bytes(*sr))) return TxAbort(s);
      Note(writes, kStock, skey, Bytes(*sr));
      uint64_t olkey = wl::OrderLineKey(home_w, d, o_id, l);
      wl::OrderLineRow ol{i_id, home_w, qty, ir->price * qty};
      if (!TxInsert(s, db_.order_line, olkey, Bytes(ol))) return TxAbort(s);
      Note(writes, kOrderLine, olkey, Bytes(ol));
    }
    return TxCommit(s);
  }

  wl::TpccDatabase db_;
  /// Next HISTORY sequence number per warehouse (index 0 unused), one
  /// cache line each: each terminal bumps its own warehouse's.
  struct alignas(64) Sequence {
    std::atomic<uint64_t> next{1};
  };
  Sequence history_seq_[3];
};

// --- YCSB-B ------------------------------------------------------------------

/// YCSB-B (95% read, 5% update, one operation per transaction) over
/// 100-byte rows. Mirrors workload/ycsb.cc's RunYcsbTxn for B, with the
/// request keys drawn by the library's YcsbWorker. Every read is checked
/// against the key-seeded payload pattern of FillYcsbPayload.
class Ycsb final : public Workload {
 public:
  Ycsb(uint64_t records, double theta, size_t frames) : frames_(frames) {
    cfg_.record_count = records;
    cfg_.field_size = 100;
    cfg_.zipf_theta = theta;
  }

  sm::StorageOptions Options() const override { return CommonOptions(frames_); }

  Status Load(sm::Session* s) override { return wl::LoadYcsb(s, cfg_, &db_); }

  Status Reopen(sm::Session* s) override {
    SHOREMT_ASSIGN_OR_RETURN(db_.usertable, s->OpenTable("usertable"));
    return Status::Ok();
  }

  void StartWorker(sm::Session* s, int worker, uint64_t seed) override {
    s->rng() = Rng(seed);
    workers_[worker] = std::make_unique<Client>(&db_, seed);
  }

  bool RunTxn(sm::Session* s, int worker) override {
    wl::YcsbWorker* gen = &workers_[worker]->gen;
    std::vector<uint8_t>& buf = workers_[worker]->read_buf;
    bool read = gen->rng().NextDouble() < 0.95;
    uint64_t key = gen->NextKey();
    if (!TxBegin(s)) return false;
    if (read) {
      auto r = TxRead(s, db_.usertable, key);
      if (!r.ok()) return TxAbort(s);
      if (!PayloadMatches(key, *r, &buf)) {
        bad_reads_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      wl::FillYcsbPayload(key, cfg_.field_size, /*counter=*/0, &buf);
      if (!TxUpdate(s, db_.usertable, key, buf)) return TxAbort(s);
    }
    return TxCommit(s);
  }

  bool RunWriteTxn(sm::Session* s, uint64_t, TxnWrites* writes) override {
    uint64_t key = s->rng().Uniform(cfg_.record_count);
    // A distinct counter per write makes each acknowledged value unique.
    wl::FillYcsbPayload(key, cfg_.field_size, ++write_counter_, &write_buf_);
    if (!TxBegin(s)) return false;
    if (!TxUpdate(s, db_.usertable, key, write_buf_)) return TxAbort(s);
    Note(writes, 0, key, write_buf_);
    return TxCommit(s);
  }

  std::pair<int, uint64_t> PinRow(int cycle) const override {
    // Beyond the loaded key range: YCSB-B never draws it.
    return {0, cfg_.record_count + static_cast<uint64_t>(cycle)};
  }

  const sm::TableInfo& Table(int) const override { return db_.usertable; }

  /// Every key in [0, record_count) is present exactly once, nothing lies
  /// beyond it, and every payload carries its key's pattern.
  Status Check(sm::Session* s) override {
    SHOREMT_RETURN_NOT_OK(s->Begin());
    std::vector<uint8_t> buf;
    uint64_t expect = 0;
    sm::Cursor cur = s->OpenCursor(db_.usertable);
    Status st = cur.Seek(0);
    for (; st.ok() && cur.Valid(); st = cur.Next()) {
      if (cur.key() != expect ||
          !PayloadMatches(cur.key(), cur.value(), &buf)) {
        st = Status::Corruption("usertable row " + std::to_string(cur.key()) +
                                " is wrong or out of place");
        break;
      }
      ++expect;
    }
    if (st.ok() && expect != cfg_.record_count) {
      st = Status::Corruption("usertable holds " + std::to_string(expect) +
                              " rows");
    }
    if (!st.ok()) {
      (void)s->Abort();
      return st;
    }
    return s->Commit();
  }

  uint64_t bad_reads() const override {
    return bad_reads_.load(std::memory_order_relaxed);
  }

 private:
  /// Bytes past the 8-byte counter are the key-seeded filler.
  bool PayloadMatches(uint64_t key, std::span<const uint8_t> got,
                      std::vector<uint8_t>* buf) const {
    wl::FillYcsbPayload(key, cfg_.field_size, 0, buf);
    return got.size() == buf->size() &&
           std::memcmp(got.data() + 8, buf->data() + 8, buf->size() - 8) == 0;
  }

  /// One worker's request generator and read buffer, on cache lines of
  /// its own (the generator's RNG state changes on every draw).
  struct alignas(64) Client {
    Client(wl::YcsbDatabase* db, uint64_t seed) : gen(db, seed) {}
    wl::YcsbWorker gen;
    std::vector<uint8_t> read_buf;
  };

  const size_t frames_;
  wl::YcsbConfig cfg_;
  wl::YcsbDatabase db_;
  std::unique_ptr<Client> workers_[kWorkers];
  std::vector<uint8_t> write_buf_;
  uint64_t write_counter_ = 0;
  std::atomic<uint64_t> bad_reads_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpcc") return std::make_unique<Tpcc>();
  // Hot: 200k rows (~25 MB with the index) inside a 16Ki-frame (128 MiB)
  // pool, zipf 0.99. Cold: 400k rows in 1024 frames (8 MiB), uniform.
  if (name == "ycsb_hot") return std::make_unique<Ycsb>(200'000, 0.99, 16384);
  if (name == "ycsb_cold") return std::make_unique<Ycsb>(400'000, 0.0, 1024);
  return nullptr;
}

}  // namespace perfbench
