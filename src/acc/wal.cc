#include "acc/wal.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "common/string_util.h"

namespace accdb::acc {

namespace {

// --- Binary record payload encoding (little-endian, length-prefixed) ---

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutValue(std::string* out, const storage::Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case storage::ColumnType::kInt64:
      PutU64(out, static_cast<uint64_t>(v.AsInt64()));
      break;
    case storage::ColumnType::kDouble: {
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof bits);
      PutU64(out, bits);
      break;
    }
    case storage::ColumnType::kMoney:
      PutU64(out, static_cast<uint64_t>(v.AsMoney().cents()));
      break;
    case storage::ColumnType::kString:
      PutString(out, v.AsString());
      break;
  }
}

// Bounds-checked cursor; every Get* returns false on truncation and the
// decoder propagates, so a corrupt payload can never read out of bounds.
struct Cursor {
  const char* p;
  size_t left;

  bool GetU8(uint8_t* v) {
    if (left < 1) return false;
    *v = static_cast<uint8_t>(*p);
    ++p;
    --left;
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (left < 4) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    *v = r;
    p += 4;
    left -= 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (left < 8) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    *v = r;
    p += 8;
    left -= 8;
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t len;
    if (!GetU32(&len) || left < len) return false;
    s->assign(p, len);
    p += len;
    left -= len;
    return true;
  }
  bool GetValue(storage::Value* v) {
    uint8_t tag;
    if (!GetU8(&tag)) return false;
    switch (static_cast<storage::ColumnType>(tag)) {
      case storage::ColumnType::kInt64: {
        uint64_t u;
        if (!GetU64(&u)) return false;
        *v = storage::Value(static_cast<int64_t>(u));
        return true;
      }
      case storage::ColumnType::kDouble: {
        uint64_t bits;
        if (!GetU64(&bits)) return false;
        double d;
        std::memcpy(&d, &bits, sizeof d);
        *v = storage::Value(d);
        return true;
      }
      case storage::ColumnType::kMoney: {
        uint64_t u;
        if (!GetU64(&u)) return false;
        *v = storage::Value(Money::FromCents(static_cast<int64_t>(u)));
        return true;
      }
      case storage::ColumnType::kString: {
        std::string s;
        if (!GetString(&s)) return false;
        *v = storage::Value(std::move(s));
        return true;
      }
    }
    return false;
  }
};

// Sanity bound on decoded element counts: a frame's payload already passed
// its CRC, but the decoder is also exercised on raw bytes in tests.
constexpr uint32_t kMaxDecodeElements = 1u << 24;

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(record.type));
  PutU64(&out, record.lsn);
  PutU64(&out, record.txn);
  PutString(&out, record.program);
  PutU32(&out, static_cast<uint32_t>(record.step_index));
  PutString(&out, record.work_area);
  PutU32(&out, static_cast<uint32_t>(record.redo.size()));
  for (const WalRedoOp& op : record.redo) {
    PutU8(&out, static_cast<uint8_t>(op.kind));
    PutU32(&out, op.table);
    PutU64(&out, op.row);
    switch (op.kind) {
      case WalRedoOp::Kind::kInsert:
        PutU32(&out, static_cast<uint32_t>(op.row_data.size()));
        for (const storage::Value& v : op.row_data) PutValue(&out, v);
        break;
      case WalRedoOp::Kind::kUpdate:
        PutU32(&out, static_cast<uint32_t>(op.columns.size()));
        for (const auto& [col, v] : op.columns) {
          PutU32(&out, static_cast<uint32_t>(col));
          PutValue(&out, v);
        }
        break;
      case WalRedoOp::Kind::kDelete:
        break;
    }
  }
  return out;
}

bool DecodeWalRecord(std::string_view payload, WalRecord* out) {
  Cursor c{payload.data(), payload.size()};
  uint8_t type;
  uint64_t lsn, txn;
  uint32_t step_index, redo_count;
  WalRecord rec;
  if (!c.GetU8(&type) || type > static_cast<uint8_t>(LogRecordType::kCompensated)) {
    return false;
  }
  rec.type = static_cast<LogRecordType>(type);
  if (!c.GetU64(&lsn) || !c.GetU64(&txn)) return false;
  rec.lsn = lsn;
  rec.txn = txn;
  if (!c.GetString(&rec.program)) return false;
  if (!c.GetU32(&step_index)) return false;
  rec.step_index = static_cast<int32_t>(step_index);
  if (!c.GetString(&rec.work_area)) return false;
  if (!c.GetU32(&redo_count) || redo_count > kMaxDecodeElements) return false;
  rec.redo.reserve(redo_count);
  for (uint32_t i = 0; i < redo_count; ++i) {
    WalRedoOp op;
    uint8_t kind;
    if (!c.GetU8(&kind) ||
        kind > static_cast<uint8_t>(WalRedoOp::Kind::kDelete)) {
      return false;
    }
    op.kind = static_cast<WalRedoOp::Kind>(kind);
    if (!c.GetU32(&op.table) || !c.GetU64(&op.row)) return false;
    uint32_t n;
    switch (op.kind) {
      case WalRedoOp::Kind::kInsert: {
        if (!c.GetU32(&n) || n > kMaxDecodeElements) return false;
        op.row_data.reserve(n);
        for (uint32_t j = 0; j < n; ++j) {
          storage::Value v;
          if (!c.GetValue(&v)) return false;
          op.row_data.push_back(std::move(v));
        }
        break;
      }
      case WalRedoOp::Kind::kUpdate: {
        if (!c.GetU32(&n) || n > kMaxDecodeElements) return false;
        op.columns.reserve(n);
        for (uint32_t j = 0; j < n; ++j) {
          uint32_t col;
          storage::Value v;
          if (!c.GetU32(&col) || !c.GetValue(&v)) return false;
          op.columns.emplace_back(static_cast<int>(col), std::move(v));
        }
        break;
      }
      case WalRedoOp::Kind::kDelete:
        break;
    }
    rec.redo.push_back(std::move(op));
  }
  if (c.left != 0) return false;  // Trailing garbage: not a valid record.
  *out = std::move(rec);
  return true;
}

// --- Wal ---

std::unique_ptr<Wal> Wal::Open(const Options& options, Status* status) {
  auto wal = std::unique_ptr<Wal>(new Wal(options));
  Result<RecordScan> scan = ScanRecordFile(options.path);
  if (!scan.ok()) {
    *status = scan.status();
    return nullptr;
  }
  wal->recovered_torn_tail_ = scan->torn_tail;
  wal->recovered_.reserve(scan->payloads.size());
  for (const std::string& payload : scan->payloads) {
    WalRecord rec;
    if (!DecodeWalRecord(payload, &rec)) {
      *status = Status::Internal(
          StrFormat("wal %s: checksummed frame %zu is not a valid record",
                    options.path.c_str(), wal->recovered_.size()));
      return nullptr;
    }
    if (rec.lsn != wal->recovered_.size() + 1) {
      *status = Status::Internal(
          StrFormat("wal %s: LSN gap (frame %zu has lsn %llu, want %zu)",
                    options.path.c_str(), wal->recovered_.size(),
                    static_cast<unsigned long long>(rec.lsn),
                    wal->recovered_.size() + 1));
      return nullptr;
    }
    if (rec.txn > wal->max_recovered_txn_) wal->max_recovered_txn_ = rec.txn;
    wal->recovered_.push_back(std::move(rec));
  }
  Status open = wal->writer_.Open(options.path, scan->valid_bytes);
  if (!open.ok()) {
    *status = open;
    return nullptr;
  }
  wal->next_lsn_ = wal->recovered_.size() + 1;
  wal->buffered_lsn_ = wal->recovered_.size();
  wal->durable_lsn_ = wal->recovered_.size();
  if (options.group_commit_us > 0) {
    wal->flusher_ = std::thread([w = wal.get()] { w->FlusherLoop(); });
  }
  *status = Status::Ok();
  return wal;
}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  Flush();  // Whatever is still buffered (e.g. sync-per-commit stragglers).
}

uint64_t Wal::Append(WalRecord record) {
  std::string payload;
  uint64_t lsn;
  {
    std::lock_guard<std::mutex> guard(mu_);
    lsn = next_lsn_++;
    record.lsn = lsn;
    payload = EncodeWalRecord(record);
    AppendFrame(&buffer_, payload);
    buffered_lsn_ = lsn;
    ++stats_.appends;
  }
  if (options_.group_commit_us > 0) flusher_cv_.notify_one();
  return lsn;
}

Status Wal::WaitDurable(uint64_t lsn) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (durable_lsn_ >= lsn) return Status::Ok();
    if (!io_status_.ok()) return io_status_;
    ++stats_.forced_waits;
  }
  if (options_.group_commit_us == 0) {
    // Sync-per-commit: the committer performs its own flush, serialized on
    // the I/O latch. No batching — with N committers this is N fsyncs even
    // when one write would have covered them all; that cost is the point of
    // the group-commit comparison.
    Flush();
    std::lock_guard<std::mutex> guard(mu_);
    return durable_lsn_ >= lsn ? Status::Ok() : io_status_;
  }
  std::unique_lock<std::mutex> lk(mu_);
  durable_cv_.wait(lk, [&] { return durable_lsn_ >= lsn || !io_status_.ok(); });
  return durable_lsn_ >= lsn ? Status::Ok() : io_status_;
}

uint64_t Wal::durable_lsn() const {
  std::lock_guard<std::mutex> guard(mu_);
  return durable_lsn_;
}

Status Wal::io_status() const {
  std::lock_guard<std::mutex> guard(mu_);
  return io_status_;
}

void Wal::SimulateIoErrorForTest(Status error) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (io_status_.ok()) io_status_ = std::move(error);
  }
  flusher_cv_.notify_all();
  durable_cv_.notify_all();
}

Wal::Stats Wal::StatsSnapshot() const {
  std::lock_guard<std::mutex> guard(mu_);
  return stats_;
}

void Wal::Flush() {
  // Two phases so appenders never block on disk I/O: swap the buffer out
  // under mu_, write+fsync under io_mu_ only, then publish the new durable
  // LSN. io_mu_ serializes concurrent flushers (sync-per-commit mode) and
  // keeps batches in LSN order — each flusher captured a strictly later
  // buffer prefix and io_mu_ is FIFO enough: a later flusher entering first
  // would write a batch containing the earlier one's bytes only if it
  // swapped later, and swaps are ordered by mu_. To make that airtight we
  // hold io_mu_ across the swap-ordering decision: take io_mu_ first, then
  // swap. An empty swap (someone else already flushed our bytes) still
  // fsyncs nothing new but must still advance our view before returning.
  std::unique_lock<std::mutex> io(io_mu_);
  std::string batch;
  uint64_t batch_lsn;
  {
    std::lock_guard<std::mutex> guard(mu_);
    // Fail-stop: after a write/fsync failure nothing is ever written again.
    // A retry after a possibly-partial write could duplicate frames, and a
    // later successful batch would open an LSN gap ahead of the lost bytes;
    // refusing all further I/O keeps the on-disk prefix exactly the durable
    // prefix.
    if (!io_status_.ok()) return;
    batch.swap(buffer_);
    batch_lsn = buffered_lsn_;
  }
  Status flushed = Status::Ok();
  if (!batch.empty()) {
    Status ws = writer_.Write(batch);
    flushed = ws.ok() ? writer_.Sync() : ws;
  }
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (flushed.ok()) {
      if (batch_lsn > durable_lsn_) durable_lsn_ = batch_lsn;
      if (!batch.empty()) {
        ++stats_.fsyncs;
        stats_.bytes_written += batch.size();
      }
    } else {
      // The batch's durability is unknown (the write may have landed
      // partially), so the durable LSN must not advance: committers waiting
      // on these records get the sticky error instead of a false ack, and
      // recovery trusts whatever checksummed prefix the scan finds. Keep
      // the bytes buffered (ahead of anything appended meanwhile) purely so
      // the in-memory invariant "un-durable records live in buffer_" holds.
      assert(false && "wal flush I/O failure");
      io_status_ = flushed;
      batch.append(buffer_);
      buffer_ = std::move(batch);
    }
  }
  io.unlock();
  durable_cv_.notify_all();
}

void Wal::FlusherLoop() {
  const auto window = std::chrono::microseconds(options_.group_commit_us);
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      flusher_cv_.wait(
          lk, [&] { return stop_ || !io_status_.ok() || !buffer_.empty(); });
      // Fail-stop: once poisoned nothing will ever flush again, so a
      // non-empty buffer would otherwise spin this loop forever.
      if (!io_status_.ok()) return;
      if (stop_ && buffer_.empty()) return;
    }
    // Batch window: let committers pile onto the buffer, then flush them
    // all with one fsync.
    std::this_thread::sleep_for(window);
    Flush();
  }
}

// --- Recovery helpers ---

Status ApplyWalRedo(storage::Database& db, const WalRecord& record) {
  for (const WalRedoOp& op : record.redo) {
    storage::Table* table = db.GetTable(op.table);
    if (table == nullptr) {
      return Status::Internal(
          StrFormat("wal redo lsn %llu: unknown table %u",
                    static_cast<unsigned long long>(record.lsn), op.table));
    }
    Status s;
    switch (op.kind) {
      case WalRedoOp::Kind::kInsert:
        s = table->InsertWithId(op.row, op.row_data);
        break;
      case WalRedoOp::Kind::kUpdate:
        s = table->UpdateColumns(op.row, op.columns);
        break;
      case WalRedoOp::Kind::kDelete:
        s = table->Delete(op.row);
        break;
    }
    if (!s.ok()) {
      return Status::Internal(StrFormat(
          "wal redo lsn %llu table %s row %llu: %s",
          static_cast<unsigned long long>(record.lsn), table->name().c_str(),
          static_cast<unsigned long long>(op.row), s.message().c_str()));
    }
  }
  return Status::Ok();
}

Status ReplayWal(storage::Database& db,
                 const std::vector<WalRecord>& records) {
  for (const WalRecord& record : records) {
    ACCDB_RETURN_IF_ERROR(ApplyWalRedo(db, record));
  }
  return Status::Ok();
}

void RecoveryLog::Apply(const WalRecord& record) {
  std::lock_guard<std::mutex> guard(mu_);
  switch (record.type) {
    case LogRecordType::kBegin:
      active_[record.txn] = Entry{next_begin_order_++, record.program, 0, {}};
      break;
    case LogRecordType::kEndOfStep: {
      auto it = active_.find(record.txn);
      if (it == active_.end()) break;
      it->second.completed_steps =
          std::max(it->second.completed_steps, record.step_index);
      it->second.work_area = record.work_area;
      break;
    }
    case LogRecordType::kCommit:
    case LogRecordType::kCompensated:
      active_.erase(record.txn);
      break;
  }
}

std::vector<InFlightTxn> RecoveryLog::FindInFlight() const {
  std::vector<std::pair<uint64_t, InFlightTxn>> pending;
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (const auto& [txn, entry] : active_) {
      if (entry.completed_steps == 0) continue;
      pending.emplace_back(entry.begin_order,
                           InFlightTxn{txn, entry.program,
                                       entry.completed_steps,
                                       entry.work_area});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<InFlightTxn> out;
  out.reserve(pending.size());
  for (auto& [order, txn] : pending) out.push_back(std::move(txn));
  return out;
}

}  // namespace accdb::acc
