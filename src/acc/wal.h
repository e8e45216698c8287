// Durable write-ahead log with group commit.
//
// The paper's ACC "stores an end-of-step record, used in crash recovery, in
// the log" (§5). This WAL makes that record — and the begin / commit /
// compensated records around it — durable: LSN-stamped records are
// serialized through a latched in-memory log buffer into an append-only
// file (checksummed frames, src/common/record_file.h), and committers block
// in WaitDurable() until their LSN has been fsynced.
//
// Two flush disciplines (Options::group_commit_us):
//   * 0 — sync-per-commit: every WaitDurable performs its own write+fsync
//     (serialized through the I/O latch). One fsync per forced record, the
//     classic non-batched discipline.
//   * N > 0 — group commit: a background flusher thread wakes when records
//     are buffered, sleeps the batch window, then flushes everything that
//     accumulated with a single write+fsync and wakes every committer whose
//     LSN the flush covered. Commits/s scales with the batch size instead
//     of the fsync rate (the log-buffer + log_add_and_flush shape).
//
// Durability is prefix-ordered: durable_lsn advances through the buffer in
// append order, so "record R durable" implies every lower LSN is durable.
// That is what lets the engine release step locks before waiting: any
// dependent record appends behind R and can never become durable first.
// A write/fsync failure makes the log fail-stop: the error is sticky,
// durable_lsn never advances past the last successful batch, no further
// bytes are written (a retry after a partial write could duplicate or gap
// frames), and WaitDurable surfaces the error to every committer from then
// on. The on-disk checksummed prefix therefore always equals the durable
// prefix, which is what recovery's scan assumes.
//
// Redo: each end-of-step (and compensated, and 2PL commit) record carries
// the physical after-images of the step's writes. Recovery rebuilds the
// database by reloading the deterministic initial state and replaying redo
// in LSN order, then compensates in-flight transactions (§3.4), which the
// engine finds in RecoveryLog (below), the log's in-memory view of them. A
// record is the atom: a compensation whose record is torn never applied
// any redo, so re-running it from scratch is exact.

#ifndef ACCDB_ACC_WAL_H_
#define ACCDB_ACC_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/record_file.h"
#include "common/status.h"
#include "lock/types.h"
#include "storage/database.h"

namespace accdb::acc {

enum class LogRecordType : uint8_t {
  kBegin,
  kEndOfStep,
  kCommit,
  kCompensated,
};

// One physical write to replay at recovery. Inserts carry the full row and
// its assigned RowId (replay re-inserts under the same id, so later records
// that reference the row by id still resolve); updates carry the updated
// (column, value) pairs; deletes just the id.
struct WalRedoOp {
  enum class Kind : uint8_t { kInsert, kUpdate, kDelete };

  Kind kind = Kind::kUpdate;
  storage::TableId table = 0;
  storage::RowId row = storage::kInvalidRowId;
  storage::Row row_data;                                // kInsert.
  std::vector<std::pair<int, storage::Value>> columns;  // kUpdate.
};

// One durable log record. `redo` is populated on kEndOfStep (the step's
// writes), kCompensated (the compensating step's writes) and kCommit under
// the serializable baseline (the whole transaction's writes).
struct WalRecord {
  LogRecordType type = LogRecordType::kBegin;
  uint64_t lsn = 0;  // Assigned by Append.
  lock::TxnId txn = 0;
  std::string program;     // kBegin.
  int32_t step_index = 0;  // kEndOfStep (1-based).
  std::string work_area;   // kEndOfStep.
  std::vector<WalRedoOp> redo;
};

// Serialization (exposed for tests; Append/scan use them internally).
std::string EncodeWalRecord(const WalRecord& record);
bool DecodeWalRecord(std::string_view payload, WalRecord* out);

class Wal {
 public:
  struct Options {
    std::string path;
    // Group-commit batch window in microseconds; 0 = sync-per-commit.
    uint32_t group_commit_us = 0;
  };

  struct Stats {
    uint64_t appends = 0;
    uint64_t forced_waits = 0;  // WaitDurable calls that had to wait/flush.
    uint64_t fsyncs = 0;
    uint64_t bytes_written = 0;
  };

  // Opens `path`, scans every valid record already in it (the surviving log
  // of a crashed process; a torn tail is detected, reported and truncated
  // away), and positions the appender after the last valid record with
  // next_lsn = last + 1. On failure returns null and sets *status.
  static std::unique_ptr<Wal> Open(const Options& options, Status* status);

  ~Wal();  // Stops the flusher after a final flush.

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Stamps the record with the next LSN and frames it into the log buffer.
  // Does not block on I/O. Returns the assigned LSN.
  uint64_t Append(WalRecord record);

  // Blocks until every record with LSN <= `lsn` is on disk. With
  // group_commit_us == 0 the caller flushes inline; otherwise it sleeps
  // until the flusher's batch covering `lsn` completes. Returns non-OK if
  // the log hit a write/fsync failure before `lsn` became durable; the WAL
  // is then fail-stop — the error is sticky, durable_lsn never advances
  // again, and every subsequent WaitDurable returns the same error, so no
  // commit is ever acknowledged past a log the disk refused.
  Status WaitDurable(uint64_t lsn);

  uint64_t durable_lsn() const;

  // The sticky I/O error (OK while the log is healthy). Set by the first
  // failed flush; never cleared.
  Status io_status() const;

  // Test hook: poison the log as if a flush had failed, so the fail-stop
  // paths (sticky WaitDurable error, flusher shutdown) are exercisable
  // without forcing a real disk error.
  void SimulateIoErrorForTest(Status error);

  // Records recovered by the opening scan, in LSN order.
  const std::vector<WalRecord>& recovered() const { return recovered_; }
  bool recovered_torn_tail() const { return recovered_torn_tail_; }
  // Largest transaction id appearing in the recovered records (0 if none):
  // the floor for post-recovery txn-id allocation, so a restarted process
  // never reuses a logged id.
  lock::TxnId max_recovered_txn() const { return max_recovered_txn_; }

  Stats StatsSnapshot() const;

  const Options& options() const { return options_; }

 private:
  explicit Wal(Options options) : options_(std::move(options)) {}

  // Writes and fsyncs everything currently buffered (serialized on io_mu_),
  // then publishes the new durable LSN. Safe to call from any thread.
  void Flush();

  void FlusherLoop();

  const Options options_;

  std::vector<WalRecord> recovered_;
  bool recovered_torn_tail_ = false;
  lock::TxnId max_recovered_txn_ = 0;

  // Buffer tier: append latch, byte buffer, LSN watermarks.
  mutable std::mutex mu_;
  std::condition_variable flusher_cv_;  // Signals the flusher: data buffered.
  std::condition_variable durable_cv_;  // Signals committers: durable_lsn_.
  std::string buffer_;
  uint64_t next_lsn_ = 1;
  uint64_t buffered_lsn_ = 0;  // Highest LSN framed into buffer_.
  uint64_t durable_lsn_ = 0;   // Highest LSN known fsynced.
  Status io_status_;           // Sticky first flush failure; never cleared.
  bool stop_ = false;
  Stats stats_;

  // I/O tier: one flush at a time; taken after (never under) mu_.
  std::mutex io_mu_;
  RecordFileWriter writer_;

  std::thread flusher_;
};

// Applies one record's redo ops to `db` (recovery replay; LSN order).
Status ApplyWalRedo(storage::Database& db, const WalRecord& record);

// Replays every record's redo in order (the recovery redo pass).
Status ReplayWal(storage::Database& db, const std::vector<WalRecord>& records);

// A transaction that needs compensation after a crash.
struct InFlightTxn {
  lock::TxnId txn;
  std::string program;
  int completed_steps;
  std::string work_area;  // From the latest end-of-step record.
};

// The in-flight view of the log: one entry per ACC transaction that has
// begun and neither committed nor compensated. Every ACC lifecycle record
// passes through Apply — live records as the engine logs them, recovered
// records as the engine reopens its WAL — so memory is bounded by the
// number of transactions in flight, not by the length of the log. Apply is
// latched so real-thread workers can log concurrently.
class RecoveryLog {
 public:
  // kBegin inserts an entry; kEndOfStep records the step count and work
  // area; kCommit and kCompensated erase it. Records naming a transaction
  // with no entry (a non-ACC commit, a compensation logged under a crashed
  // process's id) change nothing.
  void Apply(const WalRecord& record);

  // ACC transactions begun and not yet finished.
  size_t size() const {
    std::lock_guard<std::mutex> guard(mu_);
    return active_.size();
  }

  // Transactions with at least one completed step, most recent begin first
  // — the order recovery compensates them in.
  std::vector<InFlightTxn> FindInFlight() const;

 private:
  struct Entry {
    uint64_t begin_order = 0;
    std::string program;
    int completed_steps = 0;
    std::string work_area;
  };

  mutable std::mutex mu_;
  uint64_t next_begin_order_ = 0;
  std::unordered_map<lock::TxnId, Entry> active_;
};

}  // namespace accdb::acc

#endif  // ACCDB_ACC_WAL_H_
