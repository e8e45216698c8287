#include <gtest/gtest.h>

#include "acc/wal.h"

namespace accdb::acc {
namespace {

WalRecord Rec(LogRecordType type, lock::TxnId txn, const char* program = "",
              int32_t step = 0, const char* work_area = "") {
  WalRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.program = program;
  rec.step_index = step;
  rec.work_area = work_area;
  return rec;
}

WalRecord Begin(lock::TxnId txn, const char* program) {
  return Rec(LogRecordType::kBegin, txn, program);
}
WalRecord EndOfStep(lock::TxnId txn, int32_t step, const char* work_area) {
  return Rec(LogRecordType::kEndOfStep, txn, "", step, work_area);
}
WalRecord Commit(lock::TxnId txn) { return Rec(LogRecordType::kCommit, txn); }
WalRecord Compensated(lock::TxnId txn) {
  return Rec(LogRecordType::kCompensated, txn);
}

TEST(RecoveryLogTest, EmptyLogHasNothingInFlight) {
  RecoveryLog log;
  EXPECT_TRUE(log.FindInFlight().empty());
  EXPECT_EQ(log.size(), 0u);
}

TEST(RecoveryLogTest, CommittedTransactionLeavesTheTable) {
  RecoveryLog log;
  log.Apply(Begin(1, "p"));
  log.Apply(EndOfStep(1, 1, "wa1"));
  log.Apply(EndOfStep(1, 2, "wa2"));
  EXPECT_EQ(log.size(), 1u);
  log.Apply(Commit(1));
  EXPECT_TRUE(log.FindInFlight().empty());
  EXPECT_EQ(log.size(), 0u);
}

TEST(RecoveryLogTest, CompensatedTransactionLeavesTheTable) {
  RecoveryLog log;
  log.Apply(Begin(1, "p"));
  log.Apply(EndOfStep(1, 1, "wa"));
  log.Apply(Compensated(1));
  EXPECT_TRUE(log.FindInFlight().empty());
  EXPECT_EQ(log.size(), 0u);
}

TEST(RecoveryLogTest, FinishingAnUnknownTransactionIsANoOp) {
  // A 2PL/OCC/MVCC commit record, or a recovery compensation logged under
  // a crashed process's id, names a transaction the table never saw.
  RecoveryLog log;
  log.Apply(Begin(1, "p"));
  log.Apply(EndOfStep(1, 1, "wa"));
  log.Apply(Commit(2));
  log.Apply(Compensated(3));
  EXPECT_EQ(log.size(), 1u);
  std::vector<InFlightTxn> in_flight = log.FindInFlight();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_EQ(in_flight[0].txn, 1u);
  EXPECT_EQ(in_flight[0].work_area, "wa");
}

TEST(RecoveryLogTest, BegunButNoStepsIsNotInFlight) {
  // Nothing durable happened: the transaction evaporates, no compensation.
  RecoveryLog log;
  log.Apply(Begin(1, "p"));
  EXPECT_TRUE(log.FindInFlight().empty());
  EXPECT_EQ(log.size(), 1u);
}

TEST(RecoveryLogTest, InFlightCarriesLatestWorkArea) {
  RecoveryLog log;
  log.Apply(Begin(7, "new_order"));
  log.Apply(EndOfStep(7, 1, "after step 1"));
  log.Apply(EndOfStep(7, 2, "after step 2"));
  std::vector<InFlightTxn> in_flight = log.FindInFlight();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_EQ(in_flight[0].txn, 7u);
  EXPECT_EQ(in_flight[0].program, "new_order");
  EXPECT_EQ(in_flight[0].completed_steps, 2);
  EXPECT_EQ(in_flight[0].work_area, "after step 2");
}

TEST(RecoveryLogTest, InFlightOrderedMostRecentFirst) {
  // Begin order, not txn-id order: blocked id allocation hands a later
  // transaction a smaller id.
  RecoveryLog log;
  log.Apply(Begin(30, "a"));
  log.Apply(EndOfStep(30, 1, ""));
  log.Apply(Begin(20, "b"));
  log.Apply(EndOfStep(20, 1, ""));
  log.Apply(Begin(10, "c"));
  log.Apply(EndOfStep(10, 1, ""));
  log.Apply(Commit(20));
  std::vector<InFlightTxn> in_flight = log.FindInFlight();
  ASSERT_EQ(in_flight.size(), 2u);
  EXPECT_EQ(in_flight[0].program, "c");  // Most recent begin first.
  EXPECT_EQ(in_flight[1].program, "a");
}

TEST(RecoveryLogTest, InterleavedTransactionsTrackedIndependently) {
  RecoveryLog log;
  log.Apply(Begin(1, "a"));
  log.Apply(Begin(2, "b"));
  log.Apply(EndOfStep(1, 1, "a1"));
  log.Apply(EndOfStep(2, 1, "b1"));
  log.Apply(EndOfStep(1, 2, "a2"));
  log.Apply(Commit(1));
  std::vector<InFlightTxn> in_flight = log.FindInFlight();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_EQ(in_flight[0].program, "b");
  EXPECT_EQ(in_flight[0].work_area, "b1");
}

// --- Recovered WAL records go through the same Apply. ---

TEST(RecoveryLogTest, RecoveredRecordsRebuildTheInFlightSet) {
  std::vector<WalRecord> records;
  records.push_back(Begin(1, "new_order"));
  records.push_back(Begin(2, "payment"));
  records.push_back(EndOfStep(1, 1, "no1"));
  records.push_back(EndOfStep(2, 1, "pay1"));
  records.push_back(EndOfStep(1, 2, "no2"));
  records.push_back(Commit(2));

  RecoveryLog log;
  for (const WalRecord& rec : records) log.Apply(rec);
  EXPECT_EQ(log.size(), 1u);
  std::vector<InFlightTxn> in_flight = log.FindInFlight();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_EQ(in_flight[0].txn, 1u);
  EXPECT_EQ(in_flight[0].program, "new_order");
  EXPECT_EQ(in_flight[0].completed_steps, 2);
  EXPECT_EQ(in_flight[0].work_area, "no2");
}

TEST(RecoveryLogTest, RecoveredCompensatedRecordHidesTheTransaction) {
  // The restarted-then-recovered shape: a second crash must not find the
  // already-compensated transaction in flight again.
  std::vector<WalRecord> records;
  records.push_back(Begin(9, "new_order"));
  records.push_back(EndOfStep(9, 1, "wa"));
  records.push_back(Compensated(9));
  RecoveryLog log;
  for (const WalRecord& rec : records) log.Apply(rec);
  EXPECT_TRUE(log.FindInFlight().empty());
  EXPECT_EQ(log.size(), 0u);
}

TEST(RecoveryLogTest, WalEncodePreservesLsnOrderThroughScan) {
  // Encode a mixed batch, decode it back, and require the LSN sequence to
  // survive verbatim — recovery replays redo strictly in this order.
  std::vector<WalRecord> records;
  records.push_back(Begin(4, "delivery"));
  records.push_back(EndOfStep(4, 1, "d1"));
  records.push_back(Commit(4));
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].lsn = i + 1;
    WalRecord decoded;
    ASSERT_TRUE(DecodeWalRecord(EncodeWalRecord(records[i]), &decoded));
    EXPECT_EQ(decoded.lsn, records[i].lsn);
    EXPECT_EQ(decoded.type, records[i].type);
    EXPECT_EQ(decoded.txn, records[i].txn);
  }
}

}  // namespace
}  // namespace accdb::acc
