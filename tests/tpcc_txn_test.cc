// Single-transaction behaviour of the five TPC-C programs, under both the
// ACC and the serializable executor (ImmediateEnv: no concurrency).

#include <gtest/gtest.h>

#include <memory>

#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/recovery.h"
#include "lock/conflict.h"
#include "storage/database.h"
#include "tpcc/consistency.h"
#include "tpcc/loader.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {
namespace {

using acc::ExecMode;
using acc::ExecResult;
using storage::Key;
using storage::Row;
using storage::Value;

class TpccTxnTest : public ::testing::TestWithParam<bool> {
 protected:
  TpccTxnTest() : db_(&database_), acc_resolver_(&db_.interference) {
    scale_ = ScaleConfig::Test();
    LoadDatabase(db_, scale_, /*seed=*/42);
    acc::EngineConfig config;
    config.charge_acc_overheads = false;
    engine_ = std::make_unique<acc::Engine>(
        &database_,
        Decomposed() ? static_cast<const lock::ConflictResolver*>(
                           &acc_resolver_)
                     : &matrix_resolver_,
        config);
  }

  bool Decomposed() const { return GetParam(); }
  ExecMode Mode() const {
    return Decomposed() ? ExecMode::kAccDecomposed : ExecMode::kSerializable;
  }

  ExecResult Execute(acc::TransactionProgram& program) {
    return engine_->Execute(program, env_, Mode());
  }

  Row DistrictRow(int64_t w, int64_t d) {
    return *db_.district->Get(*db_.district->LookupPk(Key(w, d)));
  }
  Row WarehouseRow(int64_t w) {
    return *db_.warehouse->Get(*db_.warehouse->LookupPk(Key(w)));
  }
  Row CustomerRow(int64_t w, int64_t d, int64_t c) {
    return *db_.customer->Get(*db_.customer->LookupPk(Key(w, d, c)));
  }

  void ExpectConsistent(bool strict) {
    ConsistencyReport report = CheckConsistency(db_, strict);
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0]);
  }

  storage::Database database_;
  TpccDb db_;
  ScaleConfig scale_;
  lock::MatrixConflictResolver matrix_resolver_;
  acc::AccConflictResolver acc_resolver_;
  std::unique_ptr<acc::Engine> engine_;
  acc::ImmediateEnv env_;
};

INSTANTIATE_TEST_SUITE_P(BothExecutors, TpccTxnTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Acc" : "Serializable";
                         });

TEST_P(TpccTxnTest, NewOrderCommits) {
  NewOrderInput input;
  input.w_id = 1;
  input.d_id = 3;
  input.c_id = 5;
  input.lines = {{1, 2}, {2, 3}, {3, 4}};
  NewOrderTxn txn(&db_, input);
  ExecResult result = Execute(txn);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  if (Decomposed()) {
    EXPECT_EQ(result.steps_completed, 5);  // NO1 + 3x NO2 + NO3.
  }
  int64_t o = txn.order_id();
  EXPECT_EQ(o, scale_.initial_orders_per_district + 1);
  // District counter advanced.
  EXPECT_EQ(DistrictRow(1, 3)[db_.d_next_o_id].AsInt64(), o + 1);
  // ORDER, NEW-ORDER, ORDER-LINE rows exist.
  EXPECT_TRUE(db_.orders->LookupPk(Key(1, 3, o)).has_value());
  EXPECT_TRUE(db_.new_order->LookupPk(Key(1, 3, o)).has_value());
  EXPECT_EQ(db_.order_line->ScanPkPrefix(Key(1, 3, o)).size(), 3u);
  EXPECT_GT(txn.total(), Money());
  ExpectConsistent(/*strict=*/true);
}

TEST_P(TpccTxnTest, NewOrderUpdatesStock) {
  Row before = *db_.stock->Get(*db_.stock->LookupPk(Key(1, 7)));
  NewOrderInput input;
  input.w_id = 1;
  input.d_id = 1;
  input.c_id = 1;
  input.lines = {{7, 5}};
  NewOrderTxn txn(&db_, input);
  ASSERT_TRUE(Execute(txn).status.ok());
  Row after = *db_.stock->Get(*db_.stock->LookupPk(Key(1, 7)));
  int64_t q0 = before[db_.s_quantity].AsInt64();
  int64_t q1 = after[db_.s_quantity].AsInt64();
  EXPECT_EQ(q1, q0 - 5 >= 10 ? q0 - 5 : q0 - 5 + 91);
  EXPECT_EQ(after[db_.s_ytd].AsInt64(), before[db_.s_ytd].AsInt64() + 5);
  EXPECT_EQ(after[db_.s_order_cnt].AsInt64(),
            before[db_.s_order_cnt].AsInt64() + 1);
}

TEST_P(TpccTxnTest, NewOrderRollbackLeavesNoTrace) {
  Row stock_before = *db_.stock->Get(*db_.stock->LookupPk(Key(1, 7)));
  int64_t next_before = DistrictRow(1, 3)[db_.d_next_o_id].AsInt64();
  NewOrderInput input;
  input.w_id = 1;
  input.d_id = 3;
  input.c_id = 5;
  input.lines = {{7, 5}, {8, 1}};
  input.rollback = true;  // Unused item on the final line.
  NewOrderTxn txn(&db_, input);
  ExecResult result = Execute(txn);
  EXPECT_EQ(result.status.code(), StatusCode::kAborted);
  // No order rows remain.
  int64_t o = next_before;
  EXPECT_FALSE(db_.orders->LookupPk(Key(1, 3, o)).has_value());
  EXPECT_FALSE(db_.new_order->LookupPk(Key(1, 3, o)).has_value());
  EXPECT_TRUE(db_.order_line->ScanPkPrefix(Key(1, 3, o)).empty());
  // Stock restored.
  Row stock_after = *db_.stock->Get(*db_.stock->LookupPk(Key(1, 7)));
  EXPECT_EQ(stock_after[db_.s_ytd].AsInt64(),
            stock_before[db_.s_ytd].AsInt64());
  if (Decomposed()) {
    EXPECT_TRUE(result.compensated);
    // Compensation consumed the order number (semantic, not physical undo).
    EXPECT_EQ(DistrictRow(1, 3)[db_.d_next_o_id].AsInt64(), next_before + 1);
    ExpectConsistent(/*strict=*/false);
  } else {
    // The baseline rolled back physically: the counter is untouched.
    EXPECT_EQ(DistrictRow(1, 3)[db_.d_next_o_id].AsInt64(), next_before);
    ExpectConsistent(/*strict=*/true);
  }
}

TEST_P(TpccTxnTest, PaymentById) {
  Money amount = Money::FromDollars(150);
  Money w_before = WarehouseRow(1)[db_.w_ytd].AsMoney();
  Money d_before = DistrictRow(1, 2)[db_.d_ytd].AsMoney();
  Row c_before = CustomerRow(1, 2, 9);

  PaymentInput input;
  input.w_id = 1;
  input.d_id = 2;
  input.c_w_id = 1;
  input.c_d_id = 2;
  input.by_last_name = false;
  input.c_id = 9;
  input.amount = amount;
  PaymentTxn txn(&db_, input);
  ExecResult result = Execute(txn);
  ASSERT_TRUE(result.status.ok());
  if (Decomposed()) {
    EXPECT_EQ(result.steps_completed, 3);
  }

  EXPECT_EQ(WarehouseRow(1)[db_.w_ytd].AsMoney(), w_before + amount);
  EXPECT_EQ(DistrictRow(1, 2)[db_.d_ytd].AsMoney(), d_before + amount);
  Row c_after = CustomerRow(1, 2, 9);
  EXPECT_EQ(c_after[db_.c_balance].AsMoney(),
            c_before[db_.c_balance].AsMoney() - amount);
  EXPECT_EQ(c_after[db_.c_ytd_payment].AsMoney(),
            c_before[db_.c_ytd_payment].AsMoney() + amount);
  EXPECT_EQ(c_after[db_.c_payment_cnt].AsInt64(),
            c_before[db_.c_payment_cnt].AsInt64() + 1);
  // A history row was written.
  EXPECT_TRUE(db_.history
                  ->LookupPk(Key(1, 2, 9,
                                 c_after[db_.c_payment_cnt].AsInt64()))
                  .has_value());
  ExpectConsistent(/*strict=*/true);
}

TEST_P(TpccTxnTest, PaymentByLastName) {
  PaymentInput input;
  input.w_id = 1;
  input.d_id = 1;
  input.c_w_id = 1;
  input.c_d_id = 1;
  input.by_last_name = true;
  input.c_last = CustomerLastName(0);  // Customer 1's name.
  input.amount = Money::FromDollars(10);
  PaymentTxn txn(&db_, input);
  ASSERT_TRUE(Execute(txn).status.ok());
  EXPECT_GT(txn.resolved_customer(), 0);
  ExpectConsistent(/*strict=*/true);
}

TEST_P(TpccTxnTest, OrderStatusReportsLastOrder) {
  // Create a fresh order for customer 5 so the "last order" is known.
  NewOrderInput no_input;
  no_input.w_id = 1;
  no_input.d_id = 4;
  no_input.c_id = 5;
  no_input.lines = {{1, 1}, {2, 1}, {3, 1}, {4, 1}};
  NewOrderTxn no_txn(&db_, no_input);
  ASSERT_TRUE(Execute(no_txn).status.ok());

  OrderStatusInput input;
  input.w_id = 1;
  input.d_id = 4;
  input.by_last_name = false;
  input.c_id = 5;
  OrderStatusTxn txn(&db_, input);
  ASSERT_TRUE(Execute(txn).status.ok());
  ASSERT_TRUE(txn.found_order());
  EXPECT_EQ(txn.last_order_id(), no_txn.order_id());
  EXPECT_EQ(txn.line_count(), 4);
  EXPECT_EQ(txn.order_line_count_field(), 4);
}

TEST_P(TpccTxnTest, DeliveryDeliversOldestPerDistrict) {
  // Queue one new order in districts 1 and 2.
  for (int64_t d : {1, 2}) {
    NewOrderInput input;
    input.w_id = 1;
    input.d_id = d;
    input.c_id = 3;
    input.lines = {{1, 1}, {2, 1}};
    NewOrderTxn txn(&db_, input);
    ASSERT_TRUE(Execute(txn).status.ok());
  }
  Money balance_before =
      CustomerRow(1, 1, 3)[db_.c_balance].AsMoney();

  DeliveryTxn delivery(&db_, DeliveryInput{1, 7});
  ExecResult result = Execute(delivery);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(delivery.delivered_count(), 2);
  EXPECT_EQ(delivery.skipped_districts(), 8);
  if (Decomposed()) {
    EXPECT_EQ(result.steps_completed, 12);  // D1 + 10x D2 + D3.
  }
  // New-order queue drained; carrier stamped; customer credited.
  EXPECT_EQ(db_.new_order->size(), 0u);
  int64_t o = scale_.initial_orders_per_district + 1;
  Row order = *db_.orders->Get(*db_.orders->LookupPk(Key(1, 1, o)));
  EXPECT_EQ(order[db_.o_carrier_id].AsInt64(), 7);
  EXPECT_GT(CustomerRow(1, 1, 3)[db_.c_balance].AsMoney(), balance_before);
  ExpectConsistent(/*strict=*/true);
}

TEST_P(TpccTxnTest, DeliverySkipsEmptyDistricts) {
  DeliveryTxn delivery(&db_, DeliveryInput{1, 3});
  ASSERT_TRUE(Execute(delivery).status.ok());
  EXPECT_EQ(delivery.delivered_count(), 0);
  EXPECT_EQ(delivery.skipped_districts(), 10);
}

TEST_P(TpccTxnTest, StockLevelCountsLowStock) {
  StockLevelInput input;
  input.w_id = 1;
  input.d_id = 1;
  input.threshold = 101;  // Every item is below 101: counts all distinct.
  StockLevelTxn txn(&db_, input);
  ASSERT_TRUE(Execute(txn).status.ok());
  EXPECT_GT(txn.low_stock(), 0);

  StockLevelInput none = input;
  none.threshold = 0;  // Nothing is below 0.
  StockLevelTxn txn_none(&db_, none);
  ASSERT_TRUE(Execute(txn_none).status.ok());
  EXPECT_EQ(txn_none.low_stock(), 0);
}

TEST_P(TpccTxnTest, MixedSequenceStaysConsistent) {
  Rng rng(99);
  InputGenConfig config;
  config.scale = scale_;
  InputGenerator gen(config, 1234);
  int compensated = 0;
  for (int i = 0; i < 60; ++i) {
    switch (gen.NextType()) {
      case TxnType::kNewOrder: {
        NewOrderTxn txn(&db_, gen.NextNewOrder());
        ExecResult r = Execute(txn);
        compensated += r.compensated;
        break;
      }
      case TxnType::kPayment: {
        PaymentTxn txn(&db_, gen.NextPayment());
        Execute(txn);
        break;
      }
      case TxnType::kOrderStatus: {
        OrderStatusTxn txn(&db_, gen.NextOrderStatus());
        Execute(txn);
        break;
      }
      case TxnType::kDelivery: {
        DeliveryTxn txn(&db_, gen.NextDelivery());
        Execute(txn);
        break;
      }
      case TxnType::kStockLevel: {
        StockLevelTxn txn(&db_, gen.NextStockLevel());
        Execute(txn);
        break;
      }
    }
  }
  ExpectConsistent(/*strict=*/compensated == 0);
  // Every lock was released.
  lock::LockManager& lm = engine_->lock_manager();
  EXPECT_EQ(lm.HolderCount(db_.DistrictItem(1, 1)), 0u);
  EXPECT_EQ(lm.HolderCount(db_.WarehouseItem(1)), 0u);
}

}  // namespace
}  // namespace accdb::tpcc
