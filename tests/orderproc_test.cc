#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/function_program.h"
#include "acc/recovery.h"
#include "acc/sim_env.h"
#include "acc/txn_context.h"
#include "lock/conflict.h"
#include "orderproc/order_system.h"
#include "orderproc/transactions.h"
#include "sim/simulation.h"
#include "storage/database.h"

namespace accdb::orderproc {
namespace {

using acc::AccConflictResolver;
using acc::Engine;
using acc::EngineConfig;
using acc::ExecMode;
using acc::ExecResult;
using acc::FunctionProgram;
using acc::ImmediateEnv;
using acc::SimExecutionEnv;
using acc::TxnContext;
using storage::Key;
using storage::Value;

class OrderProcTest : public ::testing::Test {
 protected:
  OrderProcTest() : sys_(&db_), acc_resolver_(&sys_.interference) {
    sys_.LoadItems(/*item_count=*/50, /*stock_level=*/100,
                   /*price_cents=*/250);
    EngineConfig config;
    config.charge_acc_overheads = false;
    acc_engine_ = std::make_unique<Engine>(&db_, &acc_resolver_, config);
    ser_engine_ = std::make_unique<Engine>(&db_, &matrix_resolver_, config);
  }

  int64_t StockOf(int64_t item) {
    auto id = sys_.stock->LookupPk(Key(item));
    return (*sys_.stock->Get(*id))[sys_.s_level].AsInt64();
  }

  void SetStock(int64_t item, int64_t level) {
    ASSERT_TRUE(sys_.stock
                    ->UpdateColumns(*sys_.stock->LookupPk(Key(item)),
                                    {{sys_.s_level, Value(level)}})
                    .ok());
  }

  int64_t FilledOf(int64_t order, int64_t item) {
    auto id = sys_.orderlines->LookupPk(Key(order, item));
    if (!id.has_value()) return -1;
    return (*sys_.orderlines->Get(*id))[sys_.ol_filled].AsInt64();
  }

  storage::Database db_;
  OrderSystem sys_;
  AccConflictResolver acc_resolver_;
  lock::MatrixConflictResolver matrix_resolver_;
  std::unique_ptr<Engine> acc_engine_;
  std::unique_ptr<Engine> ser_engine_;
  ImmediateEnv env_;
};

TEST_F(OrderProcTest, NewOrderCommitsAndFills) {
  NewOrderTxn txn(&sys_, /*customer_id=*/7, {{1, 10}, {2, 5}, {3, 1}});
  ExecResult result =
      acc_engine_->Execute(txn, env_, ExecMode::kAccDecomposed);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.steps_completed, 4);  // NO1 + three NO2.
  EXPECT_EQ(txn.total_filled(), 16);
  EXPECT_EQ(StockOf(1), 90);
  EXPECT_EQ(StockOf(2), 95);
  EXPECT_EQ(StockOf(3), 99);
  EXPECT_TRUE(sys_.CheckConsistency());
  EXPECT_EQ(db_.ReadVariable(*sys_.order_counter), 2);
}

TEST_F(OrderProcTest, NewOrderFillsAtMostStock) {
  NewOrderTxn txn(&sys_, 7, {{1, 150}});
  ASSERT_TRUE(
      acc_engine_->Execute(txn, env_, ExecMode::kAccDecomposed).status.ok());
  EXPECT_EQ(txn.total_filled(), 100);
  EXPECT_EQ(StockOf(1), 0);
  // The orderline records ordered=150, filled=100.
  auto lines = sys_.orderlines->ScanPkPrefix(Key(txn.order_id()));
  ASSERT_EQ(lines.size(), 1u);
  const storage::Row& line = *sys_.orderlines->Get(lines[0]);
  EXPECT_EQ(line[sys_.ol_ordered].AsInt64(), 150);
  EXPECT_EQ(line[sys_.ol_filled].AsInt64(), 100);
}

TEST_F(OrderProcTest, BillTotalsOrder) {
  NewOrderTxn order(&sys_, 7, {{1, 4}, {2, 6}});
  ASSERT_TRUE(
      acc_engine_->Execute(order, env_, ExecMode::kAccDecomposed).status.ok());
  BillTxn bill(&sys_, order.order_id());
  ASSERT_TRUE(
      acc_engine_->Execute(bill, env_, ExecMode::kAccDecomposed).status.ok());
  EXPECT_TRUE(bill.found());
  EXPECT_EQ(bill.total(), Money::FromCents(250 * 10));
  auto row = sys_.orders->Get(*sys_.orders->LookupPk(Key(order.order_id())));
  EXPECT_EQ((*row)[sys_.o_price].AsMoney(), Money::FromCents(2500));
}

TEST_F(OrderProcTest, BillOnMissingOrderIsNoop) {
  BillTxn bill(&sys_, 999);
  ASSERT_TRUE(
      acc_engine_->Execute(bill, env_, ExecMode::kAccDecomposed).status.ok());
  EXPECT_FALSE(bill.found());
}

TEST_F(OrderProcTest, CompensationRestoresStockAndRemovesOrder) {
  NewOrderTxn txn(&sys_, 7, {{1, 10}, {2, 5}, {3, 1}},
                  /*abort_at_last_item=*/true);
  ExecResult result =
      acc_engine_->Execute(txn, env_, ExecMode::kAccDecomposed);
  EXPECT_EQ(result.status.code(), StatusCode::kAborted);
  EXPECT_TRUE(result.compensated);
  // Steps 1..3 (NO1 + two NO2) committed, then were compensated.
  EXPECT_EQ(result.steps_completed, 3);
  EXPECT_EQ(StockOf(1), 100);
  EXPECT_EQ(StockOf(2), 100);
  EXPECT_EQ(StockOf(3), 100);
  EXPECT_FALSE(sys_.orders->LookupPk(Key(txn.order_id())).has_value());
  EXPECT_TRUE(sys_.orderlines->ScanPkPrefix(Key(txn.order_id())).empty());
  EXPECT_TRUE(sys_.CheckConsistency());
  // The order number is consumed: the counter increment is not rolled back
  // (the result specification allows "compensation was invoked").
  EXPECT_EQ(db_.ReadVariable(*sys_.order_counter), 2);
}

TEST_F(OrderProcTest, SerializableBaselineProducesSameSingleTxnResults) {
  NewOrderTxn txn(&sys_, 7, {{1, 10}});
  ASSERT_TRUE(
      ser_engine_->Execute(txn, env_, ExecMode::kSerializable).status.ok());
  EXPECT_EQ(StockOf(1), 90);
  BillTxn bill(&sys_, txn.order_id());
  ASSERT_TRUE(
      ser_engine_->Execute(bill, env_, ExecMode::kSerializable).status.ok());
  EXPECT_EQ(bill.total(), Money::FromCents(2500));
  EXPECT_TRUE(sys_.CheckConsistency());
}

// --- Concurrency: the paper's semantic-correctness scenarios ---

// The television/VCR example of Section 4: two new_orders split two stock
// pools between them in a way no serial schedule produces, yet each
// satisfies its specification and the database stays consistent.
TEST_F(OrderProcTest, NonSerializableStockSplitIsSemanticallyCorrect) {
  const int64_t kTv = 1, kVcr = 2;
  SetStock(kTv, 10);
  SetStock(kVcr, 10);

  sim::Simulation sim;
  SimExecutionEnv env_i(sim, nullptr), env_k(sim, nullptr);
  NewOrderTxn ti(&sys_, 1, {{kTv, 10}, {kVcr, 10}});
  ti.set_pause_between_steps(0.05);  // T_k fits inside T_i's think windows.
  NewOrderTxn tk(&sys_, 2, {{kVcr, 10}, {kTv, 10}});
  ExecResult ri, rk;
  sim.Spawn("ti", [&] {
    ri = acc_engine_->Execute(ti, env_i, ExecMode::kAccDecomposed);
  });
  sim.Spawn("tk", [&] {
    sim.Delay(0.07);  // After T_i's NO2(TV), before its NO2(VCR).
    rk = acc_engine_->Execute(tk, env_k, ExecMode::kAccDecomposed);
  });
  sim.Run();
  ASSERT_TRUE(ri.status.ok());
  ASSERT_TRUE(rk.status.ok());

  // T_i got the TVs, T_k got the VCRs — unreachable by any serial schedule
  // (serially, the first transaction takes both pools).
  EXPECT_EQ(FilledOf(ti.order_id(), kTv), 10);
  EXPECT_EQ(FilledOf(ti.order_id(), kVcr), 0);
  EXPECT_EQ(FilledOf(tk.order_id(), kVcr), 10);
  EXPECT_EQ(FilledOf(tk.order_id(), kTv), 0);
  EXPECT_EQ(StockOf(kTv), 0);
  EXPECT_EQ(StockOf(kVcr), 0);
  EXPECT_TRUE(sys_.CheckConsistency());
}

// Under the serializable baseline the same arrival pattern cannot split the
// pools: T_k blocks on T_i's locks and runs entirely after it.
TEST_F(OrderProcTest, SerializableBaselineDoesNotSplitStock) {
  const int64_t kTv = 1, kVcr = 2;
  SetStock(kTv, 10);
  SetStock(kVcr, 10);

  sim::Simulation sim;
  SimExecutionEnv env_i(sim, nullptr), env_k(sim, nullptr);
  NewOrderTxn ti(&sys_, 1, {{kTv, 10}, {kVcr, 10}});
  ti.set_pause_between_steps(0.05);
  NewOrderTxn tk(&sys_, 2, {{kVcr, 10}, {kTv, 10}});
  ExecResult ri, rk;
  sim.Spawn("ti", [&] {
    ri = ser_engine_->Execute(ti, env_i, ExecMode::kSerializable);
  });
  sim.Spawn("tk", [&] {
    sim.Delay(0.07);
    rk = ser_engine_->Execute(tk, env_k, ExecMode::kSerializable);
  });
  sim.Run();
  ASSERT_TRUE(ri.status.ok());
  ASSERT_TRUE(rk.status.ok());
  // Serial outcome: T_i took both pools, T_k got nothing.
  EXPECT_EQ(FilledOf(ti.order_id(), kTv), 10);
  EXPECT_EQ(FilledOf(ti.order_id(), kVcr), 10);
  EXPECT_EQ(FilledOf(tk.order_id(), kVcr), 0);
  EXPECT_EQ(FilledOf(tk.order_id(), kTv), 0);
  EXPECT_TRUE(sys_.CheckConsistency());
}

// "bill cannot be interleaved between the steps of a new_order acting on
// the same order" — the ACC delays bill until the new_order commits, and
// the total it computes covers every line.
TEST_F(OrderProcTest, BillWaitsForInFlightNewOrderOnSameOrder) {
  sim::Simulation sim;
  SimExecutionEnv env_no(sim, nullptr), env_bill(sim, nullptr);
  NewOrderTxn no(&sys_, 1, {{1, 2}, {2, 2}, {3, 2}, {4, 2}});
  no.set_pause_between_steps(0.02);
  int64_t expected_order = db_.ReadVariable(*sys_.order_counter);

  double bill_done = -1, no_done = -1;
  std::unique_ptr<BillTxn> bill;
  ExecResult r_no, r_bill;
  sim.Spawn("new_order", [&] {
    r_no = acc_engine_->Execute(no, env_no, ExecMode::kAccDecomposed);
    no_done = sim.Now();
  });
  sim.Spawn("bill", [&] {
    sim.Delay(0.04);  // Mid new_order.
    bill = std::make_unique<BillTxn>(&sys_, expected_order);
    r_bill = acc_engine_->Execute(*bill, env_bill, ExecMode::kAccDecomposed);
    bill_done = sim.Now();
  });
  sim.Run();
  ASSERT_TRUE(r_no.status.ok());
  ASSERT_TRUE(r_bill.status.ok());
  ASSERT_EQ(no.order_id(), expected_order);
  // Bill saw the complete order: all four lines, total = 8 * $2.50.
  EXPECT_TRUE(bill->found());
  EXPECT_EQ(bill->total(), Money::FromCents(8 * 250));
  // And it finished after the new_order: it had to wait.
  EXPECT_GT(bill_done, no_done);
  EXPECT_TRUE(sys_.CheckConsistency());
}

TEST_F(OrderProcTest, BillOnOtherOrderDoesNotWait) {
  // Commit an old order first.
  NewOrderTxn old_order(&sys_, 1, {{5, 2}});
  ASSERT_TRUE(acc_engine_->Execute(old_order, env_, ExecMode::kAccDecomposed)
                  .status.ok());

  sim::Simulation sim;
  SimExecutionEnv env_no(sim, nullptr), env_bill(sim, nullptr);
  NewOrderTxn no(&sys_, 1, {{1, 2}, {2, 2}, {3, 2}, {4, 2}});
  no.set_pause_between_steps(0.02);
  ExecResult r_no, r_bill;
  double bill_done = -1, no_done = -1;
  BillTxn bill(&sys_, old_order.order_id());
  sim.Spawn("new_order", [&] {
    r_no = acc_engine_->Execute(no, env_no, ExecMode::kAccDecomposed);
    no_done = sim.Now();
  });
  sim.Spawn("bill", [&] {
    sim.Delay(0.03);
    r_bill = acc_engine_->Execute(bill, env_bill, ExecMode::kAccDecomposed);
    bill_done = sim.Now();
  });
  sim.Run();
  ASSERT_TRUE(r_no.status.ok());
  ASSERT_TRUE(r_bill.status.ok());
  // Bill on a *different* order slips in front of the in-flight new_order.
  EXPECT_LT(bill_done, no_done);
  EXPECT_EQ(bill.total(), Money::FromCents(2 * 250));
  EXPECT_TRUE(sys_.CheckConsistency());
}

TEST_F(OrderProcTest, LegacyReaderIsolatedFromIntermediateResults) {
  sim::Simulation sim;
  SimExecutionEnv env_no(sim, nullptr), env_legacy(sim, nullptr);
  NewOrderTxn no(&sys_, 1, {{1, 2}, {2, 2}, {3, 2}, {4, 2}});
  no.set_pause_between_steps(0.02);
  int64_t seen_lines = -1;
  int64_t seen_num_items = -1;
  int64_t target_order = db_.ReadVariable(*sys_.order_counter);

  // An ad-hoc, never-analyzed report: reads the order row and counts its
  // lines. Under the ACC, kComp locks keep it from seeing a partial order.
  FunctionProgram legacy("report", [&](TxnContext& ctx) {
    return ctx.RunStep(
        lock::kNoActor, {}, acc::AssertionInstance{},
        [&](TxnContext& c) -> Status {
          Result<storage::Row> order =
              c.ReadByKey(*sys_.orders, Key(target_order));
          if (!order.ok()) {
            seen_num_items = -2;  // Not visible at all: also consistent.
            return Status::Ok();
          }
          seen_num_items = (*order)[sys_.o_num_items].AsInt64();
          ACCDB_ASSIGN_OR_RETURN(
              auto lines, c.ScanPkPrefix(*sys_.orderlines, Key(target_order)));
          seen_lines = static_cast<int64_t>(lines.size());
          return Status::Ok();
        });
  });
  legacy.set_analyzed(false);

  ExecResult r_no, r_legacy;
  sim.Spawn("new_order", [&] {
    r_no = acc_engine_->Execute(no, env_no, ExecMode::kAccDecomposed);
  });
  sim.Spawn("legacy", [&] {
    sim.Delay(0.04);  // Mid new_order.
    r_legacy =
        acc_engine_->Execute(legacy, env_legacy, ExecMode::kAccDecomposed);
  });
  sim.Run();
  ASSERT_TRUE(r_no.status.ok());
  ASSERT_TRUE(r_legacy.status.ok());
  // The legacy reader either saw nothing or the complete committed order —
  // never a partial state.
  if (seen_num_items >= 0) {
    EXPECT_EQ(seen_num_items, 4);
    EXPECT_EQ(seen_lines, 4);
  } else {
    ADD_FAILURE() << "legacy reader should have seen the committed order";
  }
}

TEST_F(OrderProcTest, ConcurrentCompensationReturnsStockLate) {
  // T_a claims the last 10 units then aborts; T_b, running between T_a's
  // forward steps and its compensation, is refused stock that compensation
  // later returns. Semantically correct (Section 4's closing example).
  const int64_t kItem = 1;
  SetStock(kItem, 10);
  sim::Simulation sim;
  SimExecutionEnv env_a(sim, nullptr), env_b(sim, nullptr);
  NewOrderTxn ta(&sys_, 1, {{kItem, 10}, {2, 1}, {3, 1}},
                 /*abort_at_last_item=*/true);
  ta.set_pause_between_steps(0.02);
  NewOrderTxn tb(&sys_, 2, {{kItem, 10}});
  ExecResult ra, rb;
  sim.Spawn("ta", [&] {
    ra = acc_engine_->Execute(ta, env_a, ExecMode::kAccDecomposed);
  });
  sim.Spawn("tb", [&] {
    sim.Delay(0.035);  // After T_a's first NO2 claimed the stock.
    rb = acc_engine_->Execute(tb, env_b, ExecMode::kAccDecomposed);
  });
  sim.Run();
  EXPECT_EQ(ra.status.code(), StatusCode::kAborted);
  ASSERT_TRUE(rb.status.ok());
  // T_b got nothing even though the final state has stock available.
  EXPECT_EQ(tb.total_filled(), 0);
  EXPECT_EQ(StockOf(kItem), 10);
  EXPECT_TRUE(sys_.CheckConsistency());
}

TEST_F(OrderProcTest, CrashRecoveryCompensatesPartialNewOrder) {
  sim::Simulation sim;
  SimExecutionEnv env(sim, nullptr);
  sim::Signal crash_point(sim);

  // A program that performs new_order's NO1 and first NO2, then hangs on a
  // signal that never fires: the simulation drains with the transaction in
  // flight, modelling a crash between forward steps. It logs under the
  // "new_order" name so the registered compensator recovers it from the
  // serialized work area (the order id).
  class TwoStepsThenHang : public acc::TransactionProgram {
   public:
    TwoStepsThenHang(OrderSystem* sys, sim::Simulation* sim,
                     sim::Signal* crash)
        : sys_(sys), sim_(sim), crash_(crash) {}
    std::string_view name() const override { return "new_order"; }
    lock::ActorId PrefixActor(int steps) const override {
      return steps == 0 ? sys_->prefix_no_empty : sys_->prefix_no_partial;
    }
    bool has_compensation() const override { return true; }
    lock::ActorId CompensationStepType() const override {
      return sys_->step_no_compensate;
    }
    Status Compensate(acc::TxnContext& ctx, int steps) override {
      (void)steps;
      return NewOrderTxn::CompensateOrder(ctx, *sys_, order_id_);
    }
    std::string SerializeWorkArea() const override {
      return std::to_string(order_id_);
    }
    Status Run(acc::TxnContext& ctx) override {
      Status prefix = RunFirstTwoSteps(ctx);
      if (!prefix.ok()) return prefix;
      sim_->WaitSignal(*crash_);  // Crash: never returns.
      return Status::Internal("unreachable");
    }

   private:
    Status RunFirstTwoSteps(acc::TxnContext& ctx) {
      OrderSystem& sys = *sys_;
      ACCDB_RETURN_IF_ERROR(ctx.RunStep(
          sys.step_no_create, {},
          acc::AssertionInstance{sys.assert_no_loop, {}, {}},
          [&](acc::TxnContext& c) -> Status {
            ACCDB_ASSIGN_OR_RETURN(
                int64_t o_num,
                c.ReadVariable(*sys.order_counter, /*for_update=*/true));
            ACCDB_RETURN_IF_ERROR(
                c.WriteVariable(*sys.order_counter, o_num + 1));
            ACCDB_RETURN_IF_ERROR(
                c.Insert(*sys.orders,
                         {Value(o_num), Value(int64_t{1}), Value(int64_t{2}),
                          Value(Money())})
                    .status());
            order_id_ = o_num;
            c.UpdateNextAssertion(
                acc::AssertionInstance{sys.assert_no_loop, {o_num}, {}});
            return Status::Ok();
          }));
      return ctx.RunStep(
          sys.step_no_orderline, {order_id_, 1},
          acc::AssertionInstance{sys.assert_no_loop, {order_id_}, {}},
          [&](acc::TxnContext& c) -> Status {
            ACCDB_ASSIGN_OR_RETURN(
                storage::Row stock_row,
                c.ReadByKey(*sys.stock, Key(int64_t{1}),
                            /*for_update=*/true));
            ACCDB_RETURN_IF_ERROR(
                c.Update(*sys.stock, *sys.stock->LookupPk(Key(int64_t{1})),
                         {{sys.s_level,
                           Value(stock_row[sys.s_level].AsInt64() - 5)}}));
            return c
                .Insert(*sys.orderlines,
                        {Value(order_id_), Value(int64_t{1}),
                         Value(int64_t{5}), Value(int64_t{5})})
                .status();
          });
    }

    OrderSystem* sys_;
    sim::Simulation* sim_;
    sim::Signal* crash_;
    int64_t order_id_ = 0;
  };

  TwoStepsThenHang hanging(&sys_, &sim, &crash_point);
  sim.Spawn("t", [&] {
    (void)acc_engine_->Execute(hanging, env, ExecMode::kAccDecomposed);
  });
  sim.Run();
  // Mid-flight: stock taken, order and one line present, I1 false.
  EXPECT_EQ(StockOf(1), 95);
  EXPECT_FALSE(sys_.CheckConsistency());

  // Crash & recover on a fresh engine over the surviving database.
  const std::vector<acc::InFlightTxn> in_flight =
      acc_engine_->recovery_log().FindInFlight();
  EngineConfig config;
  config.charge_acc_overheads = false;
  Engine fresh(&db_, &acc_resolver_, config);
  acc::CompensatorRegistry registry;
  RegisterCompensators(&sys_, &registry);
  ImmediateEnv recovery_env;
  acc::RecoveryReport report =
      RunRecovery(fresh, in_flight, registry, recovery_env);
  EXPECT_EQ(report.in_flight, 1);
  EXPECT_EQ(report.compensated, 1);
  EXPECT_EQ(StockOf(1), 100);
  EXPECT_TRUE(sys_.CheckConsistency());
}

}  // namespace
}  // namespace accdb::orderproc
