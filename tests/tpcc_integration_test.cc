// Concurrent TPC-C: the workload driver end-to-end, plus targeted
// interleaving scenarios reproducing the paper's Section 5.1 claims.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/recovery.h"
#include "acc/sim_env.h"
#include "lock/conflict.h"
#include "sim/simulation.h"
#include "storage/database.h"
#include "tpcc/consistency.h"
#include "tpcc/driver.h"
#include "tpcc/loader.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {
namespace {

using acc::ExecMode;
using acc::ExecResult;
using storage::Key;

WorkloadConfig SmallConfig(bool decomposed, uint64_t seed) {
  WorkloadConfig config;
  config.mode = decomposed ? ExecMode::kAccDecomposed : ExecMode::kSerializable;
  config.terminals = 8;
  config.servers = 2;
  config.sim_seconds = 30;
  config.seed = seed;
  config.mean_think_seconds = 0.2;
  config.keying_seconds = 0.05;
  config.inputs.scale = ScaleConfig::Test();
  return config;
}

class WorkloadTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(BothSystems, WorkloadTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Acc" : "Serializable";
                         });

TEST_P(WorkloadTest, RunsAndStaysConsistent) {
  WorkloadResult result = RunWorkload(SmallConfig(GetParam(), 11));
  EXPECT_GT(result.completed, 200u);
  EXPECT_TRUE(result.consistent) << result.first_violation;
  EXPECT_GT(result.response_all.mean(), 0.0);
  // The 1% rollbacks happened.
  EXPECT_GT(result.aborted, 0u);
}

TEST_P(WorkloadTest, DeterministicForSeed) {
  WorkloadResult a = RunWorkload(SmallConfig(GetParam(), 29));
  WorkloadResult b = RunWorkload(SmallConfig(GetParam(), 29));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_DOUBLE_EQ(a.response_all.mean(), b.response_all.mean());
  EXPECT_EQ(a.lock_stats.requests, b.lock_stats.requests);
}

TEST_P(WorkloadTest, DifferentSeedsDiffer) {
  WorkloadResult a = RunWorkload(SmallConfig(GetParam(), 1));
  WorkloadResult b = RunWorkload(SmallConfig(GetParam(), 2));
  EXPECT_NE(a.lock_stats.requests, b.lock_stats.requests);
}

TEST(WorkloadComparisonTest, AccUsesAssertionalMachinery) {
  WorkloadResult acc_result = RunWorkload(SmallConfig(true, 5));
  WorkloadResult ser_result = RunWorkload(SmallConfig(false, 5));
  EXPECT_GT(acc_result.lock_stats.unconditional_grants, 0u);
  EXPECT_EQ(ser_result.lock_stats.unconditional_grants, 0u);
  EXPECT_TRUE(acc_result.consistent) << acc_result.first_violation;
  EXPECT_TRUE(ser_result.consistent) << ser_result.first_violation;
}

TEST(WorkloadComparisonTest, AccReducesLockWaitingUnderContention) {
  // High contention: many terminals, skewed districts, client compute time.
  auto config = [](bool decomposed) {
    WorkloadConfig c = SmallConfig(decomposed, 17);
    c.terminals = 24;
    c.servers = 4;
    c.sim_seconds = 40;
    c.mean_think_seconds = 0.1;
    c.compute_seconds = 0.003;
    c.inputs.skew_districts = true;
    c.inputs.hot_districts = 1;
    c.inputs.hot_fraction = 0.7;
    return c;
  };
  WorkloadResult acc_result = RunWorkload(config(true));
  WorkloadResult ser_result = RunWorkload(config(false));
  ASSERT_TRUE(acc_result.consistent) << acc_result.first_violation;
  ASSERT_TRUE(ser_result.consistent) << ser_result.first_violation;
  // The headline effect: under contention the ACC waits far less and
  // responds faster.
  EXPECT_LT(acc_result.total_lock_wait, ser_result.total_lock_wait);
  EXPECT_LT(acc_result.response_all.mean(), ser_result.response_all.mean());
}

// --- Targeted interleavings ---

class InterleavingTest : public ::testing::Test {
 protected:
  InterleavingTest() : db_(&database_), acc_resolver_(&db_.interference) {
    LoadDatabase(db_, ScaleConfig::Test(), /*seed=*/3);
    acc::EngineConfig config;
    config.charge_acc_overheads = false;
    acc_engine_ = std::make_unique<acc::Engine>(&database_, &acc_resolver_,
                                                config);
    ser_engine_ = std::make_unique<acc::Engine>(&database_,
                                                &matrix_resolver_, config);
  }

  storage::Database database_;
  TpccDb db_;
  lock::MatrixConflictResolver matrix_resolver_;
  acc::AccConflictResolver acc_resolver_;
  std::unique_ptr<acc::Engine> acc_engine_;
  std::unique_ptr<acc::Engine> ser_engine_;
};

// "The design-time analysis is capable of recognizing that updates to the
// counter and the year-to-date payment field do not interfere and hence
// allows transactions of these two types, within the same district, to
// interleave": a payment arriving mid-new-order in the same district
// completes immediately under the ACC and only after the new-order under
// two-phase locking.
TEST_F(InterleavingTest, PaymentInterleavesWithNewOrderInSameDistrict) {
  for (bool decomposed : {true, false}) {
    acc::Engine* engine =
        decomposed ? acc_engine_.get() : ser_engine_.get();
    ExecMode mode = decomposed ? ExecMode::kAccDecomposed
                               : ExecMode::kSerializable;
    sim::Simulation sim;
    acc::SimExecutionEnv env_no(sim, nullptr), env_p(sim, nullptr);

    NewOrderInput no_input;
    no_input.w_id = 1;
    no_input.d_id = 1;
    no_input.c_id = 1;
    no_input.lines = {{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}};
    // Long new-order: compute time between statements.
    NewOrderTxn no_txn(&db_, no_input, /*compute_seconds=*/0.01);

    PaymentInput p_input;
    p_input.w_id = 1;
    p_input.d_id = 1;  // Same district: the hot-spot conflict.
    p_input.c_w_id = 1;
    p_input.c_d_id = 1;
    p_input.by_last_name = false;
    p_input.c_id = 7;
    p_input.amount = Money::FromDollars(20);
    PaymentTxn p_txn(&db_, p_input);

    double no_done = -1, p_done = -1;
    ExecResult r_no, r_p;
    sim.Spawn("no", [&] {
      r_no = engine->Execute(no_txn, env_no, mode);
      no_done = sim.Now();
    });
    sim.Spawn("p", [&] {
      sim.Delay(0.06);  // The new-order holds the district "lock" by now.
      r_p = engine->Execute(p_txn, env_p, mode);
      p_done = sim.Now();
    });
    sim.Run();
    ASSERT_TRUE(r_no.status.ok());
    ASSERT_TRUE(r_p.status.ok());
    if (decomposed) {
      // ACC: payment slipped through mid-new-order.
      EXPECT_LT(p_done, no_done) << "ACC should interleave";
    } else {
      // 2PL: payment waited for the new-order's district lock.
      EXPECT_GT(p_done, no_done) << "2PL should serialize";
    }
    ConsistencyReport report = CheckConsistency(db_, /*strict=*/true);
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? ""
                                   : report.violations[0]);
  }
}

// order-status on the customer's in-flight order waits for its completion
// (the completeness conjunct is its precondition); on other customers it
// proceeds immediately.
TEST_F(InterleavingTest, OrderStatusWaitsForInFlightOrderOnly) {
  sim::Simulation sim;
  acc::SimExecutionEnv env_no(sim, nullptr), env_same(sim, nullptr),
      env_other(sim, nullptr);

  NewOrderInput no_input;
  no_input.w_id = 1;
  no_input.d_id = 2;
  no_input.c_id = 4;
  no_input.lines = {{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}};
  NewOrderTxn no_txn(&db_, no_input, /*compute_seconds=*/0.01);

  OrderStatusInput same_input;
  same_input.w_id = 1;
  same_input.d_id = 2;
  same_input.by_last_name = false;
  same_input.c_id = 4;  // The in-flight order's customer.
  OrderStatusTxn same_txn(&db_, same_input);

  OrderStatusInput other_input = same_input;
  other_input.c_id = 9;  // A different customer.
  OrderStatusTxn other_txn(&db_, other_input);

  double no_done = -1, same_done = -1, other_done = -1;
  ExecResult r_no, r_same, r_other;
  sim.Spawn("no", [&] {
    r_no = acc_engine_->Execute(no_txn, env_no, ExecMode::kAccDecomposed);
    no_done = sim.Now();
  });
  sim.Spawn("same", [&] {
    sim.Delay(0.08);  // After NO1 created the order, mid NO2 loop.
    r_same = acc_engine_->Execute(same_txn, env_same,
                                  ExecMode::kAccDecomposed);
    same_done = sim.Now();
  });
  sim.Spawn("other", [&] {
    sim.Delay(0.08);
    r_other = acc_engine_->Execute(other_txn, env_other,
                                   ExecMode::kAccDecomposed);
    other_done = sim.Now();
  });
  sim.Run();
  ASSERT_TRUE(r_no.status.ok());
  ASSERT_TRUE(r_same.status.ok());
  ASSERT_TRUE(r_other.status.ok());
  // The same-customer report waited for the new-order; it reports the
  // complete order.
  EXPECT_GT(same_done, no_done);
  ASSERT_TRUE(same_txn.found_order());
  EXPECT_EQ(same_txn.last_order_id(), no_txn.order_id());
  EXPECT_EQ(same_txn.line_count(), 5);
  EXPECT_EQ(same_txn.order_line_count_field(), 5);
  // The other-customer report did not wait.
  EXPECT_LT(other_done, no_done);
}

// Crash recovery across the three multi-step types.
TEST_F(InterleavingTest, CrashRecoveryWithRegisteredCompensators) {
  sim::Simulation sim;
  acc::SimExecutionEnv env(sim, nullptr);
  sim::Signal never(sim);

  // A new-order that commits a forward prefix (all steps of a shorter
  // order) and then hangs without committing: the simulation drains with
  // the transaction in flight, modelling a crash between steps. The
  // engine's end-of-step records carry the inner program's work area, so
  // recovery can compensate it.
  class HangingNewOrder : public NewOrderTxn {
   public:
    HangingNewOrder(TpccDb* db, NewOrderInput input, sim::Simulation* sim,
                    sim::Signal* crash)
        : NewOrderTxn(db, input),
          tpcc_db_(db),
          full_input_(std::move(input)),
          sim_(sim),
          crash_(crash) {}
    Status Run(acc::TxnContext& ctx) override {
      // Execute the forward steps of a truncated order (one line less than
      // promised is irrelevant here — the point is the commit record never
      // lands), then hang at the crash point.
      NewOrderInput truncated = full_input_;
      truncated.lines.pop_back();
      partial_ = std::make_unique<NewOrderTxn>(tpcc_db_, truncated);
      Status status = partial_->Run(ctx);
      order_id_from_partial_ = partial_->order_id();
      if (!status.ok()) return status;
      sim_->WaitSignal(*crash_);
      return Status::Internal("unreachable");
    }
    std::string SerializeWorkArea() const override {
      return partial_ != nullptr ? partial_->SerializeWorkArea() : "0 0 0";
    }

    TpccDb* tpcc_db_;
    NewOrderInput full_input_;
    std::unique_ptr<NewOrderTxn> partial_;
    int64_t order_id_from_partial_ = 0;
    sim::Simulation* sim_;
    sim::Signal* crash_;
  };

  NewOrderInput input;
  input.w_id = 1;
  input.d_id = 5;
  input.c_id = 2;
  input.lines = {{1, 1}, {2, 1}, {3, 1}};
  HangingNewOrder hanging(&db_, input, &sim, &never);
  sim.Spawn("t", [&] {
    (void)acc_engine_->Execute(hanging, env, ExecMode::kAccDecomposed);
  });
  sim.Run();

  // The partial order is in the database.
  int64_t o = hanging.order_id_from_partial_;
  ASSERT_GT(o, 0);
  EXPECT_TRUE(db_.orders->LookupPk(Key(1, 5, o)).has_value());

  // Crash and recover.
  const std::vector<acc::InFlightTxn> in_flight =
      acc_engine_->recovery_log().FindInFlight();
  acc::EngineConfig config;
  config.charge_acc_overheads = false;
  acc::Engine fresh(&database_, &acc_resolver_, config);
  acc::CompensatorRegistry registry;
  RegisterTpccCompensators(&db_, &registry);
  acc::ImmediateEnv recovery_env;
  acc::RecoveryReport report =
      acc::RunRecovery(fresh, in_flight, registry, recovery_env);
  EXPECT_GE(report.in_flight, 1);
  EXPECT_EQ(report.compensated, report.in_flight);
  EXPECT_EQ(report.missing_compensator, 0);
  // The partial order is gone and the database is consistent again
  // (non-strict: an order number was consumed).
  EXPECT_FALSE(db_.orders->LookupPk(Key(1, 5, o)).has_value());
  ConsistencyReport consistency = CheckConsistency(db_, /*strict=*/false);
  EXPECT_TRUE(consistency.ok) << (consistency.violations.empty()
                                      ? ""
                                      : consistency.violations[0]);
}

}  // namespace
}  // namespace accdb::tpcc
