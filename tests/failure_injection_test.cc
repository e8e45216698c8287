// Failure injection: transactions crash at random step boundaries while
// normal traffic runs, then the system "crashes" (volatile state lost) and
// recovery compensates every in-flight transaction. The database must end
// consistent for every seed.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/recovery.h"
#include "acc/sim_env.h"
#include "common/rng.h"
#include "sim/simulation.h"
#include "storage/database.h"
#include "tpcc/consistency.h"
#include "tpcc/loader.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {
namespace {

using acc::ExecMode;

// Wraps a program so that it hangs forever after `crash_after_steps`
// completed steps (checked between RunStep calls by polling the context).
// Implemented for new-order: the inner program runs a truncated line list
// so it stops cleanly at a step boundary, then hangs.
class CrashingNewOrder : public acc::TransactionProgram {
 public:
  CrashingNewOrder(TpccDb* db, NewOrderInput input, int lines_before_crash,
                   sim::Simulation* sim, sim::Signal* crash)
      : db_(db),
        input_(std::move(input)),
        lines_before_crash_(lines_before_crash),
        sim_(sim),
        crash_(crash) {}

  std::string_view name() const override { return "tpcc.new_order"; }
  lock::ActorId PrefixActor(int steps) const override {
    return steps == 0 ? db_->prefix_empty : db_->prefix_no_partial;
  }
  bool has_compensation() const override { return true; }
  lock::ActorId CompensationStepType() const override {
    return db_->step_cs_no;
  }
  Status Compensate(acc::TxnContext& ctx, int steps) override {
    (void)steps;
    return inner_ != nullptr
               ? NewOrderTxn::CompensateOrder(ctx, *db_, input_.w_id,
                                              input_.d_id, inner_->order_id())
               : Status::Ok();
  }
  std::string SerializeWorkArea() const override {
    return inner_ != nullptr ? inner_->SerializeWorkArea() : "0 0 0";
  }

  Status Run(acc::TxnContext& ctx) override {
    NewOrderInput truncated = input_;
    truncated.lines.resize(
        std::min<size_t>(truncated.lines.size(), lines_before_crash_));
    inner_ = std::make_unique<NewOrderTxn>(db_, truncated);
    Status status = inner_->Run(ctx);
    if (!status.ok()) return status;
    sim_->WaitSignal(*crash_);  // Crash point; never fires.
    return Status::Internal("unreachable");
  }

 private:
  TpccDb* db_;
  NewOrderInput input_;
  int lines_before_crash_;
  sim::Simulation* sim_;
  sim::Signal* crash_;
  std::unique_ptr<NewOrderTxn> inner_;
};

class FailureInjectionTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FailureInjectionTest,
                         ::testing::Values(1, 17, 42, 1234));

TEST_P(FailureInjectionTest, RecoveryAfterMidFlightCrashes) {
  storage::Database database;
  TpccDb db(&database);
  LoadDatabase(db, ScaleConfig::Test(), GetParam());
  acc::AccConflictResolver resolver(&db.interference);
  acc::EngineConfig config;
  config.charge_acc_overheads = false;
  auto engine = std::make_unique<acc::Engine>(&database, &resolver, config);

  Rng rng(GetParam() * 31 + 7);
  InputGenConfig gen_config;
  gen_config.scale = ScaleConfig::Test();
  InputGenerator gen(gen_config, rng.Next());

  int crashers = 0;
  {
    sim::Simulation sim;
    sim::Signal crash_point(sim);
    std::vector<std::unique_ptr<acc::SimExecutionEnv>> envs;
    std::vector<std::unique_ptr<acc::TransactionProgram>> programs;

    // Crashing transactions: hang after 1-3 completed order lines.
    for (int i = 0; i < 4; ++i) {
      NewOrderInput input = gen.NextNewOrder();
      input.rollback = false;
      if (input.lines.size() < 4) continue;
      envs.push_back(std::make_unique<acc::SimExecutionEnv>(sim, nullptr));
      programs.push_back(std::make_unique<CrashingNewOrder>(
          &db, input, static_cast<int>(rng.UniformInt(1, 3)), &sim,
          &crash_point));
      acc::SimExecutionEnv* env = envs.back().get();
      acc::TransactionProgram* prog = programs.back().get();
      double start = 0.01 * i;
      sim.Spawn("crasher", [&, env, prog, start] {
        sim.Delay(start);
        (void)engine->Execute(*prog, *env, ExecMode::kAccDecomposed);
      });
      ++crashers;
    }

    // Normal traffic around them.
    for (int t = 0; t < 6; ++t) {
      envs.push_back(std::make_unique<acc::SimExecutionEnv>(sim, nullptr));
      acc::SimExecutionEnv* env = envs.back().get();
      uint64_t seed = rng.Next();
      sim.Spawn("terminal", [&, env, seed] {
        Rng term_rng(seed);
        InputGenConfig cfg;
        cfg.scale = ScaleConfig::Test();
        InputGenerator term_gen(cfg, term_rng.Next());
        for (int i = 0; i < 20; ++i) {
          sim.Delay(term_rng.Exponential(0.02));
          switch (term_gen.NextType()) {
            case TxnType::kNewOrder: {
              NewOrderTxn txn(&db, term_gen.NextNewOrder());
              (void)engine->Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
            case TxnType::kPayment: {
              PaymentTxn txn(&db, term_gen.NextPayment());
              (void)engine->Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
            case TxnType::kOrderStatus: {
              OrderStatusTxn txn(&db, term_gen.NextOrderStatus());
              (void)engine->Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
            case TxnType::kDelivery: {
              DeliveryTxn txn(&db, term_gen.NextDelivery());
              (void)engine->Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
            case TxnType::kStockLevel: {
              StockLevelTxn txn(&db, term_gen.NextStockLevel());
              (void)engine->Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
          }
        }
      });
    }
    sim.Run();  // Drains; the crashers are stuck mid-flight.
    // The crashers are stuck, and normal transactions blocked on the
    // crashers' locks may be stranded with them — a crash takes down
    // everything in flight.
    EXPECT_GE(sim.live_processes(), crashers)
        << engine->lock_manager().DumpWaiters();
  }
  ASSERT_GT(crashers, 0);

  // Crash: discard everything volatile, keep the database and log.
  const std::vector<acc::InFlightTxn> in_flight =
      engine->recovery_log().FindInFlight();
  engine.reset();

  acc::Engine fresh(&database, &resolver, config);
  acc::CompensatorRegistry registry;
  RegisterTpccCompensators(&db, &registry);
  acc::ImmediateEnv recovery_env;
  acc::RecoveryReport report =
      acc::RunRecovery(fresh, in_flight, registry, recovery_env);
  EXPECT_GE(report.in_flight, crashers);
  EXPECT_EQ(report.compensated, report.in_flight);
  EXPECT_EQ(report.failed, 0) << report.first_error.ToString();
  EXPECT_EQ(report.missing_compensator, 0);

  ConsistencyReport consistency = CheckConsistency(db, /*strict=*/false);
  EXPECT_TRUE(consistency.ok) << (consistency.violations.empty()
                                      ? ""
                                      : consistency.violations[0]);
}

}  // namespace
}  // namespace accdb::tpcc
