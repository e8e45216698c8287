// Crash recovery walkthrough (Section 3.4): a new_order crashes between its
// forward steps; the database keeps the partial order (steps are atomic and
// logged), the consistency constraint I1 is temporarily false, and recovery
// runs the registered compensator from the logged work area to semantically
// undo the completed steps.

#include <cstdio>
#include <memory>
#include <vector>

#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/recovery.h"
#include "acc/sim_env.h"
#include "orderproc/order_system.h"
#include "orderproc/transactions.h"
#include "sim/simulation.h"
#include "storage/database.h"

using namespace accdb;
using storage::Key;
using storage::Value;

namespace {

// A new_order promising two lines that crashes after entering the first:
// runs NO1 + one NO2 by hand, then hangs at the crash point. It logs under
// the "new_order" name, so the standard registered compensator recovers it.
class CrashingNewOrder : public acc::TransactionProgram {
 public:
  CrashingNewOrder(orderproc::OrderSystem* system, sim::Simulation* sim,
                   sim::Signal* crash)
      : system_(system), sim_(sim), crash_(crash) {}

  std::string_view name() const override { return "new_order"; }
  lock::ActorId PrefixActor(int steps) const override {
    return steps == 0 ? system_->prefix_no_empty
                      : system_->prefix_no_partial;
  }
  bool has_compensation() const override { return true; }
  lock::ActorId CompensationStepType() const override {
    return system_->step_no_compensate;
  }
  Status Compensate(acc::TxnContext& ctx, int steps) override {
    (void)steps;
    return orderproc::NewOrderTxn::CompensateOrder(ctx, *system_, order_id_);
  }
  std::string SerializeWorkArea() const override {
    return std::to_string(order_id_);
  }

  Status Run(acc::TxnContext& ctx) override {
    orderproc::OrderSystem& sys = *system_;
    // NO1: allocate the order number, promise two lines.
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        sys.step_no_create, {},
        acc::AssertionInstance{sys.assert_no_loop, {}, {}},
        [&](acc::TxnContext& c) -> Status {
          ACCDB_ASSIGN_OR_RETURN(
              int64_t o, c.ReadVariable(*sys.order_counter, true));
          ACCDB_RETURN_IF_ERROR(c.WriteVariable(*sys.order_counter, o + 1));
          ACCDB_RETURN_IF_ERROR(
              c.Insert(*sys.orders, {Value(o), Value(int64_t{1}),
                                     Value(int64_t{2}), Value(Money())})
                  .status());
          order_id_ = o;
          c.UpdateNextAssertion(
              acc::AssertionInstance{sys.assert_no_loop, {o}, {}});
          return Status::Ok();
        }));
    // NO2 for the first line only.
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        sys.step_no_orderline, {order_id_, 1},
        acc::AssertionInstance{sys.assert_no_loop, {order_id_}, {}},
        [&](acc::TxnContext& c) -> Status {
          ACCDB_ASSIGN_OR_RETURN(storage::Row stock,
                                 c.ReadByKey(*sys.stock, Key(1), true));
          ACCDB_RETURN_IF_ERROR(
              c.Update(*sys.stock, *sys.stock->LookupPk(Key(1)),
                       {{sys.s_level,
                         Value(stock[sys.s_level].AsInt64() - 5)}}));
          return c
              .Insert(*sys.orderlines, {Value(order_id_), Value(int64_t{1}),
                                        Value(int64_t{5}), Value(int64_t{5})})
              .status();
        }));
    std::printf("  [transaction] order %lld: promised 2 lines, entered 1 — "
                "crashing now\n",
                static_cast<long long>(order_id_));
    sim_->WaitSignal(*crash_);  // The crash point: never returns.
    return Status::Internal("unreachable");
  }

  int64_t order_id() const { return order_id_; }

 private:
  orderproc::OrderSystem* system_;
  sim::Simulation* sim_;
  sim::Signal* crash_;
  int64_t order_id_ = 0;
};

int64_t StockOfItem1(orderproc::OrderSystem& system) {
  return (*system.stock->Get(*system.stock->LookupPk(Key(1))))[1].AsInt64();
}

}  // namespace

int main() {
  storage::Database database;
  orderproc::OrderSystem system(&database);
  system.LoadItems(/*item_count=*/10, /*stock_level=*/100,
                   /*price_cents=*/500);

  acc::AccConflictResolver resolver(&system.interference);
  acc::EngineConfig config;
  config.charge_acc_overheads = false;
  auto engine = std::make_unique<acc::Engine>(&database, &resolver, config);

  std::printf("1. A new_order commits two forward steps, then the system "
              "crashes mid-transaction.\n");
  sim::Simulation sim;
  acc::SimExecutionEnv env(sim, nullptr);
  sim::Signal crash_point(sim);
  CrashingNewOrder crasher(&system, &sim, &crash_point);
  sim.Spawn("victim", [&] {
    (void)engine->Execute(crasher, env, acc::ExecMode::kAccDecomposed);
  });
  sim.Run();  // Drains with the transaction stuck at the crash point.

  int64_t order = crasher.order_id();
  std::string violation;
  bool consistent = system.CheckConsistency(&violation);
  std::printf("2. Post-crash: order %lld present=%s, stock(item 1)=%lld, "
              "consistency: %s\n",
              static_cast<long long>(order),
              system.orders->LookupPk(Key(order)).has_value() ? "yes" : "no",
              static_cast<long long>(StockOfItem1(system)),
              consistent ? "OK (unexpected!)" : violation.c_str());

  std::printf("3. Recovery: volatile state (locks, undo) is gone; the log "
              "and database survive.\n");
  const std::vector<acc::InFlightTxn> in_flight =
      engine->recovery_log().FindInFlight();
  engine.reset();  // The crash: the old engine's lock tables evaporate.

  acc::Engine fresh(&database, &resolver, config);
  acc::CompensatorRegistry registry;
  orderproc::RegisterCompensators(&system, &registry);
  acc::ImmediateEnv recovery_env;
  acc::RecoveryReport report =
      acc::RunRecovery(fresh, in_flight, registry, recovery_env);
  std::printf("   in-flight=%d compensated=%d missing-compensator=%d\n",
              report.in_flight, report.compensated,
              report.missing_compensator);

  bool ok = system.CheckConsistency(&violation);
  std::printf("4. Post-recovery: order %lld present=%s, stock(item 1)=%lld, "
              "consistency: %s%s\n",
              static_cast<long long>(order),
              system.orders->LookupPk(Key(order)).has_value() ? "yes" : "no",
              static_cast<long long>(StockOfItem1(system)),
              ok ? "OK" : "VIOLATED: ", ok ? "" : violation.c_str());
  return ok && report.compensated == report.in_flight ? 0 : 1;
}
