#include "acc/recovery.h"

#include "acc/txn_context.h"

namespace accdb::acc {

void CompensatorRegistry::Register(const std::string& program_name,
                                   Compensator compensator) {
  compensators_[program_name] = std::move(compensator);
}

const Compensator* CompensatorRegistry::Find(
    const std::string& program_name) const {
  auto it = compensators_.find(program_name);
  return it == compensators_.end() ? nullptr : &it->second;
}

RecoveryReport RunRecovery(Engine& engine,
                           const std::vector<InFlightTxn>& in_flight,
                           const CompensatorRegistry& registry,
                           ExecutionEnv& env) {
  RecoveryReport report;
  for (const InFlightTxn& txn : in_flight) {
    ++report.in_flight;
    const Compensator* compensator = registry.Find(txn.program);
    if (compensator == nullptr) {
      ++report.missing_compensator;
      continue;
    }
    Status status = engine.ExecuteCompensation(
        txn.program, compensator->comp_step_type, /*comp_keys=*/{}, env,
        [&](TxnContext& ctx) {
          return compensator->fn(ctx, txn.work_area, txn.completed_steps);
        },
        /*logged_txn=*/txn.txn);
    if (status.ok()) {
      ++report.compensated;
    } else {
      ++report.failed;
      if (report.first_error.ok()) report.first_error = status;
    }
  }
  return report;
}

}  // namespace accdb::acc
