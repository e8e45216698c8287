// Crash recovery (Section 3.4).
//
// A crash is modelled as losing all volatile state — lock tables, undo
// logs, in-memory program objects — while the database contents (steps are
// atomic and force-logged at step end) and the recovery log survive.
// Recovery finds every transaction with completed forward steps but no
// commit/compensated record and runs its compensating step, reconstructed
// from the serialized work area by a registered compensator.

#ifndef ACCDB_ACC_RECOVERY_H_
#define ACCDB_ACC_RECOVERY_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "acc/engine.h"

namespace accdb::acc {

class TxnContext;

// Rebuilds and runs compensation for one program type from a logged work
// area.
struct Compensator {
  lock::ActorId comp_step_type = lock::kNoActor;
  // (ctx, work_area, completed_steps) -> status.
  std::function<Status(TxnContext&, const std::string&, int)> fn;
};

class CompensatorRegistry {
 public:
  void Register(const std::string& program_name, Compensator compensator);
  const Compensator* Find(const std::string& program_name) const;

 private:
  std::unordered_map<std::string, Compensator> compensators_;
};

struct RecoveryReport {
  int in_flight = 0;
  int compensated = 0;
  int missing_compensator = 0;
  // Compensations that ran but returned a non-OK status. A clean recovery
  // requires failed == 0 && missing_compensator == 0; `first_error` carries
  // the first failure for diagnostics.
  int failed = 0;
  Status first_error;

  bool clean() const { return failed == 0 && missing_compensator == 0; }
};

// Runs recovery against `engine` (a fresh post-crash engine over the
// surviving database), compensating `in_flight` — the pre-crash engine's
// RecoveryLog::FindInFlight(), or the recovered engine's own after it
// reopened the WAL.
RecoveryReport RunRecovery(Engine& engine,
                           const std::vector<InFlightTxn>& in_flight,
                           const CompensatorRegistry& registry,
                           ExecutionEnv& env);

}  // namespace accdb::acc

#endif  // ACCDB_ACC_RECOVERY_H_
