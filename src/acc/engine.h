// The transaction engine: executes transaction programs against a Database
// under either the ACC discipline or strict two-phase locking.
//
// One Engine instance models one database system (the paper compares two
// such systems: unmodified OpenIngres = Engine with a MatrixConflictResolver
// and kSerializable executions; the ACC-modified system = Engine with an
// AccConflictResolver and kAccDecomposed executions).
//
// Blocking and time are abstracted behind ExecutionEnv so the same engine
// code runs inside the discrete-event simulation (SimExecutionEnv), in
// single-threaded tests and recovery (ImmediateEnv), or under any future
// real-thread environment.

#ifndef ACCDB_ACC_ENGINE_H_
#define ACCDB_ACC_ENGINE_H_

#include <atomic>
#include <cassert>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "acc/program.h"
#include "acc/spec.h"
#include "acc/wal.h"
#include "cc/occ.h"
#include "cc/version_store.h"
#include "common/status.h"
#include "lock/lock_manager.h"
#include "sim/metrics.h"
#include "storage/database.h"

namespace accdb::acc {

class TxnContext;

// Per-statement and per-mechanism CPU costs, in seconds of database-server
// time. The ACC-specific entries model the overhead the paper measures and
// includes in its results: extra excursions through the locking code, the
// end-of-step log record, and the compensation work-area save.
struct CostModel {
  double read_statement = 0.0015;
  double write_statement = 0.002;
  double acc_lock_overhead = 0.00005;   // Per lock-manager call in ACC mode.
  double acc_step_end_overhead = 0.0006;  // End-of-step log + work area.
  double acc_init_overhead = 0.0003;    // Initial assertional locking.
};

// The synthetic lock item representing an assertion *declaration* in the
// two-level ACC: the early design of [5] locks assertions themselves
// (instead of the database items they reference), so the dispatcher's
// conflict checks run against these items. Table id UINT32_MAX is reserved.
lock::ItemId AssertionDeclItem(lock::AssertionId decl);

struct EngineConfig {
  CostModel costs;
  // ACC: a deadlock-victim step is retried this many times before the
  // transaction rolls back via compensation (the paper retries once).
  int step_retry_limit = 1;
  // Whole-transaction restart limit after deadlocks (both modes).
  int txn_restart_limit = 1000;
  // Dynamically extend the next interstep assertion's A-locks to every item
  // the step wrote ("the implemented algorithm acquires assertional locks on
  // items dynamically at the time conventional locks are acquired").
  bool auto_protect_writes = true;
  // Charge the CostModel's ACC overheads (off => idealized zero-overhead
  // ACC, for ablations).
  bool charge_acc_overheads = true;
  // The paper's earlier TWO-LEVEL design ([5], §3.2): a dispatcher admits
  // each step only after checking it against every currently locked
  // assertion — implemented by locking assertion *declarations* (synthetic
  // items) instead of relying purely on item-attached assertional locks.
  // When enabled, every assertion grant also locks its declaration item and
  // every step dispatch takes IX on the declarations in
  // `dispatch_assertions`, so steps conflict with assertion instances even
  // when their database items are disjoint. Combine with
  // InterferenceTable::set_key_refinement(false) for the fully conservative
  // two-level behaviour.
  bool two_level_dispatch = false;
  std::vector<lock::AssertionId> dispatch_assertions;
  // Runtime semantic-correctness audit: at every point an interstep
  // assertion is claimed to hold (initial acquisition, end-of-step
  // acquisition, and the start of the step executing under it), re-evaluate
  // its predicate against the live database through the installed
  // AssertionAuditor and count violations in EngineMetrics. Sound
  // assertional locking must yield zero violations — the auditor is the
  // safety net that catches an unsound interference-table entry at run
  // time. Off by default (the audit reads rows outside the modeled cost);
  // a no-op unless set_assertion_auditor was called.
  bool audit_assertions = false;
  // Lock-table partitions (0 = auto: next_pow2(2 × hardware threads)).
  // Single-threaded simulation results are identical for any value; the
  // real-thread runtime scales with it. See LockManagerOptions::partitions.
  size_t lock_partitions = 0;
  // Transaction ids are drawn from per-thread blocks of this size, so the
  // global allocation counter is touched once per `txn_id_block`
  // transactions instead of once per transaction. 1 (the default) keeps ids
  // globally sequential in arrival order — required for the deterministic
  // simulation — and is exactly the historical single-atomic behaviour; the
  // real-thread runtime and the server default to a larger block.
  uint32_t txn_id_block = 1;
  // Durable write-ahead log. An empty path (the default) keeps only the
  // in-memory in-flight table (Engine::recovery_log) — the simulation
  // always runs this way, so sim results stay byte-identical. With a path
  // set, the engine opens (or recovers) the WAL in its constructor and
  // applies the recovered records to the in-flight table; check
  // wal_status() before executing. Transaction ids are floored past the
  // largest id in the recovered log so a restarted process never reuses a
  // logged id.
  Wal::Options wal;
};

// Sharded transaction-id allocation. Worker threads draw ids from
// thread-local blocks handed out by one global counter, so with
// block_size > 1 the per-transaction hot path touches no shared cache line.
// Ids are unique but not dense: a thread that stops, or moves to another
// allocator, abandons the rest of its block (uniqueness is all the lock
// manager needs). With block_size == 1 the allocator degenerates to a plain
// atomic counter handing out 1, 2, 3, ... in arrival order.
class TxnIdAllocator {
 public:
  static constexpr uint32_t kDefaultBlock = 64;

  explicit TxnIdAllocator(uint32_t block_size = 1)
      : block_size_(block_size < 1 ? 1 : block_size),
        epoch_(next_epoch_.fetch_add(1, std::memory_order_relaxed)) {}

  TxnIdAllocator(const TxnIdAllocator&) = delete;
  TxnIdAllocator& operator=(const TxnIdAllocator&) = delete;

  lock::TxnId Next();

  // Raises the global counter to at least `id`, so every id handed out
  // afterwards is > id. Call before any Next() (recovery floors the
  // allocator past the ids found in the WAL); not latched against
  // concurrent allocation.
  void FloorTo(lock::TxnId id) {
    if (last_id_.load(std::memory_order_relaxed) < id) last_id_.store(id);
  }

  uint32_t block_size() const { return block_size_; }

 private:
  // The thread's current block, tagged with the epoch of the allocator it
  // came from: allocators are distinguished by epoch, not address, so a new
  // allocator reusing a dead one's storage can never serve a stale block.
  struct Cache {
    uint64_t epoch = 0;
    lock::TxnId next = 0;
    lock::TxnId end = 0;
  };

  static thread_local Cache cache_;
  static std::atomic<uint64_t> next_epoch_;

  const uint32_t block_size_;
  const uint64_t epoch_;
  std::atomic<lock::TxnId> last_id_{0};
};

// Concurrency-control backend an execution runs under. The first two are
// the paper's pair (ACC vs unmodified strict 2PL); the last two are the
// alternative-backend executors from src/cc, added so ACC's decomposition
// can be compared against competitors that do not hold long locks either.
enum class ExecMode {
  kAccDecomposed,  // Step-decomposed ACC (assertional locks, compensation).
  kSerializable,   // Strict 2PL to commit (the unmodified baseline).
  kOptimistic,     // OCC: lock-free reads + buffered writes, backward
                   // validation at commit, abort-and-restart on conflict.
  kMultiVersion,   // MV2PL: writers run strict 2PL and version their
                   // writes; read-only programs read a lock-free snapshot.
};

inline constexpr int kNumExecModes = 4;

// Canonical short names, also the --mode= flag values: "acc", "2pl",
// "occ", "mvcc".
std::string_view ExecModeName(ExecMode mode);
std::optional<ExecMode> ParseExecMode(std::string_view text);

// Verdict of a deadline-bounded lock wait. kTimedOut is only produced by
// environments with real time (ThreadExecutionEnv); on timeout the request
// is still queued in the lock manager and the wait cell is still armed —
// the caller must CancelWaiter + DiscardWait before proceeding.
enum class WaitVerdict {
  kGranted,
  kAborted,   // Deadlock victim: the request was refused.
  kTimedOut,  // The deadline passed before the request resolved.
};

// Blocking/time abstraction. The engine invokes PrepareWait before every
// potentially blocking lock request so grant/abort notifications arriving
// during the request cannot be lost.
class ExecutionEnv {
 public:
  virtual ~ExecutionEnv() = default;

  // Consume database-server CPU (queues for a server under simulation).
  virtual void UseServer(double seconds) = 0;
  // Client-side delay; holds no server.
  virtual void ClientDelay(double seconds) = 0;

  // Current virtual time in seconds. Only differences matter (the engine
  // uses it to measure step/transaction latency and lock-wait durations),
  // so any monotone clock is valid; the default is a frozen clock for
  // environments that model no time at all.
  virtual double Now() const { return 0.0; }

  // Wait protocol.
  virtual void PrepareWait(lock::TxnId txn) = 0;
  virtual bool AwaitLock(lock::TxnId txn) = 0;  // true = granted.
  virtual void DiscardWait(lock::TxnId txn) = 0;

  // Deadline-bounded wait: like AwaitLock, but gives up once `deadline`
  // (absolute, on this env's clock) passes. Environments without real time
  // ignore the deadline and never return kTimedOut — under the simulation a
  // wait only ever resolves by grant or deadlock abort, which keeps
  // simulation results byte-identical to the pre-deadline engine.
  virtual WaitVerdict AwaitLockUntil(lock::TxnId txn, double deadline) {
    (void)deadline;
    return AwaitLock(txn) ? WaitVerdict::kGranted : WaitVerdict::kAborted;
  }

  // Absolute deadline (on this env's clock) applied to every lock wait of
  // the execution currently running on this env; +infinity = none. Serving
  // layers set it per request (ThreadExecutionEnv::set_lock_wait_deadline);
  // compensation ignores it (§3.4: compensation always completes).
  virtual double LockWaitDeadline() const {
    return std::numeric_limits<double>::infinity();
  }

  // Lock-manager notifications, routed by the engine.
  virtual void LockGranted(lock::TxnId txn) = 0;
  virtual void LockAborted(lock::TxnId txn) = 0;
};

// Environment for single-threaded execution: there is no concurrency, so no
// request may ever wait (asserted). Accumulates virtual costs.
class ImmediateEnv : public ExecutionEnv {
 public:
  void UseServer(double seconds) override { server_seconds_ += seconds; }
  void ClientDelay(double seconds) override { client_seconds_ += seconds; }
  void PrepareWait(lock::TxnId) override {}
  bool AwaitLock(lock::TxnId) override {
    assert(false && "ImmediateEnv cannot block");
    return false;
  }
  void DiscardWait(lock::TxnId) override {}
  void LockGranted(lock::TxnId) override {}
  void LockAborted(lock::TxnId) override {}

  // Virtual clock: the accumulated cost so far (nothing ever blocks here).
  double Now() const override { return server_seconds_ + client_seconds_; }

  double server_seconds() const { return server_seconds_; }
  double client_seconds() const { return client_seconds_; }

 private:
  double server_seconds_ = 0;
  double client_seconds_ = 0;
};

struct ExecResult {
  Status status;  // OK = committed; kAborted = rolled back / compensated.
  int steps_completed = 0;
  int step_deadlock_retries = 0;
  int txn_restarts = 0;
  bool compensated = false;
};

// Latency distributions aggregated across every execution the engine runs,
// measured on the ExecutionEnv clock. Recorded through the engine's
// Record* helpers, which latch a metrics mutex so real-thread workers can
// report concurrently; read via metrics() only at quiescence (between sim
// runs / after workers join) or via MetricsSnapshot().
struct EngineMetrics {
  // Successfully completed steps (forward and compensating), end to end
  // including their lock waits.
  sim::Histogram step_latency;
  // Execute() entry to exit: includes restarts and compensation.
  sim::Histogram txn_latency;
  // Each individual resolved lock wait (granted or deadlock-aborted).
  sim::Histogram lock_wait;

  // Runtime assertion audit (EngineConfig::audit_assertions): predicate
  // re-evaluations performed (kNotChecked verdicts are not counted) and how
  // many found the claimed assertion false. Violations must be zero under a
  // sound interference table.
  uint64_t assertions_audited = 0;
  uint64_t assertion_violations = 0;
  // Description of the first violation observed (empty when none).
  std::string first_assertion_violation;
};

class Engine : public lock::LockManager::Listener {
 public:
  // `resolver` must outlive the engine.
  Engine(storage::Database* db, const lock::ConflictResolver* resolver,
         EngineConfig config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs a program to completion (commit, rollback, or compensation).
  // Blocking happens through `env`. Safe to call from many simulated
  // processes concurrently (the simulation serializes execution).
  ExecResult Execute(TransactionProgram& program, ExecutionEnv& env,
                     ExecMode mode);

  // Runs a bare compensating step for crash recovery: `completed_steps`
  // forward steps of `program_name` are compensated by `body`. `logged_txn`
  // is the id of the crashed transaction being compensated: its kCompensated
  // record is written (and forced) under that id, so a second crash does not
  // re-compensate. kInvalidTxn logs under the shell's own fresh id.
  Status ExecuteCompensation(
      const std::string& program_name, lock::ActorId comp_step_type,
      std::vector<int64_t> comp_keys, ExecutionEnv& env,
      const std::function<Status(TxnContext&)>& body,
      lock::TxnId logged_txn = lock::kInvalidTxn);

  storage::Database& db() { return *db_; }
  lock::LockManager& lock_manager() { return lock_manager_; }
  // ACC transactions in flight: fed by every begin, end-of-step, commit
  // and compensated record the engine logs (and by the recovered WAL).
  RecoveryLog& recovery_log() { return recovery_log_; }
  // Backend state for the src/cc executors (kOptimistic / kMultiVersion).
  cc::OccVersionTable& occ_versions() { return occ_versions_; }
  cc::VersionStore& version_store() { return version_store_; }
  // Null when EngineConfig::wal.path is empty or Open failed (wal_status()).
  Wal* wal() { return wal_.get(); }
  const Wal* wal() const { return wal_.get(); }
  const Status& wal_status() const { return wal_status_; }
  const EngineConfig& config() const { return config_; }
  // Quiescent access only (no concurrent executions in flight).
  EngineMetrics& metrics() { return metrics_; }
  const EngineMetrics& metrics() const { return metrics_; }

  // Race-free metric recording (used by TxnContext and Execute).
  void RecordStepLatency(double seconds) {
    std::lock_guard<std::mutex> guard(metrics_mu_);
    metrics_.step_latency.Add(seconds);
  }
  void RecordTxnLatency(double seconds) {
    std::lock_guard<std::mutex> guard(metrics_mu_);
    metrics_.txn_latency.Add(seconds);
  }
  void RecordLockWait(double seconds) {
    std::lock_guard<std::mutex> guard(metrics_mu_);
    metrics_.lock_wait.Add(seconds);
  }

  // Installs the runtime assertion auditor (spec::SpecRegistry::
  // MakeAuditor). Call before any concurrent execution; the captured
  // registry must outlive the engine. Evaluation is additionally gated by
  // EngineConfig::audit_assertions.
  void set_assertion_auditor(AssertionAuditor auditor) {
    auditor_ = std::move(auditor);
  }
  // Re-evaluates `instance` through the installed auditor (no-op without
  // one, with auditing disabled, or for the empty assertion) and records
  // the verdict. Called by TxnContext wherever an interstep assertion is
  // claimed to hold; the caller holds the step's locks, so a sound table
  // makes the read race-free with respect to same-instance writers.
  void AuditAssertion(const AssertionInstance& instance);
  // Consistent copy while executions may still be in flight.
  EngineMetrics MetricsSnapshot() const {
    std::lock_guard<std::mutex> guard(metrics_mu_);
    return metrics_;
  }
  // Discards everything recorded so far (warmup boundary in the real-thread
  // runner).
  void ResetMetrics() {
    std::lock_guard<std::mutex> guard(metrics_mu_);
    metrics_ = EngineMetrics{};
  }

  // lock::LockManager::Listener:
  void OnGranted(lock::TxnId txn) override;
  void OnWaiterAborted(lock::TxnId txn) override;

 private:
  friend class TxnContext;

  lock::TxnId NextTxnId() { return txn_ids_.Next(); }

  // The one log entry point for ACC lifecycle records: applies `record` to
  // the in-flight table, then appends it to the WAL when one is attached.
  // Returns the record's LSN, or 0 without a WAL.
  uint64_t Log(WalRecord record);

  storage::Database* db_;
  EngineConfig config_;
  lock::LockManager lock_manager_;
  RecoveryLog recovery_log_;
  cc::OccVersionTable occ_versions_;
  cc::VersionStore version_store_;
  std::unique_ptr<Wal> wal_;
  Status wal_status_;
  AssertionAuditor auditor_;
  TxnIdAllocator txn_ids_;
  mutable std::mutex metrics_mu_;
  EngineMetrics metrics_;
  // Routes lock notifications to the env of the owning execution. The map
  // is latched by env_mu_; the listener callbacks run with the lock
  // manager's latch held, so the lock order is LM latch -> env_mu_ -> env
  // internals, and no path takes them in reverse.
  std::mutex env_mu_;
  std::unordered_map<lock::TxnId, ExecutionEnv*> txn_envs_;

  void BindEnv(lock::TxnId txn, ExecutionEnv* env) {
    std::lock_guard<std::mutex> guard(env_mu_);
    txn_envs_[txn] = env;
  }
  void UnbindEnv(lock::TxnId txn) {
    std::lock_guard<std::mutex> guard(env_mu_);
    txn_envs_.erase(txn);
  }
};

}  // namespace accdb::acc

#endif  // ACCDB_ACC_ENGINE_H_
