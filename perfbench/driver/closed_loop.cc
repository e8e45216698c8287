// Closed-loop TPC-C over the engine's public API (workload tpcc_hotspot).
// Each worker draws its inputs from tpcc::InputGenerator, builds the
// transaction program itself and calls acc::Engine::Execute
// through TimedEnv, so every layer boundary is timed from outside the
// program. Workers are joined between phases, so the program's counters are
// read at quiescent points and their deltas are exact.

#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <variant>

#include "common.h"
#include "common/rng.h"
#include "runtime/thread_env.h"
#include "tpcc/consistency.h"
#include "tpcc/driver.h"
#include "tpcc/transactions.h"

namespace perfbench {

namespace {

using accdb::acc::ExecMode;
using accdb::acc::ExecResult;
using accdb::lock::TxnId;
namespace tpcc = accdb::tpcc;

// An operation is retried until it commits or this many attempts failed.
constexpr int kMaxAttempts = 64;
// Failed operations whose last status is written to stderr, per phase.
constexpr uint64_t kFailuresLogged = 3;
// Little's law: each worker's operations per second of its own run time,
// times their mean latency, summed over the workers, must equal the worker
// count within this share. Time a worker spends outside the operations it
// times (or an operation timed twice) shows as a gap.
constexpr double kLittleBound = 0.01;

// The paper's Fig. 2 regime: one warehouse, one district drawing half the
// traffic, modeled statement costs slept at 5% so that locks are held long.
// Delivery is left out of the mix: under ACC it fails now and then (an
// orphaned NEW-ORDER row, see CHANGES.md), and a failure share that varies
// from run to run cannot be compared between runs.
constexpr int kWorkers = 4;
constexpr double kCostScale = 0.05;
constexpr double kHotFraction = 0.5;

// ThreadExecutionEnv that counts and times the engine's calls into lock
// waits and modeled costs. Spans are recorded only while a log is attached.
class TimedEnv : public accdb::runtime::ThreadExecutionEnv {
 public:
  explicit TimedEnv(double cost_scale)
      : ThreadExecutionEnv(cost_scale), cost_scale_(cost_scale) {}

  void Attach(SpanLog* log, uint32_t parent, uint64_t op) {
    log_ = log;
    parent_ = parent;
    op_ = op;
  }

  void UseServer(double seconds) override {
    const double start = Begin(seconds);
    ThreadExecutionEnv::UseServer(seconds);
    End(start, seconds);
  }
  void ClientDelay(double seconds) override {
    const double start = Begin(seconds);
    ThreadExecutionEnv::ClientDelay(seconds);
    End(start, seconds);
  }

  // The base AwaitLockUntil delegates to AwaitLock for unbounded waits;
  // `in_wait_` keeps that nested call from being counted twice.
  bool AwaitLock(TxnId txn) override {
    if (in_wait_) return ThreadExecutionEnv::AwaitLock(txn);
    ++waits_;
    const double start = log_ ? Now() : 0;
    const bool granted = ThreadExecutionEnv::AwaitLock(txn);
    if (log_) log_->Add(kSpanLockWait, op_, parent_, start, Now());
    return granted;
  }
  accdb::acc::WaitVerdict AwaitLockUntil(TxnId txn, double deadline) override {
    ++waits_;
    const double start = log_ ? Now() : 0;
    in_wait_ = true;
    const accdb::acc::WaitVerdict verdict =
        ThreadExecutionEnv::AwaitLockUntil(txn, deadline);
    in_wait_ = false;
    if (log_) log_->Add(kSpanLockWait, op_, parent_, start, Now());
    return verdict;
  }

  uint64_t waits() const { return waits_; }

 private:
  double Begin(double seconds) const {
    return log_ && seconds * cost_scale_ > 0 ? Now() : 0;
  }
  void End(double start, double seconds) {
    if (log_ && seconds * cost_scale_ > 0) {
      log_->Add(kSpanModeled, op_, parent_, start, Now());
    }
  }

  const double cost_scale_;
  SpanLog* log_ = nullptr;
  uint32_t parent_ = kNoParent;
  uint64_t op_ = 0;
  bool in_wait_ = false;
  uint64_t waits_ = 0;
};

// What the committed operations' generated inputs say the database must
// have gained.
struct Ledger {
  int64_t new_orders = 0;
  int64_t order_lines = 0;
  int64_t quantity = 0;
  int64_t payments = 0;
  int64_t payment_cents = 0;
};

// The same quantities read from the tables.
struct TableSums {
  int64_t orders = 0, order_lines = 0, s_ytd = 0, history = 0, w_ytd_cents = 0;
};

TableSums ReadSums(const tpcc::TpccDb& db) {
  TableSums sums;
  sums.orders = static_cast<int64_t>(db.orders->size());
  sums.order_lines = static_cast<int64_t>(db.order_line->size());
  sums.history = static_cast<int64_t>(db.history->size());
  for (accdb::storage::RowId id : db.stock->ScanAll()) {
    sums.s_ytd += (*db.stock->Get(id))[db.s_ytd].AsInt64();
  }
  for (accdb::storage::RowId id : db.warehouse->ScanAll()) {
    sums.w_ytd_cents += (*db.warehouse->Get(id))[db.w_ytd].AsMoney().cents();
  }
  return sums;
}

// Per-phase tallies of one worker.
struct Tally {
  uint64_t committed = 0, failed = 0, retries = 0, steps = 0, restarts = 0,
           compensations = 0;
  double latency_sum = 0;  // Every operation, committed or failed.
  void Merge(const Tally& o) {
    committed += o.committed;
    failed += o.failed;
    retries += o.retries;
    steps += o.steps;
    restarts += o.restarts;
    compensations += o.compensations;
    latency_sum += o.latency_sum;
  }
};

class Worker {
 public:
  Worker(tpcc::TpccSystem* system, ExecMode mode,
         const tpcc::InputGenConfig& inputs, uint64_t seed, int index)
      : system_(system),
        mode_(mode),
        env_(kCostScale),
        gen_(inputs, seed),
        index_(index) {}

  // Runs operations until `deadline`. `log` non-null traces the phase.
  void RunPhase(double start, double deadline, SpanLog* log) {
    tally_ = Tally{};
    phase_start_ = start;
    new_order_latency_.clear();
    commit_at_.clear();
    while (Now() < deadline) RunOp(log);
    active_seconds_ += Now() - start;
  }

  const Tally& tally() const { return tally_; }
  const Ledger& ledger() const { return ledger_; }
  const std::vector<double>& commit_at() const { return commit_at_; }
  const std::vector<Sample>& new_order_latency() const {
    return new_order_latency_;
  }
  uint64_t env_waits() const { return env_.waits(); }
  // Operations in flight on this worker over its run time, all phases.
  double busy_share() const { return latency_total_ / active_seconds_; }

 private:
  using Input = std::variant<tpcc::NewOrderInput, tpcc::PaymentInput,
                             tpcc::OrderStatusInput, tpcc::DeliveryInput,
                             tpcc::StockLevelInput>;

  Input Draw(tpcc::TxnType type) {
    switch (type) {
      case tpcc::TxnType::kNewOrder: return gen_.NextNewOrder();
      case tpcc::TxnType::kPayment: return gen_.NextPayment();
      case tpcc::TxnType::kOrderStatus: return gen_.NextOrderStatus();
      case tpcc::TxnType::kDelivery: return gen_.NextDelivery();
      case tpcc::TxnType::kStockLevel: return gen_.NextStockLevel();
    }
    return gen_.NextStockLevel();
  }

  ExecResult Execute(const Input& input) {
    tpcc::TpccDb* db = &system_->db();
    accdb::acc::Engine& engine = system_->engine();
    return std::visit(
        [&](const auto& in) {
          using T = std::decay_t<decltype(in)>;
          if constexpr (std::is_same_v<T, tpcc::NewOrderInput>) {
            tpcc::NewOrderTxn txn(db, in);
            return engine.Execute(txn, env_, mode_);
          } else if constexpr (std::is_same_v<T, tpcc::PaymentInput>) {
            tpcc::PaymentTxn txn(db, in);
            return engine.Execute(txn, env_, mode_);
          } else if constexpr (std::is_same_v<T, tpcc::OrderStatusInput>) {
            tpcc::OrderStatusTxn txn(db, in);
            return engine.Execute(txn, env_, mode_);
          } else if constexpr (std::is_same_v<T, tpcc::DeliveryInput>) {
            tpcc::DeliveryTxn txn(db, in);
            return engine.Execute(txn, env_, mode_);
          } else {
            tpcc::StockLevelTxn txn(db, in);
            return engine.Execute(txn, env_, mode_);
          }
        },
        input);
  }

  void Credit(const Input& input) {
    if (const auto* no = std::get_if<tpcc::NewOrderInput>(&input)) {
      ++ledger_.new_orders;
      ledger_.order_lines += static_cast<int64_t>(no->lines.size());
      for (const auto& line : no->lines) ledger_.quantity += line.quantity;
    } else if (const auto* p = std::get_if<tpcc::PaymentInput>(&input)) {
      ++ledger_.payments;
      ledger_.payment_cents += p->amount.cents();
    }
  }

  void RunOp(SpanLog* log) {
    const uint64_t op = (static_cast<uint64_t>(index_) << 40) | ++op_seq_;
    const double start = Now();
    const uint32_t op_span =
        log ? log->Open(kSpanOp, op, kNoParent, start) : kNoParent;
    const tpcc::TxnType type = gen_.NextType();
    Input input = Draw(type);
    bool committed = false;
    accdb::Status last;
    for (int attempt = 0; attempt < kMaxAttempts && !committed; ++attempt) {
      if (attempt > 0) {
        ++tally_.retries;
        // The spec's rollbacks are redrawn: the same inputs would abort
        // again. Every other abort is retried with the same inputs.
        auto* no = std::get_if<tpcc::NewOrderInput>(&input);
        if (no != nullptr && no->rollback) input = gen_.NextNewOrder();
      }
      uint32_t exec_span = kNoParent;
      if (log) {
        exec_span = log->Open(kSpanExecute, op, op_span, Now());
        env_.Attach(log, exec_span, op);
      }
      const ExecResult result = Execute(input);
      if (log) {
        log->Close(exec_span, Now());
        env_.Attach(nullptr, kNoParent, 0);
      }
      tally_.steps += result.steps_completed;
      tally_.restarts += result.txn_restarts;
      if (result.compensated) ++tally_.compensations;
      committed = result.status.ok();
      last = result.status;
    }
    const double end = Now();
    if (log) log->Close(op_span, end);
    tally_.latency_sum += end - start;
    latency_total_ += end - start;
    if (committed) {
      ++tally_.committed;
      Credit(input);
      commit_at_.push_back(end - phase_start_);
      if (type == tpcc::TxnType::kNewOrder) {
        new_order_latency_.push_back(Sample{end - phase_start_, end - start});
      }
    } else if (++tally_.failed <= kFailuresLogged) {
      std::fprintf(stderr, "perfbench: %s failed %d times, last: %s\n",
                   std::string(tpcc::TxnTypeName(type)).c_str(), kMaxAttempts,
                   last.ToString().c_str());
    }
  }

  tpcc::TpccSystem* system_;
  const ExecMode mode_;
  TimedEnv env_;
  tpcc::InputGenerator gen_;
  const int index_;
  uint64_t op_seq_ = 0;
  Tally tally_;
  Ledger ledger_;
  // Latency of committed new-orders, the transaction TPC-C rates by; the
  // other types' latencies differ by up to 50x, so a percentile over the
  // whole mix jumps between types as their shares vary.
  std::vector<Sample> new_order_latency_;
  std::vector<double> commit_at_;  // Commit times from the phase start.
  double phase_start_ = 0;
  double active_seconds_ = 0;
  double latency_total_ = 0;
};

}  // namespace

void RunClosedLoop(const Options& options, Report& report) {
  tpcc::WorkloadConfig config;
  config.mode = options.mode;
  config.seed = options.seed;
  config.engine.txn_id_block = accdb::acc::TxnIdAllocator::kDefaultBlock;
  config.inputs.scale = tpcc::ScaleConfig::Experiment();
  config.inputs.skew_districts = true;
  config.inputs.hot_districts = 1;
  config.inputs.hot_fraction = kHotFraction;
  config.inputs.mix[static_cast<int>(tpcc::TxnType::kDelivery)] = 0;

  SpanLog setup_log;
  const double load_start = Now();
  tpcc::TpccSystem system(config);
  setup_log.Add(kSpanLoad, 0, kNoParent, load_start, Now());
  accdb::acc::Engine& engine = system.engine();
  const TableSums before = ReadSums(system.db());

  std::vector<std::unique_ptr<Worker>> workers;
  accdb::Rng seeder(options.seed * 7919 + 17);
  for (int t = 0; t < kWorkers; ++t) {
    workers.push_back(std::make_unique<Worker>(
        &system, options.mode, config.inputs, seeder.Next(), t));
  }

  // Untraced runs measure one window. Traced runs alternate untraced and
  // traced quarters, so the two can be compared on the same database.
  const int phases = options.trace ? 4 : 1;
  const double phase_seconds = options.seconds / phases;
  std::vector<SpanLog> logs(workers.size());
  Tally untraced, traced;
  double untraced_window = 0;
  LockDelta traced_locks;
  uint64_t lm_waits = 0;
  uint64_t traced_rows = 0;
  std::vector<Sample> latencies;
  std::vector<double> commit_at;
  double first_txn = 0;
  for (int phase = 0; phase < phases; ++phase) {
    const bool tracing = options.trace && phase % 2 == 1;
    const accdb::lock::LockManager::Stats lock_before =
        engine.lock_manager().StatsSnapshot();
    const uint64_t rows_before = tracing ? TotalRows(system.database()) : 0;
    const double start = Now();
    if (phase == 0) first_txn = start;
    const double deadline = start + phase_seconds;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < workers.size(); ++t) {
      Worker* w = workers[t].get();
      SpanLog* log = tracing ? &logs[t] : nullptr;
      threads.emplace_back(
          [w, start, deadline, log] { w->RunPhase(start, deadline, log); });
    }
    for (std::thread& thread : threads) thread.join();
    const double window = Now() - start;
    const accdb::lock::LockManager::Stats lock_after =
        engine.lock_manager().StatsSnapshot();
    LockDelta delta;
    delta.AddDelta(lock_before, lock_after);
    lm_waits += delta.waits;
    Tally phase_tally;
    for (const auto& w : workers) phase_tally.Merge(w->tally());
    if (tracing) {
      traced.Merge(phase_tally);
      traced_locks.AddDelta(lock_before, lock_after);
      traced_rows += TotalRows(system.database()) - rows_before;
    } else {
      untraced.Merge(phase_tally);
      untraced_window += window;
    }
    if (phases == 1) {
      for (const auto& w : workers) {
        latencies.insert(latencies.end(), w->new_order_latency().begin(),
                         w->new_order_latency().end());
        commit_at.insert(commit_at.end(), w->commit_at().begin(),
                         w->commit_at().end());
      }
    }
  }
  Tally all = untraced;
  all.Merge(traced);

  // --- Checks ---
  const double check_start = Now();
  const int64_t shift = options.selftest ? 1 : 0;
  Ledger ledger;
  uint64_t env_waits = 0;
  double little = 0;
  for (const auto& w : workers) {
    little += w->busy_share();
    const Ledger& l = w->ledger();
    ledger.new_orders += l.new_orders;
    ledger.order_lines += l.order_lines;
    ledger.quantity += l.quantity;
    ledger.payments += l.payments;
    ledger.payment_cents += l.payment_cents;
    env_waits += w->env_waits();
  }
  const TableSums after = ReadSums(system.db());
  auto expect = [&](const char* name, int64_t table_delta, int64_t ledger) {
    report.Check(name, table_delta == ledger + shift,
                 "tables " + std::to_string(table_delta) + " vs ledger " +
                     std::to_string(ledger + shift));
  };
  expect("ledger.orders", after.orders - before.orders, ledger.new_orders);
  expect("ledger.order_lines", after.order_lines - before.order_lines,
         ledger.order_lines);
  expect("ledger.s_ytd", after.s_ytd - before.s_ytd, ledger.quantity);
  expect("ledger.w_ytd_cents", after.w_ytd_cents - before.w_ytd_cents,
         ledger.payment_cents);
  expect("ledger.history", after.history - before.history, ledger.payments);
  report.Check("lock_waits.env_equals_lock_manager",
               env_waits + shift == lm_waits,
               "env " + std::to_string(env_waits + shift) +
                   " vs lock manager " + std::to_string(lm_waits));
  const double workers_expected = static_cast<double>(workers.size() + shift);
  report.Check("littles_law",
               std::fabs(little / workers_expected - 1) <= kLittleBound,
               "ops/s x mean latency " + std::to_string(little) +
                   " vs workers " + std::to_string(workers_expected));
  const tpcc::ConsistencyReport consistency = tpcc::CheckConsistency(
      system.db(), /*strict=*/all.compensations == 0);
  report.Check("consistency", consistency.ok,
               consistency.ok ? "" : consistency.violations[0]);
  setup_log.Add(kSpanCheck, 0, kNoParent, check_start, Now());

  const uint64_t attempted = all.committed + all.failed;
  report.Num("first_txn_mono", first_txn);
  report.Num("attempted", static_cast<double>(attempted));
  report.Num("failed", static_cast<double>(all.failed));
  report.Num("peak_rss_mb", PeakRssMb());
  if (!options.trace) {
    report.Num("commits_per_s", SlicedRate(commit_at, untraced_window));
    report.Num("p50_ms",
               1e3 * SlicedPercentile(latencies, untraced_window, 0.50));
    report.Num("p95_ms",
               1e3 * SlicedPercentile(latencies, untraced_window, 0.95));
    return;
  }

  // --- Per-layer metrics from the traced quarters ---
  SelfTimes self;
  for (const SpanLog& log : logs) self.Add(log);
  self.Add(setup_log);
  const double commits = std::max<double>(1.0, traced.committed);
  const std::string name(accdb::acc::ExecModeName(options.mode));
  const std::string b = "." + name;
  report.Layer("client.self_us_per_commit" + b,
               1e6 * self.self[kSpanOp] / commits);
  report.Layer("engine.self_us_per_commit" + b,
               1e6 * self.self[kSpanExecute] / commits);
  report.Layer("lock.wait_ms_per_commit" + b,
               1e3 * self.total[kSpanLockWait] / commits);
  report.Layer("model.sleep_ms_per_commit" + b,
               1e3 * self.total[kSpanModeled] / commits);
  report.Layer("lock.requests_per_commit" + b,
               traced_locks.requests / commits);
  report.Layer("lock.unconditional_grants_per_commit" + b,
               traced_locks.unconditional_grants / commits);
  report.Layer("lock.release_calls_per_commit" + b,
               traced_locks.release_calls / commits);
  report.Layer("lock.waits_per_commit" + b, traced_locks.waits / commits);
  report.Layer("lock.deadlocks_per_1k_commits" + b,
               1e3 * traced_locks.deadlocks / commits);
  report.Layer("engine.steps_per_commit" + b, traced.steps / commits);
  report.Layer("engine.restarts_per_commit" + b, traced.restarts / commits);
  report.Layer("client.retries_per_1k_commits" + b,
               1e3 * traced.retries / commits);
  report.Layer("storage.rows_added_per_commit" + b, traced_rows / commits);
  if (options.mode == ExecMode::kAccDecomposed) {
    report.Layer("engine.compensations_per_1k_commits.acc",
                 1e3 * traced.compensations / commits);
    report.Layer("recovery_log.records_per_commit.acc",
                 static_cast<double>(engine.recovery_log().size()) /
                     std::max<double>(1.0, all.committed));
  }
  if (options.mode == ExecMode::kMultiVersion) {
    report.Layer("mvcc.versions_held",
                 static_cast<double>(engine.version_store().entry_count()));
  }
  report.Layer("storage.load_s", self.total[kSpanLoad]);
  report.Layer("check_s", self.total[kSpanCheck]);
  const double mean_untraced =
      untraced.latency_sum /
      std::max<double>(1.0, untraced.committed + untraced.failed);
  const double mean_traced =
      traced.latency_sum /
      std::max<double>(1.0, traced.committed + traced.failed);
  report.Layer("trace.overhead_pct" + b,
               100.0 * (mean_traced / mean_untraced - 1));

  std::vector<const SpanLog*> all_logs = {&setup_log};
  for (const SpanLog& log : logs) all_logs.push_back(&log);
  const std::string path = options.out_dir + "/spans-" + name + ".csv";
  report.Check("trace.written", WriteSpans(path, all_logs), path);
}

}  // namespace perfbench
