// Shared pieces of the benchmark driver: options, the span recorder, exact
// percentiles, and the one-line JSON report a backend process prints.

#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "acc/engine.h"
#include "lock/lock_manager.h"
#include "storage/database.h"

namespace perfbench {

enum class Workload { kHotspot, kServerDurable };

struct Options {
  Workload workload = Workload::kHotspot;
  accdb::acc::ExecMode mode = accdb::acc::ExecMode::kAccDecomposed;
  uint64_t seed = 1;
  double seconds = 5;      // Measured window of this backend process.
  bool trace = false;      // Alternate untraced and traced phases.
  bool selftest = false;   // Shift every ledger and accounting check by one.
  std::string out_dir;     // Span dumps and the WAL go here.
};

// Steady-clock seconds: the same CLOCK_MONOTONIC Python's time.monotonic()
// reads, so the parent process can time set-up from the child's spawn.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Spans -----------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanOp,          // One operation: all attempts until commit or give-up.
  kSpanExecute,     // One acc::Engine::Execute call.
  kSpanLockWait,    // One blocking lock wait inside Execute.
  kSpanModeled,     // One modeled-cost sleep (UseServer / ClientDelay).
  kSpanRequest,     // One open-loop request: intended send to response.
  kSpanQueue,       // Server-reported admission-queue time of one attempt.
  kSpanService,     // Server-reported execution time of one attempt.
  kSpanLoad,        // Database build and load (the system's constructor).
  kSpanStart,       // AccdbServer::Start.
  kSpanWalOpen,     // acc::Wal::Open of the run's log (scan and verify).
  kSpanReload,      // Constructing the server that recovers.
  kSpanRecover,     // AccdbServer::RecoverFromWal.
  kSpanCheck,       // Ledger and consistency checks.
  kNumSpanNames,
};

const char* SpanNameText(SpanName name);

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  double start = 0;
  double end = 0;
  uint64_t op = 0;
  uint32_t parent = kNoParent;  // Index in the same SpanLog.
  SpanName name = kSpanOp;
};

// One thread's spans, kept in memory until the run ends. Children of a span
// never overlap each other, so a span's self time is its duration minus the
// sum of its children's.
class SpanLog {
 public:
  uint32_t Open(SpanName name, uint64_t op, uint32_t parent, double start) {
    spans_.push_back(Span{start, start, op, parent, name});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t index, double end) { spans_[index].end = end; }
  uint32_t Add(SpanName name, uint64_t op, uint32_t parent, double start,
               double end) {
    spans_.push_back(Span{start, end, op, parent, name});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Self and total seconds per span name, summed over the logs added.
struct SelfTimes {
  double self[kNumSpanNames] = {};
  double total[kNumSpanNames] = {};
  void Add(const SpanLog& log);
};

// Writes every span of `logs` to `path` as CSV
// (thread,index,parent,op,name,start_s,end_s); returns false on I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

// --- Statistics --------------------------------------------------------------

// Nearest-rank percentile of exact samples (sorts `samples`); 0 if empty.
double Percentile(std::vector<double>& samples, double p);

// Median over the window's whole seconds of the events (times from the
// window's start) completing in each second.
double SlicedRate(const std::vector<double>& event_at, double window);

// A latency stamped with its completion time from the window's start.
struct Sample {
  double at = 0;
  double latency = 0;
};

// Percentile `p` of the samples completing within each whole second of the
// window, median over those seconds: a stall of the shared machine moves
// one second's figure, not the run's.
double SlicedPercentile(const std::vector<Sample>& samples, double window,
                        double p);

// Sum of the rows of every table.
uint64_t TotalRows(const accdb::storage::Database& db);

// Peak resident set of this process, in MB.
double PeakRssMb();

// Counters an operation mix leaves in the lock manager.
struct LockDelta {
  uint64_t requests = 0, unconditional_grants = 0, release_calls = 0,
           waits = 0, deadlocks = 0;
  void AddDelta(const accdb::lock::LockManager::Stats& before,
                const accdb::lock::LockManager::Stats& after);
};

// --- Report -----------------------------------------------------------------

// Flat JSON object printed as the last line of the driver's stdout.
class Report {
 public:
  void Num(const std::string& key, double value) {
    nums_.emplace_back(key, value);
  }
  void Layer(const std::string& key, double value) {
    layers_.emplace_back(key, value);
  }
  // A named self-check; a failed one makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Print() const;

 private:
  std::vector<std::pair<std::string, double>> nums_;
  std::vector<std::pair<std::string, double>> layers_;
  std::vector<std::pair<std::string, std::string>> failures_;
  std::vector<std::string> passed_;
  bool correct_ = true;
};

// Entry points of the two load shapes; each fills `report`.
void RunClosedLoop(const Options& options, Report& report);
void RunServerDurable(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
