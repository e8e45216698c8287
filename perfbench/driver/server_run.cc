// The whole serving path (workload server_durable): an in-process
// server::AccdbServer with a WAL and group commit, driven over loopback TCP
// by a closed-loop client that speaks the net frame codec itself, one
// request in flight per connection. After a graceful drain a fresh server
// recovers from the WAL the run left, and the acknowledged work must be
// found again in the recovered tables.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "acc/wal.h"
#include "common.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "server/server.h"
#include "tpcc/consistency.h"

namespace perfbench {

namespace {

namespace net = accdb::net;
namespace tpcc = accdb::tpcc;
using accdb::acc::ExecMode;

constexpr int kConnections = 4;
constexpr int kServerWorkers = 4;
constexpr int kWarehouses = 4;
constexpr double kCostScale = 0.05;
// Group-commit window of the WAL flusher, microseconds.
constexpr uint32_t kGroupCommitUs = 100;
constexpr int kMaxAttempts = 64;
// Wait for responses after the window ends before the run is declared
// failed.
constexpr double kDrainSeconds = 30;

struct Pending {
  double sent = 0;  // Send time of the first attempt.
  tpcc::TxnType type = tpcc::TxnType::kNewOrder;
  int conn = 0;
  uint32_t attempts = 0;
  bool traced = false;
  uint32_t span = kNoParent;  // The request span while traced.
};

struct Connection {
  net::ScopedFd fd;
  net::FrameDecoder decoder;
  std::string tx;
  size_t tx_off = 0;
  bool busy = false;  // A request is in flight.
  bool dead = false;
};

// What the client saw over the run.
struct ClientResult {
  uint64_t sent = 0;  // Frames sent, retries included.
  uint64_t committed = 0, failed = 0, retries = 0, restarts = 0,
           compensations = 0;
  uint64_t acked_new_orders = 0, acked_payments = 0;
  double first_send = 0;
  double window = 0;
  std::vector<Sample> new_order_latency;
  std::vector<double> commit_at;  // Commit times from the first send.
  // Latency of committed operations, split by traced quarter.
  double latency_sum[2] = {};
  uint64_t ops[2] = {};
  std::string error;
};

class OpenLoopClient {
 public:
  OpenLoopClient(uint16_t port, const Options& options,
                 const tpcc::InputGenConfig& mix, SpanLog* log)
      : port_(port),
        options_(options),
        types_(mix, options.seed ^ 0x6f70656e6c6f6f70ULL),
        log_(log) {}

  ClientResult Run() {
    for (int c = 0; c < kConnections; ++c) {
      auto fd = net::ConnectLoopback(port_);
      if (!fd.ok() || !net::SetNonBlocking(fd->get()).ok()) {
        result_.error = "connect failed";
        return result_;
      }
      conns_.emplace_back();
      conns_.back().fd = std::move(*fd);
    }
    const double start = Now();
    start_ = start;
    result_.first_send = start;
    const double end = start + options_.seconds;
    const int quarters = options_.trace ? 4 : 1;
    uint64_t outstanding = 0;
    for (;;) {
      const double now = Now();
      // Closed loop: each connection sends its next request as soon as the
      // previous one has finished, until the window ends.
      for (int c = 0; c < kConnections && now < end; ++c) {
        if (conns_[c].busy || conns_[c].dead) continue;
        Pending p;
        p.sent = now;
        p.type = types_.NextType();
        p.conn = c;
        const int quarter =
            static_cast<int>((now - start) * quarters / options_.seconds);
        p.traced = options_.trace && quarter % 2 == 1;
        if (p.traced) {
          p.span = log_->Open(kSpanRequest, pending_.size() + 1, kNoParent,
                              now);
        }
        pending_.push_back(p);
        conns_[c].busy = true;
        Send(pending_.size());
        ++outstanding;
      }
      for (Connection& c : conns_) Flush(c);
      if (now >= end && outstanding == 0) break;
      if (now > end + kDrainSeconds) {
        result_.error = std::to_string(outstanding) + " requests unanswered";
        break;
      }
      const double until = now < end ? end : end + kDrainSeconds;
      const double wait = std::max(0.0, until - now);
      struct pollfd fds[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        fds[c].fd = conns_[c].dead ? -1 : conns_[c].fd.get();
        fds[c].events = static_cast<short>(
            POLLIN | (conns_[c].tx_off < conns_[c].tx.size() ? POLLOUT : 0));
        fds[c].revents = 0;
      }
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec = static_cast<long>((wait - ts.tv_sec) * 1e9);
      if (ppoll(fds, kConnections, &ts, nullptr) < 0 && errno != EINTR) {
        result_.error = "ppoll failed";
        break;
      }
      for (int c = 0; c < kConnections; ++c) {
        if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
          outstanding -= Receive(c);
        }
      }
      if (!result_.error.empty()) break;
    }
    result_.window = options_.seconds;
    return result_;
  }

 private:
  void Send(uint64_t id) {
    const Pending& p = pending_[id - 1];
    net::ExecRequest req;
    req.request_id = id;
    req.txn_type = static_cast<uint8_t>(p.type);
    req.attempt = p.attempts;
    conns_[p.conn].tx += net::EncodeFrame(net::Message(req));
    ++result_.sent;
  }

  void Flush(Connection& c) {
    while (!c.dead && c.tx_off < c.tx.size()) {
      size_t n = 0;
      const net::IoResult r = net::WriteSome(c.fd.get(), c.tx.data() + c.tx_off,
                                             c.tx.size() - c.tx_off, &n);
      if (r == net::IoResult::kWouldBlock) return;
      if (r != net::IoResult::kOk) {
        c.dead = true;
        result_.error = "write failed";
        return;
      }
      c.tx_off += n;
    }
    c.tx.clear();
    c.tx_off = 0;
  }

  // Reads what connection `c` has; returns operations finished.
  uint64_t Receive(int c) {
    Connection& conn = conns_[c];
    char buf[64 * 1024];
    for (;;) {
      size_t n = 0;
      const net::IoResult r = net::ReadSome(conn.fd.get(), buf, sizeof buf, &n);
      if (r == net::IoResult::kWouldBlock) break;
      if (r != net::IoResult::kOk) {
        conn.dead = true;
        result_.error = "connection lost";
        return 0;
      }
      conn.decoder.Append(std::string_view(buf, n));
    }
    uint64_t finished = 0;
    net::Message msg;
    for (;;) {
      const net::DecodeResult d = conn.decoder.Next(&msg);
      if (d == net::DecodeResult::kNeedMore) break;
      const auto* resp = std::get_if<net::ExecResponse>(&msg);
      if (d == net::DecodeResult::kError || resp == nullptr ||
          resp->request_id == 0 || resp->request_id > pending_.size()) {
        result_.error = "bad response frame";
        return finished;
      }
      finished += Handle(*resp);
    }
    Flush(conn);
    return finished;
  }

  uint64_t Handle(const net::ExecResponse& resp) {
    Pending& p = pending_[resp.request_id - 1];
    const double now = Now();
    if (p.traced) {
      // The server reports durations only; its queue and service are laid
      // out back to back, ending when the response arrived.
      const double service_start = now - resp.server_seconds;
      log_->Add(kSpanService, resp.request_id, p.span, service_start, now);
      log_->Add(kSpanQueue, resp.request_id, p.span,
                service_start - resp.queue_seconds, service_start);
    }
    result_.restarts += resp.txn_restarts;
    if (resp.compensated) ++result_.compensations;
    ++p.attempts;
    if (resp.status != net::WireStatus::kOk) {
      if (p.attempts < kMaxAttempts) {
        ++result_.retries;
        Send(resp.request_id);
        return 0;
      }
      ++result_.failed;
      conns_[p.conn].busy = false;
      if (p.traced) log_->Close(p.span, now);
      return 1;
    }
    ++result_.committed;
    conns_[p.conn].busy = false;
    result_.commit_at.push_back(now - start_);
    if (p.type == tpcc::TxnType::kNewOrder) ++result_.acked_new_orders;
    if (p.type == tpcc::TxnType::kPayment) ++result_.acked_payments;
    const double latency = now - p.sent;
    if (p.type == tpcc::TxnType::kNewOrder) {
      result_.new_order_latency.push_back(Sample{now - start_, latency});
    }
    const int t = p.traced ? 1 : 0;
    result_.latency_sum[t] += latency;
    ++result_.ops[t];
    if (p.traced) log_->Close(p.span, now);
    return 1;
  }

  const uint16_t port_;
  const Options& options_;
  tpcc::InputGenerator types_;
  SpanLog* log_;
  std::vector<Connection> conns_;
  std::vector<Pending> pending_;
  ClientResult result_;
  double start_ = 0;
};

}  // namespace

void RunServerDurable(const Options& options, Report& report) {
  const std::string b = std::string(accdb::acc::ExecModeName(options.mode));
  const std::string wal_path = options.out_dir + "/wal-" + b + ".log";
  ::unlink(wal_path.c_str());

  accdb::server::ServerOptions server_options;
  tpcc::WorkloadConfig& config = server_options.workload;
  config.mode = options.mode;
  config.seed = options.seed;
  config.inputs.scale = tpcc::ScaleConfig::Experiment();
  config.inputs.scale.warehouses = kWarehouses;
  server_options.workers = kServerWorkers;
  server_options.loop_shards = 1;
  server_options.max_queue = 1 << 16;  // No admission rejects below capacity.
  // Statement costs slept at 5%, as on tpcc_hotspot: with the engine's CPU
  // alone the loop's throughput moved 30% with the load of the shared host.
  server_options.cost_scale = kCostScale;
  server_options.wal_path = wal_path;
  server_options.group_commit_us = kGroupCommitUs;

  SpanLog setup_log;
  SpanLog request_log;
  double t0 = Now();
  auto server = std::make_unique<accdb::server::AccdbServer>(server_options);
  setup_log.Add(kSpanLoad, 0, kNoParent, t0, Now());
  t0 = Now();
  const accdb::Status started = server->Start();
  setup_log.Add(kSpanStart, 0, kNoParent, t0, Now());
  report.Check("server.start", started.ok(), started.ToString());
  if (!started.ok()) return;

  const tpcc::TpccDb& db = server->system().db();
  const int64_t orders0 = static_cast<int64_t>(db.orders->size());
  const int64_t history0 = static_cast<int64_t>(db.history->size());
  const uint64_t rows0 = TotalRows(server->system().database());
  const auto lock0 = server->engine().lock_manager().StatsSnapshot();

  OpenLoopClient client(server->port(), options, config.inputs, &request_log);
  const ClientResult r = client.Run();
  report.Check("client.completed", r.error.empty(), r.error);

  // Every response is in, so the server is quiescent: read the tables
  // before shutting down.
  const int64_t shift = options.selftest ? 1 : 0;
  const double check_start = Now();
  const int64_t orders_added =
      static_cast<int64_t>(db.orders->size()) - orders0;
  const int64_t history_added =
      static_cast<int64_t>(db.history->size()) - history0;
  const uint64_t rows_added = TotalRows(server->system().database()) - rows0;
  LockDelta locks;
  locks.AddDelta(lock0, server->engine().lock_manager().StatsSnapshot());
  auto expect = [&](const char* name, int64_t actual, int64_t expected) {
    report.Check(name, actual == expected + shift,
                 std::to_string(actual) + " vs " +
                     std::to_string(expected + shift));
  };
  expect("ledger.orders", orders_added,
         static_cast<int64_t>(r.acked_new_orders));
  expect("ledger.history", history_added,
         static_cast<int64_t>(r.acked_payments));
  setup_log.Add(kSpanCheck, 0, kNoParent, check_start, Now());

  server->Shutdown();
  const accdb::server::ServerStats stats = server->StatsSnapshot();
  expect("server.received_equals_sent",
         static_cast<int64_t>(stats.requests_received),
         static_cast<int64_t>(r.sent));
  expect("server.committed_equals_acked",
         static_cast<int64_t>(stats.committed),
         static_cast<int64_t>(r.committed));
  const accdb::acc::Wal::Stats wal = server->engine().wal()->StatsSnapshot();
  const bool strict = stats.compensated == 0;
  t0 = Now();
  const tpcc::ConsistencyReport consistency =
      tpcc::CheckConsistency(server->system().db(), strict);
  setup_log.Add(kSpanCheck, 0, kNoParent, t0, Now());
  report.Check("consistency", consistency.ok,
               consistency.ok ? "" : consistency.violations[0]);
  const double recovery_log_records =
      static_cast<double>(server->engine().recovery_log().size());
  const double versions_held =
      static_cast<double>(server->engine().version_store().entry_count());
  server.reset();

  // The WAL alone, as a restarted process finds it.
  t0 = Now();
  {
    accdb::Status wal_status;
    accdb::acc::Wal::Options wal_options;
    wal_options.path = wal_path;
    auto scan = accdb::acc::Wal::Open(wal_options, &wal_status);
    report.Check("wal.reopen", scan != nullptr, wal_status.ToString());
  }
  setup_log.Add(kSpanWalOpen, 0, kNoParent, t0, Now());
  t0 = Now();
  auto recovered = std::make_unique<accdb::server::AccdbServer>(server_options);
  setup_log.Add(kSpanReload, 0, kNoParent, t0, Now());
  t0 = Now();
  const accdb::Status recovery = recovered->RecoverFromWal();
  const double recover_end = Now();
  setup_log.Add(kSpanRecover, 0, kNoParent, t0, recover_end);
  report.Check("recovery.clean", recovery.ok(), recovery.ToString());
  const tpcc::TpccDb& rdb = recovered->system().db();
  expect("recovered.orders", static_cast<int64_t>(rdb.orders->size()) - orders0,
         static_cast<int64_t>(r.acked_new_orders));
  expect("recovered.history",
         static_cast<int64_t>(rdb.history->size()) - history0,
         static_cast<int64_t>(r.acked_payments));
  t0 = Now();
  const tpcc::ConsistencyReport recovered_consistency =
      tpcc::CheckConsistency(rdb, strict);
  setup_log.Add(kSpanCheck, 0, kNoParent, t0, Now());
  report.Check("recovered.consistency", recovered_consistency.ok,
               recovered_consistency.ok ? ""
                                        : recovered_consistency.violations[0]);
  const double records_replayed =
      static_cast<double>(recovered->engine().wal()->recovered().size());
  recovered.reset();
  ::unlink(wal_path.c_str());

  report.Num("first_txn_mono", r.first_send);
  report.Num("attempted", static_cast<double>(r.committed + r.failed));
  report.Num("failed", static_cast<double>(r.failed));
  report.Num("peak_rss_mb", PeakRssMb());
  if (!options.trace) {
    report.Num("commits_per_s", SlicedRate(r.commit_at, r.window));
    report.Num("p50_ms",
               1e3 * SlicedPercentile(r.new_order_latency, r.window, 0.50));
    report.Num("p95_ms",
               1e3 * SlicedPercentile(r.new_order_latency, r.window, 0.95));
    return;
  }

  SelfTimes self;
  self.Add(setup_log);
  self.Add(request_log);
  const double commits = std::max<double>(1.0, r.committed);
  const double traced_ops = std::max<double>(1.0, r.ops[1]);
  const std::string s = "." + b;
  report.Layer("server.queue_ms" + s,
               1e3 * self.total[kSpanQueue] / traced_ops);
  report.Layer("server.service_ms" + s,
               1e3 * self.total[kSpanService] / traced_ops);
  // The request span's self time: client latency minus what the server
  // reports, i.e. socket, decode and flush.
  report.Layer("net.residual_ms" + s,
               1e3 * self.self[kSpanRequest] / traced_ops);
  report.Layer("lock.requests_per_commit" + s, locks.requests / commits);
  report.Layer("lock.unconditional_grants_per_commit" + s,
               locks.unconditional_grants / commits);
  report.Layer("lock.release_calls_per_commit" + s,
               locks.release_calls / commits);
  report.Layer("lock.waits_per_commit" + s, locks.waits / commits);
  report.Layer("lock.deadlocks_per_1k_commits" + s,
               1e3 * locks.deadlocks / commits);
  report.Layer("engine.restarts_per_commit" + s, r.restarts / commits);
  report.Layer("client.retries_per_1k_commits" + s, 1e3 * r.retries / commits);
  report.Layer("storage.rows_added_per_commit" + s, rows_added / commits);
  report.Layer("wal.bytes_per_commit" + s, wal.bytes_written / commits);
  report.Layer("wal.fsyncs_per_commit" + s, wal.fsyncs / commits);
  report.Layer("wal.forced_waits_per_commit" + s, wal.forced_waits / commits);
  report.Layer("recovery.records_replayed" + s, records_replayed);
  if (options.mode == ExecMode::kAccDecomposed) {
    report.Layer("engine.compensations_per_1k_commits.acc",
                 1e3 * r.compensations / commits);
    report.Layer("recovery_log.records_per_commit.acc",
                 recovery_log_records / commits);
  }
  if (options.mode == ExecMode::kMultiVersion) {
    report.Layer("mvcc.versions_held", versions_held);
  }
  report.Layer("storage.load_s", self.total[kSpanLoad]);
  report.Layer("server.start_s", self.total[kSpanStart]);
  report.Layer("recovery.wal_open_s", self.total[kSpanWalOpen]);
  report.Layer("recovery.reload_s", self.total[kSpanReload]);
  report.Layer("recovery.replay_s", self.total[kSpanRecover]);
  report.Layer("check_s", self.total[kSpanCheck]);
  const double mean_untraced =
      r.latency_sum[0] / std::max<double>(1.0, r.ops[0]);
  const double mean_traced = r.latency_sum[1] / traced_ops;
  report.Layer("trace.overhead_pct" + s,
               100.0 * (mean_traced / mean_untraced - 1));

  const std::string path = options.out_dir + "/spans-" + b + ".csv";
  report.Check("trace.written", WriteSpans(path, {&setup_log, &request_log}),
               path);
}

}  // namespace perfbench
