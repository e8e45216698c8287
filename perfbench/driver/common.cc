#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const char* SpanNameText(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "op",   "execute", "lock_wait", "modeled_cost", "request",
      "queue", "service", "load",     "start",        "wal_open",
      "reload", "recover", "check"};
  return kNames[name];
}

void SelfTimes::Add(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) child[s.parent] += s.end - s.start;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end - s.start;
    total[s.name] += dur;
    self[s.name] += dur - child[i];
  }
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,op,name,start_s,end_s\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%lld,%llu,%s,%.9f,%.9f\n", t, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op), SpanNameText(s.name),
                   s.start, s.end);
    }
  }
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(p * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double SlicedRate(const std::vector<double>& event_at, double window) {
  const size_t seconds = std::max<size_t>(1, static_cast<size_t>(window));
  std::vector<double> counts(seconds, 0.0);
  for (double at : event_at) {
    const size_t i = static_cast<size_t>(std::max(0.0, at));
    if (i < seconds) counts[i] += 1;
  }
  return Percentile(counts, 0.5);
}

double SlicedPercentile(const std::vector<Sample>& samples, double window,
                        double p) {
  const size_t seconds = std::max<size_t>(1, static_cast<size_t>(window));
  std::vector<std::vector<double>> slices(seconds);
  for (const Sample& s : samples) {
    const size_t i = static_cast<size_t>(std::max(0.0, s.at));
    if (i < seconds) slices[i].push_back(s.latency);
  }
  std::vector<double> per_second;
  for (std::vector<double>& slice : slices) {
    if (!slice.empty()) per_second.push_back(Percentile(slice, p));
  }
  return Percentile(per_second, 0.5);
}

uint64_t TotalRows(const accdb::storage::Database& db) {
  uint64_t rows = 0;
  for (const accdb::storage::Table* table : db.AllTables()) {
    rows += table->size();
  }
  return rows;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

void LockDelta::AddDelta(const accdb::lock::LockManager::Stats& before,
                         const accdb::lock::LockManager::Stats& after) {
  requests += after.requests - before.requests;
  unconditional_grants +=
      after.unconditional_grants - before.unconditional_grants;
  release_calls += after.release_calls - before.release_calls;
  waits += after.waits - before.waits;
  deadlocks += after.deadlocks - before.deadlocks;
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (ok) {
    passed_.push_back(name);
  } else {
    correct_ = false;
    failures_.emplace_back(name, detail);
  }
}

namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintNumbers(const std::vector<std::pair<std::string, double>>& items) {
  std::printf("{");
  for (size_t i = 0; i < items.size(); ++i) {
    const double v = std::isfinite(items[i].second) ? items[i].second : 0.0;
    std::printf("%s%s: %.17g", i ? ", " : "", Quote(items[i].first).c_str(), v);
  }
  std::printf("}");
}

}  // namespace

void Report::Print() const {
  std::printf("{\"correct\": %s, \"values\": ", correct_ ? "true" : "false");
  PrintNumbers(nums_);
  std::printf(", \"layers\": ");
  PrintNumbers(layers_);
  std::printf(", \"passed\": [");
  for (size_t i = 0; i < passed_.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", Quote(passed_[i]).c_str());
  }
  std::printf("], \"failed\": {");
  for (size_t i = 0; i < failures_.size(); ++i) {
    std::printf("%s%s: %s", i ? ", " : "", Quote(failures_[i].first).c_str(),
                Quote(failures_[i].second).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
