// perfbench_driver: runs one backend of one benchmark workload in this
// process and prints its measurements as one JSON line. perfbench/run.py
// starts one such process per backend and combines their lines.
//
//   perfbench_driver --workload=tpcc_hotspot|server_durable
//                    --backend=acc|2pl|occ|mvcc --seed=N --seconds=S
//                    --trace=0|1 --out-dir=DIR [--selftest]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver "
               "--workload=tpcc_hotspot|server_durable "
               "--backend=acc|2pl|occ|mvcc --seed=N --seconds=S --trace=0|1 "
               "--out-dir=DIR [--selftest]\n",
               message);
  std::exit(2);
}

bool Value(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false, have_backend = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Value(argv[i], "--workload", &v)) {
      have_workload = true;
      if (v == "tpcc_hotspot") {
        options.workload = perfbench::Workload::kHotspot;
      } else if (v == "server_durable") {
        options.workload = perfbench::Workload::kServerDurable;
      } else {
        Usage("unknown workload");
      }
    } else if (Value(argv[i], "--backend", &v)) {
      auto mode = accdb::acc::ParseExecMode(v);
      if (!mode) Usage("unknown backend");
      options.mode = *mode;
      have_backend = true;
    } else if (Value(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Value(argv[i], "--seconds", &v)) {
      options.seconds = std::atof(v.c_str());
    } else if (Value(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (Value(argv[i], "--out-dir", &v)) {
      options.out_dir = v;
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      options.selftest = true;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload || !have_backend || options.seconds <= 0 ||
      options.out_dir.empty()) {
    Usage("missing or bad flag");
  }

  perfbench::Report report;
  if (options.workload == perfbench::Workload::kServerDurable) {
    perfbench::RunServerDurable(options, report);
  } else {
    perfbench::RunClosedLoop(options, report);
  }
  report.Print();
  return 0;
}
