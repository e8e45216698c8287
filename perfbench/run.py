#!/usr/bin/env python3
"""The repository's benchmark: builds the driver, runs one workload, prints
every metric by name with its unit, and checks the program's outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--selftest]

Each backend of the workload runs in a process of its own (one backend's
memory must not hide another's); --seconds is shared equally among them.
With --trace 0 the end-to-end metrics of BENCHMARK.json are reported, with
--trace 1 the per-layer ones. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --selftest shifts every
ledger and accounting check by one and requires each of them to fail.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BACKENDS = ["acc", "2pl", "occ", "mvcc"]
WORKLOADS = {
    "tpcc_hotspot": BACKENDS,
    "server_durable": BACKENDS,
}
# Set-up spans that add up over a workload's backend processes.
SUMMED_LAYERS = {
    "storage.load_s", "check_s", "server.start_s", "recovery.wal_open_s",
    "recovery.reload_s", "recovery.replay_s",
}
# Checks the self-test perturbs, per workload; each must then fail.
PERTURBED = {
    "closed": ["ledger.orders", "ledger.order_lines", "ledger.s_ytd",
               "ledger.w_ytd_cents", "ledger.history",
               "lock_waits.env_equals_lock_manager", "littles_law"],
    "server": ["ledger.orders", "ledger.history", "server.received_equals_sent",
               "server.committed_equals_acked", "recovered.orders",
               "recovered.history"],
}
CHILD_TIMEOUT_S = 40


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the driver from the program's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no program sources under src/ in " + ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    driver = os.path.join(out, "perfbench_driver")
    if not os.path.isfile(driver):
        raise RuntimeError("build produced no driver")
    return driver


def run_backend(driver, args, backend, seconds, out_dir):
    cmd = [driver, "--workload=" + args.workload, "--backend=" + backend,
           "--seed=%d" % args.seed, "--seconds=%r" % seconds,
           "--trace=%d" % args.trace, "--out-dir=" + out_dir]
    if args.selftest:
        cmd.append("--selftest")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("%s: driver timed out" % backend)
    if proc.returncode != 0:
        raise RuntimeError("%s: driver exited %d" % (backend, proc.returncode))
    result = json.loads(stdout.strip().splitlines()[-1])
    # Set-up runs from the process's spawn to its first transaction.
    result["values"]["setup_s"] = result["values"]["first_txn_mono"] - spawned
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    driver = build()
    # Write back what the build and earlier runs left dirty, so that it does
    # not stall this run's log forces on server_durable.
    os.sync()
    out_dir = os.path.join(build_dir(), "out",
                           "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                  args.trace))
    os.makedirs(out_dir, exist_ok=True)

    backends = WORKLOADS[args.workload]
    per_backend = args.seconds / len(backends)
    results = {b: run_backend(driver, args, b, per_backend, out_dir)
               for b in backends}

    correct = all(r["correct"] for r in results.values())
    for b, r in results.items():
        for name, detail in r["failed"].items():
            log("check failed: %s %s: %s" % (b, name, detail))
    values = {}
    if args.trace == 0:
        values["setup_s"] = sum(r["values"]["setup_s"] for r in results.values())
        values["peak_rss_mb"] = sum(r["values"]["peak_rss_mb"]
                                    for r in results.values())
        for b, r in results.items():
            values["commits_per_s." + b] = r["values"]["commits_per_s"]
            values["new_order_p50_ms." + b] = r["values"]["p50_ms"]
            values["new_order_p95_ms." + b] = r["values"]["p95_ms"]
        wanted = spec["end_to_end"]
    else:
        for r in results.values():
            for key, value in r["layers"].items():
                if key in SUMMED_LAYERS:
                    values[key] = values.get(key, 0.0) + value
                else:
                    values[key] = value
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        # A layer this workload does not pass through reads 0 (README.md).
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}
        log("%-44s %14.6g %s" % (m["name"], metrics[m["name"]]["value"],
                                 m["unit"]))

    missed = []
    if args.selftest:
        kind = "server" if args.workload == "server_durable" else "closed"
        missed = [(b, name) for b, r in results.items()
                  for name in PERTURBED[kind] if name not in r["failed"]]
        for b, name in missed:
            log("selftest: %s %s did not fail on perturbed data" % (b, name))
        log("selftest: %s" % ("every perturbed check failed" if not missed
                              else "FAILED"))

    print(json.dumps({
        "correct": correct,
        "attempted": int(sum(r["values"]["attempted"] for r in results.values())),
        "failed": int(sum(r["values"]["failed"] for r in results.values())),
        "metrics": metrics,
    }))
    if missed:
        sys.exit(1)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        sys.exit(1)
