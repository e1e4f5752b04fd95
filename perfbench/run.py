#!/usr/bin/env python3
"""Entry point of the Marion benchmark.

Builds the benchmark package (perfbench/CMakeLists.txt: the repository's
libraries, mariond and the marion-perfbench harness) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints the harness's output. The last line of standard output
is the result record {"correct", "attempted", "failed", "metrics"}.

Run it from the repository root, for example

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 25 \\
        --trace 0

BENCHMARK.json holds the full command, including daemon_mixed's two fixed
rates. Exit status: 0 with a result record,
1 when the build or the run failed, 2 when the repository's sources are
missing (no result is printed in either failure case).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("batch_cold", "daemon_mixed", "sched_corpus")
# What the benchmark builds and reads from the repository.
REQUIRED = (
    "src/CMakeLists.txt",
    "examples/mariond.cpp",
    "machines",
    "workloads/dags",
    "BENCH_schedule_quality.json",
)
RUN_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures once, then builds (a no-op when up to date)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail(1, "configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail(1, "build failed")


def stop_leftovers(pgid):
    """Stops whatever the harness left running in its own process group
    (only a mariond after a timeout) and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--mid-rps", default="0")
    ap.add_argument("--high-rps", default="0")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size (perfbench/selftest.py)")
    args = ap.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        fail(2, "run from the repository root; missing " + ", ".join(missing))

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    build(root, build_dir)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    # Relative paths keep the daemon's socket path short.
    cmd = [os.path.join(build_dir, "marion-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo-root", ".", "--out-dir", OUT_DIR,
           "--mariond", os.path.join(build_dir, "mariond")]
    if args.workload == "daemon_mixed":
        cmd += ["--mid-rps", args.mid_rps, "--high-rps", args.high_rps]
    if args.tiny:
        cmd.append("--tiny")

    # A session of its own, so the harness and the mariond it spawns can be
    # stopped together if the run overruns.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_leftovers(proc.pid)
        proc.communicate()
        fail(1, f"run exceeded {RUN_TIMEOUT_S} s")
    stop_leftovers(proc.pid)

    lines = out.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
        ok = set(record) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(out)
        fail(1, f"harness exited {proc.returncode} without a result")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
