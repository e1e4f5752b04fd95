#!/usr/bin/env python3
"""Self-test of the Marion benchmark.

Runs every workload of BENCHMARK.json at a smoke-test size (--tiny), once
untraced and once traced, and checks that the result line has exactly the
contract's keys, reports no failure, and names every end-to-end (untraced)
or per-layer (traced) metric of BENCHMARK.json with its unit. Then checks
that the benchmark refuses, without printing a result, to run in a
directory that holds only BENCHMARK.json and perfbench/.

    python3 perfbench/selftest.py          (from the repository root)

The first run builds the benchmark. Exit status 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}: {p.stderr[-2000:]}"]
    try:
        record = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [f"{where}: last line is not a JSON record"]
    errors = []
    if set(record) != RESULT_KEYS:
        errors.append(f"{where}: keys {sorted(record)}")
    if record.get("correct") is not True or record.get("failed") != 0 \
            or record.get("attempted", 0) < 1:
        errors.append(f"{where}: not correct: {p.stderr[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = record.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if not got or got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: metric {m['name']} missing or wrong unit")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"{where}: unexpected metrics {sorted(extra)}")
    return errors


def check_bare_directory(spec):
    """Without the repository's sources the benchmark must fail cleanly."""
    bare = os.path.join(".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                       timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        return ["bare directory: expected a failing exit and no result"]
    return []


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, w["name"], trace)
            print(f"selftest: {w['name']} --trace {trace} done", flush=True)
    errors += check_bare_directory(spec)
    for e in errors:
        print("selftest: FAIL", e)
    print("selftest:", "FAILED" if errors else "OK")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
