#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result.

    python3 fdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark first if needed (build.py), then runs
the workload in one JVM with the settings pinned in build.py. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# A run ends within this many seconds of the JVM starting, or is killed.
JVM_LIMIT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    try:
        build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"fdbench: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build.HERE, ".work", str(os.getpid()))
    archive = "-XX:SharedArchiveFile=" + build.ARCHIVE if os.path.exists(build.ARCHIVE) else "-Xshare:auto"
    cmd = build.jvm(work, archive) + [
        "repro.fdbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--work", work]
    t0 = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=JVM_LIMIT_S,
                              env=build.jvm_env(work))
    except subprocess.TimeoutExpired:
        print(f"fdbench: run killed after {JVM_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"fdbench: the run exited with code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("fdbench: the run printed no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"[fdbench] {a.workload} seed {a.seed}: {time.time() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
