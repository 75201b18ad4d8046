#!/usr/bin/env python3
"""Runs a set of benchmark runs and appends one JSON line per run to a file.

    python3 fdbench/series.py --out runs.jsonl [--workloads a,b] [--seeds 1-10]
                              [--seconds 10] [--trace 0]

Workloads default to every workload of BENCHMARK.json and the run length to
its run_seconds. Each line holds the workload, seed, trace flag and the run's
result object; a run that fails is recorded with "result": null.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()
    for w in a.workloads.split(","):
        for s in seeds(a.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(s),
                   "--seconds", str(a.seconds), "--trace", a.trace]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": s, "trace": a.trace, "result": result}) + "\n")
            print(f"{w} seed {s}: " + ("ok" if result else f"exit {proc.returncode}"), file=sys.stderr)


if __name__ == "__main__":
    main()
