#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the spread of one.

    python3 fdbench/compare.py BASE.jsonl [NEW.jsonl]

The files are written by series.py. For each workload and end-to-end metric
it prints each side's median and quartiles (Python's statistics.quantiles,
n=4) and the spread, (q3 - q1) / median. With one file, a metric is steady
when its spread is within a third of its bound in BENCHMARK.json (setup_s
is exempt from the spread rule). With two, they agree when NEW's median is
not worse than BASE's by more than the bound, each spread is within the
bound, and the share of failed operations is the same. Exits 1 if anything
disagrees.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    for line in open(path):
        r = json.loads(line)
        if r["trace"] == "0":
            runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def failed_share(results):
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = bench["end_to_end"]
    sides = [load(p) for p in argv[1:]]
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        results = [s.get(w, []) for s in sides]
        if any(len(rs) < 4 or None in rs for rs in results):
            print(f"{w}: missing or failed runs")
            ok = False
            continue
        print(f"{w} ({' vs '.join(str(len(rs)) + ' runs' for rs in results)})")
        for rs in results:
            if not all(r["correct"] for r in rs):
                print("  a run reported incorrect output")
                ok = False
        shares = [failed_share(rs) for rs in results]
        if len(shares) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print(f"  failed share differs: {shares[0][0]}/{shares[0][1]} vs {shares[1][0]}/{shares[1][1]}")
            ok = False
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            sums = [summary([r["metrics"][name]["value"] for r in rs]) for rs in results]
            cells = "  ".join(f"{med:12.5g} [{q1:.5g}, {q3:.5g}] spread {sp:6.2%}" for med, q1, q3, sp in sums)
            notes = []
            limit = bound if len(sums) == 2 else bound / 3
            if name != "setup_s" and any(sp > limit for *_, sp in sums):
                notes.append(f"spread above {limit:.2%}")
            if len(sums) == 2:
                worse = (sums[1][0] - sums[0][0]) / sums[0][0] * (1 if lower else -1)
                notes.append(f"change {worse:+.2%} (worse if positive)")
                if worse > bound:
                    notes.append(f"worse by more than {bound:.0%}")
            bad = any(n.startswith(("spread", "worse by")) for n in notes)
            ok &= not bad
            print(f"  {name:16s} {cells}  {'FAIL ' if bad else ''}{'; '.join(notes)}")
    print("agree" if ok else "disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
