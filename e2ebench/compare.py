#!/usr/bin/env python3
"""Compares sets of end-to-end benchmark results.

    python3 e2ebench/compare.py RESULTS_A [RESULTS_B]

Each argument is a directory of records written by `run.py --out DIR`
(one per workload, seed and trace mode). For every workload x metric it
prints the median and quartiles of each set and the spread, the distance
between the quartiles as a share of the median.

With one set it flags every end-to-end spread larger than the metric's
bound in BENCHMARK.json (the run-to-run noise a later comparison must
beat). With two sets it also flags every end-to-end metric whose median in
B is worse than in A by more than the bound, and every seed whose input
digest differs between the sets. The exit code is 1 when anything is
flagged.
"""

import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load(directory):
    """{(workload, trace): [record, ...]} from one result directory."""
    sets = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        key = (rec["meta"]["workload"], rec["meta"]["trace"])
        sets.setdefault(key, []).append(rec)
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    sets = [load(d) for d in argv[1:]]
    flagged = 0
    keys = sorted(set().union(*[s.keys() for s in sets]))
    for workload, trace in keys:
        metrics = bounds if trace == 0 else layers
        runs = [s.get((workload, trace), []) for s in sets]
        print(f"\n== {workload} (trace {trace}; runs: "
              f"{', '.join(str(len(r)) for r in runs)})")
        head = f"  {'metric':34s}"
        for i, _ in enumerate(runs):
            tag = "AB"[i]
            head += f" {tag + ' median':>12s} {tag + ' q1':>11s} {tag + ' q3':>11s} {tag + ' spread':>9s}"
        if len(runs) == 2:
            head += f" {'change':>8s}"
        print(head)
        for name, m in metrics.items():
            cols = []
            for recs in runs:
                vals = [r["result"]["metrics"][name]["value"] for r in recs
                        if name in r["result"]["metrics"]]
                cols.append(vals)
            if not all(cols):
                continue
            line = f"  {name:34s}"
            notes = []
            for vals in cols:
                q1, med, q3 = quartiles(vals)
                sp = spread(vals)
                line += f" {med:12.4g} {q1:11.4g} {q3:11.4g} {sp:9.3f}"
                if trace == 0 and sp > m["bound"]:
                    notes.append(f"spread {sp:.3f} > bound {m['bound']}")
            if len(cols) == 2:
                a, b = statistics.median(cols[0]), statistics.median(cols[1])
                change = (b - a) / a if a else float("inf")
                worse = change if m["better"] == "lower" else -change
                line += f" {change:+8.3f}"
                if trace == 0 and worse > m["bound"]:
                    notes.append(f"worse by {worse:.3f} > bound {m['bound']}")
            if notes:
                flagged += 1
                line += "  <-- " + "; ".join(notes)
            print(line)
        if len(runs) == 2:
            digests = [{r["meta"]["seed"]: r["meta"]["input_digest"]
                        for r in recs} for recs in runs]
            for seed in sorted(set(digests[0]) & set(digests[1])):
                if digests[0][seed] != digests[1][seed]:
                    flagged += 1
                    print(f"  seed {seed}: input digest differs "
                          f"({digests[0][seed]} vs {digests[1][seed]})  <--")
        failed = sum(r["result"]["failed"] for recs in runs for r in recs)
        if failed:
            flagged += 1
            print(f"  {failed} failed deliveries across these runs  <--")
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
