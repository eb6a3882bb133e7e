#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py [--runs 10] [--first-seed 0] [--same-seed]
                                [--workload NAME ...] [--save FILE]
                                [--against FILE]

Runs benchmark/run.py --runs times per workload, each with the next seed
(or, with --same-seed, always --first-seed), for BENCHMARK.json's
run_seconds. For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread: the interquartile distance as a
share of the median, against the metric's bound. --save writes every value
with its seed; --against compares this set with a saved one: each median
against the saved median, and each modeled value against the saved value of
the same seed, which must not be worse by more than a relative 1e-9.

Exits 1 when a run fails, a spread other than setup_s's exceeds its bound, a
median is worse than the saved one by more than its bound, or a modeled
value is worse than the saved one for its seed. setup_s's spread is printed
but not judged: BENCHMARK.json's bound on it guards only its median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Modeled-clock metrics repeat bit for bit for a given seed, so a change that
# worsens one shows exactly, whatever the host's noise.
MODELED = ("model_makespan_s", "fault_makespan_s")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--same-seed", action="store_true")
    p.add_argument("--workload", action="append")
    p.add_argument("--save")
    p.add_argument("--against")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    ok = True
    values = {}
    for w in workloads:
        values[w] = {"seed": [], **{name: [] for name in metrics}}
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "benchmark", "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False}
            if out.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed\n%s" % (w, seed, out.stderr[-2000:]))
                ok = False
                continue
            values[w]["seed"].append(seed)
            for name in metrics:
                values[w][name].append(result["metrics"][name]["value"])
        for name, m in metrics.items():
            v = values[w][name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            line = "%-14s %-17s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  bound %.2f" % (
                w, name, med, q1, q3, spread, m["bound"])
            if spread > m["bound"] / 3:
                line += "  (above a third of the bound)"
            if spread > m["bound"] and name != "setup_s":
                line += "  SPREAD EXCEEDS BOUND"
                ok = False
            if w in saved:
                before = statistics.quantiles(saved[w][name], n=4)[1]
                drift = (med - before) / before
                line += "  vs saved %+.4f" % drift
                if drift > m["bound"]:
                    line += "  WORSE BY MORE THAN BOUND"
                    ok = False
                if name in MODELED:
                    old = dict(zip(saved[w]["seed"], saved[w][name]))
                    pairs = [(s, x, old[s]) for s, x in zip(values[w]["seed"], v) if s in old]
                    worse = [s for s, x, y in pairs if x > y * (1 + 1e-9)]
                    line += "  %d/%d seeds identical" % (
                        sum(x == y for _, x, y in pairs), len(pairs))
                    if worse:
                        line += "  WORSE ON SEEDS %s" % worse
                        ok = False
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
