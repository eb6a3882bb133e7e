#!/usr/bin/env python3
"""Smoke test of one benchmark workload (ctest label `bench`).

    SPTRSV_BENCH_SMALL=1 python3 smoke_test.py SPTRSV_BENCH WORKLOAD OUTDIR

Runs the workload untraced and traced and checks that:
  - both runs pass their own checks (exit 0, "correct", no failed solve);
  - each prints exactly the metrics `--list` names for this workload and
    mode, with the listed units, and none of them reads 0;
  - the JSON line carries the end-to-end metrics (untraced) or the
    per-layer metrics every workload reports (traced);
  - the traced run's modeled values equal the untraced run's;
  - the span file and the sptrsv-bench/1 report parse;
  - ../BENCHMARK.json declares the same metrics, units and bounds.
"""

import json
import os
import subprocess
import sys


def fail(msg):
    sys.exit("smoke_test: " + msg)


def run(cmd):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail("%s exited %d" % (" ".join(cmd), out.returncode))
    lines = out.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        name, value, unit = line.split()[:3]
        printed[name] = (value, unit)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("run reports failures: " + lines[-1][:200])
    return printed, result


def main():
    bench, workload, outdir = sys.argv[1:4]
    os.makedirs(outdir, exist_ok=True)
    listed = {}
    for line in subprocess.run([bench, "--list"], stdout=subprocess.PIPE,
                               text=True, check=True).stdout.splitlines():
        name, unit, kind, bound, moves, where = line.split()
        listed[name] = (unit, kind, bound, moves, where)
    e2e = {n for n, d in listed.items() if d[1] == "end_to_end"}
    common = {n for n, d in listed.items() if d[1] == "per_layer" and d[4] == "all"}
    mine = {n for n, d in listed.items()
            if d[4] == "all" or workload in d[4].split(",")}

    base = [bench, "--workload", workload, "--seed", "0", "--seconds", "1"]
    report_dir = os.path.join(outdir, "reports")
    spans_path = os.path.join(outdir, "spans.json")
    plain, plain_json = run(base + ["--json", report_dir])
    traced, traced_json = run(base + ["--trace", spans_path])

    for printed, expect, mode in ((plain, e2e, "untraced"),
                                  (traced, mine, "traced")):
        if set(printed) != expect:
            fail("%s run prints %s, --list names %s" % (
                mode, sorted(set(printed) ^ expect), mode))
        for name, (value, unit) in printed.items():
            if unit != listed[name][0]:
                fail("%s printed in %s, listed in %s" % (name, unit, listed[name][0]))
            if float(value) == 0:
                fail("%s run: %s reads 0" % (mode, name))
    if set(plain_json["metrics"]) != e2e or set(traced_json["metrics"]) != common:
        fail("JSON line metrics differ from --list")

    for name in ("model_makespan_s", "fault_makespan_s"):
        if plain[name][0] != traced[name][0]:
            fail("%s: untraced %s, traced %s" % (name, plain[name][0], traced[name][0]))

    with open(spans_path) as f:
        events = json.load(f)["traceEvents"]
    if not events or any(e["dur"] < 0 or "parent" not in e["args"] for e in events):
        fail("span file has no well-formed spans")

    with open(os.path.join(report_dir, workload + ".json")) as f:
        report = json.load(f)
    if report["schema"] != "sptrsv-bench/1" or set(report["values"]) != e2e:
        fail("report does not carry the end-to-end metrics")

    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"]: (m["unit"], "end_to_end", "%g" % m["bound"])
                for m in spec["end_to_end"]}
    declared.update({m["name"]: (m["unit"], "per_layer", "-")
                     for m in spec["per_layer"]})
    if declared != {n: listed[n][:3] for n in e2e | common}:
        fail("BENCHMARK.json metrics differ from --list")
    print("smoke_test: %s ok (%d metrics)" % (workload, len(mine)))


if __name__ == "__main__":
    main()
