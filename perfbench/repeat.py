#!/usr/bin/env python3
"""Runs sets of benchmark runs and tabulates the spread of every metric.

Usage (from the root of the repository):

    python3 perfbench/repeat.py

It makes two sets of ten runs of every workload in BENCHMARK.json, each run
run_seconds long with its own seed (set k uses seeds k*1000+1 .. k*1000+10),
the workloads interleaved so that slow phases of the machine spread over
all of them. The sets are two minutes apart. For each workload and metric the table gives, per set, the
median, the quartiles (statistics.quantiles(n=4)), the quartile distance
as a share of the median, and, from the second set on, the change of the
median against the first set. Raw results are appended as JSON lines to
perfbench/results/repeat.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10
GAP_SECONDS = 120


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    raw_path = os.path.join(HERE, "results", "repeat.jsonl")
    sets = []  # sets[k][workload][metric] -> list of values
    for k in range(SETS):
        if k > 0:
            time.sleep(GAP_SECONDS)
        values = {w: {} for w in workloads}
        for i in range(RUNS):
            for w in workloads:
                seed = (k + 1) * 1000 + i + 1
                res = run_once(w, seed, seconds)
                if not res["correct"]:
                    raise SystemExit("incorrect result: %s seed %d" % (w, seed))
                with open(raw_path, "a") as f:
                    f.write(json.dumps({"set": k + 1, "workload": w, "seed": seed,
                                        "result": res}) + "\n")
                for name, m in res["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                print("set %d run %d %s %s" % (k + 1, i + 1, w, " ".join(
                    "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())),
                    file=sys.stderr, flush=True)
        sets.append(values)

    print("| workload | metric | bound | set | median | Q1 | Q3 | IQR/median | median vs set 1 |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name in sets[0][w]:
            for k, values in enumerate(sets):
                vals = values[w][name]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                drift = "" if k == 0 else "%+.1f%%" % (
                    100.0 * (med / statistics.median(sets[0][w][name]) - 1.0))
                bound = bounds.get(name)
                print("| %s | %s | %s | %d | %.4g | %.4g | %.4g | %.1f%% | %s |" % (
                    w, name, "" if bound is None else "%g" % bound, k + 1, med, q1, q3,
                    100.0 * spread, drift))


if __name__ == "__main__":
    main()
