#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end benchmark.

    python3 e2ebench/steadiness.py --runs 10 [--workloads smallbank,freehealth]
                                   [--seconds 20] [--first-seed 1]

Runs every workload --runs times, alternating workloads (run i of each
workload uses seed first_seed + i), and prints for each run its metrics and
the host's steal share over the run (from /proc/stat), then per workload
and end-to-end metric the median, the quartiles (statistics.quantiles,
n=4), the spread (Q3 - Q1) / median, and the bound from BENCHMARK.json.
The share of failed transactions must be the same in every run.
Exits 1 if any run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host_cpu():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[7]


def run_once(workload, seed, seconds):
    t0, s0 = host_cpu()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    t1, s1 = host_cpu()
    steal = 100.0 * (s1 - s0) / max(1, t1 - t0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None, steal
    return json.loads(lines[-1]), steal


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            r, steal = run_once(w, seed, seconds)
            if r is None or not r["correct"]:
                print(f"{w} seed={seed}: FAILED ({'no result' if r is None else 'incorrect'})")
                ok = False
                continue
            results[w].append((r, steal))
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w} seed={seed} steal={steal:.1f}% attempted={r['attempted']} "
                  f"failed={r['failed']} {vals}", flush=True)

    for w in workloads:
        runs = results[w]
        if len(runs) < 2:
            continue
        steals = [s for _, s in runs]
        shares = {r["failed"] / r["attempted"] for r, _ in runs}
        print(f"\n== {w}: {len(runs)} runs, steal median {statistics.median(steals):.1f}% "
              f"(max {max(steals):.1f}%), failed share {sorted(shares)}")
        if len(shares) != 1:
            ok = False
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0][0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            print(f"  {name:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
