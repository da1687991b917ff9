#!/usr/bin/env python3
"""Run one end-to-end benchmark workload of the Obladi proxy.

    python3 e2ebench/run.py --workload smallbank --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark package (e2ebench/,
compiling the library from src/) into .bench_build (or $CARGO_TARGET_DIR),
then runs the proxy process, which starts its own storage-node process.
The last stdout line is the run's JSON result; with --trace 1 a Chrome
trace is also written under .bench_out/.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("smallbank", "freehealth", "smallbank_k4r2_wan")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build the benchmark; returns the build directory."""
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=log, stderr=log)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--history-out", help="also save the checked history here")
    args = ap.parse_args()

    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "e2e_proxy"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--storage-bin", os.path.join(out, "e2e_storage")]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"trace_{args.workload}_seed{args.seed}.json")]
    if args.history_out:
        cmd += ["--history-out", args.history_out]

    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The storage process sees its stdin close and exits on its own.
        proc.kill()
        proc.communicate()
        print(f"run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        print(f"benchmark process failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"wall {time.monotonic() - start:.1f}s", file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
