#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

    python3 e2ebench/selftest.py [--workload smallbank] [--seconds 3]

Records the history of one short run, then runs the checker (e2e_check)
three times on it: as recorded (must pass), with one observed read value
altered (must fail), and with one committed write dropped (must fail).
Exits 0 only if all three verdicts come out as required.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (same directory)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="smallbank", choices=run.WORKLOADS)
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    history = os.path.join(out_dir, f"selftest_{args.workload}.hist")
    rec = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                          args.workload, "--seed", "1", "--seconds", str(args.seconds),
                          "--history-out", history], cwd=ROOT)
    if rec.returncode != 0 or not os.path.exists(history):
        print("selftest: recording run failed")
        return 1

    checker = os.path.join(run.build_dir(), "e2e_check")
    ok = True
    for doctor, want in ((None, 0), ("alter_read", 1), ("drop_write", 1)):
        cmd = [checker, history] + (["--doctor", doctor] if doctor else [])
        got = subprocess.run(cmd, capture_output=True, text=True)
        verdict = got.stdout.strip().splitlines()[-1] if got.stdout.strip() else "?"
        good = got.returncode == want
        ok &= good
        print(f"selftest {doctor or 'as recorded'}: exit {got.returncode} ({verdict}), "
              f"want {want}: {'ok' if good else 'WRONG'}")
        for line in got.stdout.splitlines()[:-1]:
            print("    " + line)
    print("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
