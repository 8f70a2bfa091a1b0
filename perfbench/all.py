"""Run every workload once and print its end-to-end metrics in one table.

    python3 perfbench/all.py [--seed N] [--seconds S]

Run from the repository root.  Each workload runs in its own run.py process,
one after the other, so peak_rss_mb belongs to that workload alone.  Exits
non-zero if any workload fails a check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1):
            rows.append((workload, None))
            continue
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    for workload, result in rows:
        if result is None:
            print(f"{workload}: did not run")
            continue
        ratio = result["failed"] / result["attempted"]
        metrics = "  ".join(
            f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()
        )
        print(f"{workload:<13} {metrics}  fail_ratio {ratio:.4g} "
              f"({result['failed']}/{result['attempted']})")
    return status


if __name__ == "__main__":
    sys.exit(main())
