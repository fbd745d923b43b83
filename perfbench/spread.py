#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload, one run at a time,
and prints for every end-to-end metric its median and the distance between
its first and third quartiles as a share of the median (the spread the
bounds in BENCHMARK.json are checked against), next to the metric's bound:

    python3 perfbench/spread.py --workloads churn_1024 --seeds 1-10

Run it from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in seed_list(args.seeds):
            t0 = time.monotonic()
            out = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, check=True)
            walls.append(time.monotonic() - t0)
            for line in out.stderr.splitlines():
                if "warning" in line or "check failed" in line:
                    print(f"{workload} seed {seed}: {line}", file=sys.stderr)
                    ok = False
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(walls)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median if median else float("inf")
            flag = "" if share < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {median:14.6g}  iqr/median "
                  f"{share:7.2%}  bound {bounds[name]:.0%}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
