#!/usr/bin/env python3
"""Determinism and naming test of the benchmark.

For every workload it checks that

  * util_peak, every count metric of the traced run and the label and
    placement digests are bit-identical across two runs with the same seed;
  * at least one of them changes under another seed;
  * every metric printed is declared in BENCHMARK.json, with the declared
    unit, and every run passes its correctness checks with no failures.

Run from the root of the checkout (short runs; about two minutes):

    python3 perfbench/test_determinism.py --seconds 1
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that are counts (or ratios of counts): pure functions of
# the seeded inputs.
COUNT_METRICS = [
    "svc.pages_copied", "svc.pages_shared", "svc.coalesced",
    "routing.cache_hit_frac", "routing.cache_entries",
    "routing.routes_carried", "routing.routes_invalidated",
    "core.dirty_cells", "simkernel.rounds", "simkernel.messages",
    "alloc.cells_patched", "alloc.evicted", "alloc.replaced",
    "alloc.requeued", "alloc.shed", "alloc.replace_frac",
]


def run(bench, workload, seed, seconds, trace):
    out = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.splitlines()
    digests = dict(kv.split("=") for kv in lines[-2].split()[1:])
    return json.loads(lines[-1]), digests


def fingerprint(bench, workload, seed, seconds, errors):
    """util_peak, the count metrics and the digests of one seed."""
    declared = {m["name"]: m["unit"]
                for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        result, digests = run(bench, workload, seed, seconds, trace)
        where = f"{workload} seed {seed} trace {trace}"
        if not result["correct"] or result["failed"] != 0:
            errors.append(f"{where}: correct={result['correct']} "
                          f"failed={result['failed']}")
        printed = result["metrics"]
        if set(printed) != {m["name"] for m in wanted}:
            errors.append(f"{where}: printed metrics differ from BENCHMARK.json")
        for name, metric in printed.items():
            if declared.get(name) != metric["unit"]:
                errors.append(f"{where}: {name} [{metric['unit']}] undeclared")
        if trace == 0:
            values["util_peak"] = printed["util_peak"]["value"]
        else:
            values.update({n: printed[n]["value"] for n in COUNT_METRICS})
        values.update({f"digest.{k}.trace{trace}": v for k, v in digests.items()})
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--other-seed", type=int, default=8)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        first = fingerprint(bench, workload, args.seed, args.seconds, errors)
        again = fingerprint(bench, workload, args.seed, args.seconds, errors)
        other = fingerprint(bench, workload, args.other_seed, args.seconds,
                            errors)
        for name in first:
            if first[name] != again[name]:
                errors.append(f"{workload}: {name} differs under one seed: "
                              f"{first[name]} vs {again[name]}")
        if first == other:
            errors.append(f"{workload}: nothing changes under another seed")
        print(f"{workload}: {len(first)} values repeat; "
              f"{sum(first[n] != other[n] for n in first)} change with the seed")
    for e in errors:
        print("FAIL", e, file=sys.stderr)
    print("ok" if not errors else f"{len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
