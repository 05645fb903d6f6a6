"""Steadiness check: run every workload over several seeds and print the spread.

    python3 bench/steady.py --runs 10 [--workloads adaptive16,baseline16]
                            [--first-seed 0] [--seconds 25] [--trace 0]

Run i uses seed first-seed + i; the order of the workloads alternates
between forward and reverse from one run to the next. For each metric
the table gives the median, the quartiles (statistics.quantiles, n=4),
the spread (q3 - q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json. Raw results go to bench/out/steady-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    chosen = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}

    results = {w: [] for w in chosen}
    for i in range(args.runs):
        seed = args.first_seed + i
        for wl in chosen if i % 2 == 0 else chosen[::-1]:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            *log, last = proc.stdout.strip().splitlines()
            res = dict(json.loads(last), seed=seed, log=log)
            results[wl].append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)

    out = os.path.join(BENCH, "out", f"steady-{args.first_seed}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"\n{'workload':<13} {'metric':<44} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for wl, runs in results.items():
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = f"{bounds[name]:6.3f}" if name in bounds else ""
            print(f"{wl:<13} {name:<44} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.4f} {bound}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{wl:<13} failed share per run: {sorted(shares)}; "
              f"all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
