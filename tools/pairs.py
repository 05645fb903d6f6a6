"""Run bench/run.py from two checkouts in alternating pairs and compare them.

    python3 tools/pairs.py BASE CHANGE --workload baseline16 --seeds 31-40 \
        --seconds 10 --json pairs.json

For each seed, both checkouts run `bench/run.py --workload W --seed S
--seconds N --trace 0`, the base first on odd pair indices and the change
first on even ones, so a drift of the machine's speed over the session
falls on both sides alike. The script prints each pair's ratio of every
end-to-end metric (change / base), the medians and quartiles of both
sides, and how many pairs each side won, and writes all runs and these
figures as JSON. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(root: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: bench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def _better(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the base checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="one seed or a range, as 31-40")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--json", help="write the runs and the summary here")
    args = parser.parse_args()
    roots = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    better = _better(roots["change"])
    runs = []
    for index, seed in enumerate(_seeds(args.seeds)):
        order = ("base", "change") if index % 2 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(roots[side], args.workload, seed, args.seconds)
        runs.append(pair)
        ratios = {name: pair["change"]["metrics"][name]["value"]
                  / pair["base"]["metrics"][name]["value"] for name in better}
        print(f"seed {seed} ({order[0]} first): "
              + ", ".join(f"{name} x{ratio:.3f}" for name, ratio in ratios.items()), flush=True)
    summary = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name]["value"] for p in runs]
        change = [p["change"]["metrics"][name]["value"] for p in runs]
        wins = sum((c > b) if direction == "higher" else (c < b) for b, c in zip(base, change))
        summary[name] = {
            "better": direction,
            "base_median": statistics.median(base),
            "base_quartiles": _quartiles(base),
            "change_median": statistics.median(change),
            "change_quartiles": _quartiles(change),
            "median_ratio": statistics.median(change) / statistics.median(base),
            "pair_ratios": [c / b for b, c in zip(base, change)],
            "change_wins": wins,
            "pairs": len(runs),
        }
        s = summary[name]
        print(f"{name}: base {s['base_median']:.4g} {[round(q, 4) for q in s['base_quartiles']]}"
              f" -> change {s['change_median']:.4g} {[round(q, 4) for q in s['change_quartiles']]},"
              f" ratio {s['median_ratio']:.3f}, change won {wins} of {len(runs)}")
    correct = all(p[side]["correct"] and p[side]["failed"] == 0
                  for p in runs for side in ("base", "change"))
    print(f"every run correct with 0 failed calls: {correct}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "all_correct": correct, "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
