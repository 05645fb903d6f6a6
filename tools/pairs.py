"""Run bench/run.py from two checkouts in alternating pairs and compare them.

    python3 tools/pairs.py BASE CHANGE --workload baseline16 --seeds 31-40 \
        --seconds 10 --json pairs.json

For each seed, both checkouts run `bench/run.py --workload W --seed S
--seconds N --trace 0`, the base first on odd pair indices and the change
first on even ones, so a drift of the machine's speed over the session
falls on both sides alike. The script prints each pair's ratio of every
end-to-end metric (change / base), the medians and quartiles of both
sides, how many pairs the change won, and a verdict per metric (see
summarize), and writes all runs and these figures as JSON. Standard
library only.
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


def _end_to_end(root: str) -> dict:
    """Each end-to-end metric of BENCHMARK.json: name -> (better, bound)."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def summarize(base: list, change: list, better: str, bound: float) -> dict:
    """The figures and the verdict of one metric over paired runs, base[i] beside change[i].

    A pair is won by the side whose value is better ("higher" or "lower");
    a tie counts for neither. The spread is the base's interquartile range.
    The verdict is the first that holds of:
    - "regression": the change's median is worse than the base's by more
      than bound, relative to the base's median;
    - "unresolved": the base's spread exceeds bound relative to its median,
      and some change run does not beat every base run;
    - "gain shown": the change wins at least nine tenths of the pairs, and
      its median is better than the base's by more than the spread;
    - "no gain shown".
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median, change_median = statistics.median(base), statistics.median(change)
    low, high = _quartiles(base)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gain = sign * (change_median - base_median)
    every_beats = min(sign * c for c in change) > max(sign * b for b in base)
    if -gain > bound * abs(base_median):
        verdict = "regression"
    elif high - low > bound * abs(base_median) and not every_beats:
        verdict = "unresolved"
    elif 10 * wins >= 9 * len(base) and gain > high - low:
        verdict = "gain shown"
    else:
        verdict = "no gain shown"
    return {
        "better": better,
        "bound": bound,
        "base_median": base_median,
        "base_quartiles": [low, high],
        "change_median": change_median,
        "change_quartiles": _quartiles(change),
        "median_ratio": change_median / base_median,
        "pair_ratios": [c / b for b, c in zip(base, change)],
        "change_wins": wins,
        "pairs": len(base),
        "verdict": verdict,
    }


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
    metrics = _end_to_end(roots["change"])
    runs = []
    for index, seed in enumerate(_seeds(args.seeds)):
        order = ("base", "change") if index % 2 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(roots[side], args.workload, seed, args.seconds)
        runs.append(pair)
        ratios = {name: pair["change"]["metrics"][name]["value"]
                  / pair["base"]["metrics"][name]["value"] for name in metrics}
        print(f"seed {seed} ({order[0]} first): "
              + ", ".join(f"{name} x{ratio:.3f}" for name, ratio in ratios.items()), flush=True)
    summary = {}
    for name, (better, bound) in metrics.items():
        s = summary[name] = summarize([p["base"]["metrics"][name]["value"] for p in runs],
                                      [p["change"]["metrics"][name]["value"] for p in runs],
                                      better, bound)
        print(f"{name}: base {s['base_median']:.4g} {[round(q, 4) for q in s['base_quartiles']]}"
              f" -> change {s['change_median']:.4g} {[round(q, 4) for q in s['change_quartiles']]},"
              f" ratio {s['median_ratio']:.3f}, change won {s['change_wins']} of {len(runs)}:"
              f" {s['verdict']}")
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
