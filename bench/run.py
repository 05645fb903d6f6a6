"""Benchmark entry point: one workload and seed, one JSON result on the last line.

Run from the root of a checkout:

    python3 bench/run.py --workload adaptive16 --seed 1 --seconds 25 --trace 0

The workload runs in a fresh interpreter (child.py) with BLAS pinned to
one thread and src/ first on PYTHONPATH. With --trace 0 set-up is also
timed in SETUP_PROBES further fresh interpreters, and the end-to-end
metrics of BENCHMARK.json are printed; with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list, deadline: float) -> dict:
    """Run child.py to completion (killed at the deadline) and parse its JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child.py exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "hetmix", "__init__.py")):
        print(f"error: no hetmix sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", OUT]
    try:
        setups = [] if args.trace else [
            run_child(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        res = run_child(common + ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = dict(res["metrics"], setup_s=statistics.median(setups + [res["setup_s"]]))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(res['round_s'])} rounds, "
          f"round_s {[round(t, 4) for t in res['round_s']]}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
