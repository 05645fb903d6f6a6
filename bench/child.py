"""One workload in a fresh interpreter: set up, measure, check, print one JSON line.

run.py starts this script with BLAS pinned to one thread and the
checkout's src/ first on PYTHONPATH. Set-up time runs from the first
statement below until the workload's inputs are ready, so it covers
importing hetmix (and numpy and scipy through it) and making the inputs.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def untraced(wl, seconds: float) -> dict:
    """Whole rounds until the next one would end past `seconds`; at least one."""
    start = time.perf_counter()
    times, failed, first, problems = [], 0, None, []
    while True:
        elapsed, fails, outputs = wl.run_round()
        times.append(elapsed)
        failed += fails
        if first is None:
            first = outputs
        elif outputs != first:
            problems.append(f"round {len(times)} returned other outputs than round 1")
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    found, quality = wl.check(first)
    if "gme_vs_mh" not in quality:
        found.append("every call failed, so no output could be checked")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "problems": problems + found,
        "attempted": wl.ops_per_round * len(times),
        "failed": failed,
        "round_s": times,
        "metrics": {
            "throughput": wl.work_per_round / statistics.median(times),
            "gme_vs_mh": quality.get("gme_vs_mh", 0.0),
            "peak_rss_mb": rss_kb / 1024.0,
        },
    }


def traced(wl, trace_path: str, import_s: float) -> dict:
    """A warm-up round, the same round traced, then once more untraced.

    Per-layer figures come from the traced round; its excess over the
    last, untraced round is the tracing overhead.
    """
    from tracer import Tracer, layer_metrics

    _, failed, outputs = wl.run_round()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, fails, traced_outputs = wl.run_round()
    finally:
        tracer.uninstall()
    plain_s, fails_after, plain_outputs = wl.run_round()
    failed += fails + fails_after
    problems = [f"the {which} round returned other outputs than the first"
                for which, out in (("traced", traced_outputs), ("last", plain_outputs))
                if out != outputs]
    found, quality = wl.check(outputs, tracer.ce_gme_calls)
    metrics = layer_metrics(tracer.spans, traced_s)
    gaps = quality.get("fw_gaps") or [0.0]
    metrics.update({
        "package.import_s": import_s,
        "gme.solve_gme.fw_gap_rel": statistics.median(gaps),
        "simulator.gme_tail": quality.get("gme_tail", 0.0),
        "simulator.dist_to_opt_tail": quality.get("dist_to_opt_tail", 0.0),
        "trace.overhead_s": traced_s - plain_s,
    })
    tracer.write(trace_path)
    return {"problems": problems + found, "attempted": 3 * wl.ops_per_round,
            "failed": failed, "round_s": [traced_s, plain_s], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    begin = time.perf_counter()
    import hetmix
    import hetmix.cli  # noqa: F401  (the cli is not imported by the package)

    import_s = time.perf_counter() - begin
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(hetmix.__file__).startswith(src + os.sep):
        print(f"hetmix was imported from {hetmix.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        result = {}
    elif args.trace:
        trace_path = os.path.join(args.out, f"trace-{args.workload}-{args.seed}.jsonl")
        result = traced(wl, trace_path, import_s)
    else:
        result = untraced(wl, args.seconds)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
