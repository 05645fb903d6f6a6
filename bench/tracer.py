"""Spans around hetmix's public functions, installed from outside the package.

Every public function of the traced modules is replaced, in every hetmix
namespace that holds it, by a wrapper that records a span (name, start,
end, parent). Replacing each name where its caller looks it up catches
`hetmix.simulator.ce_gme` as well as `hetmix.gme.ce_gme`. A few methods
are wrapped on their classes. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

MODULES = ("gme", "linalg", "mixing", "topology", "objectives", "simulator")
# QuadNode.value and .gradient are left out: they run 16 times per step
# and would multiply the number of spans without naming a layer.
METHODS = (
    ("objectives", "Problem", "loss"),
    ("topology", "Topology", "support_mask"),
    ("mixing", "MixingMatrix", "__post_init__"),
    ("simulator", "MetricsLog", "write_csv"),
)
RUNNERS = ("simulator.run_dsgd", "simulator.run_hadsgd",
           "simulator.run_decoupled", "simulator.run_hadsgd_momentum")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.ce_gme_calls: list = []  # (args, kwargs, result), for the output checks
        self._stack: list = []
        self._undo: list = []

    def install(self) -> None:
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "hetmix" or name.startswith("hetmix.")]
        for modname in MODULES:
            mod = sys.modules[f"hetmix.{modname}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{modname}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, key, wrapper)
        for modname, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"hetmix.{modname}"], cls_name)
            fn = cls.__dict__[meth]
            name = f"{modname}.{cls_name}" + ("" if meth == "__post_init__" else f".{meth}")
            self._set(cls, meth, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, val = self._undo.pop()
            setattr(obj, key, val)

    def _set(self, obj, key, val) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, val)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = self.ce_gme_calls if name == "gme.ce_gme" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if keep is not None:
                keep.append((args, kwargs, result))
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def layer_metrics(spans, round_s: float) -> dict:
    """Per-layer figures of one traced round; rates are 0 where a layer never ran.

    Each simulated step draws its gradients once, so the step count is the
    number of stochastic_gradients calls.
    """
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * n
    in_solve = [False] * n
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_solve[i] = in_solve[parent] or spans[parent][0] == "gme.solve_gme"
    by_name: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum((dur[i] for i in by_name.get(name, ())), 0.0)

    def us_per_call(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    def per_solve(name):
        solves = calls("gme.solve_gme")
        inside = sum(in_solve[i] for i in by_name.get(name, ()))
        return inside / solves if solves else 0.0

    steps = calls("objectives.stochastic_gradients")
    runner_self = sum(dur[i] - child[i] for r in RUNNERS for i in by_name.get(r, ()))
    solve_s = [dur[i] for i in by_name.get("gme.ce_gme", ())]
    return {
        "objectives.stochastic_gradients.calls": steps,
        "objectives.stochastic_gradients.us_per_call": us_per_call("objectives.stochastic_gradients"),
        "objectives.Problem.loss.us_per_call": us_per_call("objectives.Problem.loss"),
        "simulator.self_us_per_step": 1e6 * runner_self / steps if steps else 0.0,
        "simulator.write_csv_s": total("simulator.MetricsLog.write_csv"),
        "gme.ce_gme.calls": calls("gme.ce_gme"),
        "gme.ce_gme.s_p50": statistics.median(solve_s) if solve_s else 0.0,
        "gme.project_feasible.calls_per_solve": per_solve("gme.project_feasible"),
        "gme.project_feasible.us_per_call": us_per_call("gme.project_feasible"),
        "gme.project_feasible.share": total("gme.project_feasible") / round_s,
        "gme.sketch.us_per_call": us_per_call("gme.sketch"),
        "gme.gram.us_per_call": us_per_call("gme.gram"),
        "linalg.top_eigenvalue.us_per_call": us_per_call("linalg.top_eigenvalue"),
        "mixing.MixingMatrix.constructions_per_solve": per_solve("mixing.MixingMatrix"),
        "topology.support_mask.calls_per_solve": per_solve("topology.Topology.support_mask"),
    }
