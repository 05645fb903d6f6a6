"""The benchmark's workloads: inputs made from the seed, one round of work, its checks.

A round is a fixed list of calls into hetmix. Every round of a run
repeats the same calls on the same inputs, so each round must return
exactly what the first one returned, and a run's checks and quality
figures do not depend on how many rounds fitted in its time.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import hetmix
import hetmix.cli

import reference as ref

N, D, NOISE_VAR, KEEP_FRACTION, SKETCH_DIM, WINDOW = 16, 10, 0.1, 0.5, 64, 5

# adaptive16 runs the first instance of configs/random16_adaptive.conf
# (seed 0) whatever the workload seed: the cost of a refresh solve
# varies twofold between instances, so a seed-drawn instance cannot give
# a steady rate in one run (see README.md).
ADAPTIVE_SEED, ADAPTIVE_STEPS = 0, 400
BASELINE_STEPS, BASELINE_REPS = 5000, 3
# sparse_solve relabels one fixed gradient matrix and its supports by a
# seeded permutation: the solves differ in node order only, so their cost
# does not depend on the seed.
SPARSE_BASE_SEED, SPARSE_SKETCH_SEED = 0, 0


class CliWorkload:
    """`hetmix run` on a generated config; one call per round."""

    ops_per_round = 1

    def __init__(self, name: str, seed: int, out_dir: str):
        adaptive = name == "adaptive16"
        self.name = name
        self.cfg_seed = ADAPTIVE_SEED if adaptive else BASELINE_REPS * seed
        self.steps = ADAPTIVE_STEPS if adaptive else BASELINE_STEPS
        self.reps = 1 if adaptive else BASELINE_REPS
        self.work_per_round = self.steps * self.reps
        self.csv_dir = os.path.join(out_dir, f"{name}-csv")
        method = ("algorithm = hadsgd\nperiod = 100\nsketch_dim = 64\n" if adaptive
                  else "algorithm = dsgd\nweights = mh\n")
        self.config = os.path.join(out_dir, f"{name}.conf")
        with open(self.config, "w") as fh:
            fh.write(
                f"name = {name}\nout = {self.csv_dir}\n{method}"
                f"topology = random\nn = {N}\nkeep_fraction = {KEEP_FRACTION}\n"
                f"objective = random\nd = {D}\nnoise_var = {NOISE_VAR}\n"
                f"lr_relative = 0.1\nsteps = {self.steps}\nwindow = {WINDOW}\n"
                f"reps = {self.reps}\nseed = {self.cfg_seed}\n"
            )

    def run_round(self):
        """(wall time, failed calls, outputs) of one `hetmix run`."""
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = hetmix.cli.main(["run", self.config])
        elapsed = time.perf_counter() - start
        csvs = ()
        if code == 0:
            csvs = tuple(_read(os.path.join(self.csv_dir, f"{self.name}_rep{r}.csv"))
                         for r in range(self.reps))
        return elapsed, int(code != 0), (code, out.getvalue(), csvs)

    def check(self, outputs, refreshes=()):
        """Problems with a round's outputs and with captured refresh solves, and quality."""
        code, stdout, csvs = outputs
        if code != 0:
            return [], {}
        problems, gme_rel, gme_tail, dist_tail = [], [], [], []
        lines = stdout.splitlines()
        if len(lines) != self.reps:
            problems.append(f"`hetmix run` printed {len(lines)} lines for {self.reps} reps")
        graphs = []
        for rep, text in enumerate(csvs):
            a, b = ref.quadratics(N, D, D, self.cfg_seed + rep)
            edges = ref.random_connected_edges(N, KEEP_FRACTION, self.cfg_seed + rep)
            graphs.append(edges)
            found, arr = ref.check_csv(text, self.steps, WINDOW,
                                       float(np.linalg.norm(ref.lsq_optimum(a, b))))
            problems += [f"rep {rep}: {p}" for p in found]
            if arr is None:
                continue
            if rep < len(lines):
                problems += [f"rep {rep}: {p}" for p in ref.check_final_line(lines[rep], arr)]
            gme_tail.append(ref.tail(arr[:, 8]))
            dist_tail.append(ref.tail(arr[:, 6]))
            gme_rel.append(gme_tail[-1] / ref.mh_gme_at_optimum(a, b, edges, NOISE_VAR))
        gaps = []
        for k, (args, _, result) in enumerate(refreshes):
            g, topology, scfg = args[:3]
            if topology.edges not in graphs:
                problems.append(f"refresh {k}: graph differs from the rebuilt random graph")
            found, (_, gap) = ref.check_matrix(
                result.w, topology.edges, ref.sketched_gram(g, scfg.k, scfg.seed))
            problems += [f"refresh {k}: {p}" for p in found]
            gaps.append(gap)
        quality = {"gme_vs_mh": _mean(gme_rel), "gme_tail": _mean(gme_tail),
                   "dist_to_opt_tail": _mean(dist_tail), "fw_gaps": gaps}
        return problems, quality


class SparseWorkload:
    """Direct ce_gme calls on a ring and a 4x4 torus; two calls per round."""

    ops_per_round = work_per_round = 2

    def __init__(self, name: str, seed: int, out_dir: str):
        a, b = ref.quadratics(N, D, D, SPARSE_BASE_SEED)
        x_star = ref.lsq_optimum(a, b)
        g = ref.gradients_at(a, b, np.tile(x_star[:, None], (1, N)))
        g += np.random.default_rng(SPARSE_BASE_SEED + 1).normal(0.0, NOISE_VAR**0.5, g.shape)
        perm = np.random.default_rng(seed).permutation(N)
        self.g = np.ascontiguousarray(g[:, perm])
        self.cases = []
        for label, edges in (("ring16", ref.ring_edges(N)), ("torus4x4", ref.torus_edges(4, 4))):
            edges = ref.relabel_edges(edges, perm)
            self.cases.append((label, edges, hetmix.Topology(N, edges)))
        self.sketch = hetmix.SketchConfig(SKETCH_DIM, SPARSE_SKETCH_SEED)
        self.params = hetmix.GmeSolverParams()

    def run_round(self):
        """(wall time of the calls, failed calls, returned matrices as bytes)."""
        elapsed, failed, outputs = 0.0, 0, []
        for _, _, topology in self.cases:
            start = time.perf_counter()
            try:
                w = hetmix.ce_gme(self.g, topology, self.sketch, self.params).w
            except (ArithmeticError, ValueError):
                w = None
            elapsed += time.perf_counter() - start
            failed += w is None
            outputs.append(None if w is None else w.tobytes())
        return elapsed, failed, tuple(outputs)

    def check(self, outputs, refreshes=()):
        gamma = ref.sketched_gram(self.g, SKETCH_DIM, SPARSE_SKETCH_SEED)
        problems, ratios, gaps = [], [], []
        for (label, edges, _), raw in zip(self.cases, outputs):
            if raw is None:
                continue
            found, (ratio, gap) = ref.check_matrix(
                np.frombuffer(raw).reshape(N, N), edges, gamma)
            problems += [f"{label}: {p}" for p in found]
            ratios.append(ratio)
            gaps.append(gap)
        return problems, {"gme_vs_mh": _mean(ratios), "gme_tail": 0.0,
                          "dist_to_opt_tail": 0.0, "fw_gaps": gaps}


WORKLOADS = {"adaptive16": CliWorkload, "baseline16": CliWorkload, "sparse_solve": SparseWorkload}


def _read(path: str) -> str:
    with open(path, newline="") as fh:
        return fh.read()


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0
