"""Decentralized SGD runners with per-step metrics.

Every runner applies X <- X Wp - eta G Wg by right multiplication,
starting from X = 0: Wp mixes the parameters and Wg the stochastic
gradients G. Metrics are recorded before each update from the step's own
state, gradients, and gradient-mixing matrix.

One step loop runs any number of runs, such as the repetitions of a
config, side by side along a leading repetition axis (see _simulate);
each run keeps the bits it gets alone.

The step loop makes no metric reduction: it buffers each step's X, G and
G Wg, and the five metrics of every _CHUNK steps are computed together,
run by run, with batched reductions that keep the bits of their per-step
forms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gme import GmeSolverParams, SketchConfig, ce_gme
from .mixing import MixingMatrix, metropolis_hastings
from .objectives import Problem, _node_gradients
from .topology import Topology

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "MetricsLog",
    "DivergenceError",
    "run_dsgd",
    "run_hadsgd",
]

ALGORITHMS = ("dsgd", "hadsgd", "decoupled")

_CSV_HEADER = (
    "step,dist_to_opt,dist_to_opt_mean,consensus,gme,loss,"
    "dist_to_opt_w,consensus_w,gme_w"
)

_CSV_ROW = "%d" + ",%.10g" * 8 + "\n"

_DIVERGE_LIMIT = 1e100

_CHUNK = 64  # steps buffered between metric passes


class DivergenceError(RuntimeError):
    """A trajectory left the representable range; .step says when."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"run diverged at step {step}" + (f": {detail}" if detail else ""))


@dataclass
class RunConfig:
    """Shared knobs for both runners; period, sketch_* and alternate matter only to run_hadsgd."""

    steps: int
    lr: float
    algorithm: str = "dsgd"
    period: int = 100
    sketch_dim: int = 64
    sketch_seed: int = 0
    noise_seed: int = 0
    alternate: bool = True
    window: int = 5

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.sketch_dim < 1:
            raise ValueError(f"sketch_dim must be >= 1, got {self.sketch_dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass
class MetricsLog:
    """Per-step series (length = steps), plus trailing-window averages.

    gme is the squared gap ||G W - Gbar||_F^2 for the step's own gradient
    matrix and applied gradient-mixing matrix; dist_to_opt averages
    per-node distances while dist_to_opt_mean is the distance of the mean.
    """

    step: np.ndarray
    dist_to_opt: np.ndarray
    dist_to_opt_mean: np.ndarray
    consensus: np.ndarray
    gme: np.ndarray
    loss: np.ndarray
    dist_to_opt_w: np.ndarray
    consensus_w: np.ndarray
    gme_w: np.ndarray

    def write_csv(self, path) -> None:
        """10-significant-digit CSV with LF endings and a fixed header."""
        cols = (
            self.step, self.dist_to_opt, self.dist_to_opt_mean, self.consensus,
            self.gme, self.loss, self.dist_to_opt_w, self.consensus_w, self.gme_w,
        )
        rows = zip(*(c.tolist() for c in cols))
        with open(path, "w", newline="\n") as fh:
            fh.write(_CSV_HEADER + "\n")
            fh.writelines(_CSV_ROW % row for row in rows)


def _trailing_mean(v: np.ndarray, window: int) -> np.ndarray:
    csum = np.concatenate([[0.0], np.cumsum(v)])
    t = np.arange(len(v))
    lo = np.maximum(0, t - window + 1)
    return (csum[t + 1] - csum[lo]) / (t - lo + 1)


def _chunk_metrics(problem: Problem, x, g, gw, cols: dict, lo: int) -> None:
    """Fill cols[lo:lo + T] from T buffered steps: states x, gradients g, and g @ Wg.

    Each line is the per-step formula with a leading step axis, reducing
    along the same axis in the same order, so the values keep their bits.
    """
    steps, _, n = x.shape
    hi = lo + steps
    mean = x.mean(axis=2, keepdims=True)
    dev = x - problem.x_star[:, None]
    v = mean[:, :, 0] - problem.x_star
    cols["dist_to_opt"][lo:hi] = np.linalg.norm(dev, axis=1).mean(axis=1)
    cols["dist_to_opt_mean"][lo:hi] = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    cols["consensus"][lo:hi] = np.sum(((x - mean) ** 2).reshape(steps, -1), axis=1) / n
    gap = gw - g.mean(axis=2, keepdims=True)
    cols["gme"][lo:hi] = np.sum((gap**2).reshape(steps, -1), axis=1)
    cols["loss"][lo:hi] = problem.loss(mean[:, :, 0])


def _simulate(runs: list) -> list:
    """Run X <- X Wp - eta G Wg on each run and return the runs' outcomes, in order.

    runs holds (problem, topology, cfg, matrices_for_step) tuples, whose
    problems share their shapes and whose configs share cfg.steps. Their
    states stack along a leading repetition axis, X of shape (R, d, n), and
    every step advances all of them at once:
    - G is one stacked gradient product at X, plus the step's noise in the
      runs whose problem.noise_std is not 0. A noisy run draws the noise of
      _CHUNK steps at a time, as (T, d, n), which gives the bits of T draws
      of (d, n);
    - each run's hook is called as matrices_for_step(t, X[r], G[r]), and
      the (Wp, Wg) it returns are copied into (R, n, n) stacks. X and G are
      fresh for every step and nothing writes them afterwards, so a hook
      may keep its views to record the run;
    - G Wg (for the gme metric and the update), the update and the
      divergence test are one stacked operation each.
    Each step's X, G and G Wg go into buffers of _CHUNK steps, which
    _chunk_metrics reduces run by run every _CHUNK steps and after the last
    step. The stacked products run the same per-matrix operations as one
    run alone, so a run's metrics do not depend on the runs beside it.

    A run's outcome is its MetricsLog, or the exception that stopped it: a
    DivergenceError, or an ArithmeticError from its hook. A stopped run
    leaves the stack and the others go on; any other exception propagates.
    """
    if not runs:
        return []
    problems, _, cfgs, hooks = zip(*runs)
    steps, (d, n) = cfgs[0].steps, (problems[0].d, problems[0].n)
    for problem, topology, cfg, _ in runs:
        if problem.n != topology.n:
            raise ValueError(f"problem has {problem.n} nodes but graph has {topology.n}")
        if cfg.steps != steps or problem.a.shape != problems[0].a.shape:
            raise ValueError("runs must share cfg.steps and their problems' shapes")
        if cfg.lr > 2.0 / problem.smoothness:
            warnings.warn(
                f"lr {cfg.lr:.3g} exceeds 2/L = {2.0 / problem.smoothness:.3g}; "
                "expect divergence",
                RuntimeWarning,
            )
    outcomes: list = [None] * len(runs)
    live = list(range(len(runs)))  # the run in each row of the stacks
    rngs = [np.random.default_rng(cfg.noise_seed) for cfg in cfgs]
    cols = [{name: np.empty(steps) for name in
             ("dist_to_opt", "dist_to_opt_mean", "consensus", "gme", "loss")} for _ in runs]
    a = np.stack([problem.a for problem in problems])
    b = np.stack([problem.b for problem in problems])
    lr = np.array([cfg.lr for cfg in cfgs])[:, None, None]
    noisy = np.array([problem.noise_std > 0.0 for problem in problems])
    size = min(_CHUNK, steps)
    xs, gs, gws, noise = (np.zeros((len(runs), size, d, n)) for _ in range(4))
    wps, wgs = np.empty((len(runs), n, n)), np.empty((len(runs), n, n))
    x = np.zeros((len(runs), d, n))
    for t in range(steps):
        k = t % size
        if k == 0:
            span = min(size, steps - t)
            for i, r in enumerate(live):
                if noisy[i]:
                    noise[i, :span] = rngs[r].normal(0.0, problems[r].noise_std, (span, d, n))
        g = _node_gradients(a, b, x, np.empty_like(x))
        np.add(g, noise[:, k], out=g, where=noisy[:, None, None])
        failed = {}
        for i, r in enumerate(live):
            try:
                wps[i], wgs[i] = hooks[r](t, x[i], g[i])
            except ArithmeticError as exc:
                failed[i] = exc
                wps[i] = wgs[i] = 0.0  # keeps its row finite until it leaves below
        xs[:, k] = x
        gs[:, k] = g
        gw = np.matmul(g, wgs, out=gws[:, k])
        x = x @ wps - lr * gw
        if not np.abs(x).max() <= _DIVERGE_LIMIT:
            big = np.abs(x).max(axis=(1, 2))
            for i in np.flatnonzero(~(big <= _DIVERGE_LIMIT)).tolist():
                failed.setdefault(i, DivergenceError(t, f"|X| reached {big[i]:.3e}"))
        if failed:
            for i, exc in failed.items():
                outcomes[live[i]] = exc
            keep = [i for i in range(len(live)) if i not in failed]
            live = [live[i] for i in keep]
            if not live:
                break
            a, b, lr, noisy, xs, gs, gws, noise, wps, wgs, x = (
                v[keep] for v in (a, b, lr, noisy, xs, gs, gws, noise, wps, wgs, x))
        if k == size - 1 or t == steps - 1:
            for i, r in enumerate(live):
                _chunk_metrics(problems[r], xs[i, :k + 1], gs[i, :k + 1], gws[i, :k + 1],
                               cols[r], t - k)
    for r in live:
        outcomes[r] = MetricsLog(
            step=np.arange(steps),
            **cols[r],
            dist_to_opt_w=_trailing_mean(cols[r]["dist_to_opt"], cfgs[r].window),
            consensus_w=_trailing_mean(cols[r]["consensus"], cfgs[r].window),
            gme_w=_trailing_mean(cols[r]["gme"], cfgs[r].window),
        )
    return outcomes


def _fixed(w: MixingMatrix, w_grads: MixingMatrix | None = None):
    """The matrices_for_step of run_dsgd: Wp = W at every step, and Wg = W unless w_grads."""
    wp = w.w
    wg = wp if w_grads is None else w_grads.w
    return lambda t, x, g: (wp, wg)


def _simulate_one(run) -> MetricsLog:
    """The log of one run, or the exception that stopped it, raised."""
    (result,) = _simulate([run])
    if isinstance(result, Exception):
        raise result
    return result


def run_dsgd(
    problem: Problem,
    topology: Topology,
    w: MixingMatrix,
    cfg: RunConfig,
    *,
    w_grads: MixingMatrix | None = None,
) -> MetricsLog:
    """Fixed mixing: X <- X W - eta G Wg, with Wg = W unless w_grads splits them."""
    return _simulate_one((problem, topology, cfg, _fixed(w, w_grads)))


def _refreshed(topology: Topology, cfg: RunConfig, solver_params: GmeSolverParams | None):
    """The matrices_for_step of run_hadsgd, whose docstring gives the schedule."""
    mh = w = metropolis_hastings(topology).w

    def matrices(t, x, g):
        nonlocal w
        if t % cfg.period == 0:
            scfg = SketchConfig(cfg.sketch_dim, cfg.sketch_seed + t // cfg.period)
            w = ce_gme(g, topology, scfg, solver_params).w
        if cfg.alternate and t % 2 == 1:
            return mh, mh
        return w, w

    return matrices


def run_hadsgd(
    problem: Problem,
    topology: Topology,
    cfg: RunConfig,
    *,
    solver_params: GmeSolverParams | None = None,
) -> MetricsLog:
    """Periodically re-optimized mixing from sketched stochastic gradients.

    At steps divisible by cfg.period the mixing matrix is refreshed by
    ce_gme on the step's stochastic gradients with sketch seed
    cfg.sketch_seed + refresh index. With cfg.alternate the optimized
    matrix is applied on even steps and Metropolis-Hastings on odd steps
    (refreshes always land on even steps).
    """
    return _simulate_one((problem, topology, cfg, _refreshed(topology, cfg, solver_params)))
