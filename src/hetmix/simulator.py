"""Decentralized SGD runners with per-step metrics.

Every runner applies X <- X Wp - eta G Wg by right multiplication,
starting from X = 0: Wp mixes the parameters and Wg the stochastic
gradients G. Metrics are recorded before each update from the step's own
state, gradients, and gradient-mixing matrix.

One step loop runs any number of runs, such as the repetitions of a
config, side by side along a leading repetition axis (see _simulate);
each run keeps the bits it gets alone.

Each step makes one gradient product, G = H X + (noise + c) on the
problems' cached Hessians (see objectives), and writes X, G and G Wg
into fresh per-chunk buffers without copying them. The step loop makes
no metric reduction: the five metrics of every _CHUNK steps are computed
together, for all runs at once, with batched reductions that keep the
bits of their per-step forms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gme import SketchConfig, ce_gme
from .mixing import MixingMatrix, metropolis_hastings
from .objectives import Problem, _node_gradients
from .topology import Topology

__all__ = [
    "RunConfig",
    "MetricsLog",
    "DivergenceError",
    "run_dsgd",
    "run_hadsgd",
]

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
    """Shared knobs for both runners; period and sketch_* matter only to run_hadsgd."""

    steps: int
    lr: float
    period: int = 100
    sketch_dim: int = 64
    sketch_seed: int = 0
    noise_seed: int = 0
    window: int = 5

    def __post_init__(self) -> None:
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


def _chunk_metrics(problems, rows: list, x, g, gw, cols: dict, lo: int) -> None:
    """Fill cols[name][rows, lo:lo + T] from T buffered steps of the runs
    problems[r] for r in rows: states x, gradients g and g @ Wg of shape
    (R, T, d, n).

    Each line is the per-step formula with leading run and step axes,
    reducing along the same axis in the same order, so the values keep
    their bits. The loss is problem.loss at each run's means.
    """
    runs, steps, _, n = x.shape
    hi = lo + steps
    x_star = np.stack([problems[r].x_star for r in rows])
    mean = x.mean(axis=3, keepdims=True)
    dev = x - x_star[:, None, :, None]
    v = mean[..., 0] - x_star[:, None]
    # np.linalg.norm's own sum of squares, in place
    dist = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=2))
    cols["dist_to_opt"][rows, lo:hi] = dist.mean(axis=2)
    cols["dist_to_opt_mean"][rows, lo:hi] = np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])
    np.subtract(x, mean, out=dev)
    cols["consensus"][rows, lo:hi] = np.sum(np.square(dev, out=dev).reshape(runs, steps, -1),
                                            axis=2) / n
    gap = np.subtract(gw, g.mean(axis=3, keepdims=True), out=dev)
    cols["gme"][rows, lo:hi] = np.sum(np.square(gap, out=gap).reshape(runs, steps, -1), axis=2)
    for i, r in enumerate(rows):
        cols["loss"][r, lo:hi] = problems[r].loss(mean[i, :, :, 0])


def _simulate(runs: list) -> list:
    """Run X <- X Wp - eta G Wg on each run and return the runs' outcomes, in order.

    runs holds (problem, topology, cfg, matrices_for_step) tuples, whose
    problems share their shapes and whose configs share cfg.steps. Their
    states stack along a leading repetition axis, X of shape (R, d, n), and
    every step advances all of them at once:
    - G = H X + (noise + c), one stacked product of the problems' cached
      Hessians and one add. Every _CHUNK steps a run fills its rows of an
      offset buffer with its noise for those steps plus its gradients'
      constant term c, or with c alone if problem.noise_std is 0. A noisy
      run draws the noise of the chunk at once, as (T, d, n), which gives
      the bits of T draws of (d, n);
    - each run's hook is called as matrices_for_step(t, X[r], G[r]). Each
      chunk's X, G and G Wg buffers are fresh, each step writes its own
      slot of them, and nothing writes a slot again, so a hook may keep its
      views to record the run. X's buffer has a slot more, which takes the
      chunk's last update and is copied into the next chunk's first slot.
      A hook must never write a matrix it has returned: the (Wp, Wg) it
      returns are copied into (R, n, n) stacks only when they are other
      objects than it returned at the step before;
    - G Wg (for the gme metric and the update) and the update are one
      stacked product each, written into their next buffer slots, and the
      divergence test is one pass over the new X.
    _chunk_metrics reduces the buffers of all live runs every _CHUNK steps
    and after the last step. The stacked products run the same per-matrix
    operations as one run alone, so a run's metrics do not depend on the
    runs beside it.

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
    cols = {name: np.empty((len(runs), steps)) for name in
            ("dist_to_opt", "dist_to_opt_mean", "consensus", "gme", "loss")}
    hess = np.stack([problem.hess for problem in problems])
    lr = np.array([cfg.lr for cfg in cfgs])[:, None, None]
    size = min(_CHUNK, steps)
    offset = np.empty((len(runs), size, d, n))
    offset[:] = np.stack([problem.lin.T for problem in problems])[:, None]
    wps, wgs = np.empty((len(runs), n, n)), np.empty((len(runs), n, n))
    scratch = np.empty((len(runs), d, n))
    last = [(None, None)] * len(runs)  # each row's (Wp, Wg) objects in wps and wgs
    xs = np.zeros((len(runs), size + 1, d, n))  # slot k + 1 takes step k's update
    for t in range(steps):
        k = t % size
        if k == 0:
            span = min(size, steps - t)
            if t:
                carried, xs = xs[:, size], np.empty_like(xs)
                xs[:, 0] = carried
            gs, gws = np.empty_like(xs[:, 1:]), np.empty_like(xs[:, 1:])
            for i, r in enumerate(live):
                if problems[r].noise_std > 0.0:
                    noise = rngs[r].normal(0.0, problems[r].noise_std, (span, d, n))
                    np.add(noise, problems[r].lin.T, out=offset[i, :span])
        x = xs[:, k]
        g = _node_gradients(hess, offset[:, k], x, gs[:, k])
        failed = {}
        for i, r in enumerate(live):
            try:
                wp, wg = hooks[r](t, x[i], g[i])
            except ArithmeticError as exc:
                failed[i] = exc
                continue
            if wp is not last[i][0]:
                wps[i] = wp
            if wg is not last[i][1]:
                wgs[i] = wg
            last[i] = wp, wg
        for i in failed:
            wps[i] = wgs[i] = 0.0  # keeps its row finite until it leaves below
        gw = np.matmul(g, wgs, out=gws[:, k])
        nxt = np.matmul(x, wps, out=xs[:, k + 1])
        nxt -= np.multiply(lr, gw, out=scratch)
        if not np.abs(nxt, out=scratch).max() <= _DIVERGE_LIMIT:
            big = np.abs(nxt).max(axis=(1, 2))
            for i in np.flatnonzero(~(big <= _DIVERGE_LIMIT)).tolist():
                failed.setdefault(i, DivergenceError(t, f"|X| reached {big[i]:.3e}"))
        if failed:
            for i, exc in failed.items():
                outcomes[live[i]] = exc
            keep = [i for i in range(len(live)) if i not in failed]
            live = [live[i] for i in keep]
            last = [last[i] for i in keep]
            if not live:
                break
            hess, lr, xs, gs, gws, offset, wps, wgs, scratch = (
                v[keep] for v in (hess, lr, xs, gs, gws, offset, wps, wgs, scratch))
        if k == size - 1 or t == steps - 1:
            _chunk_metrics(problems, live, xs[:, :k + 1], gs[:, :k + 1], gws[:, :k + 1],
                           cols, t - k)
    for r in live:
        outcomes[r] = MetricsLog(
            step=np.arange(steps),
            **{name: col[r] for name, col in cols.items()},
            dist_to_opt_w=_trailing_mean(cols["dist_to_opt"][r], cfgs[r].window),
            consensus_w=_trailing_mean(cols["consensus"][r], cfgs[r].window),
            gme_w=_trailing_mean(cols["gme"][r], cfgs[r].window),
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


def _refreshed(topology: Topology, cfg: RunConfig):
    """The matrices_for_step of run_hadsgd, whose docstring gives the schedule."""
    mh = w = metropolis_hastings(topology).w

    def matrices(t, x, g):
        nonlocal w
        if t % cfg.period == 0:
            scfg = SketchConfig(cfg.sketch_dim, cfg.sketch_seed + t // cfg.period)
            w = ce_gme(g, topology, scfg).w
        if t % cfg.period % 2 == 1:
            return mh, mh
        return w, w

    return matrices


def run_hadsgd(problem: Problem, topology: Topology, cfg: RunConfig) -> MetricsLog:
    """Periodically re-optimized mixing from sketched stochastic gradients.

    At steps divisible by cfg.period the mixing matrix is refreshed by
    ce_gme, at the default GmeSolverParams, on the step's stochastic
    gradients with sketch seed cfg.sketch_seed + refresh index. It is applied
    an even number of steps after its refresh and Metropolis-Hastings an odd
    number after, so period 1 applies a fresh matrix at every step.
    """
    return _simulate_one((problem, topology, cfg, _refreshed(topology, cfg)))
