"""Decentralized SGD runners with per-step metrics.

Every runner applies X <- X W - eta G W by right multiplication,
starting from X = 0: the step's one mixing matrix W mixes the parameters
and the stochastic gradients G. Metrics are recorded before each update
from the step's own state, gradients, and mixing matrix.

One step loop runs any number of runs, such as the repetitions of a
config, side by side along a leading repetition axis (see _simulate);
each run keeps the bits it gets alone.

Each step makes one gradient product, G = H X + (noise + c) on the
problems' cached Hessians (see objectives), and writes X, G and G W
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
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
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
    matrix and mixing matrix; dist_to_opt averages per-node distances
    while dist_to_opt_mean is the distance of the mean.
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


def _chunk_metrics(problems, x, g, gw, cols: dict, lo: int) -> None:
    """Fill cols[name][:, lo:lo + T] from T buffered steps of the runs:
    row r of the states x, gradients g and g @ W, of shape (R, T, d, n),
    is the run of problems[r].

    Each line is the per-step formula with leading run and step axes,
    reducing along the same axis in the same order, so the values keep
    their bits. The loss is problem.loss at each run's means.
    """
    runs, steps, _, n = x.shape
    hi = lo + steps
    x_star = np.stack([problem.x_star for problem in problems])
    mean = x.mean(axis=3, keepdims=True)
    dev = x - x_star[:, None, :, None]
    v = mean[..., 0] - x_star[:, None]
    # np.linalg.norm's own sum of squares, in place
    dist = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=2))
    cols["dist_to_opt"][:, lo:hi] = dist.mean(axis=2)
    cols["dist_to_opt_mean"][:, lo:hi] = np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])
    np.subtract(x, mean, out=dev)
    cols["consensus"][:, lo:hi] = np.sum(np.square(dev, out=dev).reshape(runs, steps, -1),
                                         axis=2) / n
    gap = np.subtract(gw, g.mean(axis=3, keepdims=True), out=dev)
    cols["gme"][:, lo:hi] = np.sum(np.square(gap, out=gap).reshape(runs, steps, -1), axis=2)
    for r, problem in enumerate(problems):
        cols["loss"][r, lo:hi] = problem.loss(mean[r, :, :, 0])


def _simulate(runs: list) -> list:
    """Run X <- X W - eta G W on each run and return the runs' outcomes, in order.

    runs holds (problem, topology, cfg, matrix_for_step) tuples, whose
    problems share their shapes and whose configs share cfg.steps. Their
    states stack along a leading repetition axis, X of shape (R, d, n), and
    every step advances all of them at once:
    - G = H X + (noise + c), one stacked product of the problems' cached
      Hessians and one add. Every _CHUNK steps a run fills its rows of an
      offset buffer with its noise for those steps plus its gradients'
      constant term c, or with c alone if problem.noise_std is 0. A noisy
      run draws the noise of the chunk at once, as (T, d, n), which gives
      the bits of T draws of (d, n);
    - each run's hook is called as matrix_for_step(t, X[r], G[r]) and
      returns the step's W. Each chunk's X, G and G W buffers are fresh,
      each step writes its own slot of them, and nothing writes a slot
      again, so a hook may keep its views to record the run. X's buffer
      has a slot more, which takes the chunk's last update and is copied
      into the next chunk's first slot. A hook must never write a matrix
      it has returned: the W it returns is copied into an (R, n, n) stack
      only when it is another object than it returned at the step before;
    - G W (for the gme metric and the update) and X W are one stacked
      product each, written into their next buffer slots, and the
      divergence test is one pass over the new X.
    _chunk_metrics reduces the buffers of all runs every _CHUNK steps and
    after the last step. The stacked products and reductions run the same
    per-matrix operations as one run alone, row by row, so a run's metrics
    do not depend on the runs beside it.

    A run's outcome is its MetricsLog, or the exception that stopped it: a
    DivergenceError, or an ArithmeticError from its hook; any other
    exception propagates. A stopped run keeps its row, with W = 0 and X = 0
    from then on, and its hook is not called again; the loop ends once
    every run has stopped.
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
    outcomes: list = [None] * len(runs)  # None while a run goes on
    rngs = [np.random.default_rng(cfg.noise_seed) for cfg in cfgs]
    cols = {name: np.empty((len(runs), steps)) for name in
            ("dist_to_opt", "dist_to_opt_mean", "consensus", "gme", "loss")}
    hess = np.stack([problem.hess for problem in problems])
    lr = np.array([cfg.lr for cfg in cfgs])[:, None, None]
    size = min(_CHUNK, steps)
    offset = np.empty((len(runs), size, d, n))
    offset[:] = np.stack([problem.lin.T for problem in problems])[:, None]
    ws = np.empty((len(runs), n, n))
    scratch = np.empty((len(runs), d, n))
    last = [None] * len(runs)  # each row's W object in ws
    xs = np.zeros((len(runs), size + 1, d, n))  # slot k + 1 takes step k's update
    for t in range(steps):
        k = t % size
        if k == 0:
            span = min(size, steps - t)
            if t:
                carried, xs = xs[:, size], np.empty_like(xs)
                xs[:, 0] = carried
            gs, gws = np.empty_like(xs[:, 1:]), np.empty_like(xs[:, 1:])
            for r, problem in enumerate(problems):
                if problem.noise_std > 0.0:
                    noise = rngs[r].normal(0.0, problem.noise_std, (span, d, n))
                    np.add(noise, problem.lin.T, out=offset[r, :span])
        x = xs[:, k]
        g = _node_gradients(hess, offset[:, k], x, gs[:, k])
        for r, hook in enumerate(hooks):
            if outcomes[r] is not None:
                continue
            try:
                w = hook(t, x[r], g[r])
            except ArithmeticError as exc:
                outcomes[r], w = exc, 0.0  # W = 0 sends the row to X = 0
            if w is not last[r]:
                ws[r] = last[r] = w
        gw = np.matmul(g, ws, out=gws[:, k])
        nxt = np.matmul(x, ws, out=xs[:, k + 1])
        nxt -= np.multiply(lr, gw, out=scratch)
        if not np.abs(nxt, out=scratch).max() <= _DIVERGE_LIMIT:
            big = np.abs(nxt).max(axis=(1, 2))
            for r in np.flatnonzero(~(big <= _DIVERGE_LIMIT)).tolist():
                if outcomes[r] is None:
                    outcomes[r] = DivergenceError(t, f"|X| reached {big[r]:.3e}")
                ws[r] = nxt[r] = 0.0  # a stopped row stays at X = 0
        if None not in outcomes:
            break
        if k == size - 1 or t == steps - 1:
            _chunk_metrics(problems, xs[:, :k + 1], gs[:, :k + 1], gws[:, :k + 1], cols, t - k)
    for r, outcome in enumerate(outcomes):
        if outcome is None:
            outcomes[r] = MetricsLog(
                step=np.arange(steps),
                **{name: col[r] for name, col in cols.items()},
                dist_to_opt_w=_trailing_mean(cols["dist_to_opt"][r], cfgs[r].window),
                consensus_w=_trailing_mean(cols["consensus"][r], cfgs[r].window),
                gme_w=_trailing_mean(cols["gme"][r], cfgs[r].window),
            )
    return outcomes


def _fixed(w: MixingMatrix):
    """The matrix_for_step of run_dsgd: W at every step."""
    mat = w.w
    return lambda t, x, g: mat


def _simulate_one(run) -> MetricsLog:
    """The log of one run, or the exception that stopped it, raised."""
    (result,) = _simulate([run])
    if isinstance(result, Exception):
        raise result
    return result


def run_dsgd(problem: Problem, topology: Topology, w: MixingMatrix, cfg: RunConfig) -> MetricsLog:
    """Fixed mixing: X <- X W - eta G W at every step.

    Raises ValueError if w has weight off the topology's edges and diagonal.
    """
    off = topology.off_support(w.w)
    if off is not None:
        raise ValueError(f"w has weight {w.w[off]:.3g} off the graph at {off}")
    return _simulate_one((problem, topology, cfg, _fixed(w)))


def _refreshed(topology: Topology, cfg: RunConfig):
    """The matrix_for_step of run_hadsgd, whose docstring gives the schedule."""
    mh = w = metropolis_hastings(topology).w

    def matrix(t, x, g):
        nonlocal w
        if t % cfg.period == 0:
            scfg = SketchConfig(cfg.sketch_dim, cfg.sketch_seed + t // cfg.period)
            w = ce_gme(g, topology, scfg).w
        return mh if t % cfg.period % 2 == 1 else w

    return matrix


def run_hadsgd(problem: Problem, topology: Topology, cfg: RunConfig) -> MetricsLog:
    """Periodically re-optimized mixing from sketched stochastic gradients.

    At steps divisible by cfg.period the mixing matrix is refreshed by
    ce_gme, at the default GmeSolverParams, on the step's stochastic
    gradients with sketch seed cfg.sketch_seed + refresh index. It is applied
    an even number of steps after its refresh and Metropolis-Hastings an odd
    number after, so period 1 applies a fresh matrix at every step.
    """
    return _simulate_one((problem, topology, cfg, _refreshed(topology, cfg)))
