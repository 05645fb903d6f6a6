"""Decentralized SGD runners with per-step metrics.

All variants share the update skeleton X <- (X - eta U) W applied as a
right multiplication, starting from X = 0, with metrics recorded before
each update from the step's own state, gradients, and applied matrix.

The step loop makes no metric reduction: it buffers each step's X, G and
G Wg, and the five metrics of every _CHUNK steps are computed together,
with batched reductions that keep the bits of their per-step forms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .gme import GmeSolverParams, SketchConfig, ce_gme
from .mixing import MixingMatrix, metropolis_hastings
from .objectives import Problem, full_gradients, stochastic_gradients
from .topology import Topology

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "MetricsLog",
    "Trace",
    "DivergenceError",
    "run_dsgd",
    "run_hadsgd",
    "check_update_identity",
]

ALGORITHMS = ("dsgd", "hadsgd", "decoupled", "hadsgd_momentum")

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
    """Shared knobs for both runners.

    period, sketch_*, alternate and momentum matter only to run_hadsgd,
    which applies momentum iff algorithm is "hadsgd_momentum".
    """

    steps: int
    lr: float
    algorithm: str = "dsgd"
    period: int = 100
    sketch_dim: int = 64
    sketch_seed: int = 0
    noise_seed: int = 0
    alternate: bool = True
    momentum: float = 0.9
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
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass
class Trace:
    """Everything needed to replay a run: states, applied directions, applied matrices."""

    lr: float
    x: list[np.ndarray] = field(default_factory=list)
    grads: list[np.ndarray] = field(default_factory=list)
    w_params: list[np.ndarray] = field(default_factory=list)
    w_grads: list[np.ndarray] = field(default_factory=list)


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
    trace: Trace | None = None

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


def _simulate(
    problem: Problem,
    topology: Topology,
    cfg: RunConfig,
    matrices_for_step,
    direction_for_step=None,
    exact_gradients: bool = False,
    record_trace: bool = False,
) -> MetricsLog:
    """Run X <- X Wp - eta U Wg for cfg.steps steps and return the metrics.

    A step draws the gradients G, takes the direction U (G itself unless
    direction_for_step replaces it) and the matrices (Wp, Wg), and updates
    X. It computes G Wg once, for the gme metric and, when U is G, for the
    update. Its X, G and G Wg go into buffers of _CHUNK steps, which
    _chunk_metrics reduces every _CHUNK steps and after the last step.
    """
    d, n = problem.d, topology.n
    if problem.n != n:
        raise ValueError(f"problem has {problem.n} nodes but graph has {n}")
    if cfg.lr > 2.0 / problem.smoothness:
        warnings.warn(
            f"lr {cfg.lr:.3g} exceeds 2/L = {2.0 / problem.smoothness:.3g}; "
            "expect divergence",
            RuntimeWarning,
        )
    x = np.zeros((d, n))
    rng = np.random.default_rng(cfg.noise_seed)
    cols = {name: np.empty(cfg.steps) for name in
            ("dist_to_opt", "dist_to_opt_mean", "consensus", "gme", "loss")}
    size = min(_CHUNK, cfg.steps)
    xs, gs, gws = (np.empty((size, d, n)) for _ in range(3))
    trace = Trace(lr=cfg.lr, x=[x.copy()]) if record_trace else None
    for t in range(cfg.steps):
        if exact_gradients:
            g = full_gradients(problem, x)
        else:
            g = stochastic_gradients(problem, x, rng)
        u = g if direction_for_step is None else direction_for_step(t, g)
        wp, wg = matrices_for_step(t, x, u)
        k = t % size
        xs[k] = x
        gs[k] = g
        gw = np.matmul(g, wg, out=gws[k])
        x_new = x @ wp - cfg.lr * (gw if u is g else u @ wg)
        big = np.abs(x_new).max()
        if not big <= _DIVERGE_LIMIT:
            raise DivergenceError(t, f"|X| reached {big:.3e}")
        if trace is not None:
            trace.grads.append(u.copy())
            trace.w_params.append(wp.copy())
            trace.w_grads.append(wg.copy())
            trace.x.append(x_new.copy())
        x = x_new
        if k == size - 1 or t == cfg.steps - 1:
            _chunk_metrics(problem, xs[:k + 1], gs[:k + 1], gws[:k + 1], cols, t - k)
    return MetricsLog(
        step=np.arange(cfg.steps),
        **cols,
        dist_to_opt_w=_trailing_mean(cols["dist_to_opt"], cfg.window),
        consensus_w=_trailing_mean(cols["consensus"], cfg.window),
        gme_w=_trailing_mean(cols["gme"], cfg.window),
        trace=trace,
    )


def run_dsgd(
    problem: Problem,
    topology: Topology,
    w: MixingMatrix,
    cfg: RunConfig,
    *,
    w_grads: MixingMatrix | None = None,
    exact_gradients: bool = False,
    record_trace: bool = False,
) -> MetricsLog:
    """Fixed mixing: X <- X W - eta G Wg, with Wg = W unless w_grads splits them."""
    wp = w.w
    wg = wp if w_grads is None else w_grads.w

    def matrices(t, x, u):
        return wp, wg

    return _simulate(problem, topology, cfg, matrices,
                     exact_gradients=exact_gradients, record_trace=record_trace)


def run_hadsgd(
    problem: Problem,
    topology: Topology,
    cfg: RunConfig,
    *,
    solver_params: GmeSolverParams | None = None,
    exact_gradients: bool = False,
    record_trace: bool = False,
) -> MetricsLog:
    """Periodically re-optimized mixing from sketched stochastic gradients.

    At steps divisible by cfg.period the mixing matrix is refreshed by
    ce_gme on the step's direction matrix with sketch seed
    cfg.sketch_seed + refresh index. With cfg.alternate the optimized
    matrix is applied on even steps and Metropolis-Hastings on odd steps
    (refreshes always land on even steps).

    With cfg.algorithm == "hadsgd_momentum" a buffered direction replaces
    the raw gradient everywhere: m <- beta m + G and U = beta m + G, so the
    first step applies (1 + beta) G. With momentum = 0 this reproduces the
    plain run exactly.
    """
    mh = metropolis_hastings(topology).w
    state = {"w": mh, "m": None}

    def matrices(t, x, u):
        if t % cfg.period == 0:
            scfg = SketchConfig(cfg.sketch_dim, cfg.sketch_seed + t // cfg.period)
            state["w"] = ce_gme(u, topology, scfg, solver_params).w
        if cfg.alternate and t % 2 == 1:
            return mh, mh
        return state["w"], state["w"]

    def momentum(t, g):
        state["m"] = g if state["m"] is None else cfg.momentum * state["m"] + g
        return cfg.momentum * state["m"] + g

    direction = momentum if cfg.algorithm == "hadsgd_momentum" else None
    return _simulate(problem, topology, cfg, matrices, direction,
                     exact_gradients=exact_gradients, record_trace=record_trace)


def check_update_identity(trace: Trace) -> float:
    """Largest scaled residual of the update identity over a recorded trace.

    Recomputes X^{t+1} = X^t Wp - eta U Wg from the recorded inputs of
    every step and compares against the recorded next iterate. Residuals
    are scaled by the magnitudes entering the identity; a faithful trace
    stays at roundoff level regardless of how accurately the matrices
    themselves are doubly stochastic.
    """
    worst = 0.0
    lr = trace.lr
    for t in range(len(trace.grads)):
        x0, x1 = trace.x[t], trace.x[t + 1]
        u, wp, wg = trace.grads[t], trace.w_params[t], trace.w_grads[t]
        pred = x0 @ wp - lr * (u @ wg)
        scale = 1.0 + np.linalg.norm(x0) + np.linalg.norm(x1) + lr * np.linalg.norm(u)
        worst = max(worst, float(np.linalg.norm(x1 - pred)) / scale)
    return worst
