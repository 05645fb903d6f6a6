"""Gradient-mixing-error minimization over the feasible mixing polytope.

The gradient mixing error of a weight matrix W for a d-by-n gradient
matrix G is ||G W - Gbar||_F^2 with Gbar the column-mean matrix, which
equals Tr[W^T Gamma W] for the Gram matrix Gamma of the centered
gradients. Minimizing that quadratic over the doubly stochastic matrices
supported on the communication graph is a convex QP; it is solved here by
projected gradient descent with a Dykstra projection, optionally on
sketched gradients so nodes only exchange k-dimensional summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .linalg import top_eigenvalue
from .mixing import MixingMatrix, metropolis_hastings
from .topology import Topology

__all__ = [
    "GramMatrix",
    "SketchConfig",
    "GmeSolverParams",
    "center_columns",
    "gram",
    "sketch",
    "jl_required_dim",
    "project_feasible",
    "solve_gme",
    "ce_gme",
    "gme_objective",
]


@dataclass(frozen=True)
class SketchConfig:
    """Shared random projection: k rows, one seed common to all nodes."""

    k: int
    seed: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"sketch dimension must be >= 1, got {self.k}")


@dataclass(frozen=True)
class GmeSolverParams:
    """Caps and tolerances for the projected-gradient solver and its projector."""

    max_iters: int = 2000
    tol: float = 1e-10
    projection_tol: float = 1e-10
    projection_max_iters: int = 5000

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.projection_max_iters < 1:
            raise ValueError("iteration caps must be positive")
        if self.tol <= 0 or self.projection_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class GramMatrix:
    """Gram matrix of centered gradient columns.

    Symmetric, positive semidefinite up to roundoff, and with zero row
    sums (centering puts the all-ones vector in the kernel). Construction
    verifies all three.
    """

    gamma: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {g.shape}")
        scale = max(1.0, np.abs(g).max()) if g.size else 1.0
        asym = np.abs(g - g.T).max() if g.size else 0.0
        if asym > 1e-12 * scale:
            raise ValueError(f"Gram matrix is asymmetric (max gap {asym:.3e})")
        trace = float(np.trace(g))
        if np.any(g):
            low = float(np.linalg.eigvalsh(g)[0])
            if low < -1e-9 * max(trace, 0.0) - 1e-12 * scale:
                raise ValueError(f"Gram matrix is not PSD (eigenvalue {low:.3e})")
            rows = np.abs(g.sum(axis=1)).max()
            if rows > 1e-8 * np.linalg.norm(g):
                raise ValueError(f"Gram matrix rows must sum to zero (max {rows:.3e})")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    @property
    def n(self) -> int:
        return self.gamma.shape[0]


def center_columns(g: np.ndarray) -> np.ndarray:
    """Subtract the column mean from every column."""
    g = np.asarray(g, dtype=float)
    return g - g.mean(axis=1, keepdims=True)


def gram(gc: np.ndarray) -> GramMatrix:
    """Gram matrix Gc^T Gc of (already centered) columns, symmetrized exactly."""
    gc = np.asarray(gc, dtype=float)
    gamma = gc.T @ gc
    return GramMatrix((gamma + gamma.T) / 2.0)


def sketch(g: np.ndarray, cfg: SketchConfig) -> np.ndarray:
    """Compress rows: S = A G with a k-by-d standard normal A drawn from cfg.seed.

    The projection matrix is materialized row-major in one pass, so the
    same (k, d, seed) always yields the same A on every node. No 1/sqrt(k)
    scaling is applied; the downstream argmin is invariant to it.
    """
    g = np.asarray(g, dtype=float)
    a = np.random.default_rng(cfg.seed).standard_normal((cfg.k, g.shape[0]))
    return a @ g


def jl_required_dim(m: int, delta: float, eps: float) -> int:
    """Sketch rows needed so all m(m+1)/2 pairwise inner products survive.

    With k >= 100 log(m/delta) / eps^2, with probability at least 1-delta
    every |<A u_i, A u_j>/k - <u_i, u_j>| stays below eps * max_i ||u_i||^2.
    Values at or above the ambient dimension d can simply be capped at d,
    where the sketch can be checked directly.
    """
    if not (m >= 1 and 0 < delta < 1 and eps > 0):
        raise ValueError("need m >= 1, delta in (0, 1), eps > 0")
    return ceil(100.0 * log(m / delta) / eps**2)


def project_feasible(
    m: np.ndarray, topology: Topology, params: GmeSolverParams | None = None
) -> MixingMatrix:
    """Euclidean projection onto the feasible polytope by Dykstra's method.

    Cycles three sets: rows summing to one, columns summing to one, and
    the clamp set (entrywise nonnegative, zero off the support). The two
    sum sets are affine so they need no correction term; the clamp set
    keeps one. Stops when successive iterates differ by at most
    projection_tol in Frobenius norm; the iterate returned has exact
    zeros off support and passes validation at 1e-8.
    """
    if params is None:
        params = GmeSolverParams()
    n = topology.n
    x = np.array(m, dtype=float)
    if x.shape != (n, n):
        raise ValueError(f"expected shape {(n, n)}, got {x.shape}")
    return MixingMatrix(_dykstra(x, topology.support_mask(), params), sum_atol=1e-8)


def _dykstra(x: np.ndarray, support: np.ndarray, params: GmeSolverParams) -> np.ndarray:
    """The projection loop on plain arrays.

    Returns the last iterate clipped to [0, 1], as a MixingMatrix built from
    it would be, so solves on plain arrays keep their results bit for bit.
    """
    n = x.shape[0]
    q = np.zeros_like(x)
    prev = None
    diff = np.inf
    for _ in range(params.projection_max_iters):
        x = x - (x.sum(axis=1, keepdims=True) - 1.0) / n
        x = x - (x.sum(axis=0, keepdims=True) - 1.0) / n
        y = x + q
        x = np.where(support, np.maximum(y, 0.0), 0.0)
        q = y - x
        if prev is not None:
            diff = float(np.linalg.norm(x - prev))
            if diff <= params.projection_tol:
                return np.clip(x, 0.0, 1.0, out=x)
        prev = x
    raise ArithmeticError(
        f"Dykstra projection did not converge in {params.projection_max_iters} "
        f"cycles (last change {diff:.3e})"
    )


def gme_objective(gamma: GramMatrix, w: MixingMatrix) -> float:
    """Tr[W^T Gamma W], the gradient mixing error in Gram form."""
    return _objective(gamma.gamma, w.w)


def _objective(g: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w * (g @ w)))


def solve_gme(
    gamma: GramMatrix,
    topology: Topology,
    params: GmeSolverParams | None = None,
    init: MixingMatrix | None = None,
) -> MixingMatrix:
    """Minimize Tr[W^T Gamma W] over the feasible polytope.

    Projected gradient descent from init (Metropolis-Hastings when absent)
    with step 1/(2 ||Gamma||_2 + 1e-12). Any objective increase halves the
    step and retries, so the objective never increases and the result is
    at least as good as the start. Stops once the per-iteration decrease
    drops below tol relative to the starting objective, or at max_iters.
    A zero Gamma returns the init unchanged.
    """
    if params is None:
        params = GmeSolverParams()
    if init is None:
        init = metropolis_hastings(topology)
    g = gamma.gamma
    if g.shape[0] != topology.n or init.n != topology.n:
        raise ValueError("Gram matrix, topology, and init sizes disagree")
    if not np.any(g):
        return init
    # only sets the step size, so a loose tolerance is fine and avoids
    # stalls on nearly-tied top eigenvalues
    lam = top_eigenvalue(g, tol=1e-6)
    if lam <= 0.0:
        return init
    step = 1.0 / (2.0 * lam + 1e-12)
    w = init.w.copy()
    f = _objective(g, w)
    floor = params.tol * max(f, 1e-300)
    if f == 0.0:
        return init
    support = topology.support_mask()
    for _ in range(params.max_iters):
        grad = 2.0 * (g @ w)
        w_new = _dykstra(w - step * grad, support, params)
        f_new = _objective(g, w_new)
        while f_new > f and step > 1e-300:
            step *= 0.5
            w_new = _dykstra(w - step * grad, support, params)
            f_new = _objective(g, w_new)
        if f_new > f:
            break
        drop = f - f_new
        w, f = w_new, f_new
        if drop <= floor:
            break
    return MixingMatrix(w, sum_atol=1e-8)


def ce_gme(
    g: np.ndarray,
    topology: Topology,
    cfg: SketchConfig,
    params: GmeSolverParams | None = None,
    init: MixingMatrix | None = None,
) -> MixingMatrix:
    """Communication-efficient pipeline: sketch, center, Gram, solve.

    Every node draws the same projection from cfg.seed, so exchanging the
    k-dimensional sketched gradients is enough to assemble the Gram
    matrix. Zero gradients degrade gracefully to the init.
    """
    s = sketch(g, cfg)
    return solve_gme(gram(center_columns(s)), topology, params, init)
