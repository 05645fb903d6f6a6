"""Gradient-mixing-error minimization over the feasible mixing polytope.

The gradient mixing error of a weight matrix W for a d-by-n gradient
matrix G is ||G W - Gbar||_F^2 with Gbar the column-mean matrix, which
equals Tr[W^T Gamma W] for the Gram matrix Gamma of the centered
gradients. Minimizing that quadratic over the doubly stochastic matrices
supported on the communication graph is a convex QP; it is solved here by
a primal-dual interior-point method on the support entries, optionally on
sketched gradients so nodes only exchange k-dimensional summaries. The
objective is a sum over W's columns, so a Newton step inverts one small
block per column and one 2n-by-2n system in the row and column
multipliers. The solve stops on a certificate: its multipliers, corrected
into a feasible dual of the assignment LP, bound the optimum from below,
and the solve ends once its objective is within tol * f(init) of that
bound. Its iterate stays feasible, so it is the result as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log

import numpy as np

from .mixing import MixingMatrix, metropolis_hastings
from .topology import Topology

# largest row-sum or column-sum residual of an iterate the solve may certify
_SUM_TOL = 1e-10
# primal regularization of the solver's column blocks, against Gamma scaled
# to a largest eigenvalue of 1: keeps a block invertible where rank Gamma is
# below the block's size and Z/X goes to 0 on its entries
_REGULARIZATION = 1e-6
_STEP_FRACTION = 0.99  # share of the step to the boundary an iteration takes

__all__ = [
    "GramMatrix",
    "SketchConfig",
    "GmeSolverParams",
    "center_columns",
    "gram",
    "sketch",
    "jl_required_dim",
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
    """Iteration cap and certified stopping tolerance of solve_gme.

    A solve stops once its objective is provably within tol * f(init) of
    the optimum (see solve_gme), or after max_iters iterations. The 150
    refresh solves of the reference adaptive run take 7 to 8 Newton steps
    at the default 1e-5, and at most 11 at 1e-8; no solve of the tests or
    checks at the default needs more than 10, so the default cap of 100
    binds only a solve that has stopped converging. Their Gamma has rank 10,
    below n - 1 = 15, so the minimizer is not unique and the run's tail
    metrics move with tol: from a run at 1e-8, by 2.9e-5 at 1e-6, 8.7e-5
    at 1e-5 and 1.9e-4 at 1e-4, where the Frank-Wolfe gap reaches 2.3e-4
    of f(W).
    """

    max_iters: int = 100
    tol: float = 1e-5

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class GramMatrix:
    """Gram matrix of centered gradient columns.

    Symmetric, positive semidefinite up to roundoff, and with zero row
    sums (centering puts the all-ones vector in the kernel). Construction
    verifies all three, and keeps the largest eigenvalue (clipped at 0.0)
    from the spectrum the PSD check computes.
    """

    gamma: np.ndarray
    lam_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = np.array(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {g.shape}")
        scale = max(1.0, np.abs(g).max()) if g.size else 1.0
        asym = np.abs(g - g.T).max() if g.size else 0.0
        if asym > 1e-12 * scale:
            raise ValueError(f"Gram matrix is asymmetric (max gap {asym:.3e})")
        trace = float(np.trace(g))
        top = 0.0
        if np.any(g):
            spectrum = np.linalg.eigvalsh(g)
            low, top = float(spectrum[0]), max(float(spectrum[-1]), 0.0)
            if low < -1e-9 * max(trace, 0.0) - 1e-12 * scale:
                raise ValueError(f"Gram matrix is not PSD (eigenvalue {low:.3e})")
            rows = np.abs(g.sum(axis=1)).max()
            if rows > 1e-8 * np.linalg.norm(g):
                raise ValueError(f"Gram matrix rows must sum to zero (max {rows:.3e})")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "lam_max", top)


def center_columns(g: np.ndarray) -> np.ndarray:
    """Subtract the column mean from every column.

    A second pass removes the mean the rounding of the first leaves, which
    dominates when the columns (nearly) coincide and so fails GramMatrix's
    zero-row-sum check.
    """
    g = np.asarray(g, dtype=float)
    g = g - g.mean(axis=1, keepdims=True)
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


def gme_objective(gamma: GramMatrix, w: MixingMatrix) -> float:
    """Tr[W^T Gamma W], the gradient mixing error in Gram form."""
    return float(np.sum(w.w * (gamma.gamma @ w.w)))


def solve_gme(
    gamma: GramMatrix,
    topology: Topology,
    params: GmeSolverParams | None = None,
    init: MixingMatrix | None = None,
) -> MixingMatrix:
    """Minimize Tr[W^T Gamma W] over the feasible polytope.

    A primal-dual interior-point method on the support entries, with
    Mehrotra's predictor-corrector (Mehrotra 1992), on Gamma scaled to a
    largest eigenvalue of 1. It starts halfway between init
    (Metropolis-Hastings when absent) and Metropolis-Hastings, which is
    strictly positive on the support, with unit duals on the entries and
    zero multipliers on the sums. The objective is separable by column, so
    the Newton system is block diagonal: column j's block is
    2 Gamma[S_j, S_j] + Z/X on its support rows S_j, plus a small primal
    regularization (Altman & Gondzio 1999) that keeps the block invertible
    where rank Gamma is below its size. One batched inverse of the blocks
    and one inverse of the 2n-by-2n Schur complement in the row and column
    multipliers serve both the predictor and the corrector.

    Each Newton step keeps the sums at 1 and the entries positive, so the
    iterate is the result W. Once its sums are within _SUM_TOL and
    X^T Z within params.tol * f(init), the multipliers give a lower bound
    on the optimum (see _dual_gap), floored at 0 as Gamma is PSD. The solve
    stops once f(W) is within params.tol * f(init) of that bound, or after
    params.max_iters iterations. The result is never worse than init: a W
    above f(init) returns init. A zero Gamma or f(init) returns the init
    unchanged. Raises ValueError, naming the entry, if init has weight off
    the topology's support.
    """
    return _certified_solve(gamma, topology, params, init)[0]


def _certified_solve(
    gamma: GramMatrix,
    topology: Topology,
    params: GmeSolverParams | None,
    init: MixingMatrix | None,
) -> tuple[MixingMatrix, float]:
    """solve_gme's result W and its certified gap: f(W) minus the best
    lower bound on the optimum found, 0.0 where Gamma or f(init) is 0."""
    if params is None:
        params = GmeSolverParams()
    mh = metropolis_hastings(topology)
    if init is None:
        init = mh
    g = gamma.gamma
    if g.shape[0] != topology.n or init.n != topology.n:
        raise ValueError("Gram matrix, topology, and init sizes disagree")
    off = topology.off_support(init.w)
    if off is not None:
        raise ValueError(f"init has weight {init.w[off]:.3g} off the support at {off}")
    f_init = float((init.w * (g @ init.w)).sum())
    if gamma.lam_max <= 0.0 or f_init <= 0.0:  # f < 0 is a rounded 0
        return init, 0.0
    n, support = topology.n, topology.support_mask()
    # f's rounding error, about n^2 eps lam_max, floors the target
    target = max(params.tol * f_init, n * n * np.finfo(float).eps * gamma.lam_max)
    # column j's support rows are rows[j, :p_j], padded to the largest p
    counts = support.sum(axis=0)
    p = int(counts.max())
    mask = np.arange(p) < counts[:, None]
    rows = np.zeros((n, p), dtype=np.intp)
    rows[mask] = np.nonzero(support.T)[1]
    cols, slots = np.nonzero(mask)
    # e[j, k] is A's column for entry (rows[j, k], j): A maps the entries to
    # their row sums, then their column sums; e is 0 on the padding
    e = np.zeros((n, p, 2 * n))
    e[cols, slots, rows[cols, slots]] = 1.0
    e[cols, slots, n + cols] = 1.0
    a_t = e.reshape(n * p, 2 * n)
    pair = mask[:, :, None] & mask[:, None, :]
    q = np.where(pair, 2.0 / gamma.lam_max * g[rows[:, :, None], rows[:, None, :]], 0.0)
    diag = (slice(None), np.arange(p), np.arange(p))
    pad = (~mask).astype(float)
    shift = _REGULARIZATION + pad  # the identity on the padding
    s = np.repeat([1.0, -1.0], n)
    null = np.outer(s, s)  # A^T s = 0, so s spans the Schur complement's null space
    x = np.where(mask, 0.5 * (init.w + mh.w)[rows, np.arange(n)[:, None]], 1.0)
    z, y = mask.astype(float), np.zeros(2 * n)

    def certify():
        """The iterate, its objective and the lower bound that the
        multipliers certify, in [0, f]."""
        w = np.zeros((n, n))
        w[rows[cols, slots], cols] = x[cols, slots]
        # feasible also at the max_iters cap: the start's sums are within
        # 5e-10, each step solves A dx = -r_p to rounding, and x > 0
        w = MixingMatrix(w)
        gw = g @ w.w
        f = float((w.w * gw).sum())
        gap = _dual_gap(2.0 * gw, w.w, support, gamma.lam_max * y)
        return w, f, min(max(f - gap, 0.0), f)

    for _ in range(params.max_iters):
        r_p = x.ravel() @ a_t - 1.0
        r_d = (q @ x[:, :, None])[:, :, 0] - (a_t @ y).reshape(n, p) - z
        xz = float((x * z).sum())
        if xz * gamma.lam_max <= target and np.abs(r_p).max() <= _SUM_TOL:
            w, f, bound = certify()
            if f - bound <= target:
                break
        h = q.copy()
        h[diag] += z / x + shift
        h_inv = np.linalg.inv(h)
        h_inv_a = h_inv @ e
        s_inv = np.linalg.inv(a_t.T @ h_inv_a.reshape(n * p, 2 * n) + null)

        def newton(r_c):
            """(dx, dy, dz) for complementarity residual r_c. A second pass,
            iterative refinement, takes the sums' equation A dx = -r_p to
            rounding: the regularization bounds the Schur complement's
            condition only by about n / _REGULARIZATION."""
            dx, dy = (h_inv @ (r_c / x - r_d)[:, :, None])[:, :, 0], 0.0
            for _ in range(2):
                d = s_inv @ -(r_p + dx.ravel() @ a_t)
                dx, dy = dx + h_inv_a @ d, dy + d
            return dx, dy, (r_c - z * dx) / x

        dx, _, dz = newton(-x * z)
        step = _boundary_step(x, dx, z + pad, dz)
        sigma = (float(((x + step * dx) * (z + step * dz)).sum()) / xz) ** 3
        dx, dy, dz = newton(sigma * xz / cols.size * mask - x * z - dx * dz)
        step = min(1.0, _STEP_FRACTION * _boundary_step(x, dx, z + pad, dz))
        x, y, z = x + step * dx, y + step * dy, z + step * dz
    else:
        w, f, bound = certify()
    if f > f_init:  # then any bound above f(init) is rounding
        return init, max(f_init - bound, 0.0)
    return w, f - bound


def _boundary_step(x: np.ndarray, dx: np.ndarray, z: np.ndarray, dz: np.ndarray) -> float:
    """The largest step up to 1 that keeps x + step dx and z + step dz
    nonnegative, for x > 0 and z > 0."""
    ratio = min(float((dx / x).min()), float((dz / z).min()))
    return 1.0 if ratio >= -1.0 else -1.0 / ratio


def _dual_gap(grad: np.ndarray, w: np.ndarray, support: np.ndarray, uv: np.ndarray) -> float:
    """<grad, W> minus a lower bound on <grad, V> over every feasible V.

    For potentials uv = (u, v) with grad_ij >= u_i + v_j on the support,
    every feasible V has <grad, V> >= sum(u) + sum(v), so with grad the
    gradient at W the optimum is at least f(W) minus the returned gap
    (the bound of the assignment LP's dual, and so at least the
    Frank-Wolfe gap, Jaggi 2013). The solver's multipliers of the sums
    satisfy it where the entries' duals are nonnegative and its dual
    residual is 0. Elsewhere adding to u the row minima of the reduced
    cost grad - u - v over the support, then to v the column minima of the
    new reduced cost, restores it.
    """
    n = w.shape[0]
    u, v = uv[:n], uv[n:]
    reduced = np.where(support, grad - u[:, None] - v[None, :], np.inf)
    rows = reduced.min(axis=1)
    cols = (reduced - rows[:, None]).min(axis=0)
    return float((grad * w).sum() - (u + rows).sum() - (v + cols).sum())


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
