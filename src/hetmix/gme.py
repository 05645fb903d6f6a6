"""Gradient-mixing-error minimization over the feasible mixing polytope.

The gradient mixing error of a weight matrix W for a d-by-n gradient
matrix G is ||G W - Gbar||_F^2 with Gbar the column-mean matrix, which
equals Tr[W^T Gamma W] for the Gram matrix Gamma of the centered
gradients. Minimizing that quadratic over the doubly stochastic matrices
supported on the communication graph is a convex QP; it is solved here by
accelerated projected gradient with function restart, optionally on
sketched gradients so nodes only exchange k-dimensional summaries. The
solve stops on a certificate: the multipliers of a projection, corrected
into a feasible dual of the assignment LP, bound the optimum from below,
and the solve ends once its objective is within tol * f(init) of the best
such bound. Each projection is exact up to a stated
row-sum and column-sum residual: Newton's method on the dual in the 2n row
and column multipliers finds it, warm-started within a solve from the
last projection's multipliers. Successive projections of a solve mostly share their
active set (the support entries where W > 0), on which the multipliers,
and so the projection, are affine in the input's entries on that set. The
solver caches that map to the 2n multipliers for the last active set
Newton found, and accepts its output only where it passes the
projection's optimality conditions, so Newton runs only when the active
set changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log, sqrt

import numpy as np

from .mixing import MixingMatrix, metropolis_hastings
from .topology import Topology

_RIDGE = 1e-10  # added to the Newton system's diagonal, which has degree-sized entries
_ARMIJO = 1e-4  # sufficient-decrease fraction of the projection's line search
# Newton iterations without a new smallest residual before a projection gives
# up; converging cold starts at input scales up to 1e8 went at most 35 without
_STALL_ITERS = 50
# largest row-sum or column-sum residual of a projection, its only error
_PROJECTION_TOL = 1e-10
_PROJECTION_MAX_ITERS = 5000  # Newton iterations of one projection
_GAP_EVERY = 10  # solver iterations between two certificates

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
    """Iteration cap and certified stopping tolerance of solve_gme.

    A solve stops once its objective is provably within tol * f(init) of
    the optimum (see solve_gme), or after max_iters iterations. At the
    default 1e-5 the tail metrics of the reference adaptive run sit within
    6.3e-7 of a solve run to 1e-8; at 1e-4 they move 5.0e-6, and the
    Frank-Wolfe gap can exceed 1e-4 of f(W).
    """

    max_iters: int = 2000
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

    @property
    def n(self) -> int:
        return self.gamma.shape[0]


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


def project_feasible(m: np.ndarray, topology: Topology) -> MixingMatrix:
    """Euclidean projection onto the feasible polytope, exact up to _PROJECTION_TOL.

    The projection of Z is W = max(Z - alpha 1^T - 1 beta^T, 0) on the
    support and 0 off it, for the row and column multipliers (alpha, beta)
    at which every row and column of W sums to one. Newton's method finds
    them from a cold start (see _newton_projection). The result is
    nonnegative and exactly zero off the support, so its only error is the
    largest row-sum or column-sum residual, which is at most
    _PROJECTION_TOL, so it passes validation at 1e-8. Raises
    ArithmeticError, naming the residual, if _PROJECTION_MAX_ITERS Newton
    steps do not get there, or if the residual sets no new minimum in
    _STALL_ITERS consecutive steps, as where its rounding floor lies above
    _PROJECTION_TOL.
    """
    n = topology.n
    x = np.array(m, dtype=float)
    if x.shape != (n, n):
        raise ValueError(f"expected shape {(n, n)}, got {x.shape}")
    w, _ = _newton_projection(x, topology.support_mask(), None)
    return MixingMatrix(w, sum_atol=1e-8)


def _newton_projection(
    z: np.ndarray, support: np.ndarray, ab: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The projection on plain arrays: (W, multipliers), started from ab.

    ab stacks (alpha, beta); None starts from half the mean excess of each
    row and column over its share 1/degree. Newton's method minimizes the
    convex dual phi = ||W||^2 / 2 + sum(alpha) + sum(beta), whose gradient
    is minus the row-sum and column-sum residuals. Its generalized Hessian
    is the signless Laplacian of the bipartite graph of active entries
    (rows on one side, columns on the other), which is singular along
    (1, -1) on every component of the active graph, hence the ridge. An
    Armijo line search on phi globalizes the steps. It measures the change
    of phi entry by entry, so that near the solution, where that change is
    far below the rounding error of phi itself, it still sees descent.
    """
    n = z.shape[0]
    if ab is None:
        deg = np.tile(support.sum(axis=1), 2)
        zs = np.where(support, z, 0.0)
        ab = (np.concatenate([zs.sum(axis=1), zs.sum(axis=0)]) - 1.0) / (2.0 * deg)
    diag = np.arange(2 * n)
    _, w, active, res = _primal(z, support, ab)
    err = best = float(np.abs(res).max())
    stalled = 0
    for it in range(_PROJECTION_MAX_ITERS + 1):
        if err <= _PROJECTION_TOL:
            return w, ab
        if it == _PROJECTION_MAX_ITERS:
            break
        h = _hessian(active)
        h[diag, diag] += _RIDGE
        d = np.linalg.solve(h, res)
        slope = float(res @ d)  # minus the directional derivative of phi
        shift = d[:n, None] + d[None, n:]
        step = 1.0
        cand = ab + d
        while True:
            t, w_c, active_c, res_c = _primal(z, support, cand)
            # phi(cand) - phi(ab) is -step * slope plus these terms; an entry
            # active at both points contributes (step * shift)^2 / 2 exactly
            u = step * shift
            quad = np.where(active, 0.5 * u * u - 0.5 * np.minimum(t, 0.0) ** 2,
                            0.5 * w_c * w_c)
            if float(quad.sum()) <= (1.0 - _ARMIJO) * step * slope:
                break
            step *= 0.5
            cand = ab + step * d
            if np.array_equal(cand, ab):
                raise ArithmeticError(
                    f"Newton projection line search made no progress (residual {err:.3e})"
                )
        ab, w, active, res = cand, w_c, active_c, res_c
        err = float(np.abs(res).max())
        if err < best:
            best, stalled = err, 0
            continue
        stalled += 1
        if stalled == _STALL_ITERS:
            raise ArithmeticError(
                f"Newton projection stalled at residual {best:.3e} "
                f"(no smaller residual in {_STALL_ITERS} iterations)"
            )
    raise ArithmeticError(
        f"Newton projection did not converge in {_PROJECTION_MAX_ITERS} "
        f"iterations (residual {err:.3e})"
    )


def _primal(z: np.ndarray, support: np.ndarray, ab: np.ndarray):
    """Z - alpha - beta at multipliers ab, the W it gives, W's active
    entries, and W's row then column residuals."""
    n = z.shape[0]
    t = z - ab[:n, None] - ab[None, n:]
    active = support & (t > 0.0)
    w = np.where(active, t, 0.0)
    return t, w, active, np.concatenate([w.sum(axis=1), w.sum(axis=0)]) - 1.0


def _hessian(active: np.ndarray) -> np.ndarray:
    """P = E_A^T E_A, for E_A the 0/1 map from the multipliers (alpha, beta)
    to alpha_i + beta_j on each active entry (i, j): the signless Laplacian
    of the bipartite graph of A, and the projection dual's Hessian."""
    n = active.shape[0]
    a = active.astype(float)
    h = np.zeros((2 * n, 2 * n))
    h[:n, n:] = a
    h[n:, :n] = a.T
    diag = np.arange(2 * n)
    h[diag, diag] = np.concatenate([a.sum(axis=1), a.sum(axis=0)])
    return h


class _Face:
    """The projection on one active set A, where it is affine in Z.

    With A fixed, the unit row and column sums give P ab = E_A^T Z_A - 1
    (see _hessian), so the multipliers are ab = K^T Z_A + c, with
    K = E_A P^+ (|A| by 2n; row k sums the rows i_k and n + j_k of P^+),
    c = -P^+ 1 plus a null-space part, and P^+ the pseudo-inverse (a ridge
    in its place leaks about 1e-6 through P's null space). That null
    space, one (1, -1) direction per component of the active graph,
    leaves W unchanged but moves alpha + beta between components, and so
    moves Z - alpha - beta off A. So c keeps the null-space part of the
    multipliers ab that Newton's method found for A. Without them (None)
    the minimum-norm multipliers may fail the check where Newton's pass:
    on a complete graph of 3 nodes whose projection is the identity, the
    face then rejected the very input it was built from.
    """

    def __init__(self, active: np.ndarray, support: np.ndarray, ab: np.ndarray | None) -> None:
        n = support.shape[0]
        self.n = n
        self.active = np.flatnonzero(active)
        self.rest = np.flatnonzero(support & ~active)
        rows, cols = np.divmod(self.active, n)
        entry = np.arange(self.active.size)
        self.sums = np.zeros((2 * n, self.active.size))  # E_A^T, W_A to its row then column sums
        self.sums[rows, entry] = 1.0
        self.sums[n + cols, entry] = 1.0
        p = _hessian(active)
        # P's null-space eigenvalues come out of rounding near 1e-15 of the
        # largest, and its smallest nonzero one is above 1e-6 of it for
        # n <= 64 (4 / m^2 on a component of m vertices); numpy's default
        # cutoff of 1e-15 inverted a null direction on a 10-node forest
        pinv = np.linalg.pinv(p, 1e-10, hermitian=True)
        self.k = pinv[rows] + pinv[n + cols]
        self.c = -pinv.sum(axis=1)
        if ab is not None:
            self.c += ab - p @ (pinv @ ab)

    def apply(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The projection of z and its multipliers if A is its active set,
        else None.

        A is z's active set exactly when W = Z - alpha - beta is positive
        on A, Z - alpha - beta is at most 0 on the rest of the support, and
        W's row and column sums are within _PROJECTION_TOL of one: the
        conditions that make W the projection, as Newton's residual check
        does.
        """
        n = self.n
        ab = z.take(self.active) @ self.k + self.c
        t = z - ab[:n, None] - ab[None, n:]
        wa = t.take(self.active)
        # negated tests, so that a NaN fails them
        if not (wa.min() > 0.0 and t.take(self.rest).max(initial=0.0) <= 0.0):
            return None
        if not np.abs(self.sums @ wa - 1.0).max() <= _PROJECTION_TOL:
            return None
        w = np.zeros(n * n)
        w[self.active] = wa
        return w.reshape(n, n), ab


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

    Accelerated projected gradient (FISTA, Beck & Teboulle 2009) from
    init (Metropolis-Hastings when absent), with step 1/L for
    L = 2 ||Gamma||_2 the gradient's Lipschitz constant. An iterate is
    accepted only if it does not raise the objective, so the result is at
    least as good as the start. A step that would raise it restarts the
    momentum (function restart, O'Donoghue & Candes 2015); a step without
    momentum that would raise it, which only rounding can cause, stops
    the solve. Every _GAP_EVERY iterations the projection's multipliers
    give a lower bound on the optimum (see _dual_gap), and the solve stops
    once the objective is within params.tol * f(init) of the best such
    bound, or at params.max_iters.

    Each projection first tries the affine map of the last active set A
    Newton's method found (see _Face), which costs two matrix-vector
    products of size |A| by 2n. Its output is accepted only if it
    satisfies the projection's optimality conditions: positive on A,
    Z - alpha - beta at most 0 on the rest of the support, and row and
    column sums within _PROJECTION_TOL of one. Otherwise Newton's method
    projects, warm-started from the last projection's multipliers, and its
    active set replaces the cached one. The step takes Gamma's largest
    eigenvalue from GramMatrix. A zero Gamma or f(init) returns the init
    unchanged.
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
    if init is None:
        init = metropolis_hastings(topology)
    g = gamma.gamma
    if g.shape[0] != topology.n or init.n != topology.n:
        raise ValueError("Gram matrix, topology, and init sizes disagree")
    w = init.w
    gw = g @ w
    f = float((w * gw).sum())
    if gamma.lam_max <= 0.0 or f <= 0.0:  # f < 0 is a rounded 0
        return init, 0.0
    step = 0.5 / gamma.lam_max
    target = params.tol * f
    support = topology.support_mask()
    # y is the extrapolated point and gy = Gamma y; beta is the momentum
    # weight that made y from the last two iterates
    y, gy, t, beta = w, gw, 1.0, 0.0
    ab, face, bound = None, None, -np.inf
    for it in range(1, params.max_iters + 1):
        z = y - step * 2.0 * gy
        hit = None if face is None else face.apply(z)
        if hit is None:
            w_new, ab = _newton_projection(z, support, ab)
            face = _Face(w_new > 0.0, support, ab)
        else:
            w_new, ab = hit
        gw_new = g @ w_new
        f_new = float((w_new * gw_new).sum())
        if f_new > f:
            if beta == 0.0:
                break
            y, gy, t, beta = w, gw, 1.0, 0.0
            continue
        t_next = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = w_new + beta * (w_new - w)
        gy = gw_new + beta * (gw_new - gw)
        w, gw, f, t = w_new, gw_new, f_new, t_next
        if it % _GAP_EVERY == 0:
            bound = max(bound, f - _dual_gap(2.0 * gw, w, support, ab, step))
            if f - bound <= target:
                break
    bound = max(bound, f - _dual_gap(2.0 * gw, w, support, ab, step))
    return MixingMatrix(w, sum_atol=1e-8), f - bound


def _dual_gap(
    grad: np.ndarray, w: np.ndarray, support: np.ndarray, ab: np.ndarray, step: float
) -> float:
    """<grad, W> minus a lower bound on <grad, V> over every feasible V.

    For potentials u, v with grad_ij >= u_i + v_j on the support, every
    feasible V has <grad, V> >= sum(u) + sum(v), so with grad the
    gradient at W the optimum is at least f(W) minus the returned gap
    (the bound of the assignment LP's dual, and so at least the
    Frank-Wolfe gap, Jaggi 2013). The projection W = max(Z - alpha -
    beta, 0) of Z = Y - step grad(Y) makes u = -alpha / step and
    v = -beta / step satisfy it where W = Y; elsewhere adding to u the row
    minima of the reduced cost grad - u - v over the support, then to v
    the column minima of the new reduced cost, restores it.
    """
    n = w.shape[0]
    u, v = -ab[:n] / step, -ab[n:] / step
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
