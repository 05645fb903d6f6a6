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
solver caches that map to the 2n multipliers for one active set, and
accepts the W its multipliers give by the residual test Newton's method
stops on. When the active set changes, that W's active set is the one
the map predicts, and rank-one updates move the map there; Newton runs,
and the map is built afresh, only where such a move declines or its
output still fails the test.
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
# caps of the face's rank-one moves (see _Face.move): entries changed per
# move, and moves per projection before Newton's method takes over
_MOVE_ENTRIES = 4
_MOVE_STEPS = 3
# 1 - v^T P^+ v below which an entry to remove counts as a bridge: 0 up to
# rounding on a bridge, at least 1 / (2n) on any other entry
_BRIDGE_TOL = 1e-8

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
    _PROJECTION_TOL, within MixingMatrix's 1e-9. Raises
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
    return MixingMatrix(w)


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


def _components(active: np.ndarray) -> np.ndarray:
    """Component label of each of the 2n vertices of A's bipartite graph,
    rows then columns: the smallest row index in the vertex's component.

    Two rows share a component when a path of active entries joins them,
    which the boolean closure of A A^T, squared until it stops changing,
    records; a column takes the label of one of its active rows. Every row
    and column of a projection has an active entry, as it sums to one.
    """
    a = active.astype(float)
    reach = a @ a.T > 0.0
    while True:
        r = reach.astype(float)
        closed = r @ r > 0.0
        if np.array_equal(closed, reach):
            break
        reach = closed
    rows = reach.argmax(axis=1)
    return np.concatenate([rows, rows[active.argmax(axis=0)]])


def _pseudo_inverse(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """P^+ for P = _hessian(A), given the component labels of A's graph
    (see _components).

    P's null space is spanned by N, whose columns are s = (1_n, -1_n) on
    the vertices of one component each and 0 elsewhere. So N N^T is
    s_i s_j where i and j share a label and 0 elsewhere, N^T N is diagonal
    in the components' vertex counts m, P + N N^T is invertible, and
    P^+ = (P + N N^T)^-1 - N (N^T N)^-2 N^T.
    """
    n = p.shape[0] // 2
    s = np.repeat([1.0, -1.0], n)
    nnt = np.where(labels[:, None] == labels[None, :], np.outer(s, s), 0.0)
    m = np.bincount(labels)[labels]
    return np.linalg.inv(p + nnt) - nnt / np.outer(m, m)


class _Face:
    """The projection on one active set A, where it is affine in Z.

    With A fixed, the unit row and column sums give P ab = E_A^T Z_A - 1
    (see _hessian), so the multipliers are ab = K^T Z_A + c, with
    K = E_A P^+ (|A| by 2n; row k sums the rows i_k and n + j_k of P^+),
    c = -P^+ 1 plus a null-space part, and P^+ the pseudo-inverse, which
    _pseudo_inverse builds from one inverse of P + N N^T for N a basis of
    P's null space (a ridge in its place leaks about 1e-6 through it). The
    null space, one (1, -1) direction per component of the active graph,
    leaves W unchanged but moves alpha + beta between components, and so
    moves Z - alpha - beta off A. So c keeps the null-space part of the
    multipliers ab that Newton's method found for A: the minimum-norm
    multipliers may fail the check where Newton's pass, and on a complete
    graph of 3 nodes whose projection is the identity, the face then
    rejected the very input it was built from.

    The face only predicts multipliers; project accepts the W they give
    by Newton's own residual test. A face whose active graph is one
    component can move to a nearby active set (see move and project) by
    rank-one updates of P^+, in place of a Newton projection and a fresh
    build.
    """

    def __init__(self, active: np.ndarray, support: np.ndarray, ab: np.ndarray) -> None:
        n = support.shape[0]
        self.n = n
        self.support = support
        p = _hessian(active)
        labels = _components(active)
        self.connected = not labels.any()  # every vertex shares row 0's label
        self.p_plus = _pseudo_inverse(p, labels)
        self.null = ab - p @ (self.p_plus @ ab)
        self._gather(active)

    def _gather(self, active: np.ndarray) -> None:
        """K, c and the flat indices of active set A from P^+ and the
        null-space part of c."""
        self.mask = active
        self.active = np.flatnonzero(active)
        rows, cols = np.divmod(self.active, self.n)
        self.k = self.p_plus[rows] + self.p_plus[self.n + cols]
        self.c = -self.p_plus.sum(axis=1) + self.null

    def project(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The projection of z and its multipliers, or None.

        The face's multipliers ab for z give W = max(Z - alpha - beta, 0)
        on the support (see _primal), which is the projection wherever its
        row and column sums are within _PROJECTION_TOL of one: Newton's
        own stopping test. Where they are not, ab is the exact semismooth
        Newton step on the projection's dual from A, so W's active set is
        the one that step predicts; the face moves there and tries again,
        up to _MOVE_STEPS times. None where it still fails or a move
        declines.
        """
        for moves in range(_MOVE_STEPS + 1):
            ab = z.take(self.active) @ self.k + self.c
            _, w, active, res = _primal(z, self.support, ab)
            if np.abs(res).max() <= _PROJECTION_TOL:
                return w, ab
            if moves == _MOVE_STEPS or not self.move(active):
                return None

    def move(self, active: np.ndarray) -> bool:
        """Make this the face of active set A1 by rank-one updates of P^+;
        False, with the face unchanged, where they do not apply.

        Each entry (i, j) that enters or leaves A adds or removes v v^T in
        P, for v = e_i + e_{n+j}. While A's graph is one component, v lies
        in P's range, so P^+ -+ (P^+ v)(P^+ v)^T / (1 +- v^T P^+ v) is the
        new pseudo-inverse (Sherman-Morrison), and the null space, with
        the null-space part of c, is unchanged. Entries enter first, as
        they never split the graph. Removing an entry leaves it one
        component unless the entry is a bridge, where 1 - v^T P^+ v is 0;
        on any other entry it is at least 1 / (2n), one over the length
        of a cycle through it. The move declines where A's graph has several
        components, where more than _MOVE_ENTRIES entries change, none
        does, or an entry to remove is a bridge.
        """
        n = self.n
        entered = np.flatnonzero(active & ~self.mask)
        left = np.flatnonzero(self.mask & ~active)
        if not (self.connected and 0 < entered.size + left.size <= _MOVE_ENTRIES):
            return False
        p_plus = self.p_plus.copy()
        for sign, entries in ((-1.0, entered), (1.0, left)):
            for i, j in zip(*np.divmod(entries, n)):
                pv = p_plus[i] + p_plus[n + j]
                denom = 1.0 - sign * (pv[i] + pv[n + j])
                if not denom > _BRIDGE_TOL:
                    return False
                p_plus += np.outer(pv, pv) * (sign / denom)
        self.p_plus = p_plus
        self._gather(active)
        return True


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

    Each projection first tries the affine map from Z to the multipliers
    of the cached active set A (see _Face), which costs one
    matrix-vector product of size |A| by 2n. The W = max(Z - alpha -
    beta, 0) of its multipliers is accepted by the test Newton's method
    stops on: row and column sums within _PROJECTION_TOL of one, which
    with W's sign makes it the projection. Otherwise the map moves to
    W's active set, by one rank-one update of P^+ per changed entry, and
    tries again, up to _MOVE_STEPS times (see _Face.project). Where a
    move declines (A's graph has several components, more than
    _MOVE_ENTRIES entries change, or an entry to remove is a bridge) or
    the last try fails, Newton's method projects, warm-started from the
    last projection's multipliers, and the map is built afresh for its
    active set. The step takes Gamma's largest
    eigenvalue from GramMatrix. A zero Gamma or f(init) returns the init
    unchanged. Raises ValueError, naming the entry, if init has weight
    off the topology's support.
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
    off = topology.off_support(init.w)
    if off is not None:
        raise ValueError(f"init has weight {init.w[off]:.3g} off the support at {off}")
    support = topology.support_mask()
    w = init.w
    gw = g @ w
    f = float((w * gw).sum())
    if gamma.lam_max <= 0.0 or f <= 0.0:  # f < 0 is a rounded 0
        return init, 0.0
    step = 0.5 / gamma.lam_max
    target = params.tol * f
    # y is the extrapolated point and gy = Gamma y; beta is the momentum
    # weight that made y from the last two iterates
    y, gy, t, beta = w, gw, 1.0, 0.0
    ab, face, bound = None, None, -np.inf
    for it in range(1, params.max_iters + 1):
        z = y - step * 2.0 * gy
        hit = None if face is None else face.project(z)
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
    return MixingMatrix(w), f - bound


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
