"""Synthetic distributed least-squares objectives.

Node i holds f_i(x) = ||A_i x + b_i||^2 on a shared parameter x in R^d;
the global objective is the average f = (1/n) sum_i f_i. Gradients are
2 A_i^T (A_i x + b_i), so f_i is L_i-smooth with L_i twice the top
eigenvalue of A_i^T A_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .linalg import top_eigenvalue

__all__ = [
    "Problem",
    "make_random_quadratics",
    "make_two_class_ring",
    "make_replicated",
    "permute_nodes",
    "full_gradients",
    "stochastic_gradients",
    "zeta_sq_at",
    "relative_zeta_sq_at",
]

TWO_CLASS_NODES = 16
TWO_CLASS_NOISE_STD = sqrt(0.001)


@dataclass(frozen=True)
class Problem:
    """Node data stacked as read-only arrays, with a cached optimum and smoothness bound.

    Node i holds a[i] of shape (m, d) and b[i] of shape (m,). noise_std is
    the per-entry standard deviation of the additive gradient noise used
    by stochastic_gradients.
    """

    a: np.ndarray  # (n, m, d)
    b: np.ndarray  # (n, m)
    noise_std: float
    x_star: np.ndarray
    smoothness: float

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 3 or b.shape != a.shape[:2]:
            raise ValueError(f"incompatible shapes A {a.shape}, b {b.shape}")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[2]

    def loss(self, x: np.ndarray) -> float | np.ndarray:
        """Average objective at a point x of shape (d,), or at each row of a (T, d) stack."""
        x = np.asarray(x, dtype=float)
        r = (self.a[:, None] @ np.atleast_2d(x)[:, :, None])[..., 0] + self.b[:, None]
        # per-node values summed in node order, for reproducible bits
        total = sum((r[..., None, :] @ r[..., :, None])[..., 0, 0]) / self.n
        return float(total[0]) if x.ndim == 1 else total


def _hessians(a: np.ndarray) -> np.ndarray:
    """Per-node A_i^T A_i, shape (n, d, d)."""
    return a.transpose(0, 2, 1) @ a


def _solve_optimum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense symmetric solve of sum A^T A x = -sum A^T b, with a residual check."""
    # Python sum adds node by node; ndarray.sum may pair terms differently,
    # which moves the last bits of the optimum
    h = sum(_hessians(a))
    rhs = sum(-(a.transpose(0, 2, 1) @ b[:, :, None])[..., 0])
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise ValueError("aggregate quadratic is singular; no unique optimum") from exc
    x = np.linalg.solve(h, rhs)
    resid = np.linalg.norm(h @ x - rhs) / max(1.0, np.linalg.norm(rhs))
    if resid > 1e-8:
        raise ArithmeticError(f"optimum solve is ill-conditioned (residual {resid:.3e})")
    return x


def _draw_nodes(rng: np.random.Generator, count: int, m: int, d: int):
    """Standard normal A_i and b_i, drawn in the order A_0, b_0, A_1, b_1, ... and stacked."""
    draws = [(rng.standard_normal((m, d)), rng.standard_normal(m)) for _ in range(count)]
    return np.stack([a for a, _ in draws]), np.stack([b for _, b in draws])


def _build(a: np.ndarray, b: np.ndarray, noise_std: float) -> Problem:
    if not 0.0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    x_star = _solve_optimum(a, b)
    smooth = 2.0 * max(top_eigenvalue(h) for h in _hessians(a))
    x_star.flags.writeable = False
    problem = Problem(a, b, float(noise_std), x_star, float(smooth))
    grad = full_gradients(problem, np.tile(x_star[:, None], (1, problem.n))).mean(axis=1)
    if np.linalg.norm(grad) > 1e-8 * (1.0 + np.linalg.norm(x_star)):
        raise ArithmeticError("cached optimum is not stationary")
    return problem


def make_random_quadratics(
    n: int, d: int, m: int | None = None, seed: int = 0, noise_std: float = 0.0
) -> Problem:
    """n independent nodes with standard normal A_i (m-by-d) and b_i.

    Requires n*m >= d so the aggregate Hessian can be invertible; an
    actually singular draw is an error rather than a silent fixup.
    """
    if m is None:
        m = d
    if n * m < d:
        raise ValueError(f"need n*m >= d for a unique optimum, got {n}*{m} < {d}")
    a, b = _draw_nodes(np.random.default_rng(seed), n, m, d)
    return _build(a, b, noise_std)


def make_two_class_ring(
    d: int, seed: int = 0, noise_std: float = TWO_CLASS_NOISE_STD
) -> Problem:
    """Sixteen nodes, two objectives, alternating around the ring.

    One shared standard normal A defines f1(x) = ||A(x - 1)||^2 on even
    nodes and f2(x) = ||A(x + 1)||^2 on odd nodes, so the optimum is the
    origin and neighboring pairs average to the global objective.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    shift = a @ np.ones(d)
    shifts = [-shift if i % 2 == 0 else shift for i in range(TWO_CLASS_NODES)]
    return _build(np.stack([a] * TWO_CLASS_NODES), np.stack(shifts), noise_std)


def make_replicated(
    n: int, d: int, m: int | None = None, period: int = 2, seed: int = 0,
    noise_std: float = 0.0,
) -> Problem:
    """Random nodes whose data repeats with the given period; period must divide n."""
    if period < 1 or n % period:
        raise ValueError(f"period {period} must divide n={n}")
    if m is None:
        m = d
    a, b = _draw_nodes(np.random.default_rng(seed), period, m, d)
    repeat = np.arange(n) % period
    return _build(a[repeat], b[repeat], noise_std)


def permute_nodes(problem: Problem, perm) -> Problem:
    """Reassign node data by a permutation; the optimum and smoothness are unchanged."""
    perm = list(int(i) for i in perm)
    if sorted(perm) != list(range(problem.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return Problem(
        problem.a[perm],
        problem.b[perm],
        problem.noise_std,
        problem.x_star,
        problem.smoothness,
    )


def full_gradients(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Column i is node i's exact gradient at column i of the d-by-n matrix x.

    One batched matmul gives the same bits as a loop over nodes, and the
    result takes the memory layout of x, as that loop's would: the layout
    decides how later products and column means round.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.d, problem.n):
        raise ValueError(f"expected shape {(problem.d, problem.n)}, got {x.shape}")
    a = problem.a
    r = a @ x.T[:, :, None] + problem.b[:, :, None]
    out = np.empty_like(x)
    out[...] = 2.0 * (a.transpose(0, 2, 1) @ r)[..., 0].T
    return out


def stochastic_gradients(
    problem: Problem, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Exact gradients plus independent per-entry N(0, noise_std^2) noise."""
    g = full_gradients(problem, x)
    if problem.noise_std > 0.0:
        g = g + rng.normal(0.0, problem.noise_std, size=g.shape)
    return g


def _common_point_gradients(problem: Problem, x: np.ndarray) -> np.ndarray:
    tiled = np.tile(np.asarray(x, dtype=float).reshape(-1, 1), (1, problem.n))
    return full_gradients(problem, tiled)


def zeta_sq_at(problem: Problem, x: np.ndarray) -> float:
    """Heterogeneity at x: (1/n) sum_i ||grad f_i(x) - grad f(x)||^2."""
    g = _common_point_gradients(problem, x)
    return float(np.sum((g - g.mean(axis=1, keepdims=True)) ** 2)) / problem.n


def relative_zeta_sq_at(problem: Problem, x: np.ndarray, w) -> float:
    """Post-mixing heterogeneity at x: (1/n) ||grad f(x 1^T) W - mean||_F^2.

    Accepts a MixingMatrix or a plain array for w.
    """
    arr = w.w if hasattr(w, "w") else np.asarray(w, dtype=float)
    g = _common_point_gradients(problem, x)
    mixed = g @ arr - g.mean(axis=1, keepdims=True)
    return float(np.sum(mixed**2)) / problem.n
