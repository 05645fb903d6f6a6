"""Synthetic distributed least-squares objectives.

Node i holds f_i(x) = ||A_i x + b_i||^2 on a shared parameter x in R^d;
the global objective is the average f = (1/n) sum_i f_i. Each f_i is
quadratic, so its gradient is H_i x + c_i with H_i = 2 A_i^T A_i and
c_i = 2 A_i^T b_i; Problem caches H_i and c_i once, and the gradients are
computed from them. The loss stays in the residual form, one product of
the nodes' stacked rows per point: a form measured from x* would carry
x*'s own rounding, and through Q = (1/n) sum_i A_i^T A_i A's condition
squared. f_i is L_i-smooth with L_i twice the top eigenvalue of
A_i^T A_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

__all__ = [
    "Problem",
    "make_random_quadratics",
    "make_two_class_ring",
    "make_replicated",
    "permute_nodes",
    "full_gradients",
    "zeta_sq_at",
    "relative_zeta_sq_at",
]

TWO_CLASS_NODES = 16
TWO_CLASS_NOISE_STD = sqrt(0.001)


@dataclass(frozen=True)
class Problem:
    """Node data stacked as read-only arrays, with the optimum, the
    smoothness bound and the node Hessians cached.

    Node i holds a[i] of shape (m, d) and b[i] of shape (m,). noise_std is
    the per-entry standard deviation of the additive gradient noise that
    the simulator's step loop draws, and must be finite and nonnegative.

    From A^T A, computed once, the problem caches the optimum x_star, the
    smoothness bound (twice the largest top eigenvalue of the A_i^T A_i),
    hess = 2 A_i^T A_i of shape (n, d, d) and lin = 2 A_i^T b_i of shape
    (n, d).
    """

    a: np.ndarray  # (n, m, d)
    b: np.ndarray  # (n, m)
    noise_std: float
    x_star: np.ndarray = field(init=False)
    smoothness: float = field(init=False)
    hess: np.ndarray = field(init=False, repr=False, compare=False)
    lin: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 3 or b.shape != a.shape[:2]:
            raise ValueError(f"incompatible shapes A {a.shape}, b {b.shape}")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std}")
        ata = a.transpose(0, 2, 1) @ a
        atb = (a.transpose(0, 2, 1) @ b[:, :, None])[..., 0]
        # Python sum adds node by node; ndarray.sum may pair terms differently,
        # which moves the last bits of the optimum
        x_star = _solve_optimum(sum(ata), sum(-atb))
        smoothness = 2.0 * max(np.linalg.eigvalsh(ata)[:, -1].max(), 0.0)
        cached = dict(a=a, b=b, x_star=x_star, hess=2.0 * ata, lin=2.0 * atb)
        for name, value in cached.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "noise_std", float(self.noise_std))
        object.__setattr__(self, "smoothness", float(smoothness))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[2]

    def loss(self, x: np.ndarray) -> float | np.ndarray:
        """Average objective at a point x of shape (d,), or at each row of a (T, d) stack.

        (1/n) sum_i ||A_i x + b_i||^2 as one product of the (n m, d) stacked
        rows per point, so each row of a stack gets the bits of a call at
        that row alone.
        """
        x = np.asarray(x, dtype=float)
        rows = self.a.reshape(-1, self.d)
        r = (np.atleast_2d(x)[:, None, :] @ rows.T)[:, 0] + self.b.ravel()
        total = (r[:, None, :] @ r[:, :, None])[:, 0, 0] / self.n
        return float(total[0]) if x.ndim == 1 else total


def _solve_optimum(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense symmetric solve of h x = rhs, h = sum A^T A, with a residual check."""
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
    return Problem(a, b, noise_std)


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
    return Problem(np.stack([a] * TWO_CLASS_NODES), np.stack(shifts), noise_std)


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
    return Problem(a[repeat], b[repeat], noise_std)


def permute_nodes(problem: Problem, perm) -> Problem:
    """Reassign node data by a permutation. The optimum and smoothness are
    re-solved from the permuted data: smoothness keeps its bits, and x_star
    moves only by the rounding of the node sums taken in another order."""
    perm = list(int(i) for i in perm)
    if sorted(perm) != list(range(problem.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return Problem(problem.a[perm], problem.b[perm], problem.noise_std)


def full_gradients(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Column i is node i's exact gradient H_i x_i + c_i at column i of the d-by-n matrix x.

    The result takes the memory layout of x, as the step loop's gradients
    take its X's, so a noiseless step loop's G equals this at its X, bit
    for bit: the layout decides how later products and column means round.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.d, problem.n):
        raise ValueError(f"expected shape {(problem.d, problem.n)}, got {x.shape}")
    return _node_gradients(problem.hess, problem.lin.T, x, np.empty_like(x))


def _node_gradients(hess, offset, x, out) -> np.ndarray:
    """out[..., :, i] = hess[..., i, :, :] @ x[..., :, i] + offset[..., :, i],
    for hess of shape (..., n, d, d) and offset, x and out (..., d, n); returns out.

    One batched product and one add. Every leading index runs the same
    per-node products, so a stack of problems gets the bits that
    full_gradients gives each of them.
    """
    np.matmul(hess, x.swapaxes(-1, -2)[..., None], out=out.swapaxes(-1, -2)[..., None])
    return np.add(out, offset, out=out)


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
