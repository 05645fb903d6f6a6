"""Doubly stochastic mixing matrices restricted to a communication graph."""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from math import sqrt

import numpy as np

from .linalg import top_eigenvalue
from .topology import CliquePartition, Topology

__all__ = [
    "MixingMatrix",
    "Violation",
    "metropolis_hastings",
    "uniform_clique_averaging",
    "uniform_averaging",
    "pairing_matrix",
    "deviation_operator_norm",
    "compose",
    "optimal_spectral_gap_weights",
    "validate",
]

_RANGE_CLAMP = 1e-12
_SUM_ATOL = 1e-9


@dataclass(frozen=True)
class MixingMatrix:
    """Doubly stochastic weights; w[i, j] is the weight node j places on node i.

    Parameters mix by right multiplication: for a d-by-n parameter matrix X,
    column j of X @ w is node j's new value. Rows and columns each sum to one
    and entries lie in [0, 1]; symmetry is not required. Entries within
    max(1e-12, sum_atol) outside the unit interval are clamped at
    construction, anything further out is rejected.
    """

    w: np.ndarray
    sum_atol: InitVar[float] = _SUM_ATOL

    def __post_init__(self, sum_atol: float) -> None:
        w = np.array(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("mixing matrix has non-finite entries")
        clamp = max(_RANGE_CLAMP, sum_atol)
        if w.min() < -clamp or w.max() > 1.0 + clamp:
            i, j = np.unravel_index(
                np.argmax(np.maximum(-w, w - 1.0)), w.shape
            )
            raise ValueError(f"entry {w[i, j]!r} at ({i}, {j}) is outside [0, 1]")
        np.clip(w, 0.0, 1.0, out=w)
        for kind, dev in (("row", w.sum(axis=1) - 1.0), ("column", w.sum(axis=0) - 1.0)):
            k = int(np.abs(dev).argmax())
            if abs(dev[k]) > sum_atol:
                raise ValueError(f"{kind} {k} sums to 1{dev[k]:+.3e}")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class Violation:
    """First constraint a candidate matrix breaks, with location and size."""

    kind: str  # shape | finite | range | row_sum | col_sum | support
    index: tuple[int, ...]
    magnitude: float

    def __str__(self) -> str:
        return f"{self.kind} violation at {self.index} (magnitude {self.magnitude:.3e})"


def validate(w, topology: Topology, atol: float | None = None) -> Violation | None:
    """Check a candidate against the mixing-matrix constraints for a graph.

    Checks run in order shape, finiteness, entry range, row sums, column
    sums, support, and the first failure is returned; None means valid.
    With atol=None the defaults are 1e-12 for range, 1e-9 for sums, and
    exact zero off support; a given atol replaces all three.
    """
    range_atol = _RANGE_CLAMP if atol is None else atol
    sum_atol = _SUM_ATOL if atol is None else atol
    support_atol = 0.0 if atol is None else atol
    arr = w.w if isinstance(w, MixingMatrix) else np.asarray(w, dtype=float)
    n = topology.n
    if arr.shape != (n, n):
        return Violation("shape", arr.shape, float("nan"))
    if not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        return Violation("finite", (int(i), int(j)), float(arr[i, j]))
    out = np.maximum(-arr, arr - 1.0)
    if out.max() > range_atol:
        i, j = np.unravel_index(np.argmax(out), out.shape)
        return Violation("range", (int(i), int(j)), float(arr[i, j]))
    rows = arr.sum(axis=1) - 1.0
    if np.abs(rows).max() > sum_atol:
        i = int(np.abs(rows).argmax())
        return Violation("row_sum", (i,), float(rows[i]))
    cols = arr.sum(axis=0) - 1.0
    if np.abs(cols).max() > sum_atol:
        j = int(np.abs(cols).argmax())
        return Violation("col_sum", (j,), float(cols[j]))
    off = np.abs(arr) * ~topology.support_mask()
    if off.max() > support_atol:
        i, j = np.unravel_index(np.argmax(off), off.shape)
        return Violation("support", (int(i), int(j)), float(arr[i, j]))
    return None


def metropolis_hastings(topology: Topology) -> MixingMatrix:
    """Symmetric weights 1/(1 + max(deg_i, deg_j)) on edges, remainder on the diagonal.

    On a ring every weight is 1/3; on a complete graph this is uniform
    averaging.
    """
    n = topology.n
    i, j = np.array(topology.edges).T
    deg = np.bincount(np.concatenate([i, j]), minlength=n)
    w = np.zeros((n, n))
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    w[np.diag_indices(n)] = 1.0 - w.sum(axis=1)
    return MixingMatrix(w)


def uniform_clique_averaging(partition: CliquePartition) -> MixingMatrix:
    """Block-diagonal uniform averaging within each clique; validate checks it against a graph."""
    n = partition.n
    w = np.zeros((n, n))
    for clique in partition.cliques:
        idx = np.array(clique)
        w[np.ix_(idx, idx)] = 1.0 / len(clique)
    return MixingMatrix(w)


def uniform_averaging(n: int) -> MixingMatrix:
    """The rank-one matrix (1/n) 11^T; feasible only on a complete graph."""
    return MixingMatrix(np.full((n, n), 1.0 / n))


def pairing_matrix(n: int) -> MixingMatrix:
    """Average consecutive pairs (0,1), (2,3), ... with weight 1/2 each."""
    if n % 2:
        raise ValueError(f"pairing needs an even node count, got {n}")
    return uniform_clique_averaging(
        CliquePartition(tuple((2 * k, 2 * k + 1) for k in range(n // 2)))
    )


def deviation_operator_norm(w: MixingMatrix) -> float:
    """||W - (1/n) 11^T||_2, the root of the squared deviation's top eigenvalue."""
    a = w.w - 1.0 / w.n
    return sqrt(top_eigenvalue(a.T @ a))


def compose(a: MixingMatrix, b: MixingMatrix) -> MixingMatrix:
    """Matrix product a @ b; double stochasticity is closed under products.

    The product's support is the path-product support, not checked here.
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    # sums of numerically-projected factors are only 1e-8-accurate, and
    # products inherit that error
    return MixingMatrix(a.w @ b.w, sum_atol=1e-8)


def optimal_spectral_gap_weights(topology: Topology, iters: int = 500) -> MixingMatrix:
    """Symmetric feasible weights minimizing ||W - J||_2 by projected subgradient.

    The subgradient of the extreme eigenvalue is the outer product of its
    eigenvector; steps shrink as 0.5/sqrt(k+1) and each iterate is pushed
    back onto the polytope (then symmetrized, which the polytope allows).
    Starts at Metropolis-Hastings and tracks the best iterate, so the
    result is never worse than that start.
    """
    from .gme import project_feasible  # the projector lives with the solver

    n = topology.n
    w = metropolis_hastings(topology).w.copy()
    best_w, best_dev = None, np.inf
    for k in range(iters + 1):
        evals, evecs = np.linalg.eigh(w - 1.0 / n)
        dev = max(evals[-1], -evals[0])
        if dev < best_dev:
            best_w, best_dev = w.copy(), dev
        if k == iters or best_dev == 0.0:
            break
        if evals[-1] >= -evals[0]:
            grad = np.outer(evecs[:, -1], evecs[:, -1])
        else:
            grad = -np.outer(evecs[:, 0], evecs[:, 0])
        w = project_feasible(w - (0.5 / sqrt(k + 1)) * grad, topology).w
        w = (w + w.T) / 2.0
    return MixingMatrix(best_w, sum_atol=1e-8)
