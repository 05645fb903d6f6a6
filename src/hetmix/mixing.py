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
    "pairing_matrix",
    "deviation_operator_norm",
    "compose",
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


def validate(w, topology: Topology) -> Violation | None:
    """Check a candidate against the mixing-matrix constraints for a graph.

    Checks run in order shape, finiteness, entry range, row sums, column
    sums, support, and the first failure is returned; None means valid.
    The tolerances are 1e-12 for range, 1e-9 for sums, and exact zero off
    support.
    """
    arr = w.w if isinstance(w, MixingMatrix) else np.asarray(w, dtype=float)
    n = topology.n
    if arr.shape != (n, n):
        return Violation("shape", arr.shape, float("nan"))
    if not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        return Violation("finite", (int(i), int(j)), float(arr[i, j]))
    out = np.maximum(-arr, arr - 1.0)
    if out.max() > _RANGE_CLAMP:
        i, j = np.unravel_index(np.argmax(out), out.shape)
        return Violation("range", (int(i), int(j)), float(arr[i, j]))
    rows = arr.sum(axis=1) - 1.0
    if np.abs(rows).max() > _SUM_ATOL:
        i = int(np.abs(rows).argmax())
        return Violation("row_sum", (i,), float(rows[i]))
    cols = arr.sum(axis=0) - 1.0
    if np.abs(cols).max() > _SUM_ATOL:
        j = int(np.abs(cols).argmax())
        return Violation("col_sum", (j,), float(cols[j]))
    off = np.abs(arr) * ~topology.support_mask()
    if off.max() > 0.0:
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
