"""Doubly stochastic mixing matrices restricted to a communication graph."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .linalg import top_eigenvalue
from .topology import Topology

__all__ = [
    "MixingMatrix",
    "metropolis_hastings",
    "uniform_clique_averaging",
    "pairing_matrix",
    "deviation_operator_norm",
    "compose",
]

_ATOL = 1e-9


@dataclass(frozen=True)
class MixingMatrix:
    """Doubly stochastic weights; w[i, j] is the weight node j places on node i.

    Parameters mix by right multiplication: for a d-by-n parameter matrix X,
    column j of X @ w is node j's new value. Rows and columns each sum to
    one within 1e-9, and entries lie in [0, 1]; symmetry is not required.
    Entries within 1e-9 outside the unit interval are clamped at
    construction, anything further out is rejected. Which entries a graph
    allows is the graph's to check (see Topology.off_support).
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("mixing matrix has non-finite entries")
        if w.min() < -_ATOL or w.max() > 1.0 + _ATOL:
            i, j = np.unravel_index(
                np.argmax(np.maximum(-w, w - 1.0)), w.shape
            )
            raise ValueError(f"entry {float(w[i, j])!r} at ({i}, {j}) is outside [0, 1]")
        np.clip(w, 0.0, 1.0, out=w)
        for kind, dev in (("row", w.sum(axis=1) - 1.0), ("column", w.sum(axis=0) - 1.0)):
            k = int(np.abs(dev).argmax())
            if abs(dev[k]) > _ATOL:
                raise ValueError(f"{kind} {k} sums to 1{dev[k]:+.3e}")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.w.shape[0]


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


def uniform_clique_averaging(cliques: tuple[tuple[int, ...], ...]) -> MixingMatrix:
    """Block-diagonal uniform averaging within each clique.

    The cliques are nonempty node tuples that partition 0..n-1 without
    gaps or overlap, in any order; anything else raises
    ValueError. Whether a graph holds the cliques is the graph's to check
    (see Topology.off_support).
    """
    if not cliques or any(len(c) == 0 for c in cliques):
        raise ValueError("cliques must be nonempty")
    n = sum(len(c) for c in cliques)
    if sorted(int(i) for c in cliques for i in c) != list(range(n)):
        raise ValueError("cliques must partition 0..n-1 without gaps or overlap")
    w = np.zeros((n, n))
    for clique in cliques:
        idx = np.array(clique)
        w[np.ix_(idx, idx)] = 1.0 / len(clique)
    return MixingMatrix(w)


def pairing_matrix(n: int) -> MixingMatrix:
    """Average consecutive pairs (0,1), (2,3), ... with weight 1/2 each."""
    if n % 2:
        raise ValueError(f"pairing needs an even node count, got {n}")
    return uniform_clique_averaging(tuple((2 * k, 2 * k + 1) for k in range(n // 2)))


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
    return MixingMatrix(a.w @ b.w)
