"""Communication graphs for decentralized optimization.

Nodes are integers 0..n-1. Graphs are undirected, simple and connected:
every constructor and the file loader reject anything else. A graph is
held in one form, a boolean (n, n) support mask of edges plus diagonal;
its canonical (i, j) pairs, i < j, are read off the mask's upper triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

__all__ = [
    "Topology",
    "build_ring",
    "build_torus",
    "build_complete",
    "build_random_connected",
    "load_edge_list",
]


def _is_connected(adj: np.ndarray) -> bool:
    """Whether every node reaches node 0 in the boolean (n, n) adjacency
    adj, whose diagonal is set: the reached set grows by one boolean
    product per hop until it covers every node or stops changing."""
    reach = adj[0]
    while not reach.all():
        grown = adj @ reach
        if np.array_equal(grown, reach):
            return False
        reach = grown
    return True


def _edges(adj: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The canonical (i, j), i < j, of the mask's upper triangle, sorted, as Python ints."""
    rows, cols = np.nonzero(np.triu(adj, 1))
    return tuple(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class Topology:
    """A connected undirected graph without self-loops.

    Attributes:
        n: number of nodes.
        edges: canonical edge pairs (i, j) with i < j, sorted, as Python ints.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n={self.n}")
        support = np.eye(self.n, dtype=bool)
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 2
                    and all(isinstance(v, (int, np.integer)) for v in edge)):
                raise ValueError(f"edge {edge!r} is not a pair of integer node indices")
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge {edge} is not canonical for n={self.n}")
            if support[i, j]:
                raise ValueError(f"duplicate edge {edge}")
            support[i, j] = support[j, i] = True
        if not _is_connected(support):
            raise ValueError("graph is not connected")
        support.flags.writeable = False
        object.__setattr__(self, "edges", _edges(support))
        object.__setattr__(self, "_support", support)

    def support_mask(self) -> np.ndarray:
        """Read-only boolean (n, n) mask of allowed mixing-weight entries:
        edges plus the diagonal, built once at construction."""
        return self._support

    def off_support(self, w: np.ndarray) -> tuple[int, int] | None:
        """The first (i, j), in row-major order, where the (n, n) array w
        has weight off the edges and diagonal; None where it has none."""
        w = np.asarray(w)
        if w.shape != (self.n, self.n):
            raise ValueError(f"expected shape {(self.n, self.n)}, got {w.shape}")
        off = np.argwhere((w != 0.0) & ~self._support)
        return (int(off[0, 0]), int(off[0, 1])) if off.size else None


def build_ring(n: int) -> Topology:
    """Cycle over n >= 3 nodes; every node has degree 2.

    >>> build_ring(3).edges
    ((0, 1), (0, 2), (1, 2))
    """
    if n < 3:
        raise ValueError(f"a ring needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Topology(n, tuple((min(i, j), max(i, j)) for i, j in edges))


def build_torus(rows: int, cols: int) -> Topology:
    """Periodic 2-D grid with rows, cols >= 3; every node has degree 4."""
    if rows < 3 or cols < 3:
        raise ValueError(f"a torus needs rows, cols >= 3, got {rows}x{cols}")
    n = rows * cols
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for j in (r * cols + (c + 1) % cols, ((r + 1) % rows) * cols + c):
                edges.add((min(i, j), max(i, j)))
    return Topology(n, tuple(edges))


def build_complete(n: int) -> Topology:
    """All n(n-1)/2 edges, n >= 2."""
    if n < 2:
        raise ValueError(f"a complete graph needs n >= 2, got {n}")
    return Topology(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def build_random_connected(n: int, keep_fraction: float, seed: int) -> Topology:
    """Thin a complete graph down to roughly keep_fraction of its edges.

    Edges of the complete graph are visited once in a seed-determined
    shuffled order; each is removed from an all-True adjacency mask unless
    removal would disconnect the graph, stopping once
    ceil(keep_fraction * n(n-1)/2) edges remain. An edge that is a bridge
    stays a bridge as more edges go away, so a single pass suffices.

    Args:
        n: number of nodes (>= 2).
        keep_fraction: target fraction of complete-graph edges in (0, 1].
        seed: shuffle seed; the result is deterministic in (n, keep_fraction, seed).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    total = n * (n - 1) // 2
    target = ceil(keep_fraction * total)
    order = [(i, j) for i in range(n) for j in range(i + 1, n)]
    np.random.default_rng(seed).shuffle(order)
    adj = np.ones((n, n), dtype=bool)
    count = total
    for i, j in order:
        if count <= target:
            break
        adj[i, j] = adj[j, i] = False
        if _is_connected(adj):
            count -= 1
        else:
            adj[i, j] = adj[j, i] = True
    return Topology(n, _edges(adj))


def load_edge_list(path) -> Topology:
    """Read a graph from an edge-list text file.

    The first nonblank line is `n=<int>`; each further nonblank line is
    one edge `i j`, in either orientation. Validates node ranges,
    duplicates (in either orientation), self-loops, and connectivity; any
    problem raises ValueError naming the line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [(k + 1, ln.strip()) for k, ln in enumerate(lines) if ln.strip()]
    if not body or not body[0][1].startswith("n="):
        raise ValueError("edge-list file must start with a 'n=<int>' line")
    try:
        n = int(body[0][1][2:])
    except ValueError as exc:
        raise ValueError(f"bad node count {body[0][1]!r}") from exc
    edges = []
    seen = set()
    for lineno, ln in body[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer endpoint in {ln!r}") from exc
        if i == j:
            raise ValueError(f"line {lineno}: self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"line {lineno}: node out of range for n={n}")
        edge = (min(i, j), max(i, j))
        if edge in seen:
            raise ValueError(f"line {lineno}: duplicate edge {edge}")
        seen.add(edge)
        edges.append(edge)
    return Topology(n, tuple(edges))
