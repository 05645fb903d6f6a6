"""Communication graphs for decentralized optimization.

Nodes are integers 0..n-1. Graphs are undirected and simple, stored as
canonical (i, j) pairs with i < j, and must be connected: every
constructor and the file loader reject anything else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import ceil

import numpy as np

__all__ = [
    "Topology",
    "CliquePartition",
    "build_ring",
    "build_torus",
    "build_complete",
    "build_random_connected",
    "load_edge_list",
]


def _is_connected(n: int, neighbor_sets: list[set[int]]) -> bool:
    """Breadth-first search reachability from node 0."""
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in neighbor_sets[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == n


def _neighbor_sets(n: int, edges) -> list[set[int]]:
    sets: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        sets[i].add(j)
        sets[j].add(i)
    return sets


@dataclass(frozen=True)
class Topology:
    """A connected undirected graph without self-loops.

    Attributes:
        n: number of nodes.
        edges: canonical edge pairs (i, j) with i < j, sorted.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n={self.n}")
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge {edge} is not canonical for n={self.n}")
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if not _is_connected(self.n, _neighbor_sets(self.n, self.edges)):
            raise ValueError("graph is not connected")

    def support_mask(self) -> np.ndarray:
        """Boolean (n, n) mask of allowed mixing-weight entries: edges plus the diagonal."""
        mask = np.eye(self.n, dtype=bool)
        for i, j in self.edges:
            mask[i, j] = True
            mask[j, i] = True
        return mask


@dataclass(frozen=True)
class CliquePartition:
    """Disjoint node groups covering 0..n-1, intended as complete subgraphs."""

    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cliques = tuple(tuple(sorted(int(i) for i in c)) for c in self.cliques)
        if not cliques or any(len(c) == 0 for c in cliques):
            raise ValueError("cliques must be nonempty")
        members = [i for c in cliques for i in c]
        n = len(members)
        if sorted(members) != list(range(n)):
            raise ValueError("cliques must partition 0..n-1 without gaps or overlap")
        object.__setattr__(self, "cliques", cliques)

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cliques)


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
    shuffled order; each is removed unless removal would disconnect the
    graph, stopping once ceil(keep_fraction * n(n-1)/2) edges remain.
    An edge that is a bridge stays a bridge as more edges go away, so a
    single pass suffices.

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
    nbrs = _neighbor_sets(n, order)
    count = total
    for i, j in order:
        if count <= target:
            break
        nbrs[i].discard(j)
        nbrs[j].discard(i)
        if _is_connected(n, nbrs):
            count -= 1
        else:
            nbrs[i].add(j)
            nbrs[j].add(i)
    edges = tuple((i, int(j)) for i in range(n) for j in nbrs[i] if i < j)
    return Topology(n, edges)


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
