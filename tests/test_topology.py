"""Graph constructors, validation, and the edge-list file format."""

from math import ceil

import numpy as np
import pytest

from hetmix.topology import (
    CliquePartition,
    Topology,
    build_complete,
    build_random_connected,
    build_ring,
    build_torus,
    load_edge_list,
)


# --- oracles -----------------------------------------------------------
# union-find connectivity, independent of the package's search

def _connected_union_find(n, edges):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(n)}) == 1


def _degree_counts(n, edges):
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return deg


# --- constructors ------------------------------------------------------

def test_ring_structure():
    g = build_ring(6)
    assert g.n == 6
    assert len(g.edges) == 6
    assert [e for e in g.edges if 0 in e] == [(0, 1), (0, 5)]
    assert [e for e in g.edges if 3 in e] == [(2, 3), (3, 4)]
    assert _degree_counts(6, g.edges) == [2] * 6
    assert _connected_union_find(6, g.edges)


def test_ring_of_three_is_a_triangle():
    assert build_ring(3).edges == build_complete(3).edges == ((0, 1), (0, 2), (1, 2))


def test_ring_needs_three_nodes():
    with pytest.raises(ValueError):
        build_ring(2)


def test_torus_structure():
    g = build_torus(3, 4)
    assert g.n == 12
    assert len(g.edges) == 24  # 2 * rows * cols
    assert _degree_counts(12, g.edges) == [4] * 12
    assert _connected_union_find(12, g.edges)
    assert len(build_torus(3, 3).edges) == 18
    with pytest.raises(ValueError):
        build_torus(2, 5)


def test_complete_structure():
    g = build_complete(5)
    assert len(g.edges) == 10
    assert _degree_counts(5, g.edges) == [4] * 5
    assert build_complete(2).edges == ((0, 1),)
    with pytest.raises(ValueError):
        build_complete(1)


def test_random_connected_is_deterministic():
    a = build_random_connected(16, 0.5, seed=7)
    b = build_random_connected(16, 0.5, seed=7)
    assert a.edges == b.edges
    assert len(a.edges) == ceil(0.5 * 16 * 15 / 2)
    assert _connected_union_find(16, a.edges)
    assert build_random_connected(16, 0.5, seed=8).edges != a.edges


def test_random_connected_keep_one_is_complete():
    assert build_random_connected(7, 1.0, seed=0).edges == build_complete(7).edges


def test_random_connected_sweep():
    """Stays connected and hits the edge target across sizes and seeds."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        keep = float(rng.uniform(0.3, 0.9))
        g = build_random_connected(n, keep, seed=int(rng.integers(1 << 30)))
        total = n * (n - 1) // 2
        assert _connected_union_find(n, g.edges)
        # a target below the n-1 tree floor is unreachable
        assert len(g.edges) == max(n - 1, ceil(keep * total))


def test_random_connected_rejects_bad_fraction():
    with pytest.raises(ValueError):
        build_random_connected(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        build_random_connected(5, 1.5, seed=0)


# --- the Topology invariants ------------------------------------------

def test_constructor_rejects_malformed_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Topology(3, ((0, 0), (0, 1), (1, 2)))
    with pytest.raises(ValueError, match="canonical"):
        Topology(3, ((1, 0), (1, 2)))
    with pytest.raises(ValueError, match="canonical"):
        Topology(3, ((0, 1), (1, 3)))
    with pytest.raises(ValueError, match="duplicate"):
        Topology(3, ((0, 1), (0, 1), (1, 2)))
    with pytest.raises(ValueError, match="connected"):
        Topology(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        Topology(1, ())


def test_edges_are_sorted_regardless_of_input_order():
    g = Topology(4, ((2, 3), (0, 1), (1, 2), (0, 3)))
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_topology_is_immutable():
    g = build_ring(4)
    with pytest.raises(AttributeError):
        g.n = 5


def test_support_mask():
    g = build_ring(4)
    mask = g.support_mask()
    assert mask.dtype == bool
    assert np.array_equal(mask, mask.T)
    assert mask.diagonal().all()
    assert mask[0, 1] and not mask[0, 2]


# --- cliques -----------------------------------------------------------

def test_clique_partition_normalizes():
    p = CliquePartition(((2, 0, 1), (4, 3)))
    assert p.cliques == ((0, 1, 2), (3, 4))
    assert p.n == 5


def test_clique_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        CliquePartition(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        CliquePartition(((0, 1), (3,)))
    with pytest.raises(ValueError):
        CliquePartition(())


# --- file format -------------------------------------------------------

def test_edge_list_round_trip(tmp_path):
    for g in (build_ring(5), build_torus(3, 3), build_random_connected(9, 0.5, 3)):
        path = tmp_path / "g.txt"
        path.write_text(f"n={g.n}\n" + "".join(f"{i} {j}\n" for i, j in g.edges))
        assert load_edge_list(path) == g


def test_edge_list_loader_names_the_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=3\n0 1\n1 1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_edge_list(path)
    path.write_text("n=3\n0 1\n1 2\n1 0\n")  # (1, 0) duplicates (0, 1)
    with pytest.raises(ValueError, match="line 4.*duplicate"):
        load_edge_list(path)
    path.write_text("n=3\n0 5\n")
    with pytest.raises(ValueError, match="out of range"):
        load_edge_list(path)
    path.write_text("0 1\n1 2\n")
    with pytest.raises(ValueError, match="n="):
        load_edge_list(path)
    path.write_text("n=3\n0 x\n")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(path)
