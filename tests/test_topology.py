"""Graph constructors, validation, the edge-list file format, and the
random feasible matrices the checks draw on those graphs."""

import importlib.util
from math import ceil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetmix.checks import _random_feasible, _random_permutation
from hetmix.mixing import MixingMatrix
from hetmix.topology import (
    Topology,
    build_complete,
    build_random_connected,
    build_ring,
    build_torus,
    load_edge_list,
)


# --- oracles -----------------------------------------------------------
# union-find connectivity, independent of the package's boolean products,
# and the benchmark's own thinning of the complete graph, loaded read-only

_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def _load_reference():
    spec = importlib.util.spec_from_file_location("bench_reference", _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


random_connected_edges = _load_reference().random_connected_edges


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
    # an edge that is not a pair of integers is named, whatever breaks first
    with pytest.raises(ValueError, match=r"edge \(0\.0, 1\.0\) is not a pair"):
        Topology(3, ((0.0, 1.0), (1, 2)))
    with pytest.raises(ValueError, match=r"edge \(0, 1, 2\) is not a pair"):
        Topology(3, ((0, 1, 2),))
    with pytest.raises(ValueError, match=r"edge \(0, '1'\) is not a pair"):
        Topology(3, ((0, "1"),))
    with pytest.raises(ValueError, match=r"edge \[0, 1\] is not a pair"):
        Topology(2, ([0, 1],))
    # numpy integers are node indices too
    assert Topology(3, ((np.int64(0), np.int32(1)), (1, np.uint8(2)))).edges == ((0, 1), (1, 2))


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


# --- generated graphs and the checks' feasible draws -------------------

@st.composite
def _graphs(draw):
    """A ring, torus, complete graph, star or random connected graph of 2
    to 24 nodes (rings from 3, tori from 3 by 3)."""
    kind = draw(st.sampled_from(["ring", "torus", "complete", "star", "random"]))
    if kind == "torus":
        return build_torus(draw(st.integers(3, 5)), draw(st.integers(3, 5)))
    n = draw(st.integers(3 if kind == "ring" else 2, 24))
    if kind == "ring":
        return build_ring(n)
    if kind == "complete":
        return build_complete(n)
    if kind == "star":
        return Topology(n, tuple((0, i) for i in range(1, n)))
    return build_random_connected(n, draw(st.floats(0.01, 1.0)), draw(st.integers(0, 2**16)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_graphs())
@example(build_complete(2))
def test_generated_graphs_are_connected_and_canonical(graph):
    assert all(0 <= i < j < graph.n for i, j in graph.edges)
    assert list(graph.edges) == sorted(set(graph.edges))
    assert _connected_union_find(graph.n, graph.edges)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_graphs(), st.integers(0, 2**32))
@example(build_complete(2), 0)
def test_random_feasible_draws_mix_permutations_along_edges(graph, seed):
    """Each permutation sends every node to itself or to a neighbour, so a
    draw mixing them constructs a MixingMatrix with no weight off the graph."""
    rng = np.random.default_rng(seed)
    edges = set(graph.edges)
    perm = _random_permutation(graph, rng)
    assert sorted(perm.tolist()) == list(range(graph.n))
    for i, j in enumerate(perm.tolist()):
        assert i == j or (min(i, j), max(i, j)) in edges
    w = _random_feasible(graph, rng)
    assert isinstance(w, MixingMatrix)
    assert graph.off_support(w.w) is None


# --- the mask form against independent oracles -------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 40), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
@example(40, 0.01, 0)
def test_random_connected_matches_the_reference_thinning(n, keep, seed):
    assert build_random_connected(n, keep, seed).edges == random_connected_edges(n, keep, seed)


@st.composite
def _edge_subsets(draw):
    """n from 2 to 16 and a random subset of its node pairs, each kept with
    a drawn probability and given in a drawn order; low probabilities
    leave many subsets disconnected."""
    n = draw(st.integers(2, 16))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kept = rng.random(len(pairs)) < draw(st.floats(0.0, 1.0))
    return n, draw(st.permutations([e for e, k in zip(pairs, kept) if k]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_edge_subsets())
@example((2, []))
@example((4, [(0, 1), (2, 3)]))
@example((5, [(3, 4), (0, 2), (1, 2), (0, 1)]))
def test_topology_accepts_exactly_the_connected_subsets(case):
    n, edges = case
    if _connected_union_find(n, edges):
        assert Topology(n, tuple(edges)).edges == tuple(sorted(edges))
    else:
        with pytest.raises(ValueError, match="not connected"):
            Topology(n, tuple(edges))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_graphs(), st.sampled_from([np.int8, np.uint8, np.int32, np.uint32, np.int64]))
def test_numpy_integer_edges_come_back_as_python_ints(graph, dtype):
    given_edges = tuple((dtype(i), dtype(j)) for i, j in graph.edges)
    edges = Topology(graph.n, given_edges).edges
    assert edges == graph.edges
    assert all(type(v) is int for edge in edges for v in edge)


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
