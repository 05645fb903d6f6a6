"""Mixing-matrix construction, the support check, and spectral quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmix.checks import _random_feasible
from hetmix.mixing import (
    MixingMatrix,
    compose,
    deviation_operator_norm,
    metropolis_hastings,
    pairing_matrix,
    uniform_clique_averaging,
)
from hetmix.topology import (
    Topology,
    build_complete,
    build_random_connected,
    build_ring,
    build_torus,
)


# --- oracle ------------------------------------------------------------
# dense SVD norm of W - J, independent of the symmetric eigensolver

def _dense_deviation(w):
    arr = w.w if isinstance(w, MixingMatrix) else np.asarray(w)
    n = arr.shape[0]
    return float(np.linalg.norm(arr - 1.0 / n, 2))


def _path3():
    return Topology(3, ((0, 1), (1, 2)))


# --- constructors ------------------------------------------------------

def test_metropolis_hastings_on_a_path():
    # degrees 1, 2, 1: edge weight 1/(1+2), remainder on the diagonal
    w = metropolis_hastings(_path3()).w
    expected = np.array(
        [[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]]
    )
    np.testing.assert_allclose(w, expected, atol=1e-15)


def test_metropolis_hastings_ring_is_uniform_thirds():
    w = metropolis_hastings(build_ring(5)).w
    assert np.allclose(w[w > 0], 1 / 3)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)


def test_metropolis_hastings_complete_is_uniform_averaging():
    np.testing.assert_allclose(
        metropolis_hastings(build_complete(4)).w, np.full((4, 4), 1 / 4), atol=1e-15
    )


def _loop_metropolis_hastings(topology):
    """The per-node and per-edge loops metropolis_hastings replaced."""
    n = topology.n
    w = np.zeros((n, n))
    deg = [0] * n
    for i, j in topology.edges:
        deg[i] += 1
        deg[j] += 1
    for i, j in topology.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w


@st.composite
def _graphs(draw):
    """A ring, complete graph, torus, star or random connected graph of up to 80 nodes."""
    kind = draw(st.sampled_from(["ring", "complete", "torus", "star", "random"]))
    if kind == "torus":
        return build_torus(draw(st.integers(3, 8)), draw(st.integers(3, 8)))
    n = draw(st.integers(3 if kind == "ring" else 2, 80))
    if kind == "ring":
        return build_ring(n)
    if kind == "complete":
        return build_complete(n)
    if kind == "star":
        return Topology(n, tuple((0, i) for i in range(1, n)))
    return build_random_connected(n, draw(st.floats(0.01, 1.0)), draw(st.integers(0, 2**16)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_graphs())
def test_metropolis_hastings_matches_the_loop_form_bit_for_bit(graph):
    assert np.array_equal(metropolis_hastings(graph).w, _loop_metropolis_hastings(graph))


def test_metropolis_hastings_always_valid_and_contracting():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        edges = build_complete(n).edges
        keep = rng.random(len(edges)) < 0.6
        kept = tuple(e for e, k in zip(edges, keep) if k)
        try:
            graph = Topology(n, kept)
        except ValueError:
            continue  # disconnected draw
        w = metropolis_hastings(graph)
        assert graph.off_support(w.w) is None
        assert np.allclose(w.w, w.w.T)
        # positive diagonal plus connectivity makes the chain primitive
        assert _dense_deviation(w) < 1.0


def test_uniform_clique_averaging_blocks():
    w = uniform_clique_averaging(((0, 1), (2,)))
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(w.w, expected, atol=1e-15)
    # the graph checks the cliques against its edges
    assert _path3().off_support(w.w) is None
    assert _path3().off_support(uniform_clique_averaging(((0, 2), (1,))).w) == (0, 2)


def test_uniform_clique_averaging_ignores_order():
    w = uniform_clique_averaging(((4, 3), (2, 0, 1)))
    assert w.n == 5
    np.testing.assert_array_equal(w.w, uniform_clique_averaging(((0, 1, 2), (3, 4))).w)


@pytest.mark.parametrize("cliques", [
    (), ((0, 1), ()), ((0, 1), (1, 2)), ((0, 1), (3,)),
], ids=["none", "empty", "overlap", "gap"])
def test_uniform_clique_averaging_rejects_a_bad_partition(cliques):
    with pytest.raises(ValueError, match="nonempty|partition"):
        uniform_clique_averaging(cliques)


def test_pairing_matrix():
    w = pairing_matrix(4).w
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5
    expected[2:, 2:] = 0.5
    np.testing.assert_allclose(w, expected, atol=1e-15)
    with pytest.raises(ValueError):
        pairing_matrix(5)


# --- the MixingMatrix invariants --------------------------------------

def test_constructor_rejects_bad_matrices():
    with pytest.raises(ValueError, match="square"):
        MixingMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        MixingMatrix(np.array([[np.nan, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="outside"):
        MixingMatrix(np.array([[1.1, -0.1], [-0.1, 1.1]]))
    # the worst offender is named: -0.7 is further outside than 1.2
    bad = np.full((4, 4), 0.25)
    bad[0, 0], bad[0, 2] = 1.2, -0.7
    with pytest.raises(ValueError, match=r"-0\.7 at \(0, 2\) is outside"):
        MixingMatrix(bad)
    with pytest.raises(ValueError, match="row 0"):
        MixingMatrix(np.array([[0.6, 0.6], [0.4, 0.4]]))
    with pytest.raises(ValueError, match="column 0"):
        # rows sum to one, columns do not
        MixingMatrix(np.array([[0.6, 0.4], [0.6, 0.4]]))


def test_constructor_reports_the_signed_sum_deviation():
    with pytest.raises(ValueError, match=r"row 0 sums to 1-1\.000e-01"):
        MixingMatrix(np.array([[0.4, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match=r"row 0 sums to 1\+2\.000e-01"):
        MixingMatrix(np.array([[0.6, 0.6], [0.4, 0.4]]))
    with pytest.raises(ValueError, match=r"column 0 sums to 1-2\.000e-01"):
        # rows sum to one; column 0 falls short by more than the others exceed
        MixingMatrix(np.array([[0.4, 0.3, 0.3], [0.4, 0.3, 0.3], [0.0, 0.5, 0.5]]))


def test_constructor_clamps_roundoff_noise():
    eps = 1e-13
    w = MixingMatrix(np.array([[1.0 + eps, -eps], [-eps, 1.0 + eps]]))
    np.testing.assert_array_equal(w.w, np.eye(2))
    assert not w.w.flags.writeable


def test_constructor_rejects_noise_beyond_the_tolerance():
    # rows and columns sum to one exactly; the entries miss [0, 1] by 4e-9
    off = 4e-9
    with pytest.raises(ValueError, match="outside"):
        MixingMatrix(np.array([[1.0 + off, -off], [-off, 1.0 + off]]))


# --- the support check ------------------------------------------------

def test_off_support_reports_the_first_entry_off_the_graph():
    g = build_ring(4)
    with pytest.raises(ValueError, match="shape"):
        g.off_support(np.ones((3, 3)) / 3)
    # uniform averaging uses the missing chords of the ring
    assert g.off_support(np.full((4, 4), 1 / 4)) == (0, 2)
    assert g.off_support(metropolis_hastings(g).w) is None
    # off the support the tolerance is exact zero: move 1e-7 of mass onto
    # the (0, 2) chord in a cycle that keeps all sums exact
    near = metropolis_hastings(g).w.copy()
    eps = 1e-7
    near[0, 2] += eps
    near[0, 0] -= eps
    near[2, 0] += eps
    near[2, 2] -= eps
    assert g.off_support(MixingMatrix(near).w) == (0, 2)


def _loop_support_mask(topology):
    """The support mask built entry by entry from the edge list."""
    mask = np.eye(topology.n, dtype=bool)
    for i, j in topology.edges:
        mask[i, j] = True
        mask[j, i] = True
    return mask


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_graphs(), st.integers(0, 2**16))
def test_support_mask_and_off_support(graph, seed):
    mask = graph.support_mask()
    assert mask.dtype == bool
    assert np.array_equal(mask, _loop_support_mask(graph))
    assert graph.support_mask() is mask
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 0] = False
    rng = np.random.default_rng(seed)
    assert graph.off_support(metropolis_hastings(graph).w) is None
    assert graph.off_support(_random_feasible(graph, rng).w) is None
    chords = np.argwhere(~mask)
    if not chords.size:
        return  # complete graph
    # move eps of mass around the 4-cycle (i, i) -> (i, j) -> (j, j) ->
    # (j, i) through the non-edge (i, j); every sum stays exact
    i, j = chords[rng.integers(len(chords))]
    near = metropolis_hastings(graph).w.copy()
    eps = 1e-7
    near[i, j] += eps
    near[i, i] -= eps
    near[j, i] += eps
    near[j, j] -= eps
    assert graph.off_support(near) == (min(i, j), max(i, j))


# --- spectral quantities ----------------------------------------------

def test_ring_deviation_matches_hand_value():
    # circulant eigenvalues (1 + 2cos(2 pi k / 6)) / 3; the largest
    # nontrivial one is 2/3
    w = metropolis_hastings(build_ring(6))
    assert abs(deviation_operator_norm(w) - 2 / 3) < 1e-9


# Weights 15/32 on the edges of a ring of 12 and 1/16 on the diagonal.
# The eigenvalues of W - J are 1 - (15/16)(1 - cos(2 pi k / 12)), so the
# largest, 1 - (15/16)(1 - cos(pi / 6)) = 0.87440, and the smallest,
# 1 - 15/8 = -0.875, nearly tie in magnitude.
_near_tie = MixingMatrix(
    np.eye(12) / 16 + (np.roll(np.eye(12), 1, 0) + np.roll(np.eye(12), -1, 0)) * 15 / 32
)


def test_deviation_matches_dense_oracle():
    evals = np.linalg.eigvalsh(_near_tie.w - 1 / 12)
    assert abs(evals[-1] + evals[0]) < 1e-3 * evals[-1]

    rng = np.random.default_rng(6)
    cases = []
    for _ in range(15):
        n = int(rng.integers(3, 10))
        cases.append(_random_feasible(build_ring(n), rng))
    cases.append(_near_tie)
    for w in cases:
        assert abs(deviation_operator_norm(w) - _dense_deviation(w)) < 1e-7


def test_identity_and_uniform_are_the_extremes():
    eye = MixingMatrix(np.eye(4))
    assert abs(deviation_operator_norm(eye) - 1.0) < 1e-10
    j = MixingMatrix(np.full((4, 4), 1 / 4))
    assert deviation_operator_norm(j) < 1e-9


def test_compose():
    g = build_ring(4)
    mh = metropolis_hastings(g)
    sq = compose(mh, mh)
    np.testing.assert_allclose(sq.w, mh.w @ mh.w, atol=1e-15)
    eye = MixingMatrix(np.eye(4))
    np.testing.assert_allclose(compose(eye, mh).w, mh.w, atol=1e-15)
    with pytest.raises(ValueError):
        compose(mh, MixingMatrix(np.eye(3)))
