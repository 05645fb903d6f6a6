"""Mixing-matrix construction, validation, and spectral quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmix.gme import project_feasible
from hetmix.mixing import (
    MixingMatrix,
    compose,
    deviation_operator_norm,
    metropolis_hastings,
    pairing_matrix,
    uniform_clique_averaging,
    validate,
)
from hetmix.topology import (
    CliquePartition,
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
        assert validate(w, graph) is None
        assert np.allclose(w.w, w.w.T)
        # positive diagonal plus connectivity makes the chain primitive
        assert _dense_deviation(w) < 1.0


def test_uniform_clique_averaging_blocks():
    w = uniform_clique_averaging(CliquePartition(((0, 1), (2,))))
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(w.w, expected, atol=1e-15)
    # validate checks the cliques against a graph
    assert validate(w, _path3()) is None
    bad = validate(uniform_clique_averaging(CliquePartition(((0, 2), (1,)))), _path3())
    assert bad.kind == "support"


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


def test_wider_sum_tolerance_also_widens_the_clamp():
    off = 4e-9
    m = np.array([[1.0 + off, -off], [-off, 1.0 + off]])
    with pytest.raises(ValueError):
        MixingMatrix(m)
    w = MixingMatrix(m, sum_atol=1e-8)
    np.testing.assert_array_equal(w.w, np.eye(2))


def test_validate_reports_first_violation_in_order():
    g = build_ring(4)
    assert validate(np.ones((3, 3)) / 3, g).kind == "shape"
    bad = np.full((4, 4), 0.25)
    bad[0, 0] = np.inf
    assert validate(bad, g).kind == "finite"
    bad = np.full((4, 4), 0.25)
    bad[0, 0], bad[0, 2] = 1.2, -0.7
    v = validate(bad, g)
    # the worst offender wins: -0.7 is further outside than 1.2
    assert v.kind == "range" and v.index == (0, 2)
    bad = np.full((4, 4), 0.25)
    bad[1, 1] = 0.5
    assert validate(bad, g).kind == "row_sum"
    # uniform averaging uses the missing chords of the ring
    v = validate(np.full((4, 4), 1 / 4), g)
    assert v.kind == "support" and v.index == (0, 2)
    assert validate(metropolis_hastings(g), g) is None
    assert "support" in str(v)


def test_validate_single_atol_overrides_all_three():
    g = build_ring(4)
    near = metropolis_hastings(g).w.copy()
    # move mass onto the (0, 2) chord in a cycle that keeps all sums exact
    eps = 1e-7
    near[0, 2] += eps
    near[0, 0] -= eps
    near[2, 0] += eps
    near[2, 2] -= eps
    assert validate(near, g).kind == "support"
    assert validate(near, g, atol=1e-6) is None


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
        cases.append(project_feasible(rng.uniform(0, 1, (n, n)), build_ring(n)))
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
