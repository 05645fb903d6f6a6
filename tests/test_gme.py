"""Centering, Gram matrices, sketching, and the QP solver."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from hetmix import gme
from hetmix.checks import _random_feasible, quadratic_program_oracle
from hetmix.gme import (
    GmeSolverParams,
    GramMatrix,
    SketchConfig,
    ce_gme,
    center_columns,
    gme_objective,
    gram,
    jl_required_dim,
    sketch,
    solve_gme,
)
from hetmix.mixing import MixingMatrix, metropolis_hastings
from hetmix.topology import (
    Topology,
    build_complete,
    build_random_connected,
    build_ring,
    build_torus,
)


# --- oracles -----------------------------------------------------------

def _period3_gradients(rng, d=10):
    """Columns repeating with period 3 and zero global mean on six nodes."""
    g0, g1 = rng.standard_normal(d), rng.standard_normal(d)
    return np.column_stack([g0, g1, -g0 - g1] * 2)


# --- centering and Gram matrices --------------------------------------

def test_center_columns():
    g = np.array([[1.0, 3.0], [0.0, -2.0]])
    c = center_columns(g)
    np.testing.assert_allclose(c, [[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(c.mean(axis=1), 0.0)


def test_gram_matches_definition_and_invariants():
    rng = np.random.default_rng(11)
    gc = center_columns(rng.standard_normal((7, 5)))
    gm = gram(gc)
    np.testing.assert_allclose(gm.gamma, gc.T @ gc, atol=1e-12)
    assert gm.gamma.shape == (5, 5)
    assert np.array_equal(gm.gamma, gm.gamma.T)
    assert np.linalg.eigvalsh(gm.gamma)[0] >= -1e-10
    assert np.abs(gm.gamma.sum(axis=1)).max() < 1e-10
    assert gm.lam_max == np.linalg.eigvalsh(gm.gamma)[-1] > 0.0


def test_gram_constructor_rejects():
    with pytest.raises(ValueError, match="square"):
        GramMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="asymmetric"):
        GramMatrix(np.array([[1.0, 0.5], [-0.5, 1.0]]))
    sym = np.array([[1.0, -0.2], [-0.2, 1.0]])
    with pytest.raises(ValueError, match="sum to zero"):
        GramMatrix(sym)  # PSD and symmetric, but not centered
    neg = np.array([[-1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValueError, match="PSD"):
        GramMatrix(neg)
    assert GramMatrix(np.zeros((3, 3))).lam_max == 0.0  # zero matrix is fine
    with pytest.raises(ValueError, match="nonempty"):
        GramMatrix(np.zeros((0, 0)))


# --- sketching ---------------------------------------------------------

def test_sketch_shape_determinism_linearity():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((30, 6))
    cfg = SketchConfig(k=5, seed=9)
    s1, s2 = sketch(g, cfg), sketch(g, cfg)
    assert s1.shape == (5, 6)
    np.testing.assert_array_equal(s1, s2)
    assert not np.allclose(s1, sketch(g, SketchConfig(k=5, seed=10)))
    np.testing.assert_allclose(sketch(2.0 * g, cfg), 2.0 * s1, rtol=1e-12)


def test_sketch_config_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        SketchConfig(k=0, seed=1)


def test_jl_required_dim():
    assert jl_required_dim(16, 0.05, 0.3) == 6410
    assert jl_required_dim(1, 0.5, 1.0) == 70
    for bad in ((0, 0.1, 0.1), (4, 1.0, 0.1), (4, 0.1, 0.0)):
        with pytest.raises(ValueError):
            jl_required_dim(*bad)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        GmeSolverParams(max_iters=0)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            GmeSolverParams(tol=tol)


# --- objective and solver ---------------------------------------------

def test_objective_hand_values():
    gamma = GramMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert gme_objective(gamma, MixingMatrix(np.eye(2))) == pytest.approx(2.0)
    assert gme_objective(gamma, MixingMatrix(np.full((2, 2), 1 / 2))) == pytest.approx(0.0)


def test_objective_equals_mixed_gradient_gap():
    rng = np.random.default_rng(16)
    g = rng.standard_normal((8, 6))
    w = metropolis_hastings(build_ring(6))
    direct = np.sum((g @ w.w - g.mean(axis=1, keepdims=True)) ** 2)
    assert gme_objective(gram(center_columns(g)), w) == pytest.approx(direct, rel=1e-9)


def test_solver_reaches_zero_on_complete_graph_from_identity():
    rng = np.random.default_rng(17)
    gamma = gram(center_columns(rng.standard_normal((5, 4))))
    graph = build_complete(4)
    w = solve_gme(gamma, graph, init=MixingMatrix(np.eye(4)))
    # uniform averaging annihilates the centered Gram, so zero is
    # attainable; the default stop leaves a remainder of order
    # tol * initial objective
    assert gme_objective(gamma, w) <= 1e-8 * np.linalg.norm(gamma.gamma, 2)


def test_solver_never_worse_than_init_and_feasible():
    rng = np.random.default_rng(18)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        graph = build_ring(n)
        gamma = gram(center_columns(rng.standard_normal((int(rng.integers(2, 6)), n))))
        w = solve_gme(gamma, graph)
        assert graph.off_support(w.w) is None
        mh_obj = gme_objective(gamma, metropolis_hastings(graph))
        assert gme_objective(gamma, w) <= mh_obj + 1e-12


@pytest.mark.parametrize("factor", [5.0, 1e-16, 1e16])
def test_solver_objective_scales_linearly(factor):
    """Scaling Gamma scales the optimum by the same factor, down to the
    1e-16 and up to the 1e16 that gradients scaled by 1e-8 and 1e8 give."""
    rng = np.random.default_rng(19)
    graph = build_ring(5)
    gamma = center_columns(rng.standard_normal((4, 5)))
    g1 = gram(gamma)
    gs = GramMatrix(factor * g1.gamma)
    o1 = gme_objective(g1, solve_gme(g1, graph))
    o_scaled = gme_objective(gs, solve_gme(gs, graph))
    assert o_scaled == pytest.approx(factor * o1, rel=1e-6, abs=1e-12 * factor)


def test_solver_handles_degenerate_grams():
    graph = build_ring(4)
    mh = metropolis_hastings(graph)
    w = solve_gme(GramMatrix(np.zeros((4, 4))), graph)
    np.testing.assert_array_equal(w.w, mh.w)


@pytest.mark.parametrize("w, entry", [
    (np.full((6, 6), 1.0 / 6.0), r"\(0, 2\)"),
    (np.roll(np.eye(6), 3, axis=1), r"\(0, 3\)"),  # node i -> node i + 3
], ids=["uniform", "shift3"])
def test_solver_rejects_an_init_off_the_support(w, entry):
    """An init with weight off the ring's edges is no feasible start. The
    uniform matrix already cancels the centered Gram, so the solve used to
    return it unchanged."""
    g = np.random.default_rng(23).standard_normal((8, 6))
    graph = build_ring(6)
    for solve in (lambda init: solve_gme(gram(center_columns(g)), graph, init=init),
                  lambda init: ce_gme(g, graph, SketchConfig(4, 0), init=init)):
        with pytest.raises(ValueError, match="off the support at " + entry):
            solve(MixingMatrix(w))


def test_solver_drives_structured_instance_to_zero():
    """Uniform thirds cancel period-3 columns on a 6-ring, so the optimum
    is zero; the solver must find it even from a far-away start."""
    rng = np.random.default_rng(20)
    gamma = gram(center_columns(_period3_gradients(rng)))
    graph = build_ring(6)
    start = _random_feasible(graph, rng)
    w = solve_gme(gamma, graph, init=start)
    assert gme_objective(gamma, w) <= 1e-6 * np.linalg.norm(gamma.gamma, 2)


def _draw_graph(draw, kind, n):
    """A ring, complete, star or random connected graph of n nodes."""
    if kind == "ring":
        return build_ring(n)
    if kind == "complete":
        return build_complete(n)
    if kind == "star":
        return Topology(n, tuple((0, i) for i in range(1, n)))
    return build_random_connected(n, draw(st.floats(0.05, 1.0)), draw(st.integers(0, 2**16)))


@st.composite
def _certify_inputs(draw):
    """(Gamma, graph, init): the Gram matrix of 1 to 10 Gaussian gradient
    rows on a ring, complete, star or random connected graph of 2 to 16
    nodes (rings from 3), and Metropolis-Hastings or a random feasible
    init."""
    kind = draw(st.sampled_from(["ring", "complete", "star", "random"]))
    graph = _draw_graph(draw, kind, draw(st.integers(3 if kind == "ring" else 2, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    g = rng.standard_normal((draw(st.integers(1, 10)), graph.n))
    init = metropolis_hastings(graph)
    if draw(st.booleans()):
        init = _random_feasible(graph, rng)
    return gram(center_columns(g)), graph, init


# two nodes and a ring of 3, from the identity: Metropolis-Hastings is
# uniform averaging on both, which is optimal
_PAIR = (gram(center_columns(np.array([[1.0, -2.0], [0.5, 3.0]]))), build_complete(2),
         MixingMatrix(np.eye(2)))
_RING3 = (gram(center_columns(np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]]))),
          build_ring(3), MixingMatrix(np.eye(3)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_certify_inputs(), st.floats(-8.0, 8.0), st.integers(0, 2**32))
@example(_PAIR, 8.0, 0)
@example(_RING3, -8.0, 0)
def test_dual_gap_bounds_the_frank_wolfe_gap(case, log_c, seed):
    """On Gamma scaled by 1e-8 to 1e8, the gap from random potentials of
    order lam_max, once _dual_gap adds the row and column minima, is at
    least the exact Frank-Wolfe gap, from a minimum-cost assignment inside
    the support, and so nonnegative."""
    gamma, graph, w = case
    gamma = GramMatrix(10.0**log_c * gamma.gamma)
    n, support, w = graph.n, graph.support_mask(), w.w
    grad = 2.0 * gamma.gamma @ w
    uv = gamma.lam_max * np.random.default_rng(seed).standard_normal(2 * n)
    gap = gme._dual_gap(grad, w, support, uv)
    rows, cols = linear_sum_assignment(np.where(support, grad, np.inf))
    frank_wolfe = float((grad * w).sum() - grad[rows, cols].sum())
    # the potentials and the gradient are of order lam_max
    slack = 1e-10 * n * gamma.lam_max
    assert gap >= -slack
    assert gap >= frank_wolfe - slack


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_certify_inputs(), st.floats(-8.0, 8.0))
@example(_PAIR, 8.0)
@example(_RING3, -8.0)
def test_solver_is_certified_and_scales_with_gamma(case, log_c):
    """A solve is never worse than its init and reports a certified gap
    within tol * f(init); scaling Gamma by c scales the optimum by c, so
    the two objectives agree within the two gaps, and each lower bound
    lies below the other solve's (scaled) objective."""
    gamma, graph, init = case
    params = GmeSolverParams()
    c = 10.0**log_c
    scaled = GramMatrix(c * gamma.gamma)
    f0 = gme_objective(gamma, init)
    w, gap = gme._certified_solve(gamma, graph, params, init)
    ws, gap_s = gme._certified_solve(scaled, graph, params, init)
    f, fs = gme_objective(gamma, w), gme_objective(scaled, ws) / c
    assert graph.off_support(w.w) is None
    assert f <= f0
    # rounding: the objective's is about 1e-16 tr(Gamma) per entry, and
    # rounds uniform averaging's zero to either sign
    slack = 1e-13 * graph.n * np.trace(gamma.gamma)
    for got in (gap, gap_s / c):
        assert -slack <= got <= params.tol * f0 + slack
    assert f - gap <= fs + slack
    assert fs - gap_s / c <= f + slack
    assert fs == pytest.approx(f, rel=0, abs=params.tol * f0 + slack)


@st.composite
def _solver_cases(draw):
    """(Gamma, graph, init) on a ring, star, complete, torus or random
    connected graph of 2 to 24 nodes (rings from 3). Gamma is the Gram
    matrix of 16 gradient rows of rank 1 to 12, so often below the size of
    a column's support, with drawn columns zeroed or set to column 0, or
    all of them zero, at a scale of 1e-8 to 1e8. init is
    Metropolis-Hastings, the identity or a random feasible matrix."""
    kind = draw(st.sampled_from(["ring", "star", "complete", "torus", "random"]))
    if kind == "torus":
        graph = build_torus(draw(st.integers(3, 4)), draw(st.integers(3, 6)))
    else:
        graph = _draw_graph(draw, kind, draw(st.integers(3 if kind == "ring" else 2, 24)))
    n = graph.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rank = draw(st.integers(1, 12))
    g = rng.standard_normal((16, rank)) @ rng.standard_normal((rank, n))
    columns = rng.integers(0, n, draw(st.integers(0, n)))
    edit = draw(st.sampled_from(["none", "zero", "duplicate", "all zero"]))
    if edit == "zero":
        g[:, columns] = 0.0
    elif edit == "duplicate":
        g[:, columns] = g[:, :1]
    elif edit == "all zero":
        g[:] = 0.0
    g *= 10.0 ** draw(st.floats(-8.0, 8.0))
    start = draw(st.sampled_from(["mh", "identity", "random"]))
    if start == "mh":
        init = metropolis_hastings(graph)
    elif start == "identity":
        init = MixingMatrix(np.eye(n))
    else:
        init = _random_feasible(graph, rng)
    return gram(center_columns(g)), graph, init


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_solver_cases())
def test_solver_properties(case):
    """A solve returns a MixingMatrix on the graph that is never worse than
    its init, with a gap in [0, f(W)]. At the default max_iters it stops
    on the certificate, within tol * f(init); at 1 and 3 it stops at the
    cap. A zero Gamma returns the init itself."""
    gamma, graph, init = case
    f0 = gme_objective(gamma, init)
    default = GmeSolverParams()
    for params in (default, GmeSolverParams(max_iters=1), GmeSolverParams(max_iters=3)):
        w, gap = gme._certified_solve(gamma, graph, params, init)
        assert isinstance(w, MixingMatrix)
        assert graph.off_support(w.w) is None
        f = gme_objective(gamma, w)
        assert f <= f0
        assert 0.0 <= gap <= max(f, 0.0)  # f < 0 is a rounded 0
        if params is default:
            # rounding: see test_solver_is_certified_and_scales_with_gamma
            assert gap <= params.tol * f0 + 1e-13 * graph.n * np.trace(gamma.gamma)
        if not gamma.gamma.any():
            assert w is init


def test_certificate_floor_certifies_a_zero_optimum():
    """Gamma is PSD, so 0 bounds the optimum from below. On the period-3
    instance, whose optimum is 0, a solve is certified once f(W) itself is
    within tol * f(init), and its gap is f(W)."""
    rng = np.random.default_rng(20)
    gamma = gram(center_columns(_period3_gradients(rng)))
    graph = build_ring(6)
    start = _random_feasible(graph, rng)
    params = GmeSolverParams()
    w, gap = gme._certified_solve(gamma, graph, params, start)
    f = gme_objective(gamma, w)
    assert 0.0 <= gap <= f <= params.tol * gme_objective(gamma, start)


# --- exact oracle ------------------------------------------------------

_PATH3 = Topology(3, ((0, 1), (1, 2)))
_PATH4 = Topology(4, ((0, 1), (1, 2), (2, 3)))
_STAR4 = Topology(4, ((0, 1), (0, 2), (0, 3)))


def test_oracle_matches_closed_form_on_two_nodes():
    """On two nodes W = [[a, 1-a], [1-a, a]], and for a PSD Gamma
    [[p, r], [r, s]] the objective (p + s) - 2a(1 - a)(p + s - 2r) is least
    at a = 1/2, where it is (p + s + 2r) / 2. Gamma need not be centered."""
    rng = np.random.default_rng(30)
    for _ in range(10):
        b = rng.standard_normal((2, 3))
        (p, r), (_, s) = gamma = b @ b.T
        got = quadratic_program_oracle(gamma, build_complete(2))
        assert got == pytest.approx((p + s + 2.0 * r) / 2.0, rel=1e-12)
    assert quadratic_program_oracle(np.zeros((2, 2)), build_complete(2)) == 0.0


def test_oracle_is_zero_on_three_full_nodes():
    """W = 11^T / 3 is feasible on K3 and Gamma 1 = 0, so the optimum is 0
    for every centered Gamma, and a solver on K3 is never tested."""
    rng = np.random.default_rng(31)
    for d in (1, 2, 5):
        gamma = gram(center_columns(rng.standard_normal((d, 3)))).gamma
        assert abs(quadratic_program_oracle(gamma, build_complete(3))) <= 1e-13 * np.trace(gamma)


def test_oracle_rejects_a_large_support():
    with pytest.raises(ValueError, match="16 entries"):
        quadratic_program_oracle(np.zeros((4, 4)), build_complete(4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([_PATH3, _PATH4, _STAR4, build_ring(4)]),
       st.integers(1, 3), st.integers(0, 2**32))
def test_oracle_bounds_the_solver_and_random_feasible_points(graph, rank, seed):
    """On paths, a star and a 4-ring, with Gamma of rank 1 to n - 1, the
    oracle lies between a solve's certified lower bound f(W) - gap and
    f(W), and below f(V) of random feasible draws V."""
    n = graph.n
    rng = np.random.default_rng(seed)
    gamma = gram(center_columns(rng.standard_normal((min(rank, n - 1), n))))
    want = quadratic_program_oracle(gamma.gamma, graph)
    slack = 1e-13 * n * np.trace(gamma.gamma)
    w, gap = gme._certified_solve(gamma, graph, GmeSolverParams(), None)
    f = gme_objective(gamma, w)
    assert f - gap - slack <= want <= f + slack
    for _ in range(3):
        v = _random_feasible(graph, rng)
        assert want <= gme_objective(gamma, v) + slack


def test_ce_pipeline_determinism_and_zero_gradients():
    rng = np.random.default_rng(21)
    graph = build_ring(6)
    g = rng.standard_normal((40, 6))
    cfg = SketchConfig(k=8, seed=3)
    w1, w2 = ce_gme(g, graph, cfg), ce_gme(g, graph, cfg)
    np.testing.assert_array_equal(w1.w, w2.w)
    assert graph.off_support(w1.w) is None
    wz = ce_gme(np.zeros((40, 6)), graph, cfg)
    np.testing.assert_array_equal(wz.w, metropolis_hastings(graph).w)
    # equal columns center to pure rounding, whose own mean the second
    # centering pass removes before the Gram matrix checks its row sums
    ring3 = build_ring(3)
    wd = ce_gme(np.tile(rng.standard_normal((40, 1)), (1, 3)), ring3, cfg)
    assert ring3.off_support(wd.w) is None
