"""Centering, Gram matrices, sketching, projection, and the QP solver."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from hetmix import gme
from hetmix.gme import (
    GmeSolverParams,
    GramMatrix,
    SketchConfig,
    ce_gme,
    center_columns,
    gme_objective,
    gram,
    jl_required_dim,
    project_feasible,
    sketch,
    solve_gme,
)
from hetmix.mixing import MixingMatrix, metropolis_hastings, validate
from hetmix.topology import (
    Topology,
    build_complete,
    build_random_connected,
    build_ring,
    build_torus,
)


# --- oracles -----------------------------------------------------------

def _project_complete2_closed_form(m):
    """On two fully-connected nodes the polytope is the segment
    [[a, 1-a], [1-a, a]], so the projection has a one-line solution."""
    a = (2.0 + m[0, 0] + m[1, 1] - m[0, 1] - m[1, 0]) / 4.0
    a = min(1.0, max(0.0, a))
    return np.array([[a, 1.0 - a], [1.0 - a, a]])


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
    assert gm.n == 5
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


def test_sketch_preserves_pairwise_inner_products():
    """At k = 200 the normalized products of 8 unit-scale vectors in R^1000
    should essentially never drift by 0.3 max||u||^2."""
    failures = 0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        u = rng.standard_normal((1000, 8))
        s = sketch(u, SketchConfig(k=200, seed=500 + trial))
        exact = u.T @ u
        approx = s.T @ s / 200.0
        bound = 0.3 * float(np.max(np.sum(u**2, axis=0)))
        if np.abs(approx - exact).max() > bound:
            failures += 1
    assert failures <= 1


# --- projection --------------------------------------------------------

def test_projection_matches_closed_form_on_two_nodes():
    rng = np.random.default_rng(13)
    graph = build_complete(2)
    for _ in range(50):
        m = rng.uniform(-3, 3, (2, 2))
        got = project_feasible(m, graph).w
        np.testing.assert_allclose(
            got, _project_complete2_closed_form(m), atol=1e-8
        )


def test_projection_of_zeros_is_uniform_on_support():
    w = project_feasible(np.zeros((4, 4)), build_ring(4)).w
    expected = np.where(build_ring(4).support_mask(), 1 / 3, 0.0)
    np.testing.assert_allclose(w, expected, atol=1e-9)


def test_projection_prefers_the_identity_for_diagonal_targets():
    w = project_feasible(5.0 * np.eye(4), build_ring(4)).w
    np.testing.assert_allclose(w, np.eye(4), atol=1e-6)


def test_projection_feasible_and_no_closer_point(tmp_seed=14):
    rng = np.random.default_rng(tmp_seed)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        graph = build_ring(n)
        m = rng.uniform(-2, 2, (n, n))
        w = project_feasible(m, graph)
        assert validate(w.w, graph, 1e-8) is None
        # optimality: nothing feasible is closer than the projection
        mh = metropolis_hastings(graph).w
        d_proj = np.sum((m - w.w) ** 2)
        for t in (1.0, 0.5, 0.1):
            cand = (1 - t) * w.w + t * mh
            assert d_proj <= np.sum((m - cand) ** 2) + 1e-8


def test_projection_is_idempotent():
    rng = np.random.default_rng(15)
    graph = build_ring(5)
    w = project_feasible(rng.uniform(-1, 2, (5, 5)), graph).w
    again = project_feasible(w, graph).w
    np.testing.assert_allclose(again, w, atol=1e-7)


def test_projection_shape_mismatch_and_cap(monkeypatch):
    graph = build_ring(6)
    with pytest.raises(ValueError):
        project_feasible(np.zeros((4, 4)), graph)
    monkeypatch.setattr(gme, "_PROJECTION_MAX_ITERS", 2)
    with pytest.raises(ArithmeticError, match="converge"):
        project_feasible(np.random.default_rng(0).uniform(-2, 2, (6, 6)), graph)


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
def _projection_inputs(draw, max_log_scale):
    """(Z, graph, scale): Gaussian Z of a drawn scale on a ring, complete,
    star or random connected graph of 2 to 24 nodes."""
    kind = draw(st.sampled_from(["ring", "complete", "star", "random"]))
    n = draw(st.integers(3 if kind == "ring" else 2, 24))
    graph = _draw_graph(draw, kind, n)
    scale = 10.0 ** draw(st.floats(-8.0, max_log_scale))
    z = scale * np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal((n, n))
    return z, graph, scale


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_projection_inputs(max_log_scale=1.0))
def test_projection_properties(case):
    z, graph, scale = case
    n = graph.n
    support = graph.support_mask()
    w = project_feasible(z, graph).w
    assert validate(w, graph, 1e-8) is None
    residual = max(np.abs(w.sum(axis=0) - 1).max(), np.abs(w.sum(axis=1) - 1).max())
    assert residual <= gme._PROJECTION_TOL
    assert np.all(w[~support] == 0.0)
    np.testing.assert_allclose(project_feasible(w, graph).w, w, rtol=0, atol=1e-9)
    # the vertex maximizing <Z - P, V> over permutations inside the support
    # is where the variational inequality <Z - P, V - P> <= 0 is tightest
    rows, cols = linear_sum_assignment(np.where(support, w - z, np.inf))
    assert support[rows, cols].all()
    vertex = np.zeros((n, n))
    vertex[rows, cols] = 1.0
    assert np.sum((z - w) * (vertex - w)) <= 1e-9 * n * (1.0 + scale)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_projection_inputs(max_log_scale=8.0))
def test_projection_succeeds_or_raises_arithmetic_error(case):
    z, graph, _ = case
    try:
        w = project_feasible(z, graph).w
    except ArithmeticError as exc:
        assert "residual" in str(exc)
        return
    assert validate(w, graph, 1e-8) is None


def test_projection_stall_raises_quickly(monkeypatch):
    """At scale 1.2e6 the rounding floor of the sums lies above
    _PROJECTION_TOL; the projection gives up once its residual stops
    falling instead of running out its 5000 iterations. It evaluates the
    primal 91 times on this input; running out the cap would take over
    5000 evaluations, and the bound leaves room for rounding to move the
    count."""
    graph = build_random_connected(21, 0.5, 5)
    z = 1.2e6 * np.random.default_rng(5).standard_normal((21, 21))
    calls = 0
    primal = gme._primal

    def counting(*args):
        nonlocal calls
        calls += 1
        return primal(*args)

    monkeypatch.setattr(gme, "_primal", counting)
    with pytest.raises(ArithmeticError, match="stalled at residual"):
        project_feasible(z, graph)
    assert calls <= 200


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_projection_inputs(max_log_scale=1.0))
def test_face_reproduces_projection_and_rejects_a_changed_active_set(case):
    z, graph, scale = case
    n = graph.n
    support = graph.support_mask()
    w, ab = gme._newton_projection(z, support, None)  # as project_feasible
    # where an entry of Z - alpha - beta is 0 within the projection's
    # error, rounding may put the face's value on the wrong side of 0, and
    # then it rightly declines; such ties are common off A when the active
    # graph has several components, as the multipliers are then not unique
    t = z - ab[:n, None] - ab[None, n:]
    assume(np.abs(t[support]).min() > 1e-9 * (1.0 + scale))
    face = gme._Face(w > 0.0, support, ab)
    hit = face.apply(z)
    assert hit is not None
    got, got_ab = hit
    np.testing.assert_allclose(got, w, rtol=0, atol=1e-9 * (1.0 + scale))
    np.testing.assert_allclose(got_ab, ab, rtol=0, atol=1e-9 * (1.0 + scale))
    # lowering Z at active entry k = (i, j) by s lowers the face's
    # Z - alpha - beta there by s (1 - K[k, i] - K[k, n + j]), which is 0
    # where A's graph is a forest
    rows, cols = np.divmod(face.active, n)
    entry = np.arange(face.active.size)
    slack = 1.0 - (face.k[entry, rows] + face.k[entry, n + cols])
    k = int(np.argmax(slack))
    assume(slack[k] > 1e-3)
    moved = z.copy()
    moved.flat[face.active[k]] -= (got.flat[face.active[k]] + 1.0) / slack[k]
    assert face.apply(moved) is None


@st.composite
def _active_sets(draw):
    """Active sets of projections: that of a projection of a drawn input
    (see _projection_inputs), or a permutation plus up to n drawn
    entries, mostly a forest of several components."""
    if draw(st.booleans()):
        z, graph, _ = draw(_projection_inputs(max_log_scale=1.0))
        return project_feasible(z, graph).w > 0.0
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    active = np.zeros((n, n), dtype=bool)
    active[np.arange(n), rng.permutation(n)] = True
    extra = rng.integers(0, n, (draw(st.integers(0, n)), 2))
    active[extra[:, 0], extra[:, 1]] = True
    return active


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_active_sets())
@example(np.eye(3, dtype=bool))  # the identity on a complete graph of 3
@example(np.eye(2, dtype=bool))
@example(np.ones((2, 2), dtype=bool))
def test_face_pseudo_inverse_matches_pinv(active):
    """The face's components are those of the active graph, and its P^+
    from one inverse is numpy's pseudo-inverse."""
    p = gme._hessian(active)
    labels = gme._components(active)
    count, theirs = connected_components(p, directed=False)
    pairs = set(zip(labels.tolist(), theirs.tolist()))
    assert len(pairs) == len(set(labels.tolist())) == count
    # P's null-space eigenvalues come out of rounding near 1e-15 of its
    # largest, where numpy's default cutoff may invert them; its smallest
    # nonzero one is above 1e-5 of the largest at these sizes
    ref = np.linalg.pinv(p, 1e-10, hermitian=True)
    got = gme._pseudo_inverse(p, labels)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@st.composite
def _solve_inputs(draw):
    """(G, graph): 10-by-n Gaussian gradients of a drawn scale on a ring,
    complete, star, random connected or torus graph of 3 to 32 nodes."""
    kind = draw(st.sampled_from(["ring", "complete", "star", "random", "torus"]))
    if kind == "torus":
        rows = draw(st.integers(3, 10))
        graph = build_torus(rows, draw(st.integers(3, 32 // rows)))
    else:
        graph = _draw_graph(draw, kind, draw(st.integers(3, 32)))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return scale * rng.standard_normal((10, graph.n)), graph


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_solve_inputs())
def test_solve_with_the_face_matches_newton_alone(case):
    """Every face output a solve accepts is Newton's projection of the same
    input, so the face changes nothing a solve computes. Newton runs to a
    residual of 1e-13 here: at _PROJECTION_TOL the two differ by up to
    3e-11, as either may stop anywhere below it."""
    g, graph = case
    support = graph.support_mask()
    accepted = []
    apply = gme._Face.apply

    def recording(self, z):
        hit = apply(self, z)
        if hit is not None:
            accepted.append((z, hit[0]))
        return hit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gme._Face, "apply", recording)
        ce_gme(g, graph, SketchConfig(k=16, seed=0), GmeSolverParams(max_iters=300))
        mp.setattr(gme, "_PROJECTION_TOL", 1e-13)
        for z, w in accepted:
            newton, _ = gme._newton_projection(z, support, None)
            np.testing.assert_allclose(w, newton, rtol=0, atol=1e-12)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        GmeSolverParams(max_iters=0)
    with pytest.raises(ValueError):
        GmeSolverParams(tol=0.0)


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
        assert validate(w.w, graph, 1e-8) is None
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


def test_solver_stops_at_the_first_increase(monkeypatch):
    """A projection that only ever raises the objective stops the solve
    after one projection, at the init."""
    rng = np.random.default_rng(22)
    graph = build_ring(5)
    gamma = gram(center_columns(rng.standard_normal((4, 5))))
    init = metropolis_hastings(graph)
    worse = np.eye(5)
    assert gme_objective(gamma, MixingMatrix(worse)) > gme_objective(gamma, init)
    calls = []

    def raising(z, support, ab):
        calls.append(ab)
        return worse, np.zeros(10)

    monkeypatch.setattr(gme, "_newton_projection", raising)
    w = solve_gme(gamma, graph, init=init)
    assert len(calls) == 1
    assert gme_objective(gamma, w) <= gme_objective(gamma, init)


def test_solver_handles_degenerate_grams():
    graph = build_ring(4)
    mh = metropolis_hastings(graph)
    w = solve_gme(GramMatrix(np.zeros((4, 4))), graph)
    np.testing.assert_array_equal(w.w, mh.w)


def test_solver_drives_structured_instance_to_zero():
    """Uniform thirds cancel period-3 columns on a 6-ring, so the optimum
    is zero; the solver must find it even from a far-away start."""
    rng = np.random.default_rng(20)
    gamma = gram(center_columns(_period3_gradients(rng)))
    graph = build_ring(6)
    start = project_feasible(rng.uniform(0, 1, (6, 6)), graph)
    w = solve_gme(gamma, graph, init=start)
    assert gme_objective(gamma, w) <= 1e-6 * np.linalg.norm(gamma.gamma, 2)


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
        init = project_feasible(rng.uniform(0.0, 1.0, (graph.n, graph.n)), graph)
    return gram(center_columns(g)), graph, init


# two nodes and a ring of 3, from the identity: Metropolis-Hastings is
# uniform averaging on both, which is optimal
_PAIR = (gram(center_columns(np.array([[1.0, -2.0], [0.5, 3.0]]))), build_complete(2),
         MixingMatrix(np.eye(2)))
_RING3 = (gram(center_columns(np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]]))),
          build_ring(3), MixingMatrix(np.eye(3)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_certify_inputs(), st.floats(-8.0, 8.0))
@example(_PAIR, 8.0)
@example(_RING3, -8.0)
def test_dual_gap_bounds_the_frank_wolfe_gap(case, log_c):
    """Along projected-gradient steps on Gamma scaled by 1e-8 to 1e8, the
    multiplier bound is nonnegative and at least the exact Frank-Wolfe gap,
    from a minimum-cost assignment inside the support."""
    gamma, graph, w = case
    gamma = GramMatrix(10.0**log_c * gamma.gamma)
    n, support = graph.n, graph.support_mask()
    step = 0.5 / gamma.lam_max
    w = w.w
    for _ in range(4):
        z = w - step * 2.0 * gamma.gamma @ w
        w, ab = gme._newton_projection(z, support, None)
        grad = 2.0 * gamma.gamma @ w
        gap = gme._dual_gap(grad, w, support, ab, step)
        rows, cols = linear_sum_assignment(np.where(support, grad, np.inf))
        frank_wolfe = float((grad * w).sum() - grad[rows, cols].sum())
        # W's sums are off by up to _PROJECTION_TOL, and the potentials
        # are of order lam_max
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
    assert validate(w.w, graph, 1e-8) is None
    assert f <= f0
    # rounding: the objective's is about 1e-16 tr(Gamma) per entry, and
    # rounds uniform averaging's zero to either sign
    slack = 1e-13 * graph.n * np.trace(gamma.gamma)
    for got in (gap, gap_s / c):
        assert -slack <= got <= params.tol * f0 + slack
    assert f - gap <= fs + slack
    assert fs - gap_s / c <= f + slack
    assert fs == pytest.approx(f, rel=0, abs=params.tol * f0 + slack)


def test_ce_pipeline_determinism_and_zero_gradients():
    rng = np.random.default_rng(21)
    graph = build_ring(6)
    g = rng.standard_normal((40, 6))
    cfg = SketchConfig(k=8, seed=3)
    w1, w2 = ce_gme(g, graph, cfg), ce_gme(g, graph, cfg)
    np.testing.assert_array_equal(w1.w, w2.w)
    assert validate(w1.w, graph, 1e-8) is None
    wz = ce_gme(np.zeros((40, 6)), graph, cfg)
    np.testing.assert_array_equal(wz.w, metropolis_hastings(graph).w)
    # equal columns center to pure rounding, whose own mean the second
    # centering pass removes before the Gram matrix checks its row sums
    ring3 = build_ring(3)
    wd = ce_gme(np.tile(rng.standard_normal((40, 1)), (1, 3)), ring3, cfg)
    assert validate(wd.w, ring3, 1e-8) is None
