"""Quadratic objective factories, gradients, and heterogeneity measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmix.checks import _record
from hetmix.mixing import MixingMatrix, metropolis_hastings
from hetmix.objectives import (
    Problem,
    full_gradients,
    make_random_quadratics,
    make_replicated,
    make_two_class_ring,
    permute_nodes,
    relative_zeta_sq_at,
    zeta_sq_at,
)
from hetmix.simulator import RunConfig
from hetmix.topology import build_ring


# --- oracles -----------------------------------------------------------

def _node_value(p, i, x):
    r = p.a[i] @ x + p.b[i]
    return float(r @ r)


def _former_loss(p, x):
    """Problem.loss at one point, as it was before it took stacks."""
    r = p.a @ x + p.b
    return sum((r[:, None, :] @ r[:, :, None]).ravel().tolist()) / p.n


def _node_gradient(p, i, x):
    return 2.0 * (p.a[i].T @ (p.a[i] @ x + p.b[i]))


def _finite_difference_gradient(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _two_point_problem():
    """Two nodes with A = I and opposite shifts; everything about it is
    computable by hand: gradients at 0 are [2, 0] and [-2, 0], the optimum
    is the origin, and the smoothness constant is 2."""
    a = np.stack([np.eye(2), np.eye(2)])
    b = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return Problem(a, b, 0.0)


# --- problems and factories -----------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(30)
    p = make_random_quadratics(5, 3, 4, seed=30)
    x = rng.standard_normal((3, 5))
    g = full_gradients(p, x)
    for i in range(5):
        np.testing.assert_allclose(
            g[:, i],
            _finite_difference_gradient(lambda v: _node_value(p, i, v), x[:, i]),
            rtol=1e-5, atol=1e-6,
        )


def test_problem_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="incompatible"):
        Problem(np.ones((1, 3, 2)), np.ones((1, 2)), 0.0)
    with pytest.raises(ValueError, match="incompatible"):
        Problem(np.ones((3, 2)), np.ones(3), 0.0)
    p = _two_point_problem()
    assert (p.n, p.d) == (2, 2)
    assert np.array_equal(p.x_star, np.zeros(2)) and p.smoothness == 2.0
    assert not p.a.flags.writeable and not p.b.flags.writeable


def test_random_quadratics_basic_facts():
    p = make_random_quadratics(5, 4, 3, seed=1)
    assert (p.n, p.d) == (5, 4)
    # the cached optimum is stationary for the average objective
    g = full_gradients(p, np.tile(p.x_star.reshape(-1, 1), (1, 5)))
    assert np.linalg.norm(g.mean(axis=1)) < 1e-8
    # smoothness is twice the largest per-node Hessian eigenvalue
    want = 2.0 * max(np.linalg.eigvalsh(a.T @ a)[-1] for a in p.a)
    assert p.smoothness == pytest.approx(want, rel=1e-8)
    # loss is the plain average of node values
    x = np.ones(4)
    assert p.loss(x) == pytest.approx(sum(_node_value(p, i, x) for i in range(5)) / 5)


@pytest.mark.parametrize("scale", [1e-8, 1e4, 1e8])
def test_scaled_data_keeps_the_optimum(scale):
    """A and b scaled by s give the same x* and s^2 times the smoothness."""
    for seed in range(5):
        p = make_random_quadratics(16, 10, seed=seed)
        q = Problem(p.a * scale, p.b * scale, 0.0)
        assert np.linalg.norm(q.x_star - p.x_star) <= 1e-12 * np.linalg.norm(p.x_star)
        assert q.smoothness == pytest.approx(p.smoothness * scale**2, rel=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 24), st.integers(1, 20), st.integers(0, 4), st.integers(1, 40),
       st.integers(0, 2**16), st.floats(-3.0, 3.0))
def test_loss_of_a_stack_matches_each_point(n, d, extra_rows, t, seed, log_scale):
    p = make_random_quadratics(n, d, -(-d // n) + extra_rows, seed=seed)
    x = np.random.default_rng(seed).standard_normal((t, d)) * 10.0**log_scale
    stacked = p.loss(x)
    assert stacked.shape == (t,)
    for i in range(t):
        one = p.loss(x[i])
        assert type(one) is float
        assert stacked[i] == one
        assert one == pytest.approx(_former_loss(p, x[i]), rel=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 24), st.integers(1, 20), st.integers(0, 4), st.integers(0, 2**16),
       st.floats(-3.0, 3.0))
def test_gradients_and_loss_match_the_node_by_node_forms(n, d, extra_rows, seed, log_scale):
    """full_gradients (H_i x_i + c_i) and Problem.loss (one product of the
    stacked rows) agree with 2 A_i^T (A_i x_i + b_i) and the mean of
    ||A_i x + b_i||^2 computed node by node: the gradients within 1e-12 of
    their largest entry, the loss within rel 1e-12."""
    p = make_random_quadratics(n, d, -(-d // n) + extra_rows, seed=seed)
    x = np.random.default_rng(seed).standard_normal((d, n)) * 10.0**log_scale
    want = np.stack([_node_gradient(p, i, x[:, i]) for i in range(n)], axis=1)
    np.testing.assert_allclose(full_gradients(p, x), want, rtol=0.0,
                               atol=1e-12 * np.abs(want).max())
    for point in x.T:
        value = sum(_node_value(p, i, point) for i in range(n)) / n
        assert p.loss(point) == pytest.approx(value, rel=1e-12)


def test_random_quadratics_rejects_underdetermined():
    with pytest.raises(ValueError, match="unique optimum"):
        make_random_quadratics(2, 3, 1, seed=0)


@pytest.mark.parametrize("noise_std", [-0.1, float("nan"), float("inf")])
def test_random_quadratics_rejects_bad_noise_std(noise_std):
    with pytest.raises(ValueError, match="noise_std"):
        make_random_quadratics(3, 2, seed=0, noise_std=noise_std)


def test_two_class_ring_structure():
    p = make_two_class_ring(8, seed=3)
    assert p.n == 16
    assert np.linalg.norm(p.x_star) < 1e-8  # the shifts cancel exactly
    assert p.noise_std == pytest.approx(np.sqrt(0.001))
    rng = np.random.default_rng(33)
    x = rng.standard_normal(8)
    g = full_gradients(p, np.tile(x.reshape(-1, 1), (1, 16)))
    mean = g.mean(axis=1)
    for k in range(8):
        pair = (g[:, 2 * k] + g[:, 2 * k + 1]) / 2
        np.testing.assert_allclose(pair, mean, atol=1e-9)


def test_replicated_shares_data_across_period():
    p = make_replicated(6, 4, period=3, seed=4)
    for i in range(3):
        assert np.array_equal(p.a[i], p.a[i + 3])
        assert np.array_equal(p.b[i], p.b[i + 3])
    assert not np.array_equal(p.a[0], p.a[1])
    with pytest.raises(ValueError, match="divide"):
        make_replicated(6, 4, period=4, seed=4)


def test_permute_nodes():
    p = make_random_quadratics(4, 3, seed=5)
    q = permute_nodes(p, [3, 2, 1, 0])
    assert np.array_equal(q.a[0], p.a[3])
    assert np.array_equal(q.b[0], p.b[3])
    # re-solved: the node sums run in another order, so x* may move by rounding
    np.testing.assert_allclose(q.x_star, p.x_star, rtol=1e-12)
    assert q.smoothness == p.smoothness
    with pytest.raises(ValueError):
        permute_nodes(p, [0, 0, 1, 2])


# --- gradients ---------------------------------------------------------

def test_full_gradients_columns_and_shape_check():
    p = make_random_quadratics(3, 4, seed=6)
    x = np.random.default_rng(36).standard_normal((4, 3))
    g = full_gradients(p, x)
    for i in range(3):
        np.testing.assert_allclose(g[:, i], _node_gradient(p, i, x[:, i]), atol=1e-12)
    with pytest.raises(ValueError):
        full_gradients(p, x.T)


def _step_gradients(p, steps, noise_seed):
    """Each step's (X, G) as a dsgd run with Metropolis-Hastings weights on
    a ring hands them to its matrices_for_step hook."""
    mh = metropolis_hastings(build_ring(p.n)).w
    cfg = RunConfig(steps=steps, lr=0.1 / p.smoothness, noise_seed=noise_seed)
    return [(x, g) for x, g, _, _ in _record(p, build_ring(p.n), cfg, lambda t, x, g: (mh, mh))]


def test_noiseless_stochastic_gradients_leave_the_rng_alone():
    """A noiseless run adds nothing to its gradients: every step's G is the
    exact gradient at its X, bit for bit."""
    p = make_random_quadratics(3, 4, seed=7, noise_std=0.0)
    for x, g in _step_gradients(p, 150, noise_seed=0):
        np.testing.assert_array_equal(g, full_gradients(p, x))


def test_noise_variance_is_what_the_factory_was_given():
    """The noise a run adds to each step's exact gradients, over 1000 steps
    of a 10-by-10 problem, has the variance the factory was given."""
    p = make_random_quadratics(10, 10, seed=8, noise_std=np.sqrt(0.1))
    draws = np.concatenate(
        [(g - full_gradients(p, x)).ravel() for x, g in _step_gradients(p, 1000, noise_seed=88)]
    )
    assert draws.var() == pytest.approx(0.1, abs=0.005)
    assert abs(draws.mean()) < 0.005


# --- heterogeneity -----------------------------------------------------

def test_zeta_hand_value():
    p = _two_point_problem()
    # gradients at the origin are [2,0] and [-2,0]: mean zero, spread 4
    assert zeta_sq_at(p, np.zeros(2)) == pytest.approx(4.0)
    assert relative_zeta_sq_at(p, np.zeros(2), np.full((2, 2), 1 / 2)) == pytest.approx(0.0)
    assert relative_zeta_sq_at(p, np.zeros(2), np.eye(2)) == pytest.approx(4.0)


def test_relative_zeta_accepts_matrix_or_array():
    p = make_random_quadratics(4, 3, seed=9)
    x = np.ones(3)
    w = MixingMatrix(np.full((4, 4), 1 / 4))
    assert relative_zeta_sq_at(p, x, w) == pytest.approx(
        relative_zeta_sq_at(p, x, w.w)
    )
