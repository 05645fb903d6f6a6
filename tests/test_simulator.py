"""Runner equivalences, metric semantics, and the CSV dump."""

import numpy as np
import pytest

from hetmix.mixing import metropolis_hastings, pairing_matrix, uniform_averaging
from hetmix.objectives import (
    full_gradients,
    make_random_quadratics,
    make_replicated,
    make_two_class_ring,
)
from hetmix.gme import GmeSolverParams
from hetmix.simulator import (
    DivergenceError,
    RunConfig,
    check_update_identity,
    run_dsgd,
    run_hadsgd,
)
from hetmix.topology import build_complete, build_random_connected, build_ring


# --- oracles -----------------------------------------------------------

def _centralized_gd(problem, lr, steps):
    """Distance-to-optimum series of plain gradient descent on the average
    objective, for comparison with a fully-mixed decentralized run."""
    x = np.zeros(problem.d)
    out = np.empty(steps)
    for t in range(steps):
        out[t] = np.linalg.norm(x - problem.x_star)
        grads = full_gradients(problem, np.tile(x.reshape(-1, 1), (1, problem.n)))
        x = x - lr * grads.mean(axis=1)
    return out


def _brute_force_window(v, window):
    return np.array([v[max(0, t - window + 1): t + 1].mean() for t in range(len(v))])


def _logs_equal(a, b):
    for name in ("dist_to_opt", "dist_to_opt_mean", "consensus", "gme", "loss",
                 "dist_to_opt_w", "consensus_w", "gme_w"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    return True


# --- equivalences ------------------------------------------------------

def test_decoupled_with_equal_matrices_is_dsgd():
    p = make_random_quadratics(6, 4, seed=40, noise_std=0.2)
    g = build_ring(6)
    w = metropolis_hastings(g)
    cfg = RunConfig(steps=80, lr=0.2 / p.smoothness, noise_seed=1)
    cfg2 = RunConfig(steps=80, lr=0.2 / p.smoothness, algorithm="decoupled",
                     noise_seed=1)
    assert _logs_equal(run_dsgd(p, g, w, cfg), run_dsgd(p, g, w, cfg2, w_grads=w))


def test_momentum_zero_is_plain_hadsgd():
    p = make_random_quadratics(6, 4, seed=41, noise_std=0.2)
    g = build_ring(6)
    base = dict(steps=60, lr=0.2 / p.smoothness, period=20, sketch_dim=8,
                noise_seed=2, sketch_seed=5)
    log_h = run_hadsgd(p, g, RunConfig(algorithm="hadsgd", **base))
    log_m = run_hadsgd(
        p, g, RunConfig(algorithm="hadsgd_momentum", momentum=0.0, **base)
    )
    assert _logs_equal(log_h, log_m)
    # the algorithm name alone switches momentum on
    log_b = run_hadsgd(
        p, g, RunConfig(algorithm="hadsgd_momentum", momentum=0.5, **base)
    )
    assert not _logs_equal(log_h, log_b)


def test_uniform_mixing_tracks_centralized_descent():
    p = make_random_quadratics(5, 4, seed=42)
    g = build_complete(5)
    lr = 0.5 / p.smoothness
    cfg = RunConfig(steps=300, lr=lr)
    log = run_dsgd(p, g, uniform_averaging(5), cfg, exact_gradients=True)
    oracle = _centralized_gd(p, lr, 300)
    np.testing.assert_allclose(log.dist_to_opt_mean, oracle, atol=1e-9)
    assert log.consensus.max() < 1e-18
    # strict decrease until numerical convergence
    drops = np.diff(log.dist_to_opt_mean)
    assert np.all(drops <= 1e-15)
    assert log.dist_to_opt_mean[-1] < 1e-3 * log.dist_to_opt_mean[1]


def test_replicated_ring_run_collapses_to_centralized():
    """Uniform thirds cancel the period-3 heterogeneity exactly, so the
    decentralized run never leaves consensus and the gme metric stays at
    roundoff scale."""
    p = make_replicated(6, 5, period=3, seed=43)
    g = build_ring(6)
    lr = 0.4 / p.smoothness
    cfg = RunConfig(steps=400, lr=lr)
    log = run_dsgd(p, g, metropolis_hastings(g), cfg, exact_gradients=True)
    oracle = _centralized_gd(p, lr, 400)
    np.testing.assert_allclose(log.dist_to_opt, oracle, atol=1e-8)
    grad_scale = float(np.sum(full_gradients(p, np.zeros((5, 6))) ** 2))
    assert log.gme.max() <= 1e-16 * grad_scale
    assert log.consensus.max() < 1e-16


def test_periodic_refresh_keeps_structured_instance_mixed():
    p = make_replicated(6, 5, period=3, seed=44)
    g = build_ring(6)
    cfg = RunConfig(steps=100, lr=0.3 / p.smoothness, algorithm="hadsgd",
                    period=10, sketch_dim=16)
    log = run_hadsgd(p, g, cfg, exact_gradients=True)
    grad_scale = float(np.sum(full_gradients(p, np.zeros((5, 6))) ** 2))
    assert log.gme.max() <= 1e-8 * grad_scale


def test_two_class_pairing_run_is_exactly_mixed():
    p = make_two_class_ring(6, seed=45, noise_std=0.0)
    g = build_ring(16)
    cfg = RunConfig(steps=150, lr=0.3 / p.smoothness, algorithm="decoupled")
    log = run_dsgd(p, g, metropolis_hastings(g), cfg, w_grads=pairing_matrix(16),
                   exact_gradients=True)
    grad_scale = float(np.sum(full_gradients(p, np.zeros((6, 16))) ** 2))
    assert log.gme.max() <= 1e-16 * grad_scale
    assert log.dist_to_opt[-1] < 1e-6


# --- scheduling details ------------------------------------------------

_SHALLOW = GmeSolverParams(max_iters=60, tol=1e-6)  # schedule tests don't need depth


def test_alternate_interleaves_metropolis_hastings():
    p = make_random_quadratics(8, 5, seed=46, noise_std=0.1)
    g = build_random_connected(8, 0.6, seed=2)
    mh = metropolis_hastings(g).w
    cfg = RunConfig(steps=9, lr=0.1 / p.smoothness, algorithm="hadsgd",
                    period=4, sketch_dim=8)
    trace = run_hadsgd(p, g, cfg, record_trace=True, solver_params=_SHALLOW).trace
    for t in (1, 3, 5, 7):
        np.testing.assert_array_equal(trace.w_grads[t], mh)
    assert not np.array_equal(trace.w_grads[0], mh)
    # without alternation every step applies the refreshed matrix
    cfg2 = RunConfig(steps=9, lr=0.1 / p.smoothness, algorithm="hadsgd",
                     period=4, sketch_dim=8, alternate=False)
    trace2 = run_hadsgd(p, g, cfg2, record_trace=True, solver_params=_SHALLOW).trace
    np.testing.assert_array_equal(trace2.w_grads[0], trace2.w_grads[1])


def test_sketch_seed_changes_the_refresh():
    p = make_random_quadratics(8, 5, seed=47, noise_std=0.1)
    g = build_random_connected(8, 0.6, seed=3)
    base = dict(steps=30, lr=0.1 / p.smoothness, period=10, sketch_dim=4,
                noise_seed=9)
    a = run_hadsgd(p, g, RunConfig(algorithm="hadsgd", sketch_seed=0, **base),
                   solver_params=_SHALLOW)
    b = run_hadsgd(p, g, RunConfig(algorithm="hadsgd", sketch_seed=1, **base),
                   solver_params=_SHALLOW)
    c = run_hadsgd(p, g, RunConfig(algorithm="hadsgd", sketch_seed=0, **base),
                   solver_params=_SHALLOW)
    assert _logs_equal(a, c)
    assert not _logs_equal(a, b)


def test_exact_gradients_ignore_the_noise_stream():
    p = make_random_quadratics(5, 4, seed=48, noise_std=0.5)
    g = build_ring(5)
    w = metropolis_hastings(g)
    log1 = run_dsgd(p, g, w, RunConfig(steps=40, lr=0.1 / p.smoothness,
                                       noise_seed=1), exact_gradients=True)
    log2 = run_dsgd(p, g, w, RunConfig(steps=40, lr=0.1 / p.smoothness,
                                       noise_seed=2), exact_gradients=True)
    assert _logs_equal(log1, log2)


def test_trace_recording_and_identity():
    p = make_random_quadratics(5, 4, seed=49, noise_std=0.3)
    g = build_ring(5)
    w = metropolis_hastings(g)
    cfg = RunConfig(steps=25, lr=0.1 / p.smoothness)
    log = run_dsgd(p, g, w, cfg)
    assert log.trace is None
    log = run_dsgd(p, g, w, cfg, record_trace=True)
    assert len(log.trace.x) == 26
    assert len(log.trace.grads) == 25
    assert check_update_identity(log.trace) <= 1e-12


# --- failure modes and config validation ------------------------------

def test_divergence_raises_with_step():
    p = make_random_quadratics(2, 3, m=2, seed=50)
    g = build_complete(2)
    cfg = RunConfig(steps=500, lr=60.0 / p.smoothness)
    with pytest.warns(RuntimeWarning, match="expect divergence"):
        with pytest.raises(DivergenceError) as exc:
            run_dsgd(p, g, metropolis_hastings(g), cfg)
    assert 0 < exc.value.step < 500
    assert str(exc.value.step) in str(exc.value)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(steps=0, lr=0.1)
    with pytest.raises(ValueError):
        RunConfig(steps=1, lr=-1.0)
    with pytest.raises(ValueError):
        RunConfig(steps=1, lr=0.1, algorithm="sgd")
    with pytest.raises(ValueError):
        RunConfig(steps=1, lr=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        RunConfig(steps=1, lr=0.1, window=0)


def test_node_count_mismatch_is_an_error():
    p = make_random_quadratics(5, 4, seed=51)
    g = build_ring(6)
    with pytest.raises(ValueError, match="nodes"):
        run_dsgd(p, g, metropolis_hastings(g), RunConfig(steps=5, lr=0.01))


# --- metrics and CSV ---------------------------------------------------

def test_window_averages_match_brute_force():
    p = make_random_quadratics(6, 4, seed=52, noise_std=0.2)
    g = build_ring(6)
    cfg = RunConfig(steps=50, lr=0.2 / p.smoothness, window=7)
    log = run_dsgd(p, g, metropolis_hastings(g), cfg)
    np.testing.assert_allclose(
        log.dist_to_opt_w, _brute_force_window(log.dist_to_opt, 7), atol=1e-12
    )
    np.testing.assert_allclose(
        log.gme_w, _brute_force_window(log.gme, 7), atol=1e-9
    )


def test_csv_format_and_determinism(tmp_path):
    p = make_random_quadratics(6, 4, seed=53, noise_std=0.2)
    g = build_ring(6)
    cfg = RunConfig(steps=30, lr=0.2 / p.smoothness, noise_seed=4)
    log = run_dsgd(p, g, metropolis_hastings(g), cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    log.write_csv(a)
    run_dsgd(p, g, metropolis_hastings(g), cfg).write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    lines = text.splitlines()
    assert lines[0] == ("step,dist_to_opt,dist_to_opt_mean,consensus,gme,loss,"
                       "dist_to_opt_w,consensus_w,gme_w")
    assert len(lines) == 31
    assert "\r" not in text
    # values round-trip at 10 significant digits
    row = lines[7].split(",")
    assert int(row[0]) == 6
    assert float(row[1]) == pytest.approx(log.dist_to_opt[6], rel=1e-9)
    assert float(row[5]) == pytest.approx(log.loss[6], rel=1e-9)


def test_high_lr_warns_before_running():
    p = make_random_quadratics(4, 3, seed=54)
    g = build_complete(4)
    with pytest.warns(RuntimeWarning, match="2/L"):
        try:
            run_dsgd(p, g, uniform_averaging(4),
                     RunConfig(steps=200, lr=3.0 / p.smoothness))
        except DivergenceError:
            pass
