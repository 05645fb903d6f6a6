"""Runner equivalences, metric semantics, and the CSV dump."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetmix.simulator
from hetmix.mixing import metropolis_hastings, pairing_matrix
from hetmix.objectives import (
    full_gradients,
    make_random_quadratics,
    make_replicated,
    make_two_class_ring,
)
from hetmix.gme import GmeSolverParams
from hetmix.simulator import (
    _CHUNK,
    DivergenceError,
    MetricsLog,
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


_X_METRICS = ("dist_to_opt", "dist_to_opt_mean", "consensus", "loss")


def _per_step_metrics(problem, trace):
    """The metric lines of the simulator's step loop before it buffered
    steps, evaluated on a trace; gme is right only where U is G."""
    n = problem.n
    x_star = problem.x_star.reshape(-1, 1)
    cols = {name: [] for name in (*_X_METRICS, "gme")}
    for x, g, wg in zip(trace.x, trace.grads, trace.w_grads):
        mean = x.mean(axis=1, keepdims=True)
        cols["dist_to_opt"].append(np.linalg.norm(x - x_star, axis=0).mean())
        cols["dist_to_opt_mean"].append(np.linalg.norm(mean - x_star))
        cols["consensus"].append(np.sum((x - mean) ** 2) / n)
        cols["gme"].append(np.sum((g @ wg - g.mean(axis=1, keepdims=True)) ** 2))
        cols["loss"].append(problem.loss(mean[:, 0]))
    return {name: np.array(v) for name, v in cols.items()}


def _fstring_csv(log, path):
    """MetricsLog.write_csv before the row template."""
    with open(path, "w", newline="\n") as fh:
        fh.write("step,dist_to_opt,dist_to_opt_mean,consensus,gme,loss,"
                 "dist_to_opt_w,consensus_w,gme_w\n")
        for t in range(len(log.step)):
            vals = (
                log.dist_to_opt[t], log.dist_to_opt_mean[t], log.consensus[t],
                log.gme[t], log.loss[t], log.dist_to_opt_w[t],
                log.consensus_w[t], log.gme_w[t],
            )
            fh.write(f"{int(log.step[t])}," + ",".join(f"{v:.10g}" for v in vals) + "\n")


_COLUMNS = ("dist_to_opt", "dist_to_opt_mean", "consensus", "gme", "loss",
            "dist_to_opt_w", "consensus_w", "gme_w")


def _logs_equal(a, b):
    for name in _COLUMNS:
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


def test_uniform_mixing_tracks_centralized_descent():
    p = make_random_quadratics(5, 4, seed=42)
    g = build_complete(5)
    lr = 0.5 / p.smoothness
    cfg = RunConfig(steps=300, lr=lr)
    log = run_dsgd(p, g, metropolis_hastings(g), cfg)
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
    log = run_dsgd(p, g, metropolis_hastings(g), cfg)
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
    log = run_hadsgd(p, g, cfg)
    grad_scale = float(np.sum(full_gradients(p, np.zeros((5, 6))) ** 2))
    assert log.gme.max() <= 1e-8 * grad_scale


def test_two_class_pairing_run_is_exactly_mixed():
    p = make_two_class_ring(6, seed=45, noise_std=0.0)
    g = build_ring(16)
    cfg = RunConfig(steps=150, lr=0.3 / p.smoothness, algorithm="decoupled")
    log = run_dsgd(p, g, metropolis_hastings(g), cfg, w_grads=pairing_matrix(16))
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
    p = replace(make_random_quadratics(5, 4, seed=48, noise_std=0.5), noise_std=0.0)
    g = build_ring(5)
    w = metropolis_hastings(g)
    log1 = run_dsgd(p, g, w, RunConfig(steps=40, lr=0.1 / p.smoothness, noise_seed=1))
    log2 = run_dsgd(p, g, w, RunConfig(steps=40, lr=0.1 / p.smoothness, noise_seed=2))
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


@pytest.mark.parametrize("k", [0, _CHUNK // 2, _CHUNK - 1, 2 * _CHUNK, 3 * _CHUNK - 1])
def test_nan_gradients_raise_at_their_step(monkeypatch, k):
    real = hetmix.simulator.stochastic_gradients
    calls = []

    def poisoned(problem, x, rng):
        calls.append(None)
        g = real(problem, x, rng)
        return g if len(calls) <= k else np.full_like(g, np.nan)

    monkeypatch.setattr(hetmix.simulator, "stochastic_gradients", poisoned)
    p = make_random_quadratics(5, 4, seed=55, noise_std=0.1)
    g = build_ring(5)
    cfg = RunConfig(steps=3 * _CHUNK, lr=0.1 / p.smoothness)
    with pytest.raises(DivergenceError, match="nan") as exc:
        run_dsgd(p, g, metropolis_hastings(g), cfg)
    assert exc.value.step == k


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(steps=0, lr=0.1)
    with pytest.raises(ValueError):
        RunConfig(steps=1, lr=-1.0)
    with pytest.raises(ValueError):
        RunConfig(steps=1, lr=0.1, algorithm="sgd")
    with pytest.raises(ValueError):
        RunConfig(steps=1, lr=0.1, period=0)
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


_STEP_COUNTS = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)


@st.composite
def _runs(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 20))
    steps = draw(st.one_of(st.sampled_from(_STEP_COUNTS), st.integers(1, 3 * _CHUNK)))
    return n, d, steps, draw(st.integers(0, 2**16)), draw(st.booleans())


@pytest.mark.parametrize("algorithm", ["dsgd", "decoupled", "hadsgd"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(_runs())
def test_chunked_metrics_match_the_per_step_formulas(algorithm, run):
    n, d, steps, seed, exact = run
    p = make_random_quadratics(n, d, -(-d // n) + 1, seed=seed, noise_std=0.3)
    if exact:
        p = replace(p, noise_std=0.0)
    g = build_random_connected(n, 0.5, seed)
    cfg = RunConfig(steps=steps, lr=0.3 / p.smoothness, algorithm=algorithm,
                    sketch_dim=8, noise_seed=seed)
    if algorithm == "hadsgd":
        log = run_hadsgd(p, g, cfg, solver_params=_SHALLOW, record_trace=True)
    else:
        w_grads = metropolis_hastings(build_complete(n)) if algorithm == "decoupled" else None
        log = run_dsgd(p, g, metropolis_hastings(g), cfg, w_grads=w_grads,
                       record_trace=True)
    want = _per_step_metrics(p, log.trace)
    for name in (*_X_METRICS, "gme"):
        assert np.array_equal(getattr(log, name), want[name]), name


_EDGE_VALUES = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.8e308, 1e16,
                -1e16, 1e-5, 0.1, 123456789.5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 30).flatmap(lambda t: st.lists(
    st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()), min_size=t, max_size=t),
    min_size=8, max_size=8)))
def test_write_csv_matches_the_fstring_writer(tmp_path_factory, columns):
    log = MetricsLog(step=np.arange(len(columns[0])),
                     **{k: np.array(c, dtype=float) for k, c in zip(_COLUMNS, columns)})
    tmp = tmp_path_factory.mktemp("csv")
    log.write_csv(tmp / "new.csv")
    _fstring_csv(log, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def test_high_lr_warns_before_running():
    p = make_random_quadratics(4, 3, seed=54)
    g = build_complete(4)
    with pytest.warns(RuntimeWarning, match="2/L"):
        try:
            run_dsgd(p, g, metropolis_hastings(g),
                     RunConfig(steps=200, lr=3.0 / p.smoothness))
        except DivergenceError:
            pass
