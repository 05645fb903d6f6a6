"""Acceptance gate: one test per shipping criterion, each printing a
single pass/fail line with its measured runtime.

Most criteria delegate to the property checks in hetmix.checks, which
keep their own oracles, each check to exactly one criterion; the first one
runs the head-to-head experiment the package exists for.
"""

import ast
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from hetmix.checks import CHECKS, CheckResult
from hetmix.mixing import metropolis_hastings
from hetmix.objectives import make_random_quadratics
from hetmix.simulator import RunConfig, run_dsgd, run_hadsgd
from hetmix.topology import build_random_connected


def _report(num, result, elapsed, capsys, budget=None):
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {status} {result.name}: "
              f"{result.detail} ({elapsed:.1f}s)")
    assert result.passed, f"{result.name}: {result.detail}"
    if budget is not None:
        assert elapsed < budget, f"{result.name} took {elapsed:.1f}s (budget {budget}s)"


def _delegate(num, check_name, capsys, budget=None):
    fn = CHECKS[check_name]
    t0 = perf_counter()
    result = fn()
    _report(num, result, perf_counter() - t0, capsys, budget)


def test_01_heterogeneity_aware_mixing_beats_fixed_weights(capsys):
    """Sixteen heterogeneous nodes on a half-density random graph: the
    periodically re-optimized matrix must lower every tail metric against
    the fixed Metropolis-Hastings baseline on most repetitions."""
    t0 = perf_counter()
    steps, period = 3000, 100
    # the refreshes solve at the default GmeSolverParams, as `hetmix run` does
    wins = {"dist_to_opt_w": 0, "consensus_w": 0, "gme_w": 0}
    for rep in range(3):
        problem = make_random_quadratics(16, 10, seed=rep, noise_std=np.sqrt(0.1))
        graph = build_random_connected(16, 0.5, seed=rep)
        base = dict(steps=steps, lr=0.1 / problem.smoothness,
                    noise_seed=10_000 + rep, window=5)
        log_mh = run_dsgd(problem, graph, metropolis_hastings(graph),
                          RunConfig(**base))
        log_ha = run_hadsgd(problem, graph, RunConfig(
            period=period, sketch_dim=64, sketch_seed=20_000 + rep, **base))
        tail = slice(-(steps // 10), None)
        for metric in wins:
            wins[metric] += bool(
                getattr(log_ha, metric)[tail].mean()
                < getattr(log_mh, metric)[tail].mean()
            )
    result = CheckResult(
        "adaptive_vs_fixed_experiment",
        all(w >= 2 for w in wins.values()),
        f"tail-metric wins over 3 repetitions: {wins}",
    )
    _report(1, result, perf_counter() - t0, capsys, budget=120)


def test_02_replicated_ring_heterogeneity_cancels(capsys):
    _delegate(2, "replicated_ring_exactness", capsys, budget=1)


def test_03_balanced_clique_averaging_cancels(capsys):
    _delegate(3, "clique_averaging_exactness", capsys, budget=1)


def test_04_composing_matrices_never_hurts(capsys):
    _delegate(4, "composition_preserves_both", capsys, budget=10)


def test_05_solver_matches_brute_force_oracle(capsys):
    _delegate(5, "solver_matches_oracle", capsys, budget=120)


def test_06_feasible_matrices_are_nonexpansive(capsys):
    _delegate(6, "spectral_norm_bound", capsys, budget=10)


def test_07_mixed_heterogeneity_contracts(capsys):
    _delegate(7, "mixing_contraction_bound", capsys, budget=10)


def test_08_mixing_error_drift_is_bounded(capsys):
    _delegate(8, "gme_drift_over_period", capsys, budget=30)


def test_09_sketches_preserve_inner_products(capsys):
    _delegate(9, "sketch_inner_products", capsys, budget=5)


def test_10_recorded_updates_replay_exactly(capsys):
    _delegate(10, "update_identity", capsys)


def test_11_tiny_sketches_degrade_gracefully(capsys):
    _delegate(11, "sketch_dimension_effect", capsys, budget=60)


def test_12_paired_two_class_ring_beats_random_placement(capsys):
    _delegate(12, "pairing_cancellation", capsys, budget=60)


def test_13_mean_point_error_is_bounded_by_local_error_and_consensus(capsys):
    _delegate(13, "local_vs_mean_gme", capsys, budget=10)


def test_14_noise_optimized_matrices_control_the_exact_error(capsys):
    _delegate(14, "stochastic_gme_bound", capsys, budget=10)


def test_every_check_has_exactly_one_acceptance_test():
    """Each name of CHECKS is delegated to once in this file, so tier-1 runs
    every check of `hetmix check` exactly once."""
    calls = [node for node in ast.walk(ast.parse(Path(__file__).read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_delegate"]
    delegated = Counter(call.args[1].value for call in calls)
    assert delegated == dict.fromkeys(CHECKS, 1)
