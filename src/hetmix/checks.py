"""Numerical property checks, runnable from the command line or the tests.

Each check returns a CheckResult and is deterministic. The quadratic
program oracle deliberately avoids the package's own projection and
solver so the two routes stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gme import (
    GmeSolverParams,
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
from .mixing import (
    MixingMatrix,
    compose,
    deviation_operator_norm,
    metropolis_hastings,
    pairing_matrix,
    uniform_clique_averaging,
    validate,
)
from .objectives import (
    full_gradients,
    make_random_quadratics,
    make_replicated,
    make_two_class_ring,
    permute_nodes,
    relative_zeta_sq_at,
    zeta_sq_at,
)
from .simulator import RunConfig, _simulate, check_update_identity, run_dsgd, run_hadsgd
from .topology import (
    CliquePartition,
    Topology,
    build_complete,
    build_random_connected,
    build_ring,
)

__all__ = ["CheckResult", "quadratic_program_oracle", "run_checks", "CHECKS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# independent oracle for the 3-node quadratic program

_W_BASE = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, -1.0]])
# entry (r, c) of W(u) is _INEQ_A[3r+c] @ u + _INEQ_B[3r+c]; all must be >= 0
_INEQ_A = np.array(
    [
        [1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0],
        [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, -1],
        [-1, 0, -1, 0], [0, -1, 0, -1], [1, 1, 1, 1],
    ],
    dtype=float,
)
_INEQ_B = np.array([0, 0, 1, 0, 0, 1, 1, 1, -1], dtype=float)


def _w_of_u(u: np.ndarray) -> np.ndarray:
    """3x3 doubly stochastic matrix from its free top-left 2x2 block."""
    flat = _INEQ_A @ u + _INEQ_B
    return flat.reshape(3, 3)


def quadratic_program_oracle(gamma: np.ndarray, seed: int = 0) -> float:
    """Reference minimum of Tr[W^T Gamma W] over 3x3 doubly stochastic W.

    Full support only. The polytope is parametrized by the top-left 2x2
    block; a feasible grid of step 0.05 seeds an SLSQP polish from the
    grid best and from 20 random feasible restarts drawn from seed, and
    the best polished value wins. The objective is convex, so the
    polished optimum is global.
    """
    from scipy.optimize import minimize  # slow to import, and only needed here

    gamma = np.asarray(gamma, dtype=float)
    axes = np.arange(0.0, 1.025, 0.05)  # 0, 0.05, ..., 1
    mesh = np.stack(np.meshgrid(*([axes] * 4), indexing="ij"), axis=-1).reshape(-1, 4)
    entries = mesh @ _INEQ_A.T + _INEQ_B
    feasible = mesh[np.all(entries >= -1e-12, axis=1)]
    ws = (feasible @ _INEQ_A.T + _INEQ_B).reshape(-1, 3, 3)
    vals = np.einsum("nij,ik,nkj->n", ws, gamma, ws)
    best_u = feasible[int(np.argmin(vals))]

    def objective(u: np.ndarray) -> float:
        w = _w_of_u(u)
        return float(np.sum(w * (gamma @ w)))

    rng = np.random.default_rng(seed)
    starts = [best_u]
    while len(starts) < 21:
        u = rng.uniform(0.0, 1.0, 4)
        if np.all(_INEQ_A @ u + _INEQ_B >= 0.0):
            starts.append(u)
    best = float(np.min(vals))
    cons = {"type": "ineq", "fun": lambda u: _INEQ_A @ u + _INEQ_B}
    for u0 in starts:
        res = minimize(
            objective, u0, method="SLSQP", constraints=cons,
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if np.min(_INEQ_A @ res.x + _INEQ_B) >= -1e-9:
            best = min(best, objective(res.x))
    return best


# ---------------------------------------------------------------------------
# shared generators

def _random_graph(rng: np.random.Generator) -> Topology:
    n = int(rng.integers(4, 13))
    keep = float(rng.uniform(0.3, 0.9))
    return build_random_connected(n, keep, int(rng.integers(1 << 30)))


def _random_feasible(topology: Topology, rng: np.random.Generator) -> MixingMatrix:
    return project_feasible(rng.uniform(0.0, 1.0, (topology.n, topology.n)), topology)


def _random_gme_output(topology: Topology, rng: np.random.Generator) -> MixingMatrix:
    # feasibility of the output is what matters here, not convergence depth
    g = rng.standard_normal((int(rng.integers(2, 7)), topology.n))
    params = GmeSolverParams(max_iters=60, tol=1e-6)
    return solve_gme(gram(center_columns(g)), topology, params)


def _example1_gradients(rng: np.random.Generator, d: int = 10) -> np.ndarray:
    """Ring(6)-style gradient matrix: columns repeat with period 3, zero mean."""
    g0, g1 = rng.standard_normal(d), rng.standard_normal(d)
    g2 = -g0 - g1
    return np.column_stack([g0, g1, g2, g0, g1, g2])


# ---------------------------------------------------------------------------
# checks

def spectral_norm_bound() -> CheckResult:
    """Every feasible matrix, symmetric or not, has operator norm at most one."""
    rng = np.random.default_rng(101)
    mats = []
    for _ in range(60):
        mats.append(_random_feasible(_random_graph(rng), rng).w)
    for _ in range(20):
        mats.append(metropolis_hastings(_random_graph(rng)).w)
    for _ in range(20):
        mats.append(_random_gme_output(_random_graph(rng), rng).w)
    worst = max(float(np.linalg.norm(m, 2)) for m in mats)
    return CheckResult(
        "spectral_norm_bound", worst <= 1.0 + 1e-10,
        f"max ||W||_2 = {worst:.12f} over {len(mats)} matrices",
    )


def mixing_contraction_bound() -> CheckResult:
    """relative_zeta_sq <= (1 - p) zeta_sq with p the consensus factor."""
    rng = np.random.default_rng(202)
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(3, 7))
        problem = make_random_quadratics(n, d, d, seed=int(rng.integers(1 << 30)))
        graph = build_random_connected(n, float(rng.uniform(0.4, 1.0)),
                                       int(rng.integers(1 << 30)))
        w = _random_feasible(graph, rng)
        x = rng.standard_normal(d) * float(rng.uniform(0.5, 3.0))
        dev_sq = deviation_operator_norm(w) ** 2
        gap = relative_zeta_sq_at(problem, x, w) - dev_sq * zeta_sq_at(problem, x)
        worst = max(worst, gap)
    return CheckResult(
        "mixing_contraction_bound", worst <= 1e-9,
        f"max violation {worst:.3e} over 100 triples",
    )


def replicated_ring_exactness() -> CheckResult:
    """Period-3 data on a 6-ring with uniform weights mixes to zero heterogeneity."""
    graph = build_ring(6)
    problem = make_replicated(6, 10, 10, period=3, seed=11)
    w = metropolis_hastings(graph)  # uniform 1/3 on a ring
    rng = np.random.default_rng(303)
    worst = max(
        relative_zeta_sq_at(problem, rng.standard_normal(10), w) for _ in range(10)
    )
    zeta_at_opt = zeta_sq_at(problem, problem.x_star)
    ok = worst <= 1e-9 and zeta_at_opt >= 1e-3
    return CheckResult(
        "replicated_ring_exactness", ok,
        f"max relative zeta^2 {worst:.3e}; zeta^2 at optimum {zeta_at_opt:.3e}",
    )


def clique_averaging_exactness() -> CheckResult:
    """Class-balanced cliques average local gradients to the global one."""
    problem = make_replicated(6, 8, 8, period=3, seed=12)
    w = uniform_clique_averaging(CliquePartition(((0, 1, 2), (3, 4, 5))))
    rng = np.random.default_rng(404)
    worst = max(
        relative_zeta_sq_at(problem, rng.standard_normal(8), w) for _ in range(10)
    )
    return CheckResult(
        "clique_averaging_exactness", worst <= 1e-9,
        f"max relative zeta^2 {worst:.3e} over 10 points",
    )


def composition_preserves_both() -> CheckResult:
    """Composing with a feasible matrix cannot hurt consensus or gradient mixing."""
    rng = np.random.default_rng(505)
    worst_dev = -np.inf
    worst_frob = -np.inf
    for trial in range(100):
        graph = _random_graph(rng)
        w_p = _random_feasible(graph, rng)
        if trial % 3 == 0:
            w_z = _random_gme_output(graph, rng)
        else:
            w_z = _random_feasible(graph, rng)
        gc = center_columns(rng.standard_normal((int(rng.integers(2, 8)), graph.n)))
        prod = compose(w_z, w_p)
        worst_dev = max(
            worst_dev, deviation_operator_norm(prod) - deviation_operator_norm(w_p)
        )
        worst_frob = max(
            worst_frob,
            np.linalg.norm(gc @ w_z.w @ w_p.w) - np.linalg.norm(gc @ w_z.w),
        )
    ok = worst_dev <= 1e-9 and worst_frob <= 1e-9
    return CheckResult(
        "composition_preserves_both", ok,
        f"max deviation excess {worst_dev:.3e}, max Frobenius excess {worst_frob:.3e}",
    )


def solver_matches_oracle() -> CheckResult:
    """Projected gradient agrees with the grid-plus-polish oracle on 3 nodes."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(20):
        graph = build_ring(3) if trial < 10 else build_complete(3)
        d = int(rng.integers(2, 7))
        gamma = gram(center_columns(rng.standard_normal((d, 3))))
        got = gme_objective(gamma, solve_gme(gamma, graph))
        want = quadratic_program_oracle(gamma.gamma, seed=trial)
        worst = max(worst, abs(got - want))
    return CheckResult(
        "solver_matches_oracle", worst <= 1e-6,
        f"max |solver - oracle| = {worst:.3e} over 20 instances",
    )


def _mean_point_run(problem, graph, cfg, solver_params):
    """Run of a noiseless problem with the mean-point refresh used by the drift checks.

    Every cfg.period steps the matrix is re-solved from the exact gradients
    at the mean iterate; it is applied at every step, with no alternation.
    """
    state = {}

    def matrices(t, x, g):
        if t % cfg.period == 0:
            gamma = gram(center_columns(_mean_point_grads(problem, x)))
            state["w"] = solve_gme(gamma, graph, solver_params).w
        return state["w"], state["w"]

    return _simulate(problem, graph, cfg, matrices, record_trace=True)


def _drift_trajectories():
    """Ten exact-gradient runs with the mean-point refresh, periods 1, 10, 100."""
    plans = [(s, 1, 16) for s in range(4)]
    plans += [(s, 10, 51) for s in range(4, 7)]
    plans += [(s, 100, 201) for s in range(7, 10)]
    for seed, period, steps in plans:
        problem = make_random_quadratics(8, 6, 6, seed=seed)
        graph = (build_ring(8) if seed % 2 else
                 build_random_connected(8, 0.5, seed=seed + 50))
        cfg = RunConfig(
            steps=steps, lr=0.1 / problem.smoothness, algorithm="hadsgd",
            period=period, alternate=False,
        )
        # the drift bound holds for whichever feasible matrix the refresh
        # produces, so a shallow solve is enough
        log = _mean_point_run(problem, graph, cfg,
                              GmeSolverParams(max_iters=60, tol=1e-6))
        yield problem, cfg, log.trace


def _mean_point_grads(problem, x):
    tiled = np.tile(x.mean(axis=1, keepdims=True), (1, problem.n))
    return full_gradients(problem, tiled)


def gme_drift_over_period() -> CheckResult:
    """Between refreshes the mixing error grows at most by the predicted drift.

    Also checks, at every step, that the mean-point error is controlled by
    the local-point error plus the consensus gap.
    """
    worst_period = -np.inf
    worst_local = -np.inf
    for problem, cfg, trace in _drift_trajectories():
        lr_l_sq = (cfg.lr * problem.smoothness) ** 2
        h = cfg.period
        steps = len(trace.grads)
        grad_sq = [float(np.sum(g**2)) for g in trace.grads]
        for t in range(0, steps - h + 1, h):
            w = trace.w_grads[t]
            g_now = _mean_point_grads(problem, trace.x[t])
            g_next = _mean_point_grads(problem, trace.x[t + h])
            lhs = np.sum((g_next @ w - g_next.mean(axis=1, keepdims=True)) ** 2)
            base = np.sum((g_now @ w - g_now.mean(axis=1, keepdims=True)) ** 2)
            drift = 2.0 * h * lr_l_sq * sum(grad_sq[t:t + h])
            worst_period = max(worst_period, lhs - 2.0 * base - drift)
        l_sq = problem.smoothness**2
        for t in range(steps):
            x = trace.x[t]
            w = trace.w_grads[t]
            g_mean = _mean_point_grads(problem, x)
            g_loc = trace.grads[t]
            lhs = np.sum((g_mean @ w - g_mean.mean(axis=1, keepdims=True)) ** 2)
            rhs = 2.0 * np.sum((g_loc @ w - g_loc.mean(axis=1, keepdims=True)) ** 2)
            rhs += 2.0 * l_sq * np.sum((x - x.mean(axis=1, keepdims=True)) ** 2)
            worst_local = max(worst_local, lhs - rhs)
    ok = worst_period <= 1e-8 and worst_local <= 1e-8
    return CheckResult(
        "gme_drift_over_period", ok,
        f"max period-drift violation {worst_period:.3e}, "
        f"max local-bound violation {worst_local:.3e}",
    )


def local_vs_mean_gme() -> CheckResult:
    """Mean-point mixing error bounded by local error plus consensus gap, random inputs."""
    rng = np.random.default_rng(707)
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(3, 7))
        problem = make_random_quadratics(n, d, d, seed=int(rng.integers(1 << 30)))
        graph = build_random_connected(n, float(rng.uniform(0.4, 1.0)),
                                       int(rng.integers(1 << 30)))
        w = _random_feasible(graph, rng).w
        x = rng.standard_normal((d, n)) * float(rng.uniform(0.3, 3.0))
        g_mean = _mean_point_grads(problem, x)
        g_loc = full_gradients(problem, x)
        lhs = np.sum((g_mean @ w - g_mean.mean(axis=1, keepdims=True)) ** 2)
        rhs = 2.0 * np.sum((g_loc @ w - g_loc.mean(axis=1, keepdims=True)) ** 2)
        rhs += 2.0 * problem.smoothness**2 * np.sum((x - x.mean(axis=1, keepdims=True)) ** 2)
        worst = max(worst, lhs - rhs)
    return CheckResult(
        "local_vs_mean_gme", worst <= 1e-8,
        f"max violation {worst:.3e} over 100 instances",
    )


def update_identity() -> CheckResult:
    """Recorded trajectories satisfy the centered update identity; doctoring is caught."""
    graph = build_ring(8)
    problem = make_random_quadratics(8, 5, 5, seed=21, noise_std=0.3)
    cfg = RunConfig(steps=60, lr=0.1 / problem.smoothness, noise_seed=3)
    log1 = run_dsgd(problem, graph, metropolis_hastings(graph), cfg, record_trace=True)
    hcfg = RunConfig(steps=60, lr=0.1 / problem.smoothness, algorithm="hadsgd",
                     period=20, sketch_dim=16, noise_seed=4)
    log2 = run_hadsgd(problem, graph, hcfg, record_trace=True,
                      solver_params=GmeSolverParams(max_iters=60, tol=1e-6))
    two_class = make_two_class_ring(6, seed=5)
    ring16 = build_ring(16)
    dcfg = RunConfig(steps=40, lr=0.1 / two_class.smoothness,
                     algorithm="decoupled", noise_seed=6)
    log3 = run_dsgd(two_class, ring16, metropolis_hastings(ring16), dcfg,
                    w_grads=pairing_matrix(16), record_trace=True)
    resid = max(check_update_identity(log.trace) for log in (log1, log2, log3))
    doctored = log1.trace
    saved = doctored.w_params[3]
    doctored.w_params[3] = np.full_like(saved, 1.0 / graph.n)
    caught = check_update_identity(doctored) > 1e-6
    doctored.w_params[3] = saved
    ok = resid <= 1e-10 and caught
    return CheckResult(
        "update_identity", ok,
        f"max scaled residual {resid:.3e}; doctored trace caught: {caught}",
    )


def stochastic_gme_bound() -> CheckResult:
    """Noise-optimized matrices still control the exact mixing error, on average.

    Monte-Carlo over 200 noise draws with a 3-standard-error allowance on
    the paired-difference statistic.
    """
    rng = np.random.default_rng(808)
    graph = build_ring(6)
    problem = make_random_quadratics(6, 5, 5, seed=31, noise_std=0.3)
    x = rng.standard_normal(5)
    g_exact = _mean_point_grads(problem, np.tile(x.reshape(-1, 1), (1, 6)))
    g0c = center_columns(g_exact)
    deltas = []
    for _ in range(200):
        noise = rng.normal(0.0, problem.noise_std, size=g_exact.shape)
        g_noisy = g_exact + noise
        w = solve_gme(gram(center_columns(g_noisy)), graph).w
        lhs = float(np.sum((g0c @ w) ** 2))
        t1 = float(np.sum((center_columns(g_noisy) @ w) ** 2))
        deltas.append(lhs - 2.0 * t1 - 2.0 * float(np.sum(noise**2)))
    deltas = np.array(deltas)
    margin = float(deltas.mean())
    slack = 3.0 * float(deltas.std(ddof=1)) / np.sqrt(len(deltas))
    return CheckResult(
        "stochastic_gme_bound", margin <= slack,
        f"paired mean {margin:.3e} vs 3 SE = {slack:.3e} over 200 draws",
    )


def sketch_inner_products() -> CheckResult:
    """The shared sketch preserves all pairwise inner products at the JL rate."""
    m, delta, eps, d = 16, 0.05, 0.3, 10_000
    k = min(jl_required_dim(m, delta, eps), d)
    failures = 0
    for trial in range(20):
        u = np.random.default_rng(4000 + trial).standard_normal((d, m))
        s = sketch(u, SketchConfig(k, 8000 + trial))
        exact = u.T @ u
        est = (s.T @ s) / k
        bound = eps * float(np.diag(exact).max())
        if np.abs(est - exact).max() > bound:
            failures += 1
    return CheckResult(
        "sketch_inner_products", failures <= 1,
        f"{failures}/20 trials exceeded the bound (k={k})",
    )


def sketch_dimension_effect() -> CheckResult:
    """One sketch row degrades the solved mixing error; 64 rows do not.

    Solves start from a seeded random feasible matrix: the default init is
    itself optimal on this instance, which would tie every trial.
    """
    graph = build_ring(6)
    rng = np.random.default_rng(909)
    g = _example1_gradients(rng)
    gamma = gram(center_columns(g))
    lam = gamma.lam_max
    good64 = 0
    k1_worse = 0
    for seed in range(20):
        init = project_feasible(
            np.random.default_rng(1000 + seed).uniform(0.0, 1.0, (6, 6)), graph
        )
        w64 = ce_gme(g, graph, SketchConfig(64, seed), init=init)
        w1 = ce_gme(g, graph, SketchConfig(1, seed), init=init)
        o64 = gme_objective(gamma, w64)
        o1 = gme_objective(gamma, w1)
        if o64 <= 1e-6 * lam:
            good64 += 1
        if o1 > o64:
            k1_worse += 1
    ok = good64 >= 18 and k1_worse >= 15
    return CheckResult(
        "sketch_dimension_effect", ok,
        f"k=64 hit the target in {good64}/20 seeds; k=1 worse in {k1_worse}/20",
    )


def pairing_cancellation() -> CheckResult:
    """Averaging heterogeneous pairs cancels the mixing error and beats shuffling.

    Exact gradients give a zero gme series; with gradient noise the paired
    arrangement out-converges a shuffled ring with MH weights on at least
    2 of 3 seeds.
    """
    graph = build_ring(16)
    pairs = pairing_matrix(16)
    problem = make_two_class_ring(10, seed=41)
    assert validate(pairs, graph) is None
    rng = np.random.default_rng(42)
    worst_zeta = max(
        relative_zeta_sq_at(problem, rng.standard_normal(10), pairs)
        for _ in range(10)
    )
    cfg = RunConfig(steps=60, lr=0.1 / problem.smoothness, algorithm="decoupled")
    exact = run_dsgd(replace(problem, noise_std=0.0), graph, metropolis_hastings(graph),
                     cfg, w_grads=pairs)
    worst_gme = float(exact.gme.max())
    mh = metropolis_hastings(graph)
    wins = 0
    for seed in range(3):
        ncfg = RunConfig(steps=2000, lr=0.1 / problem.smoothness, noise_seed=seed)
        paired = run_dsgd(problem, graph, pairs, ncfg)
        shuffled_problem = permute_nodes(
            problem, np.random.default_rng(900 + seed).permutation(16)
        )
        shuffled = run_dsgd(shuffled_problem, graph, mh, ncfg)
        tail = slice(-max(1, ncfg.steps // 10), None)
        if paired.dist_to_opt_w[tail].mean() < shuffled.dist_to_opt_w[tail].mean():
            wins += 1
    ok = worst_zeta <= 1e-9 and worst_gme <= 1e-9 and wins >= 2
    return CheckResult(
        "pairing_cancellation", ok,
        f"max relative zeta^2 {worst_zeta:.3e}, max exact gme {worst_gme:.3e}, "
        f"noisy wins {wins}/3",
    )


# name -> (function, part of the fast suite?)
CHECKS: dict[str, tuple] = {
    "spectral_norm_bound": (spectral_norm_bound, True),
    "mixing_contraction_bound": (mixing_contraction_bound, True),
    "replicated_ring_exactness": (replicated_ring_exactness, True),
    "clique_averaging_exactness": (clique_averaging_exactness, True),
    "composition_preserves_both": (composition_preserves_both, True),
    "solver_matches_oracle": (solver_matches_oracle, True),
    "gme_drift_over_period": (gme_drift_over_period, True),
    "local_vs_mean_gme": (local_vs_mean_gme, True),
    "update_identity": (update_identity, True),
    "stochastic_gme_bound": (stochastic_gme_bound, False),
    "sketch_inner_products": (sketch_inner_products, False),
    "sketch_dimension_effect": (sketch_dimension_effect, False),
    "pairing_cancellation": (pairing_cancellation, False),
}


def run_checks(suite: str = "all") -> list[CheckResult]:
    """Run the checks of CHECKS, all of them or only the fast suite, in table order."""
    if suite not in ("all", "fast"):
        raise ValueError(f"suite must be 'all' or 'fast', got {suite!r}")
    results = []
    for name, (fn, fast) in CHECKS.items():
        if suite == "fast" and not fast:
            continue
        results.append(fn())
    return results
