"""Numerical property checks, runnable from the command line or the tests.

Each check returns a CheckResult and is deterministic. The quadratic
program oracle deliberately avoids the package's own solver so the two
routes stay independent.
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
)
from .objectives import (
    _common_point_gradients,
    full_gradients,
    make_random_quadratics,
    make_replicated,
    make_two_class_ring,
    permute_nodes,
    relative_zeta_sq_at,
    zeta_sq_at,
)
from .simulator import RunConfig, _refreshed, _simulate_one, run_dsgd
from .topology import (
    Topology,
    build_random_connected,
    build_ring,
)

__all__ = ["CheckResult", "quadratic_program_oracle", "check_update_identity",
           "run_checks", "CHECKS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# independent oracle for the quadratic program on small graphs

def quadratic_program_oracle(gamma: np.ndarray, topology: Topology) -> float:
    """Exact minimum of Tr[W^T Gamma W] over the feasible polytope of a small graph.

    On the m support entries x, f = x^T Q x with Q[a, b] = Gamma[r_a, r_b]
    where a and b share a column, and E x stacks the row and column sums.
    For each set of zero entries that leaves every row and column an entry,
    a pseudo-inverse (E has rank 2n - 1, Gamma may be low rank) solves the
    KKT system of min f subject to E x = 1 on the other entries. The least
    f at a solution with x >= 0 and E x = 1 is the optimum, as a vertex of
    the convex optimal set is the unique minimizer on its own face. Raises
    ValueError for m > 12.
    """
    n = topology.n
    rows, cols = np.nonzero(topology.support_mask())
    m = rows.size
    if m > 12:  # 2^m sets of zero entries
        raise ValueError(f"support has {m} entries, more than 12")
    g = np.asarray(gamma, dtype=float)
    scale = float(np.trace(g)) or 1.0  # the KKT matrix at unit scale
    e = np.zeros((2 * n, m))
    e[rows, np.arange(m)] = e[n + cols, np.arange(m)] = 1.0
    q = np.where(cols[:, None] == cols[None, :], g[rows[:, None], rows[None, :]], 0.0) / scale
    free = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(bool)
    free = free[np.all(free @ e.T > 0.0, axis=1)]
    # a zero entry's row and column of the KKT matrix become x_a = 0
    keep = np.concatenate([free, np.ones((free.shape[0], 2 * n), dtype=bool)], axis=1)
    kkt = np.where(keep[:, :, None] & keep[:, None, :],
                   np.block([[q, e.T], [e, np.zeros((2 * n, 2 * n))]]), 0.0)
    kkt[:, np.arange(m), np.arange(m)] += ~free
    x = (np.linalg.pinv(kkt) @ np.concatenate([np.zeros(m), np.ones(2 * n)]))[:, :m]
    ok = (x.min(axis=1) >= -1e-12) & (np.abs(x @ e.T - 1.0).max(axis=1) <= 1e-9)
    return scale * float(np.einsum("pa,ab,pb->p", x[ok], q, x[ok]).min())


# ---------------------------------------------------------------------------
# shared generators

def _random_graph(rng: np.random.Generator) -> Topology:
    n = int(rng.integers(4, 13))
    keep = float(rng.uniform(0.3, 0.9))
    return build_random_connected(n, keep, int(rng.integers(1 << 30)))


def _random_feasible(topology: Topology, rng: np.random.Generator) -> MixingMatrix:
    """A Dirichlet-weighted mix of the identity and 1 to 4 random permutation
    matrices inside the support. By Birkhoff-von Neumann every feasible
    matrix is such a mix, and each draw is feasible by construction; with
    few permutations it is often zero on part of the support."""
    n = topology.n
    perms = [np.arange(n)]
    perms += [_random_permutation(topology, rng) for _ in range(int(rng.integers(1, 5)))]
    w = np.zeros((n, n))
    for weight, perm in zip(rng.dirichlet(np.ones(len(perms))), perms):
        w[np.arange(n), perm] += weight
    return MixingMatrix(w)


def _random_permutation(topology: Topology, rng: np.random.Generator) -> np.ndarray:
    """perm with each perm[i] equal to i or a neighbour of i, as random
    directed cycles along edges.

    A walk starts at a random free node and steps to random free neighbours
    until it has none. Its cycle closes at the last node on the walk that
    is adjacent to the start, and the nodes after it are free again; a walk
    that cannot leave its start leaves that node fixed.
    """
    adjacent = topology.support_mask()
    perm = np.arange(topology.n)
    free = np.ones(topology.n, dtype=bool)
    while free.any():
        walk = [int(rng.choice(np.flatnonzero(free)))]
        free[walk[0]] = False
        while (step := np.flatnonzero(adjacent[walk[-1]] & free)).size:
            walk.append(int(rng.choice(step)))
            free[walk[-1]] = False
        close = max(k for k, i in enumerate(walk) if adjacent[walk[0], i])
        perm[walk[:close + 1]] = np.roll(walk[:close + 1], -1)
        free[walk[close + 1:]] = True
    return perm


def _random_gme_output(topology: Topology, rng: np.random.Generator) -> MixingMatrix:
    g = rng.standard_normal((int(rng.integers(2, 7)), topology.n))
    return solve_gme(gram(center_columns(g)), topology)


def _random_instance(rng: np.random.Generator):
    """A random problem on 4 to 8 nodes and a random feasible W on a random graph."""
    n = int(rng.integers(4, 9))
    d = int(rng.integers(3, 7))
    problem = make_random_quadratics(n, d, d, seed=int(rng.integers(1 << 30)))
    graph = build_random_connected(n, float(rng.uniform(0.4, 1.0)),
                                   int(rng.integers(1 << 30)))
    return problem, _random_feasible(graph, rng)


def _example1_gradients(rng: np.random.Generator, d: int = 10) -> np.ndarray:
    """Ring(6)-style gradient matrix: columns repeat with period 3, zero mean."""
    g0, g1 = rng.standard_normal(d), rng.standard_normal(d)
    g2 = -g0 - g1
    return np.column_stack([g0, g1, g2, g0, g1, g2])


# ---------------------------------------------------------------------------
# recorded runs

def _recording(matrix_for_step, steps: list):
    """matrix_for_step, appending each call's (X, G, W) to steps.

    It keeps references, not copies: _simulate never writes an X or G
    after passing it to the hook, and no hook writes the matrices it returns.
    """
    def hook(t, x, g):
        w = matrix_for_step(t, x, g)
        steps.append((x, g, w))
        return w

    return hook


def _record(problem, topology, cfg, matrix_for_step) -> list:
    """(X, G, W) of each of cfg.steps steps, and one more entry whose X follows the last.

    The run takes cfg.steps + 1 steps, so the hook sees the last step's next X.
    """
    steps = []
    _simulate_one((problem, topology, replace(cfg, steps=cfg.steps + 1),
                   _recording(matrix_for_step, steps)))
    return steps


def check_update_identity(steps: list, lr: float) -> float:
    """Largest scaled residual of the update identity over recorded steps.

    Recomputes X^{t+1} = X^t W - lr G W from the recorded inputs of
    every step and compares against the next entry's X. Residuals are
    scaled by the magnitudes entering the identity; a faithful record
    stays at roundoff level regardless of how accurately the matrices
    themselves are doubly stochastic.
    """
    worst = 0.0
    for (x0, g, w), (x1, *_) in zip(steps, steps[1:]):
        pred = x0 @ w - lr * (g @ w)
        scale = 1.0 + np.linalg.norm(x0) + np.linalg.norm(x1) + lr * np.linalg.norm(g)
        worst = max(worst, float(np.linalg.norm(x1 - pred)) / scale)
    return worst


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
        problem, w = _random_instance(rng)
        x = rng.standard_normal(problem.d) * float(rng.uniform(0.5, 3.0))
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
    w = uniform_clique_averaging(((0, 1, 2), (3, 4, 5)))
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
    """Default solves lie within tol * f(MH) of the exact optimum f*.

    21 instances take the paths on 3 and 4 nodes and the star on 4 in
    turn, with Gamma from 1 to n - 1 Gaussian rows. Rounding adds
    1e-13 n tr(Gamma) to both sides of the bound. Every f* lies 1e-3 f(MH)
    or more below f(MH), so a solver that returns its MH init fails.
    """
    graphs = (Topology(3, ((0, 1), (1, 2))), Topology(4, ((0, 1), (1, 2), (2, 3))),
              Topology(4, ((0, 1), (0, 2), (0, 3))))
    tol = GmeSolverParams().tol
    rng = np.random.default_rng(606)
    worst, deepest, ok = 0.0, 0.0, True
    for trial in range(21):
        graph = graphs[trial % 3]
        n = graph.n
        gamma = gram(center_columns(rng.standard_normal((int(rng.integers(1, n)), n))))
        f_mh = gme_objective(gamma, metropolis_hastings(graph))
        got = gme_objective(gamma, solve_gme(gamma, graph))
        want = quadratic_program_oracle(gamma.gamma, graph)
        slack = 1e-13 * n * float(np.trace(gamma.gamma))
        ok &= -slack <= got - want <= tol * f_mh + slack and want <= (1.0 - 1e-3) * f_mh
        worst, deepest = max(worst, (got - want) / f_mh), max(deepest, want / f_mh)
    return CheckResult(
        "solver_matches_oracle", ok,
        f"max (solver - oracle) / f(MH) = {worst:.3e} (tol {tol:.0e}), "
        f"max oracle / f(MH) = {deepest:.3f} over 21 instances",
    )


def _mean_point_run(problem, graph, cfg):
    """Recorded steps of a noiseless problem with the mean-point refresh of the drift checks.

    Every cfg.period steps the matrix is re-solved from the exact gradients
    at the mean iterate; it is applied at every step, with no alternation.
    """
    state = {}

    def matrix(t, x, g):
        if t % cfg.period == 0:
            gamma = gram(center_columns(_mean_point_grads(problem, x)))
            state["w"] = solve_gme(gamma, graph).w
        return state["w"]

    return _record(problem, graph, cfg, matrix)


def _drift_trajectories():
    """Ten exact-gradient runs with the mean-point refresh, periods 1, 10, 100."""
    plans = [(s, 1, 16) for s in range(4)]
    plans += [(s, 10, 51) for s in range(4, 7)]
    plans += [(s, 100, 201) for s in range(7, 10)]
    for seed, period, steps in plans:
        problem = make_random_quadratics(8, 6, 6, seed=seed)
        graph = (build_ring(8) if seed % 2 else
                 build_random_connected(8, 0.5, seed=seed + 50))
        cfg = RunConfig(steps=steps, lr=0.1 / problem.smoothness, period=period)
        yield problem, cfg, _mean_point_run(problem, graph, cfg)


def _mean_point_grads(problem, x):
    return _common_point_gradients(problem, x.mean(axis=1))


def _mixing_error(g, w):
    return np.sum((g @ w - g.mean(axis=1, keepdims=True)) ** 2)


def _local_bound_excess(problem, x, g_loc, w):
    """How far ||G(Xbar) W - mean||^2 exceeds its bound 2 ||G(X) W - mean||^2 + 2 L^2 ||X - Xbar||^2.

    G(Xbar) holds every node's gradient at the mean iterate, and G(X) = g_loc
    each node's gradient at its own iterate.
    """
    lhs = _mixing_error(_mean_point_grads(problem, x), w)
    rhs = 2.0 * _mixing_error(g_loc, w)
    rhs += 2.0 * problem.smoothness**2 * np.sum((x - x.mean(axis=1, keepdims=True)) ** 2)
    return lhs - rhs


def gme_drift_over_period() -> CheckResult:
    """Between refreshes the mixing error grows at most by the predicted drift.

    Also checks, at every step, that the mean-point error is controlled by
    the local-point error plus the consensus gap.
    """
    worst_period = -np.inf
    worst_local = -np.inf
    for problem, cfg, rec in _drift_trajectories():
        lr_l_sq = (cfg.lr * problem.smoothness) ** 2
        h = cfg.period
        steps = cfg.steps
        grad_sq = [float(np.sum(g**2)) for _, g, _ in rec[:steps]]
        for t in range(0, steps - h + 1, h):
            w = rec[t][2]
            lhs = _mixing_error(_mean_point_grads(problem, rec[t + h][0]), w)
            base = _mixing_error(_mean_point_grads(problem, rec[t][0]), w)
            drift = 2.0 * h * lr_l_sq * sum(grad_sq[t:t + h])
            worst_period = max(worst_period, lhs - 2.0 * base - drift)
        for x, g_loc, w in rec[:steps]:
            worst_local = max(worst_local, _local_bound_excess(problem, x, g_loc, w))
    ok = worst_period <= 1e-8 and worst_local <= 1e-8
    return CheckResult(
        "gme_drift_over_period", ok,
        f"max period-drift violation {worst_period:.3e}, "
        f"max local-bound violation {worst_local:.3e}",
    )


def local_vs_mean_gme() -> CheckResult:
    """Mean-point mixing error bounded by local error plus consensus gap, random inputs.

    In 50 of the 150 instances every local gradient is one drawn g, so the
    local term is 0 and the bound rests on 2 L^2 ||X - Xbar||^2 alone."""
    worst = {False: -np.inf, True: -np.inf}
    for seed, count, equal in ((707, 100, False), (2929, 50, True)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            problem, w = _random_instance(rng)
            if equal:
                g = rng.standard_normal(problem.d) * float(rng.uniform(0.3, 3.0))
                x = np.linalg.solve(problem.hess, (g - problem.lin)[:, :, None])[..., 0].T
            else:
                x = rng.standard_normal((problem.d, problem.n)) * float(rng.uniform(0.3, 3.0))
            worst[equal] = max(worst[equal],
                               _local_bound_excess(problem, x, full_gradients(problem, x), w.w))
    return CheckResult(
        "local_vs_mean_gme", max(worst.values()) <= 1e-8,
        f"max violation {worst[False]:.3e} over 100 instances, "
        f"{worst[True]:.3e} over 50 with equal local gradients",
    )


def update_identity() -> CheckResult:
    """Recorded trajectories satisfy the centered update identity; doctoring is caught."""
    graph = build_ring(8)
    problem = make_random_quadratics(8, 5, 5, seed=21, noise_std=0.3)
    mh = metropolis_hastings(graph).w
    cfg = RunConfig(steps=60, lr=0.1 / problem.smoothness, noise_seed=3)
    rec1 = _record(problem, graph, cfg, lambda t, x, g: mh)
    hcfg = RunConfig(steps=60, lr=0.1 / problem.smoothness, period=20, sketch_dim=16,
                     noise_seed=4)
    rec2 = _record(problem, graph, hcfg, _refreshed(graph, hcfg))
    two_class = make_two_class_ring(6, seed=5)
    ring16 = build_ring(16)
    pairs = pairing_matrix(16).w
    dcfg = RunConfig(steps=40, lr=0.1 / two_class.smoothness, noise_seed=6)
    rec3 = _record(two_class, ring16, dcfg, lambda t, x, g: pairs)
    resid = max(check_update_identity(rec, c.lr)
                for rec, c in ((rec1, cfg), (rec2, hcfg), (rec3, dcfg)))
    x, g, w = rec1[3]
    doctored = rec1[:3] + [(x, g, np.full_like(w, 1.0 / graph.n))] + rec1[4:]
    caught = check_update_identity(doctored, cfg.lr) > 1e-6
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
    """The shared sketch preserves all pairwise inner products at the JL rate.

    Each trial sketches the m x m factor R of u = Q R in place of the d x m
    u. With Q orthonormal, A Q is again i.i.d. Gaussian, so A R has the
    law of A u and its inner products err as those of A u would, while A
    is k x m, not k x d.
    """
    m, delta, eps, d = 16, 0.05, 0.3, 10_000
    k = min(jl_required_dim(m, delta, eps), d)
    failures = 0
    for trial in range(20):
        u = np.random.default_rng(4000 + trial).standard_normal((d, m))
        s = sketch(np.linalg.qr(u, mode="r"), SketchConfig(k, 8000 + trial))
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
        init = _random_feasible(graph, np.random.default_rng(1000 + seed))
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
    rng = np.random.default_rng(42)
    worst_zeta = max(
        relative_zeta_sq_at(problem, rng.standard_normal(10), pairs)
        for _ in range(10)
    )
    cfg = RunConfig(steps=60, lr=0.1 / problem.smoothness)
    exact = run_dsgd(replace(problem, noise_std=0.0), graph, pairs, cfg)
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


# name -> check function, in the order `hetmix check` runs them
CHECKS = {fn.__name__: fn for fn in (
    spectral_norm_bound, mixing_contraction_bound, replicated_ring_exactness,
    clique_averaging_exactness, composition_preserves_both, solver_matches_oracle,
    gme_drift_over_period, local_vs_mean_gme, update_identity, stochastic_gme_bound,
    sketch_inner_products, sketch_dimension_effect, pairing_cancellation,
)}


def run_checks() -> list[CheckResult]:
    """Run every check of CHECKS, in table order."""
    return [fn() for fn in CHECKS.values()]
