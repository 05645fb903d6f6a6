"""Reference computations and output checks, written apart from hetmix.

Nothing here imports hetmix. Inputs are rebuilt from the rules the
package documents (seeded standard normal node data, the edge-thinning
order of the random graph, the seeded Gaussian sketch), and every check
compares the program's output with a computation made here or with a
property the method must have. scipy is imported only inside the
function that needs it, so that importing this module during set-up
costs nothing beyond numpy.
"""

from __future__ import annotations

from collections import deque
from math import ceil

import numpy as np

CSV_HEADER = (
    "step,dist_to_opt,dist_to_opt_mean,consensus,gme,loss,"
    "dist_to_opt_w,consensus_w,gme_w"
)
SUM_ATOL = 1e-8  # row/column-sum accuracy that project_feasible documents
FW_GAP_MAX = 1e-3  # largest relative Frank-Wolfe gap a returned matrix may leave
CSV_RTOL = 1e-8  # the CSV holds 10 significant digits
TAIL_DROP = 0.1  # tail of dist_to_opt_mean must fall below this share of step 0


# ---------------------------------------------------------------------------
# inputs


def quadratics(n: int, d: int, m: int, seed: int):
    """Node data of make_random_quadratics: per node, A_i (m, d) then b_i (m,)."""
    rng = np.random.default_rng(seed)
    a = np.empty((n, m, d))
    b = np.empty((n, m))
    for i in range(n):
        a[i] = rng.standard_normal((m, d))
        b[i] = rng.standard_normal(m)
    return a, b


def lsq_optimum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimizer of sum_i ||A_i x + b_i||^2 by least squares on the stacked data."""
    d = a.shape[2]
    x, *_ = np.linalg.lstsq(a.reshape(-1, d), -b.reshape(-1), rcond=None)
    return x


def gradients_at(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Column i is 2 A_i^T (A_i x_i + b_i) for the d-by-n point matrix x."""
    resid = np.einsum("imd,di->im", a, x) + b
    return 2.0 * np.einsum("imd,im->di", a, resid)


def ring_edges(n: int):
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


def torus_edges(rows: int, cols: int):
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for j in (r * cols + (c + 1) % cols, ((r + 1) % rows) * cols + c):
                edges.add((min(i, j), max(i, j)))
    return tuple(sorted(edges))


def relabel_edges(edges, perm):
    """Edges after new node k takes the place of old node perm[k]."""
    new = [int(k) for k in np.argsort(perm)]
    return tuple(sorted((min(new[i], new[j]), max(new[i], new[j])) for i, j in edges))


def _connected(n: int, nbrs) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        for j in nbrs[queue.popleft()]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == n


def random_connected_edges(n: int, keep_fraction: float, seed: int):
    """The graph of build_random_connected: drop shuffled edges unless they disconnect."""
    total = n * (n - 1) // 2
    target = ceil(keep_fraction * total)
    order = [(i, j) for i in range(n) for j in range(i + 1, n)]
    np.random.default_rng(seed).shuffle(order)
    nbrs = [set() for _ in range(n)]
    for i, j in order:
        nbrs[i].add(j)
        nbrs[j].add(i)
    count = total
    for i, j in order:
        if count <= target:
            break
        nbrs[i].discard(j)
        nbrs[j].discard(i)
        if _connected(n, nbrs):
            count -= 1
        else:
            nbrs[i].add(j)
            nbrs[j].add(i)
    return tuple(sorted((i, j) for i in range(n) for j in nbrs[i] if i < j))


def support(n: int, edges) -> np.ndarray:
    mask = np.eye(n, dtype=bool)
    for i, j in edges:
        mask[i, j] = mask[j, i] = True
    return mask


def metropolis_hastings(n: int, edges) -> np.ndarray:
    """1/(1 + max degree) on each edge, the remainder on the diagonal."""
    deg = np.zeros(n, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    w[np.diag_indices(n)] = 1.0 - w.sum(axis=1)
    return w


def sketched_gram(g: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Gram matrix of the centered sketch A g, A a seeded k-by-d standard normal."""
    s = np.random.default_rng(seed).standard_normal((k, g.shape[0])) @ g
    s = s - s.mean(axis=1, keepdims=True)
    return s.T @ s


def gme(gamma: np.ndarray, w: np.ndarray) -> float:
    """Tr(W^T Gamma W)."""
    return float(np.einsum("ij,ik,kj->", w, gamma, w))


def mh_gme_at_optimum(a, b, edges, noise_var: float) -> float:
    """Expected ||G (M - J)||_F^2 with G the optimum's node gradients plus noise, M MH.

    A run's tail gradient mixing error divided by this value no longer
    depends on how heterogeneous the drawn instance happens to be.
    """
    n, _, d = a.shape
    x_star = lsq_optimum(a, b)
    h = gradients_at(a, b, np.tile(x_star[:, None], (1, n)))
    e = metropolis_hastings(n, edges) - 1.0 / n
    return float(np.sum((h @ e) ** 2) + noise_var * d * np.sum(e**2))


# ---------------------------------------------------------------------------
# checks on a returned mixing matrix


def fw_gap(gamma: np.ndarray, w: np.ndarray, mask: np.ndarray) -> float:
    """<grad f(W), W - V>, V the best permutation matrix inside the support.

    The vertices of the edge-supported doubly stochastic polytope are the
    permutation matrices it contains, so V is a minimum-cost assignment
    with off-support entries forbidden.
    """
    from scipy.optimize import linear_sum_assignment

    grad = 2.0 * gamma @ w
    rows, cols = linear_sum_assignment(np.where(mask, grad, np.inf))
    return float(np.sum(grad * w) - grad[rows, cols].sum())


def check_matrix(w: np.ndarray, edges, gamma: np.ndarray):
    """Problems with one solve result, and its (f(W) / f(MH), relative FW gap)."""
    n = w.shape[0]
    mask = support(n, edges)
    problems = []
    if w.shape != (n, n) or not np.all(np.isfinite(w)):
        return ["matrix is not a finite square array"], (np.nan, np.nan)
    rows = np.abs(w.sum(axis=1) - 1.0).max()
    cols = np.abs(w.sum(axis=0) - 1.0).max()
    if max(rows, cols) > SUM_ATOL:
        problems.append(f"row/column sums off by {max(rows, cols):.3e}")
    if w.min() < 0.0:
        problems.append(f"negative entry {w.min():.3e}")
    if np.any(w[~mask] != 0.0):
        problems.append(f"{int(np.count_nonzero(w[~mask]))} nonzero entries off the support")
    f_w = gme(gamma, w)
    f_mh = gme(gamma, metropolis_hastings(n, edges))
    if f_w > f_mh * (1.0 + 1e-9):
        problems.append(f"Tr(W'GW) = {f_w:.6g} is above MH's {f_mh:.6g}")
    gap_rel = fw_gap(gamma, w, mask) / f_w if f_w > 0.0 else 0.0
    if gap_rel > FW_GAP_MAX:
        problems.append(f"relative Frank-Wolfe gap {gap_rel:.3e} exceeds {FW_GAP_MAX:g}")
    return problems, (f_w / f_mh if f_mh > 0.0 else 1.0, gap_rel)


# ---------------------------------------------------------------------------
# checks on a run's CSV


def trailing_mean(v: np.ndarray, window: int) -> np.ndarray:
    """Mean of the last `window` values up to each step (fewer at the start)."""
    sums = np.convolve(v, np.ones(window))[: len(v)]
    return sums / np.minimum(np.arange(1, len(v) + 1), window)


def parse_csv(text: str):
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    return lines[0], np.array([[float(x) for x in ln.split(",")] for ln in lines[1:-1]])


def tail(v: np.ndarray) -> float:
    """Mean over the last tenth of the steps, as `hetmix compare` takes it."""
    return float(v[-max(1, len(v) // 10):].mean())


def check_csv(text: str, steps: int, window: int, x_star_norm: float):
    """Problems with one repetition's CSV, and the parsed table."""
    try:
        header, arr = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"], None
    if header != CSV_HEADER:
        return [f"header is {header!r}"], None
    if arr.shape != (steps, 9):
        return [f"table has shape {arr.shape}, expected ({steps}, 9)"], None
    problems = []
    if not np.all(np.isfinite(arr)):
        problems.append("non-finite values")
    if not np.array_equal(arr[:, 0], np.arange(steps)):
        problems.append("step column is not 0..steps-1")
    for col, name in ((1, "dist_to_opt"), (2, "dist_to_opt_mean")):
        if abs(arr[0, col] - x_star_norm) > CSV_RTOL * x_star_norm:
            problems.append(f"{name} at step 0 is {arr[0, col]!r}, ||x*|| is {x_star_norm!r}")
    for raw, avg, name in ((1, 6, "dist_to_opt_w"), (3, 7, "consensus_w"), (4, 8, "gme_w")):
        expect = trailing_mean(arr[:, raw], window)
        bad = np.abs(expect - arr[:, avg]) > CSV_RTOL * (np.abs(expect) + np.abs(arr[:, avg]))
        if np.any(bad):
            problems.append(f"{name} differs from the trailing mean at step {int(np.argmax(bad))}")
    if not tail(arr[:, 2]) < TAIL_DROP * arr[0, 2]:
        problems.append(f"dist_to_opt_mean tail {tail(arr[:, 2]):.3e} is not below "
                        f"{TAIL_DROP:g} x its step-0 value {arr[0, 2]:.3e}")
    return problems, arr


def check_final_line(line: str, arr: np.ndarray):
    """The line `hetmix run` prints for a repetition must match its CSV's last row."""
    fields = dict(tok.split("=") for tok in line.split(": ", 1)[-1].split())
    want = {"dist_to_opt_w": arr[-1, 6], "consensus_w": arr[-1, 7],
            "gme_w": arr[-1, 8], "loss": arr[-1, 5]}
    if set(fields) != set(want):
        return [f"final line has fields {sorted(fields)}"]
    return [f"final line {key}={fields[key]} disagrees with the CSV's {val!r}"
            for key, val in want.items()
            if abs(float(fields[key]) - val) > 1e-5 * abs(val)]
