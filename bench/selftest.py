"""Self-test of the output checks: each must pass a real output and fail a corrupted one.

    python3 bench/selftest.py

Makes one solve on a small graph and one short `hetmix run`, feeds every
check in reference.py the genuine output and then a copy corrupted in
the way that check exists to catch, and exits 1 if any check lets a
corrupted output through or rejects a genuine one. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import hetmix  # noqa: E402
import hetmix.cli  # noqa: E402
import reference as ref  # noqa: E402

N, D, SEED = 8, 4, 0


def solve_case():
    a, b = ref.quadratics(N, D, D, SEED)
    x_star = ref.lsq_optimum(a, b)
    g = ref.gradients_at(a, b, np.tile(x_star[:, None], (1, N)))
    g += np.random.default_rng(SEED).normal(0.0, 0.3, g.shape)
    edges = ref.random_connected_edges(N, 0.5, SEED)
    w = hetmix.ce_gme(g, hetmix.Topology(N, edges), hetmix.SketchConfig(16, SEED)).w
    return np.array(w), edges, ref.sketched_gram(g, 16, SEED)


def matrix_corruptions(w, edges, gamma):
    mask = ref.support(N, edges)
    i, j = edges[0]
    p, q = next((p, q) for p in range(N) for q in range(p + 1, N) if not mask[p, q])
    bumped = w.copy()
    bumped[i, i] += 1e-6
    negative = w.copy()
    delta = w[i, j] + 1e-3  # move weight around the cycle (i,j),(j,j),(j,i),(i,i)
    negative[i, j] -= delta
    negative[j, i] -= delta
    negative[i, i] += delta
    negative[j, j] += delta
    off = w.copy()
    delta = min(w[p, p], w[q, q]) / 2.0
    off[p, q] += delta
    off[q, p] += delta
    off[p, p] -= delta
    off[q, q] -= delta
    mh = ref.metropolis_hastings(N, edges)
    return [
        ("row/column sums", bumped, "sums off"),
        ("nonnegative entries", negative, "negative entry"),
        ("zero off the support", off, "off the support"),
        ("descent from MH", np.eye(N), "above MH"),
        ("Frank-Wolfe gap", (w + mh) / 2.0, "Frank-Wolfe gap"),
    ]


def run_case(out_dir):
    conf = os.path.join(out_dir, "selftest.conf")
    with open(conf, "w") as fh:
        fh.write(f"name = selftest\nout = {out_dir}\nalgorithm = dsgd\ntopology = random\n"
                 f"n = 16\nobjective = random\nd = 10\nnoise_var = 0.1\n"
                 f"lr_relative = 0.1\nsteps = 500\nwindow = 5\nreps = 1\nseed = {SEED}\n")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        if hetmix.cli.main(["run", conf]) != 0:
            raise SystemExit("selftest: `hetmix run` failed")
    with open(os.path.join(out_dir, "selftest_rep0.csv"), newline="") as fh:
        text = fh.read()
    a, b = ref.quadratics(16, 10, 10, SEED)
    return text, printed.getvalue().strip(), float(np.linalg.norm(ref.lsq_optimum(a, b)))


def csv_corruptions(text):
    lines = text.split("\n")
    rows = [ln.split(",") for ln in lines[1:-1]]

    def table(fn):
        new = [list(r) for r in rows]
        fn(new)
        return "\n".join([lines[0]] + [",".join(r) for r in new]) + "\n"

    def shift_gme_w(t):
        col = [r[8] for r in t]
        for r, v in zip(t[1:], col):
            r[8] = v

    def scale_start(t):
        t[0][1] = repr(float(t[0][1]) * 1.001)

    def flat_tail(t):
        for r in t:
            r[2] = t[0][2]

    return [
        ("CSV header", text.replace("gme_w", "gme_avg"), "header"),
        ("CSV row count", "\n".join(lines[:-2]) + "\n", "shape"),
        ("CSV finite values", table(lambda t: t[7].__setitem__(4, "nan")), "non-finite"),
        ("dist_to_opt at step 0 = ||x*||", table(scale_start), "||x*||"),
        ("windowed columns", table(shift_gme_w), "trailing mean"),
        ("tail far below the start", table(flat_tail), "tail"),
    ]


def main() -> int:
    out_dir = os.path.join(BENCH, "out", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    results = []
    w, edges, gamma = solve_case()
    results.append(("solve output accepted", not ref.check_matrix(w, edges, gamma)[0]))
    for label, bad, key in matrix_corruptions(w, edges, gamma):
        found = ref.check_matrix(bad, edges, gamma)[0]
        results.append((f"{label} rejects a corrupted matrix", any(key in p for p in found)))

    text, line, x_norm = run_case(out_dir)
    found, arr = ref.check_csv(text, 500, 5, x_norm)
    results.append(("run output accepted",
                    not found and not ref.check_final_line(line, arr)))
    for label, bad, key in csv_corruptions(text):
        found = ref.check_csv(bad, 500, 5, x_norm)[0]
        results.append((f"{label} rejects a corrupted CSV", any(key in p for p in found)))
    wrong = line.replace("gme_w=", "gme_w=1")
    results.append(("final line rejects a wrong value", bool(ref.check_final_line(wrong, arr))))

    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    failed = sum(not ok for _, ok in results)
    print(f"{len(results) - failed} of {len(results)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
