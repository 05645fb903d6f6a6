"""Power iteration for the few spectral quantities the package needs."""

from __future__ import annotations

import numpy as np

__all__ = ["top_eigenvalue"]

_MAX_ITERS = 10_000
_SEED = 1234


def top_eigenvalue(mat: np.ndarray, tol: float = 1e-10) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite matrix.

    Plain power iteration with a Rayleigh-quotient estimate, for at most
    _MAX_ITERS iterations. The start vector comes from a generator seeded
    with _SEED, so results are deterministic and (almost surely) not
    orthogonal to the top eigenspace.

    Args:
        mat: symmetric PSD array of shape (n, n).
        tol: relative tolerance on successive eigenvalue estimates.

    Returns:
        The estimate of the largest eigenvalue (0.0 for the zero matrix).

    Raises:
        ArithmeticError: if the estimates do not stabilize in time.
    """
    a = np.asarray(mat, dtype=float)
    n = a.shape[0]
    if not np.any(a):
        return 0.0
    v = np.random.default_rng(_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    lam = np.inf
    for _ in range(_MAX_ITERS):
        w = a @ v
        lam_new = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # start vector fell in the kernel; the matrix acts as zero there
            return 0.0
        v = w / norm
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-30):
            return max(lam_new, 0.0)
        lam = lam_new
    raise ArithmeticError(
        f"power iteration did not converge in {_MAX_ITERS} iterations "
        f"(last estimate {lam:.6e})"
    )
