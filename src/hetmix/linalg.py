"""The one spectral quantity the package needs, from a dense eigensolver."""

from __future__ import annotations

import numpy as np

__all__ = ["top_eigenvalue"]


def top_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite matrix.

    Exact up to rounding (LAPACK's symmetric eigensolver), and clipped at
    0.0, so the zero matrix gives 0.0.
    """
    return max(float(np.linalg.eigvalsh(mat)[-1]), 0.0)
