"""Small dense linear-algebra helpers on numpy arrays.

Matrices are plain ndarrays (complex128 unless stated otherwise); nothing
here knows about states or channels.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERMITICITY_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def hermitian_eigenvalues(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending real eigenvalues; rejects non-Hermitian input."""
    if not is_hermitian(a, tol):
        raise NotHermitian(f"matrix is not Hermitian within {tol}")
    return np.linalg.eigvalsh(a)


def largest_singular_value(a: np.ndarray) -> float:
    """sigma_max of a (real or complex) matrix."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def partial_trace(rho: np.ndarray, d: int, keep: int) -> np.ndarray:
    """Reduce a d*d bipartite density matrix to subsystem 0 or 1."""
    if rho.shape != (d * d, d * d):
        raise DimensionMismatch(f"expected {(d * d, d * d)}, got {rho.shape}")
    r = rho.reshape(d, d, d, d)
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    if keep == 1:
        return np.einsum("kikj->ij", r)
    raise ValueError("keep must be 0 or 1")
