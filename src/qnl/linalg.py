"""Small dense linear-algebra helpers on numpy arrays.

Matrices are plain ndarrays (complex128 unless stated otherwise); nothing
here knows about states or channels.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERMITICITY_TOL = 1e-10


def is_hermitian(a: np.ndarray) -> bool:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= HERMITICITY_TOL)


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues; rejects non-Hermitian input."""
    if not is_hermitian(a):
        raise NotHermitian(
            f"matrix is not Hermitian within {HERMITICITY_TOL}")
    return np.linalg.eigvalsh(a)


def largest_singular_value(a: np.ndarray) -> float:
    """sigma_max of a (real or complex) matrix."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def realign(rho: np.ndarray, d: int) -> np.ndarray:
    """Realigned d*d bipartite matrix, R[(i, k), (j, l)] = rho[(i, j), (k, l)].

    Local operators then contract as Tr[rho (X (x) Y)] = vec(X^T) R vec(Y^T),
    vec flattening row by row; R is C-contiguous."""
    if rho.shape != (d * d, d * d):
        raise DimensionMismatch(f"expected {(d * d, d * d)}, got {rho.shape}")
    return rho.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


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
