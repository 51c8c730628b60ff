"""Pure two-qudit state families in Schmidt form, and density-matrix checks.

A SchmidtState holds the nonnegative coefficients c_i of
|psi> = sum_i c_i |ii>.  Every family used by the rest of the package
(maximally entangled, the two-angle qutrit family, reduced-rank states)
funnels through normalized_coeffs so the validation lives in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeCoefficient,
    NotHermitian,
    NotNormalizable,
    RankTooLarge,
)
from .gellmann import check_dimension
from .linalg import hermitian_eigenvalues, partial_trace

# inputs whose squared norm is further than this from 1 are rejected,
# closer ones are silently renormalized (keeps CLI input honest)
NORM_SLACK = 1e-6

DENSITY_TOL = 1e-10
EIG_FLOOR = -1e-9


@dataclass(frozen=True)
class SchmidtState:
    d: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.coeffs > 0))

    def ket(self) -> np.ndarray:
        """Amplitude vector in the d*d product basis."""
        v = np.zeros(self.d * self.d, dtype=complex)
        for i, c in enumerate(self.coeffs):
            v[i * self.d + i] = c
        return v

    def is_max_entangled(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coeffs - 1.0 / np.sqrt(self.d))) <= tol)


@dataclass(frozen=True)
class TwoQuditState:
    """Validated d^2 x d^2 density matrix of a qudit pair."""

    d: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        d, rho = self.d, self.rho
        if rho.shape != (d * d, d * d):
            raise DimensionMismatch(
                f"rho shape {rho.shape} does not match d={d}")
        if np.max(np.abs(rho - rho.conj().T)) > DENSITY_TOL:
            raise NotHermitian("density matrix is not Hermitian")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > DENSITY_TOL:
            raise NotNormalizable(f"trace is {tr}, expected 1")
        if hermitian_eigenvalues(rho)[0] < EIG_FLOOR:
            raise NotNormalizable("density matrix has a negative eigenvalue")
        rho.setflags(write=False)

    def reduced(self, subsystem: int = 0) -> np.ndarray:
        return partial_trace(self.rho, self.d, subsystem)


def normalized_coeffs(c: np.ndarray) -> np.ndarray:
    """Coefficient rows (..., d) scaled to unit norm, after validation."""
    if not np.all(np.isfinite(c)):
        raise NotNormalizable("Schmidt coefficients must be finite")
    if np.any(c < 0):
        raise NegativeCoefficient("Schmidt coefficients must be >= 0")
    nsq = np.sum(c * c, axis=-1, keepdims=True)
    if np.any(nsq == 0.0):
        raise NotNormalizable("all coefficients are zero")
    far = np.abs(nsq - 1.0) > NORM_SLACK
    if np.any(far):
        raise NotNormalizable(
            f"squared norm {nsq[far][0]} is off by more than {NORM_SLACK}; "
            "normalize the coefficients")
    return c / np.sqrt(nsq)


def schmidt_state(d: int, coeffs) -> SchmidtState:
    d = check_dimension(d)
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (d,):
        raise DimensionMismatch(f"expected {d} coefficients, got {c.shape}")
    return SchmidtState(d=d, coeffs=normalized_coeffs(c))


def max_entangled(d: int) -> SchmidtState:
    d = check_dimension(d)
    return schmidt_state(d, np.full(d, 1.0 / np.sqrt(d)))


def qutrit_family_coeffs(alpha, beta) -> np.ndarray:
    """Normalized rows (cos a, sin a sin b, sin a cos b) of the d=3 family
    over broadcast angles (radians)."""
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
        raise NotNormalizable("qutrit angles must be finite")
    c = np.stack(np.broadcast_arrays(np.cos(alpha),
                                     np.sin(alpha) * np.sin(beta),
                                     np.sin(alpha) * np.cos(beta)), axis=-1)
    # kill round-off negatives at quadrant edges
    c[np.abs(c) < 1e-15] = 0.0
    return normalized_coeffs(c)


def qutrit_family(alpha: float, beta: float) -> SchmidtState:
    """d=3 family (cos a, sin a sin b, sin a cos b); angles in radians."""
    return SchmidtState(d=3, coeffs=qutrit_family_coeffs(alpha, beta))


def rank_k_state(d: int, k: int, coeffs) -> SchmidtState:
    """Support on the top k levels {d-k, .., d-1}; k must be below d."""
    d = check_dimension(d)
    if k >= d:
        raise RankTooLarge(f"rank {k} does not fit below dimension {d}")
    if k < 1:
        raise RankTooLarge("rank must be at least 1")
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (k,):
        raise DimensionMismatch(f"expected {k} coefficients, got {c.shape}")
    full = np.zeros(d)
    full[d - k:] = c
    return schmidt_state(d, full)


def nmax_state(d: int):
    """The non-max states singled out by the damping analysis (d=3 or 4)."""
    if d == 3:
        return qutrit_family(4.0 * np.pi / 15.0, np.pi / 4.0)
    if d == 4:
        theta = 0.853
        s = np.sin(theta) / np.sqrt(3.0)
        return schmidt_state(4, [np.cos(theta), s, s, s])
    raise DimensionMismatch(f"no non-max reference state for d={d}")


def to_density(psi: SchmidtState) -> TwoQuditState:
    v = psi.ket()
    return TwoQuditState(d=psi.d, rho=np.outer(v, v.conj()))
