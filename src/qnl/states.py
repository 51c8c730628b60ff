"""Pure two-qudit state families in Schmidt form, and density-matrix checks.

A SchmidtState holds the nonnegative coefficients c_i of
|psi> = sum_i c_i |ii>.  Every family used by the rest of the package
(maximally entangled, the two-angle qutrit family, reduced-rank states)
funnels through normalized_coeffs so the validation lives in one place.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeCoefficient,
    NotNormalizable,
    RankTooLarge,
)
from .gellmann import check_dimension
from .linalg import hermitian_eigenvalues, partial_trace
from .record import Record, set_field

# inputs whose squared norm is further than this from 1 are rejected,
# closer ones are silently renormalized (keeps CLI input honest)
NORM_SLACK = 1e-6

DENSITY_TOL = 1e-10
EIG_FLOOR = -1e-9
MES_TOL = 1e-9  # max-entangled tolerance, below the 1e-8 bisection width


class SchmidtState(Record):
    __slots__ = ("d", "coeffs")
    _hidden = ("coeffs",)

    def __init__(self, d: int, coeffs: np.ndarray):
        coeffs.setflags(write=False)
        set_field(self, "d", d)
        set_field(self, "coeffs", coeffs)

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.coeffs > 0))

    def ket(self) -> np.ndarray:
        """Amplitude vector in the d*d product basis."""
        v = np.zeros(self.d * self.d, dtype=complex)
        v[:: self.d + 1] = self.coeffs
        return v

    def is_max_entangled(self) -> bool:
        return bool(max_entangled_rows(self.coeffs))


class TwoQuditState(Record):
    """Validated d^2 x d^2 density matrix of a qudit pair."""

    __slots__ = ("d", "rho")
    _hidden = ("rho",)

    def __init__(self, d: int, rho: np.ndarray):
        if rho.shape != (d * d, d * d):
            raise DimensionMismatch(
                f"rho shape {rho.shape} does not match d={d}")
        # raises NotHermitian first, so that wins over the trace check
        smallest = hermitian_eigenvalues(rho)[0]
        tr = np.trace(rho).real
        if abs(tr - 1.0) > DENSITY_TOL:
            raise NotNormalizable(f"trace is {tr}, expected 1")
        if smallest < EIG_FLOOR:
            raise NotNormalizable("density matrix has a negative eigenvalue")
        rho.setflags(write=False)
        set_field(self, "d", d)
        set_field(self, "rho", rho)

    def reduced(self, subsystem: int = 0) -> np.ndarray:
        return partial_trace(self.rho, self.d, subsystem)


def normalized_coeffs(c: np.ndarray) -> np.ndarray:
    """Coefficient rows (..., d) scaled to unit norm, after validation."""
    if not np.all(np.isfinite(c)):
        raise NotNormalizable("Schmidt coefficients must be finite")
    if np.any(c < 0):
        raise NegativeCoefficient("Schmidt coefficients must be >= 0")
    # on c, not on its squares, which underflow to 0 for tiny coefficients
    if np.any(np.all(c == 0.0, axis=-1)):
        raise NotNormalizable("all coefficients are zero")
    # squares of huge finite coefficients overflow to inf and those of tiny
    # ones underflow to 0; the norm check below rejects both
    with np.errstate(over="ignore"):
        nsq = np.sum(c * c, axis=-1, keepdims=True)
    far = np.abs(nsq - 1.0) > NORM_SLACK
    if np.any(far):
        raise NotNormalizable(
            f"squared norm {nsq[far][0]} is off by more than {NORM_SLACK}; "
            "normalize the coefficients")
    return c / np.sqrt(nsq)


def max_entangled_rows(coeffs: np.ndarray) -> np.ndarray:
    """True per coefficient row (..., d) within MES_TOL of 1/sqrt(d)."""
    d = coeffs.shape[-1]
    return np.max(np.abs(coeffs - 1.0 / np.sqrt(d)), axis=-1) <= MES_TOL


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
