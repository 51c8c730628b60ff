"""Correlation tensor of a qudit pair and metric-weighted scalars.

T_ij = c(d) Tr[rho (B_i (x) B_j)] over the generator basis, with
c(d) = d / (2(d-1)).  Index layout follows the basis ordering: the first
d(d-1) indices are the off-diagonal (symmetric then antisymmetric)
generators, the last d-1 the diagonal ones.  For states diagonal in a
product of Schmidt bases the tensor splits into an off-diagonal block
(diagonal matrix) and a diagonal-generator block, with zero cross terms.

A Metric is a nonnegative weight per generator index.  Weighted scalars
apply the weight over the tensor's second index: the weighted squared
norm is sum_ij g_j T_ij^2 and the weighted spectral norm is
sigma_max(T_ij g_j).  For pure and amplitude-damped Schmidt states the
off-diagonal block is a diagonal matrix, where the weighting acts entry
by entry, but the diagonal-generator block is a dense (d-1) x (d-1)
matrix, so a metric that weights it needs that block's singular values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotHermitian
from .gellmann import GellMannBasis, check_dimension, gellmann_basis
from .states import SchmidtState, TwoQuditState

IMAG_RESIDUE_TOL = 1e-8


def c_factor(d: int) -> float:
    return d / (2.0 * (d - 1.0))


@dataclass(frozen=True)
class CorrelationTensor:
    d: int
    t: np.ndarray = field(repr=False)  # (d^2-1, d^2-1) real

    def __post_init__(self):
        n = self.d * self.d - 1
        if self.t.shape != (n, n):
            raise DimensionMismatch(
                f"tensor shape {self.t.shape} does not match d={self.d}")
        self.t.setflags(write=False)


@dataclass(frozen=True)
class Metric:
    d: int
    g: np.ndarray = field(repr=False)  # (d^2-1,) nonnegative

    def __post_init__(self):
        n = self.d * self.d - 1
        if self.g.shape != (n,):
            raise DimensionMismatch(
                f"metric shape {self.g.shape} does not match d={self.d}")
        if np.any(self.g < 0):
            raise ValueError("metric weights must be nonnegative")
        self.g.setflags(write=False)


def identity_metric(d: int) -> Metric:
    d = check_dimension(d)
    return Metric(d=d, g=np.ones(d * d - 1))


def colored_metric(d: int, v: float) -> Metric:
    """Unit weights except the last diagonal-generator index, weighted v."""
    d = check_dimension(d)
    g = np.ones(d * d - 1)
    g[-1] = v
    return Metric(d=d, g=g)


def damping_metric(d: int) -> Metric:
    """Unit weight on the off-diagonal generators, zero on the diagonal ones."""
    d = check_dimension(d)
    g = np.zeros(d * d - 1)
    g[: d * (d - 1)] = 1.0
    return Metric(d=d, g=g)


def correlation_tensor(rho: TwoQuditState,
                       basis: GellMannBasis | None = None) -> CorrelationTensor:
    d = rho.d
    if basis is None:
        basis = gellmann_basis(d)
    if basis.d != d:
        raise DimensionMismatch(f"basis d={basis.d} vs state d={d}")
    m = basis.matrices
    r4 = rho.rho.reshape(d, d, d, d)
    z = np.einsum("abcd,ica->ibd", r4, m)
    t = np.einsum("ibd,jdb->ij", z, m) * c_factor(d)
    if np.max(np.abs(t.imag)) > IMAG_RESIDUE_TOL:
        raise NotHermitian("correlation tensor has imaginary residue")
    return CorrelationTensor(d=d, t=t.real.copy())


def schmidt_correlation_tensors(d: int, coeffs: np.ndarray) -> np.ndarray:
    """Closed form for a batch of pure Schmidt states, no density matrix.

    coeffs is an (N, d) array of Schmidt coefficients; the result is the
    (N, d^2-1, d^2-1) stack of their tensors.  Off-diagonal block:
    diagonal, entries +-2 c_j c_k c(d) (symmetric +, antisymmetric -).
    Diagonal-generator block entries, 1-based level indices i <= j:

      same index   (2/(i(i+1))) (sum_{n<i} c_n^2 + i^2 c_i^2) c(d)
      i < j        (2/sqrt(i j (i+1)(j+1))) (sum_{n<i} c_n^2 - i c_i^2) c(d)

    and the block is symmetric.  Cross terms vanish.
    """
    n = d * d - 1
    c = coeffs
    cf = c_factor(d)
    t = np.zeros((len(c), n, n))
    npairs = d * (d - 1) // 2
    js, ks = np.triu_indices(d, 1)
    val = 2.0 * c[:, js] * c[:, ks] * cf
    idx = np.arange(npairs)
    t[:, idx, idx] = val                          # symmetric generators
    t[:, npairs + idx, npairs + idx] = -val       # antisymmetric generators
    base = d * (d - 1)
    csq = c * c
    for i in range(1, d):
        head = np.sum(csq[:, :i], axis=1)
        t[:, base + i - 1, base + i - 1] = \
            (2.0 / (i * (i + 1))) * (head + i * i * csq[:, i]) * cf
        for j in range(i + 1, d):
            off = (2.0 / np.sqrt(i * j * (i + 1) * (j + 1))) \
                * (head - i * csq[:, i]) * cf
            t[:, base + i - 1, base + j - 1] = off
            t[:, base + j - 1, base + i - 1] = off
    return t


def schmidt_correlation_tensor(psi: SchmidtState) -> CorrelationTensor:
    """Closed-form tensor of one Schmidt state (see the batched form)."""
    return CorrelationTensor(
        d=psi.d, t=schmidt_correlation_tensors(psi.d, psi.coeffs[None, :])[0])


def spectral_norms(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sigma_max(T_ij w_j) of each tensor in a stack; w is (n,) or (N, n)."""
    return np.linalg.svd(t * w[..., None, :], compute_uv=False)[:, 0]


def norm_sqs(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_ij w_j T_ij^2 of every tensor in an (N, n, n) stack."""
    return np.sum(((t * t) * w[..., None, :]).reshape(len(t), -1), axis=1)


def _check_pair(t: CorrelationTensor, g: Metric) -> None:
    if t.d != g.d:
        raise DimensionMismatch(f"tensor d={t.d} vs metric d={g.d}")


def norm_sq(t: CorrelationTensor, g: Metric) -> float:
    """Weighted squared norm sum_ij g_j T_ij^2."""
    _check_pair(t, g)
    return float(norm_sqs(t.t[None], g.g)[0])


def spectral_norm(t: CorrelationTensor, g: Metric) -> float:
    """Largest singular value of the weighted tensor T_ij g_j."""
    _check_pair(t, g)
    return float(spectral_norms(t.t[None], g.g)[0])
