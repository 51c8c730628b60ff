"""Correlation tensor of a qudit pair and metric-weighted scalars.

T_ij = c(d) Tr[rho (B_i (x) B_j)] over the generator basis, with
c(d) = d / (2(d-1)).  Index layout follows the basis ordering: the first
d(d-1) indices are the off-diagonal (symmetric then antisymmetric)
generators, the last d-1 the diagonal ones.  A Metric is a nonnegative
weight per generator index, applied over the second index: the weighted
squared norm is sum_ij g_j T_ij^2, the weighted spectral norm
sigma_max(T_ij g_j).

Every noisy Schmidt state the solvers handle has a block-diagonal tensor:
a diagonal matrix over the off-diagonal generators, +v and -v for the
symmetric and antisymmetric generator of each level pair (pair_values,
scaled by the channel), and the (d-1) x (d-1) block c(d) D P D^T over the
diagonal ones, where D = diagonal_entries(d) holds their diagonals in closed
form and P(a, b) = <ab|rho|ab> the state's populations (diagonal_block).
block_scalars takes sigma_max as the larger of the weighted pair entries and
the block's sigma_max, and the squared norm as the sum over both blocks.

The batch kernels (block_scalars, block_norms, spectral_norms, norm_sqs,
supporting_functionals) keep the inputs on the last axis: pair entries
(d(d-1)/2, N), blocks (d-1, d-1, N), and the batch's one metric as weights
(n, 1), broadcast over the inputs.  Each per-input reduction then runs over
the leading axes, one contiguous row of N numbers at a time; sum_per_input
sums each input's 8 or more terms along a row of their own instead, as numpy
sums one input's, so a batch's scalars equal each input's own bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotHermitian
from .gellmann import check_dimension, diagonal_entries, gellmann_basis
from .linalg import realign
from .record import Record, set_field
from .states import SchmidtState, TwoQuditState

IMAG_RESIDUE_TOL = 1e-8


def c_factor(d: int) -> float:
    return d / (2.0 * (d - 1.0))


class CorrelationTensor(Record):
    __slots__ = ("d", "t")
    _hidden = ("t",)

    def __init__(self, d: int, t: np.ndarray):  # (d^2-1, d^2-1) real
        n = d * d - 1
        if t.shape != (n, n):
            raise DimensionMismatch(
                f"tensor shape {t.shape} does not match d={d}")
        t.setflags(write=False)
        set_field(self, "d", d)
        set_field(self, "t", t)


class Metric(Record):
    __slots__ = ("d", "g")
    _hidden = ("g",)

    def __init__(self, d: int, g: np.ndarray):  # (d^2-1,) nonnegative
        n = d * d - 1
        if g.shape != (n,):
            raise DimensionMismatch(
                f"metric shape {g.shape} does not match d={d}")
        if not np.all(g >= 0):
            raise ValueError("metric weights must be nonnegative")
        g.setflags(write=False)
        set_field(self, "d", d)
        set_field(self, "g", g)


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


def correlation_tensor(rho: TwoQuditState) -> CorrelationTensor:
    """T = c(d) rows R rows^T, R the realigned rho and rows the basis
    matrices B_i^T = conj(B_i) flattened."""
    d = rho.d
    rows = gellmann_basis(d).matrices.conj().reshape(-1, d * d)
    t = (rows @ realign(rho.rho, d) @ rows.T) * c_factor(d)
    if np.max(np.abs(t.imag)) > IMAG_RESIDUE_TOL:
        raise NotHermitian("correlation tensor has imaginary residue")
    return CorrelationTensor(d=d, t=t.real.copy())


def pair_values(coeffs: np.ndarray) -> np.ndarray:
    """2 c_j c_k c(d) per level pair j < k of coefficients (d,) or of
    coefficient columns (d, N): (d(d-1)/2,) or (d(d-1)/2, N)."""
    d = len(coeffs)
    js, ks = np.triu_indices(d, 1)
    return 2.0 * coeffs[js] * coeffs[ks] * c_factor(d)


def diagonal_block(populations: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """c(d) D P D^T from populations P(a, b) = <ab|rho|ab>, (d, d) or
    (N, d, d), and dg = diagonal_entries(d)."""
    return c_factor(dg.shape[1]) * (dg @ populations @ dg.T)


def block_weights(d: int, w: np.ndarray):
    """Split a metric's weights (n, 1) for block_scalars: (the larger of
    each pair's two weights, their sum, the diagonal generators' weights or
    None when all of those are zero)."""
    half = d * (d - 1) // 2
    gs, ga, gd = w[:half], w[half:2 * half], w[2 * half:]
    return np.maximum(gs, ga), gs + ga, gd if np.any(gd != 0.0) else None


def sum_per_input(x: np.ndarray) -> np.ndarray:
    """Sum of x over every axis but the last, the inputs' axis, each
    input's terms added in the order numpy adds them alone.  numpy sums
    several columns row after row, but one column or row pairwise, so from
    8 terms on each input's terms are summed along a contiguous row.  Below
    8 both orders are sequential, and the column reduce spares wide batches
    of few rows a transposed copy that costs far more than the sum."""
    *rows, inputs = x.shape
    # not reshape(-1, inputs): that fails on a batch of no inputs
    x = x.reshape(math.prod(rows), inputs)
    if len(x) < 8:
        return np.add.reduce(x, axis=0)
    return np.add.reduce(np.ascontiguousarray(x.T), axis=1)


def block_norms(block: np.ndarray, w: np.ndarray):
    """(sigma_max, squared norm) of each diagonal-generator block of an
    (n, n, N) stack under one metric's weights w, (n, 1)."""
    return spectral_norms(block, w), norm_sqs(block, w)


def block_scalars(pairs: np.ndarray, norms, weights):
    """Weighted (sigma_max, squared norm) of tensors in block form: pair
    entries (d(d-1)/2, N), and norms, the block_norms of their
    diagonal-generator blocks (d-1, d-1, N), None where block_weights
    found no weight on the blocks.  A caller that scales the pair entries
    takes the blocks' norms first, so that the two never hold their work
    arrays at once."""
    pair_max, pair_sum, _ = weights
    l = np.max(np.abs(pairs) * pair_max, axis=0)
    n = sum_per_input(pair_sum * pairs * pairs)
    if norms is None:
        return l, n
    return np.maximum(l, norms[0]), n + norms[1]


def schmidt_correlation_tensor(psi: SchmidtState) -> CorrelationTensor:
    """Closed-form tensor of a pure Schmidt state: blocks with P = diag(c^2)."""
    pairs = pair_values(psi.coeffs)
    t = np.diag(np.concatenate([pairs, -pairs, np.zeros(psi.d - 1)]))
    off = 2 * len(pairs)
    t[off:, off:] = diagonal_block(np.diag(psi.coeffs * psi.coeffs),
                                   diagonal_entries(psi.d))
    return CorrelationTensor(d=psi.d, t=t)


def spectral_norms(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sigma_max(T_ij w_j) of each tensor in an (n, n, N) stack under one
    metric's weights w, (n, 1).

    A 2 x 2 block (the diagonal-generator block at d = 3) takes the closed
    form sigma_max = (hypot(a00 + a11, a01 - a10) + hypot(a00 - a11,
    a01 + a10)) / 2, the half-sum of the moduli of its conformal and
    anticonformal parts; blocks of any other size take the SVD."""
    if t.shape[:2] != (2, 2):
        return np.linalg.svd((t * w).transpose(2, 0, 1),
                             compute_uv=False)[:, 0]
    # the weighted block is freed once its parts are taken
    (x1, y1), (x2, y2) = _conformal_parts(t * w)
    return 0.5 * (np.hypot(x1, y1) + np.hypot(x2, y2))


def _conformal_parts(a: np.ndarray):
    """The conformal (a00 + a11, a01 - a10) and anticonformal
    (a00 - a11, a01 + a10) parts of each 2 x 2 matrix of a stack."""
    a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    return (a00 + a11, a01 - a10), (a00 - a11, a01 + a10)


def supporting_functionals(a: np.ndarray) -> np.ndarray:
    """F with sum_ij F_ij a_ij = sigma_max(a) and sum_ij F_ij x_ij <=
    sigma_max(x) for every x, one per matrix of an (n, n, N) stack.

    F is u v^T for the top singular pair; a 2 x 2 matrix takes it in
    closed form: sigma_max(x) is the half-sum of the moduli of x's two
    parts (spectral_norms), so half the sum of the parts' unit phases at
    a, read as (cos, sin) pairs, is a functional that meets it at a and
    stays below it everywhere (Cauchy-Schwarz)."""
    if a.shape[:2] != (2, 2):
        u, _, vt = np.linalg.svd(a.transpose(2, 0, 1))
        return u[:, :, 0].T[:, None] * vt[:, 0].T
    phases = []
    for x, y in _conformal_parts(a):
        h = np.hypot(x, y)
        # a zero part has no phase; the zero vector keeps F below sigma_max
        phases.append(np.divide(np.stack([x, y]), h,
                                out=np.zeros((2, len(h))), where=h > 0.0))
    (c1, s1), (c2, s2) = phases
    return 0.5 * np.array([[c1 + c2, s1 + s2], [s2 - s1, c1 - c2]])


def norm_sqs(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_ij w_j T_ij^2 of every tensor in an (n, n, N) stack."""
    return sum_per_input((t * t) * w)


def _check_pair(t: CorrelationTensor, g: Metric) -> None:
    if t.d != g.d:
        raise DimensionMismatch(f"tensor d={t.d} vs metric d={g.d}")


def norm_sq(t: CorrelationTensor, g: Metric) -> float:
    """Weighted squared norm sum_ij g_j T_ij^2."""
    _check_pair(t, g)
    return float(norm_sqs(t.t[..., None], g.g[:, None])[0])


def spectral_norm(t: CorrelationTensor, g: Metric) -> float:
    """Largest singular value of the weighted tensor T_ij g_j."""
    _check_pair(t, g)
    return float(spectral_norms(t.t[..., None], g.g[:, None])[0])
