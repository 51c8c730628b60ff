"""Two-setting d-outcome Bell test: standard settings, the inequality value,
damping closed forms, critical parameters, large-d limit, and a best-effort
settings optimizer.

Conventions.  Settings are indexed 0 and 1 per party.  The A-side outcome
vectors are Fourier modes with phase offsets (0, 1/2), the B-side with
(1/4, -1/4) and conjugated outcome phase.  The local-realism bound is 2.

Modular coincidence sums read the equality literally:

    P(A_s = B_t + k) = sum_n P(A_s = n + k mod d, B_t = n)
    P(B_t = A_s + k) = sum_n P(A_s = n, B_t = n + k mod d)

With these settings the joint probability depends on the outcomes only
through a - b, which makes each sum d times any one of its terms; a
property test pins that shortcut.  Settings, damping tables and the
inequality value are array code; the scalar loops they replaced live on in
the tests as bit-exact oracles.  Thresholds read I from the d x d block
<ii|W|jj> of the Bell operator and build no density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .channels import ChannelKind
from .criteria import CriticalResult, bisect_threshold, describe_state
from .errors import (DimensionMismatch, NonMonotonic, NoViolation,
                     UnsupportedChannel)
from .gellmann import check_dimension, gellmann_basis
from .states import SchmidtState, TwoQuditState

LOCAL_BOUND = 2.0
ALPHA_PHASES = (0.0, 0.5)
BETA_PHASES = (0.25, -0.25)
ORTHO_TOL = 1e-10
POWELL_MAXFEV = 500


@dataclass(frozen=True)
class MeasurementSettings:
    """Outcome vectors per (party, setting): arrays (2, d, d), [setting,
    outcome, component]."""

    d: int
    a_vectors: np.ndarray = field(repr=False)
    b_vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        for v in (self.a_vectors, self.b_vectors):
            if v.shape != (2, self.d, self.d):
                raise DimensionMismatch(
                    f"settings shape {v.shape} does not match d={self.d}")
            gram = v @ v.conj().transpose(0, 2, 1)  # one per setting
            if not np.max(np.abs(gram - np.eye(self.d))) <= ORTHO_TOL:
                raise DimensionMismatch("outcome vectors are not orthonormal")
            v.setflags(write=False)


@dataclass(frozen=True)
class BellValue:
    i_d: float
    probabilities: np.ndarray = field(repr=False)  # (2, 2, d, d)
    violated: bool = False

    def __post_init__(self):
        self.probabilities.setflags(write=False)


def cglmp_settings(d: int) -> MeasurementSettings:
    d = check_dimension(d)
    j = np.arange(d)  # outcome index (axis 1) and component index (axis 2)
    omega = np.exp(2j * np.pi / d)
    av = omega ** (j * (j[:, None] + np.array(ALPHA_PHASES)[:, None, None])) \
        / np.sqrt(d)
    bv = omega ** (j * (-j[:, None] + np.array(BETA_PHASES)[:, None, None])) \
        / np.sqrt(d)
    return MeasurementSettings(d=d, a_vectors=av, b_vectors=bv)


def probability_table(rho: TwoQuditState,
                      m: MeasurementSettings | None = None) -> np.ndarray:
    """All joint probabilities, shape (2, 2, d, d) indexed [s, t, a, b].

    P[s, t, a, b] = <A_s[a] B_t[b]| rho |A_s[a] B_t[b]>, contracted on rho
    itself by four batched matmuls that serve all four setting pairs.  The
    contraction order and each matmul's operand layout are those numpy's
    einsum takes for the same sum, so the tables round alike.
    """
    if m is None:
        m = cglmp_settings(rho.d)
    if rho.d != m.d:
        raise DimensionMismatch(f"state d={rho.d} vs settings d={m.d}")
    d = rho.d
    av, bv = m.a_vectors, m.b_vectors
    r4 = rho.rho.reshape(d, d, d, d)  # [i, j, k, l]
    # i against conj(A_s): [s, a, (j, l), k]
    x = (av.conj() @ r4.transpose(0, 1, 3, 2).reshape(d, d ** 3)) \
        .reshape(2, d, d * d, d)
    # k against A_s, a kept on the diagonal: [s, a, j, l] -> [s, (a, l), j]
    y = (x @ av[..., None]).reshape(2, d, d, d).transpose(0, 1, 3, 2) \
        .reshape(2, 1, d * d, d)
    # j against conj(B_t): [s, t, (a, l), b] -> [s, t, b, a, l]
    z = (y @ bv.conj().transpose(0, 2, 1)).reshape(2, 2, d, d, d) \
        .transpose(0, 1, 4, 2, 3)
    # l against B_t, b kept on the diagonal: [s, t, b, a]
    p = (z @ bv[:, :, :, None])[..., 0]
    return np.ascontiguousarray(p.real.transpose(0, 1, 3, 2))


def _inequality_value(table: np.ndarray) -> float:
    d = table.shape[2]
    n = np.arange(d)
    shifted = (n + n[:, None]) % d  # [k, n] -> n + k mod d
    # [s, t, k] -> P(A_s = B_t + k) and P(B_t = A_s + k); each gather is made
    # contiguous so that every sum rounds as a 1-D sum of d terms would
    a_eq_b = np.ascontiguousarray(table[:, :, shifted, n]).sum(axis=-1)
    b_eq_a = np.ascontiguousarray(table[:, :, n, shifted]).sum(axis=-1)
    # constituent k (mod d) of the inequality, one per shift
    part = a_eq_b[0, 0] + b_eq_a[1, 0, (n + 1) % d] + a_eq_b[1, 1] \
        + b_eq_a[0, 1]
    total = 0.0
    for k in range(d // 2):
        weight = 1.0 - 2.0 * k / (d - 1.0)
        total += weight * (part[k] - part[-(k + 1)])
    return float(total)


def cglmp_value(rho: TwoQuditState,
                m: MeasurementSettings | None = None) -> BellValue:
    table = probability_table(rho, m)
    value = _inequality_value(table)
    return BellValue(i_d=value, probabilities=table,
                     violated=value > LOCAL_BOUND)


def ad_probability_table(d: int, r: float) -> np.ndarray:
    """Joint probabilities [s, t, a, b] of the damped max-entangled state,
    no Born rule.

    Valid because the phase offsets keep gamma = a - b + alpha_s + beta_t
    away from integer multiples of d.
    """
    d = check_dimension(d)
    j = np.arange(d)
    gamma = (j[:, None] - j) + np.array(ALPHA_PHASES)[:, None, None, None] \
        + np.array(BETA_PHASES)[:, None, None]
    x = np.pi * gamma / d
    kernel = ((1.0 - r) * np.sin((d - 1.0) * x) ** 2 / np.sin(x) ** 2
              + np.sin((2.0 * d - 1.0) * x) / np.sin(x) - 1.0)
    return (1.0 - (d - 1.0) * (r - 2.0) * r) / d ** 3 \
        + (1.0 - r) / d ** 3 * kernel


def cglmp_ad_value(d: int, r: float) -> BellValue:
    """Inequality value for the damped max-entangled state, closed form."""
    table = ad_probability_table(d, r)
    value = _inequality_value(table)
    return BellValue(i_d=value, probabilities=table,
                     violated=value > LOCAL_BOUND)


@lru_cache(maxsize=1)
def catalan_constant() -> float:
    """Sum (-1)^k / (2k+1)^2 by direct series, error below 1e-12."""
    k = np.arange(300_000, dtype=float)
    return float(np.sum(1.0 / (4.0 * k + 1.0) ** 2
                        - 1.0 / (4.0 * k + 3.0) ** 2))


def cglmp_ad_infinite(r: float) -> float:
    """Large-d limit of the damped max-entangled inequality value."""
    return (1.0 - r) ** 2 * 32.0 * catalan_constant() / np.pi ** 2


def infinite_threshold() -> float:
    """Noise-free fraction where the large-d value crosses the bound."""
    return float(np.pi / (4.0 * np.sqrt(catalan_constant())))


@lru_cache(maxsize=None)
def _bell_block(d: int) -> np.ndarray:
    """M[i, j] = <ii|W|jj> of the Bell operator W with I(rho) = Tr(W rho).

    _inequality_value weighs P(A_s - B_t = k mod d) by w_st[k]: the ramp
    r_k = 1 - 2k/(d - 1) for (s, t) = (0, 0) and (1, 1), r_{-k} for (0, 1)
    and -r_k for (1, 0).  <ii|A_s[a] B_t[b]> = omega^{i(a - b + alpha_s +
    beta_t)}/d makes M Toeplitz: M[i, j] = m(i - j), m(delta) = Re sum_st
    omega^{delta(alpha_s + beta_t)} ifft(w_st)[delta mod d].  The weights
    sum to 0 and product-basis amplitudes have modulus 1/d, so W has zero
    diagonal there: Schmidt states and their damped images see only Re M."""
    k, delta = np.arange(d), np.arange(1 - d, d)
    ramp = 1.0 - 2.0 * k / (d - 1.0)
    spectra = np.fft.ifft([ramp, ramp[-k], -ramp, ramp])  # [(s, t), k]
    phases = np.add.outer(ALPHA_PHASES, BETA_PHASES).reshape(4, 1)
    profile = (np.exp(2j * np.pi / d * phases * delta)
               * spectra[:, delta % d]).sum(axis=0).real
    block = profile[k[:, None] - k + d - 1]  # m(i - j)
    block.setflags(write=False)
    return block


def _damping_quadratic(state: SchmidtState) -> np.ndarray:
    """(q0, q1, q2) with I(p) = q0 + q1 p + q2 p^2 under local damping: the
    no-jump Kraus pair sends the state to a + p b, a = c_0 |00> and b its
    excited part; the other pairs leave product basis states."""
    a, b = np.zeros(state.d), state.coeffs.copy()
    a[0], b[0] = b[0], 0.0
    block = _bell_block(state.d)
    return np.array([a @ block @ a, 2.0 * (a @ block @ b), b @ block @ b])


def critical_lr(state: SchmidtState, kind: ChannelKind) -> CriticalResult:
    """Smallest noise-free fraction at which the inequality is violated."""
    damping = kind is ChannelKind.AMPLITUDE_DAMPING
    if not (kind.is_kraus or kind is ChannelKind.WHITE):
        raise UnsupportedChannel(
            f"no local-realism threshold defined for channel {kind.value}")
    q0, q1, q2 = _damping_quadratic(state)
    # I'(p) = q1 + 2 q2 p is linear, so its ends bound it on [0, 1]
    if damping and min(q1, q1 + 2.0 * q2) < -1e-9:
        raise NonMonotonic("inequality value is not monotone in p")
    pure_value = q0 + q1 + q2  # the undamped value, c^T M c
    if pure_value <= LOCAL_BOUND:
        raise NoViolation(
            f"inequality value {pure_value:.6f} never exceeds the bound")
    method, value = "analytic", LOCAL_BOUND / pure_value
    if kind is ChannelKind.DEPOLARIZING:
        value = np.sqrt(value)
    elif damping:
        method, value = "bisection", bisect_threshold(
            lambda p: q0 + q1 * p + q2 * p * p > LOCAL_BOUND, 1)[0]
    return CriticalResult(parameter_name=kind.parameter_name,
                          value=float(value), method=method, channel=kind,
                          state=describe_state(state))


def _rotated_settings(base: MeasurementSettings,
                      thetas: np.ndarray, mats: np.ndarray) -> MeasurementSettings:
    """Conjugate each (party, setting) basis by exp(i sum theta_a B_a).

    The four generators come from one matmul and their exponentials from
    one batched eigh: exp(iH) = U diag(e^{iw}) U^dagger.
    """
    d = base.d
    gens = (thetas @ mats.reshape(-1, d * d)).reshape(4, d, d)
    w, u = np.linalg.eigh(gens)
    rot = (u * np.exp(1j * w)[:, None, :]) @ u.conj().transpose(0, 2, 1)
    # slots [A_0, A_1, B_0, B_1], each row rotated by U^T
    vecs = np.concatenate((base.a_vectors, base.b_vectors)) \
        @ rot.transpose(0, 2, 1)
    return MeasurementSettings(d=d, a_vectors=vecs[:2], b_vectors=vecs[2:])


def _qubit_block_settings(d: int) -> MeasurementSettings:
    """The d=2 standard settings on levels {0, 1}; the other levels are
    measured directly."""
    two = cglmp_settings(2)
    vecs = np.tile(np.eye(d, dtype=complex), (4, 1, 1))
    vecs[:, :2, :2] = np.concatenate((two.a_vectors, two.b_vectors))
    return MeasurementSettings(d=d, a_vectors=vecs[:2], b_vectors=vecs[2:])


def optimize_settings(rho: TwoQuditState, restarts: int,
                      seed: int) -> BellValue:
    """Best-effort maximization of the inequality over rotated settings.

    Every start is base settings rotated by exp(iH) of angles: the
    standard settings and the two-level embedding of the qubit settings
    at zero angles always, then restarts random angles about the standard
    settings.  Keeps the best settings found; never returns less than the
    standard-settings value; deterministic for a fixed seed.
    """
    d = rho.d
    std = cglmp_settings(d)
    mats = gellmann_basis(d).matrices
    size = 4 * (d * d - 1)
    rng = np.random.default_rng(seed)
    starts = [(std, np.zeros(size)),
              (_qubit_block_settings(d), np.zeros(size))]
    starts += [(std, rng.normal(scale=0.4, size=size))
               for _ in range(restarts)]

    def value_at(base, x):
        return cglmp_value(rho, _rotated_settings(base, x.reshape(4, -1),
                                                  mats))

    best = cglmp_value(rho, std)
    for base, x0 in starts:
        res = minimize(lambda x: -value_at(base, x).i_d, x0, method="Powell",
                       options={"maxfev": POWELL_MAXFEV, "xtol": 1e-4,
                                "ftol": 1e-8})
        if -res.fun > best.i_d:
            best = value_at(base, res.x)
    return best
