"""Noise models mapping pure Schmidt states to two-qudit density matrices.

Two conventions coexist on purpose:

  mixing kinds (white, product, colored) are parametrized by the visibility
  v, the weight of the pure state in the mixture;

  Kraus kinds (local depolarizing, amplitude damping) are parametrized by
  the channel strength r, applied identically to both subsystems.

Either way p = 1 means no noise; for Kraus kinds the noise-free fraction is
p = 1 - r.  Solvers sweep p.  block_form states each kind's noise once, as
the populations and coherences of its output; the mixing builders,
criteria.MarginBatch and fidelity.critical_fidelity read it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    StrengthOutOfRange,
    UnsupportedChannel,
)
from .gellmann import check_dimension
from .states import (SchmidtState, TwoQuditState, max_entangled,
                     max_entangled_rows, to_density)

COMPLETENESS_TOL = 1e-10


class ChannelKind(str, Enum):
    WHITE = "white"
    PRODUCT = "product"
    COLORED = "colored"
    DEPOLARIZING = "depol"
    AMPLITUDE_DAMPING = "ad"

    @property
    def is_kraus(self) -> bool:
        return self in (ChannelKind.DEPOLARIZING,
                        ChannelKind.AMPLITUDE_DAMPING)

    @property
    def parameter_name(self) -> str:
        # name of the noise-free-fraction parameter reported by solvers
        return "p" if self.is_kraus else "v"


def check_strength(x: float) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise StrengthOutOfRange(f"strength {x} outside [0, 1]")
    return x


@dataclass(frozen=True)
class ChannelSpec:
    kind: ChannelKind
    strength: float  # v for mixing kinds, r for Kraus kinds

    def __post_init__(self):
        # stored as the float it was checked as, so "0.5" reads as 0.5
        object.__setattr__(self, "strength", check_strength(self.strength))

    @property
    def noise_free_fraction(self) -> float:
        return 1.0 - self.strength if self.kind.is_kraus else self.strength

    @classmethod
    def from_noise_free_fraction(cls, kind: ChannelKind, p: float) -> "ChannelSpec":
        p = check_strength(p)
        return cls(kind, 1.0 - p if kind.is_kraus else p)

    @classmethod
    def parse(cls, text: str) -> "ChannelSpec":
        """Parse 'white:V' / 'product:V' / 'colored:V' / 'depol:R' / 'ad:R'."""
        name, sep, val = text.partition(":")
        if not sep:
            raise UnsupportedChannel(
                f"channel spec {text!r} needs the form kind:strength")
        try:
            kind = ChannelKind(name)
        except ValueError:
            raise UnsupportedChannel(f"unknown channel kind {name!r}") from None
        try:
            strength = float(val)
        except ValueError:
            raise UnsupportedChannel(
                f"bad strength {val!r} in channel spec {text!r}") from None
        return cls(kind, strength)


@dataclass(frozen=True)
class KrausSet:
    d: int
    operators: np.ndarray = field(repr=False)  # (n_ops, d, d) complex

    def __post_init__(self):
        s = np.einsum("kij,kil->jl", self.operators.conj(), self.operators)
        if not np.max(np.abs(s - np.eye(self.d))) <= COMPLETENESS_TOL:
            raise UnsupportedChannel(
                "Kraus operators do not sum to the identity")
        self.operators.setflags(write=False)


def block_form(coeffs: np.ndarray, kind: ChannelKind) -> tuple[list, int]:
    """(stacks, far) of the noisy Schmidt inputs with coefficient rows
    (N, d): the coefficients P_k of their populations
    P(p) = <ab|rho|ab> = sum_k p^k P_k, each (N, d, d) or one (1, d, d)
    shared by every input (P_0 is the noise's for the mixing kinds), and
    the index, in np.triu_indices(d, 1) order, of the first level pair
    whose coherence <jj|rho|kk> = c_j c_k p^e has e = 2, not 1.  Raises
    UnsupportedChannel for colored noise on rows not max-entangled."""
    size, d = coeffs.shape
    csq = coeffs * coeffs
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        # with q = 1 - p and S the excited weight sum_k>0 c_k^2,
        # P(0, 0) = c_0^2 + q^2 S, P(0, k) = P(k, 0) = p q c_k^2 and
        # P(k, k) = p^2 c_k^2; the pairs (0, k) come first
        excited = csq[:, 1:]
        s = np.sum(excited, axis=1)
        p0, p1, p2 = np.zeros((3, size, d, d))
        p0[:, 0, 0] = csq[:, 0] + s
        p1[:, 0, 0], p2[:, 0, 0] = -2.0 * s, s
        p1[:, 0, 1:] = p1[:, 1:, 0] = excited
        p2[:, 0, 1:] = p2[:, 1:, 0] = -excited
        i = np.arange(1, d)
        p2[:, i, i] = excited
        return [p0, p1, p2], d - 1
    pure = csq[:, :, None] * np.eye(d)
    uniform = np.full((1, d, d), 1.0 / (d * d))
    if kind is ChannelKind.DEPOLARIZING:
        # P(a, b) = p^2 c_a^2 [a = b] + p q (c_a^2 + c_b^2) / d + q^2 / d^2
        marginals = (csq[:, :, None] + csq[:, None, :]) / d
        return [uniform, marginals - 2.0 * uniform,
                pure - marginals + uniform], 0
    if kind is ChannelKind.WHITE:
        noise = uniform
    elif kind is ChannelKind.PRODUCT:  # the marginals' product
        noise = csq[:, :, None] * csq[:, None, :]
    else:  # colored: the product state |d-1, d-1>
        if not np.all(max_entangled_rows(coeffs)):
            raise UnsupportedChannel(
                "colored noise is defined only for the max-entangled input")
        noise = np.zeros((1, d, d))
        noise[0, -1, -1] = 1.0
    return [noise, pure - noise], d * (d - 1) // 2


def white_noise(psi: SchmidtState, v: float) -> TwoQuditState:
    return channel_output(psi, ChannelSpec(ChannelKind.WHITE, v))


def product_noise(psi: SchmidtState, v: float) -> TwoQuditState:
    """Mix with the product of the state's own marginals diag(c^2)."""
    return channel_output(psi, ChannelSpec(ChannelKind.PRODUCT, v))


def colored_noise(d: int, v: float) -> TwoQuditState:
    """Max-entangled state mixed with the pure product state |d-1,d-1>.

    Defined only for the max-entangled input, so the state is fixed by d.
    """
    return channel_output(max_entangled(d),
                          ChannelSpec(ChannelKind.COLORED, v))


def amplitude_damping_kraus(d: int, r: float) -> KrausSet:
    """Every excited level decays straight to the ground level."""
    d = check_dimension(d)
    r = check_strength(r)
    e0 = np.zeros((d, d), dtype=complex)
    e0[0, 0] = 1.0
    for i in range(1, d):
        e0[i, i] = np.sqrt(1.0 - r)
    ops = [e0]
    for j in range(1, d):
        ej = np.zeros((d, d), dtype=complex)
        ej[0, j] = np.sqrt(r)
        ops.append(ej)
    return KrausSet(d=d, operators=np.array(ops))


def apply_local_channel(rho: TwoQuditState, kraus: KrausSet) -> TwoQuditState:
    """Same single-qudit channel on both subsystems."""
    if rho.d != kraus.d:
        raise DimensionMismatch(
            f"state d={rho.d} vs Kraus d={kraus.d}")
    d = rho.d
    ks = kraus.operators
    r4 = rho.rho.reshape(d, d, d, d)
    # (E_k (x) E_m) rho (E_k (x) E_m)^dagger summed over k, m
    out = np.einsum("kia,mjb,abcd,kec,mfd->ijef", ks, ks, r4,
                    ks.conj(), ks.conj(), optimize=True)
    return TwoQuditState(d=d, rho=out.reshape(d * d, d * d))


def depolarize_pair(rho: TwoQuditState, r: float) -> TwoQuditState:
    """Affine form of the two-sided depolarizing channel (fast path)."""
    r = check_strength(r)
    d = rho.d
    ra = rho.reduced(0)
    rb = rho.reduced(1)
    eye = np.eye(d)
    out = ((1.0 - r) ** 2 * rho.rho
           + (1.0 - r) * (r / d) * np.kron(ra, eye)
           + (1.0 - r) * (r / d) * np.kron(eye, rb)
           + (r / d) ** 2 * np.kron(eye, eye))
    return TwoQuditState(d=d, rho=out)


def channel_output(psi: SchmidtState, spec: ChannelSpec) -> TwoQuditState:
    """Dispatch a channel spec on a pure input state.  A mixing kind gives
    v |psi><psi| + (1 - v) diag(noise populations), colored noise with
    max_entangled(d) itself as |psi>."""
    kind, v = spec.kind, check_strength(spec.strength)
    if kind is ChannelKind.DEPOLARIZING:
        return depolarize_pair(to_density(psi), v)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        return apply_local_channel(
            to_density(psi), amplitude_damping_kraus(psi.d, v))
    noise = block_form(psi.coeffs[None, :], kind)[0][0]
    if kind is ChannelKind.COLORED:
        psi = max_entangled(psi.d)
    rho = v * to_density(psi).rho + (1.0 - v) * np.diag(noise.ravel())
    return TwoQuditState(d=psi.d, rho=rho)
