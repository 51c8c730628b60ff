"""Critical fidelities and the derived gap figures.

A critical fidelity is sqrt(<psi|rho|psi>) of the damaged max-entangled
state at its own local-realism threshold: a channel's closed form,
cross-checked against a sum over the noisy state's populations and
coherences (channels.block_form), which builds no density matrix.  The gap
figures compare the Bell threshold with the entanglement-detection
threshold, both computed here rather than transcribed.
"""

from __future__ import annotations

import numpy as np

from .bell import critical_lr
from .channels import ChannelKind, ChannelSpec, block_form
from .criteria import critical_analytic
from .errors import QnlError, UnsupportedChannel
from .record import Record, set_field
from .states import max_entangled

CROSS_CHECK_TOL = 1e-8


class FidelityReport(Record):
    __slots__ = ("d", "channel", "f_crit", "strength_at_threshold",
                 "formula_value", "direct_value")

    def __init__(self, d: int, channel: ChannelKind, f_crit: float,
                 strength_at_threshold: float, formula_value: float,
                 direct_value: float):
        if abs(formula_value - direct_value) > CROSS_CHECK_TOL:
            raise QnlError(
                "closed-form and direct fidelity disagree: "
                f"{formula_value} vs {direct_value}")
        set_field(self, "d", d)
        set_field(self, "channel", channel)
        set_field(self, "f_crit", f_crit)
        set_field(self, "strength_at_threshold", strength_at_threshold)
        set_field(self, "formula_value", formula_value)
        set_field(self, "direct_value", direct_value)


class WernerGap(Record):
    __slots__ = ("d", "channel", "bell_threshold", "detection_threshold",
                 "gap")

    def __init__(self, d: int, channel: ChannelKind, bell_threshold: float,
                 detection_threshold: float, gap: float):
        set_field(self, "d", d)
        set_field(self, "channel", channel)
        set_field(self, "bell_threshold", bell_threshold)
        set_field(self, "detection_threshold", detection_threshold)
        set_field(self, "gap", gap)


def _formula(d: int, kind: ChannelKind, p: float) -> float:
    if kind is ChannelKind.WHITE:
        return float(np.sqrt(p + (1.0 - p) / d ** 2))
    if kind is ChannelKind.DEPOLARIZING:
        r = 1.0 - p
        return float(np.sqrt((1.0 - r) ** 2 + r * (2.0 - r) / d ** 2))
    return float(np.sqrt(1.0 + (d - 1.0) * (p * p + 1.0)  # damping
                         + (d - 1.0) ** 2 * p * p) / d)


def critical_fidelity(d: int, kind: ChannelKind) -> FidelityReport:
    """Fidelity of the damaged max-entangled state at its Bell threshold.
    The direct value sums the noisy state's block form in O(d^2) memory:
    <psi|rho|psi> = sum_i c_i^2 P(i, i) + sum_{j != k} c_j^2 c_k^2 p^e_jk."""
    if kind not in (ChannelKind.WHITE, ChannelKind.DEPOLARIZING,
                    ChannelKind.AMPLITUDE_DAMPING):
        raise UnsupportedChannel(
            f"no critical fidelity defined for channel {kind.value}")
    psi = max_entangled(d)
    p = critical_lr(psi, kind).value
    spec = ChannelSpec.from_noise_free_fraction(kind, p)
    stacks, far = block_form(psi.coeffs[None, :], kind)
    csq = psi.coeffs * psi.coeffs
    js, ks = np.triu_indices(d, 1)
    pairs = csq[js] * csq[ks]
    populations = sum(p ** k * s[0].diagonal() for k, s in enumerate(stacks))
    direct = csq @ populations \
        + 2.0 * (p * np.sum(pairs[:far]) + p * p * np.sum(pairs[far:]))
    formula = _formula(d, kind, p)
    return FidelityReport(d=d, channel=kind, f_crit=formula,
                          strength_at_threshold=spec.strength,
                          formula_value=formula, direct_value=float(
                              np.sqrt(min(max(direct, 0.0), 1.0))))


def werner_gap(d: int, kind: ChannelKind) -> WernerGap:
    """Bell and detection thresholds of the damaged max-entangled state and
    their difference, the gap."""
    if kind not in (ChannelKind.DEPOLARIZING, ChannelKind.AMPLITUDE_DAMPING):
        raise UnsupportedChannel(
            f"gap defined only for the Kraus channels, not {kind.value}")
    psi = max_entangled(d)
    p_lr = critical_lr(psi, kind).value
    p_ent = critical_analytic(d, kind).value
    return WernerGap(d, kind, p_lr, p_ent, float(p_lr - p_ent))
