"""Pure-vs-mixed fidelity and the derived critical-fidelity / gap figures.

fidelity(psi, rho) = sqrt(<psi| rho |psi>).  Critical fidelities evaluate
a channel's closed form at its own local-realism threshold and cross-check
against a direct construction; the gap figures compare the Bell threshold
with the entanglement-detection threshold, both computed here rather than
transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import critical_lr
from .channels import (
    ChannelKind,
    ChannelSpec,
    channel_output,
)
from .criteria import critical_analytic
from .errors import DimensionMismatch, QnlError, UnsupportedChannel
from .states import SchmidtState, TwoQuditState, max_entangled

CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class FidelityReport:
    d: int
    channel: ChannelKind
    f_crit: float
    strength_at_threshold: float
    formula_value: float
    direct_value: float

    def __post_init__(self):
        if abs(self.formula_value - self.direct_value) > CROSS_CHECK_TOL:
            raise QnlError(
                "closed-form and direct fidelity disagree: "
                f"{self.formula_value} vs {self.direct_value}")


@dataclass(frozen=True)
class WernerGap:
    d: int
    channel: ChannelKind
    bell_threshold: float
    detection_threshold: float
    gap: float


def fidelity(psi: SchmidtState, rho: TwoQuditState) -> float:
    if psi.d != rho.d:
        raise DimensionMismatch(f"state d={psi.d} vs rho d={rho.d}")
    v = psi.ket()
    val = float(np.real(v.conj() @ rho.rho @ v))
    return float(np.sqrt(min(max(val, 0.0), 1.0)))


def _formula(d: int, kind: ChannelKind, p: float) -> float:
    if kind is ChannelKind.WHITE:
        return float(np.sqrt(p + (1.0 - p) / d ** 2))
    if kind is ChannelKind.DEPOLARIZING:
        r = 1.0 - p
        return float(np.sqrt((1.0 - r) ** 2 + r * (2.0 - r) / d ** 2))
    return float(np.sqrt(1.0 + (d - 1.0) * (p * p + 1.0)  # damping
                         + (d - 1.0) ** 2 * p * p) / d)


def critical_fidelity(d: int, kind: ChannelKind) -> FidelityReport:
    """Fidelity of the damaged max-entangled state at its Bell threshold."""
    if kind not in (ChannelKind.WHITE, ChannelKind.DEPOLARIZING,
                    ChannelKind.AMPLITUDE_DAMPING):
        raise UnsupportedChannel(
            f"no critical fidelity defined for channel {kind.value}")
    psi = max_entangled(d)
    p = critical_lr(psi, kind).value
    spec = ChannelSpec.from_noise_free_fraction(kind, p)
    direct = fidelity(psi, channel_output(psi, spec))
    formula = _formula(d, kind, p)
    return FidelityReport(d=d, channel=kind, f_crit=formula,
                          strength_at_threshold=spec.strength,
                          formula_value=formula, direct_value=direct)


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
