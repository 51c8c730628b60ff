import numpy as np
import pytest

from qnl.channels import ChannelKind, ChannelSpec, channel_output
from qnl.errors import DimensionMismatch, UnsupportedChannel
from qnl.bell import critical_lr
from qnl.criteria import critical_analytic, critical_bisection
from qnl.fidelity import critical_fidelity, werner_gap
from qnl.states import max_entangled, schmidt_state, to_density

from oracles import fidelity

AD = ChannelKind.AMPLITUDE_DAMPING
DEPOL = ChannelKind.DEPOLARIZING


def test_fidelity_endpoints():
    psi = max_entangled(3)
    assert fidelity(psi, to_density(psi)) == pytest.approx(1.0, abs=1e-12)
    other = schmidt_state(3, [1.0, 0.0, 0.0])
    # overlap of the two kets is 1/sqrt(3)
    assert fidelity(other, to_density(psi)) == pytest.approx(
        3.0 ** -0.5, abs=1e-12)


def test_fidelity_of_white_mixture():
    for d in (2, 4):
        psi = max_entangled(d)
        for v in (0.0, 0.4, 1.0):
            f = fidelity(psi, channel_output(
                psi, ChannelSpec(ChannelKind.WHITE, v)))
            assert f == pytest.approx(
                np.sqrt(v + (1.0 - v) / d ** 2), abs=1e-12)


def test_fidelity_dimension_check():
    with pytest.raises(DimensionMismatch):
        fidelity(max_entangled(2), to_density(max_entangled(3)))


def test_fidelity_of_damped_state():
    # squared overlap with the damped max-entangled state is
    # (1 + (d-1) p^2)/d
    d, r = 3, 0.4
    p = 1.0 - r
    psi = max_entangled(d)
    rho = channel_output(psi, ChannelSpec(AD, r))
    assert fidelity(psi, rho) ** 2 == pytest.approx(
        (1.0 + (d - 1.0) * p * p) / d, abs=1e-12)


@pytest.mark.parametrize("kind,d,expect", [
    (DEPOL, 2, 0.8834), (DEPOL, 3, 0.8544), (DEPOL, 4, 0.8426),
    (AD, 2, 0.8660), (AD, 3, 0.8397), (AD, 4, 0.8298),
])
def test_critical_fidelity_table(kind, d, expect):
    rep = critical_fidelity(d, kind)
    assert rep.f_crit == pytest.approx(expect, abs=5e-4)
    # constructor enforces the formula/direct cross-check at 1e-8
    assert abs(rep.formula_value - rep.direct_value) <= 1e-8


@pytest.mark.parametrize("kind", [ChannelKind.WHITE, DEPOL, AD])
@pytest.mark.parametrize("d", range(2, 9))
def test_direct_value_matches_the_dense_fidelity(d, kind):
    # direct_value sums the block form; <psi|rho|psi> on the dense rho of
    # the same spec is the oracle
    rep = critical_fidelity(d, kind)
    psi = max_entangled(d)
    dense = fidelity(psi, channel_output(
        psi, ChannelSpec(kind, rep.strength_at_threshold)))
    assert abs(rep.direct_value - dense) <= 4 * np.spacing(dense)


def test_critical_fidelity_white_equals_depol():
    # same noise-free weight on the signal term, so the fidelity at the
    # respective thresholds coincides
    for d in (2, 3, 5, 8):
        fw = critical_fidelity(d, ChannelKind.WHITE).f_crit
        fd = critical_fidelity(d, DEPOL).f_crit
        assert abs(fw - fd) <= 1e-8


@pytest.mark.parametrize("kind,gaps", [
    (DEPOL, (0.2637, 0.3344, 0.3838)),
    (AD, (0.2071, 0.2934, 0.3408)),
])
def test_werner_gap_table(kind, gaps):
    vals = [werner_gap(d, kind).gap for d in (2, 3, 4)]
    for got, expect in zip(vals, gaps):
        assert got == pytest.approx(expect, abs=1e-3)
    # the separation widens with dimension
    assert vals[0] < vals[1] < vals[2]


def werner_gap_bisected(d, kind):
    """Oracle: the same gap with the detection threshold from bisection."""
    psi = max_entangled(d)
    p_lr = critical_lr(psi, kind).value
    p_ent = critical_bisection(psi, kind).value
    return float(p_lr - p_ent)


def test_werner_gap_positive_and_cross_checked():
    for kind in (DEPOL, AD):
        for d in (2, 3):
            g = werner_gap(d, kind).gap
            assert g > 0.0
            assert g == pytest.approx(werner_gap_bisected(d, kind), abs=1e-5)


def test_werner_gap_record_holds_both_thresholds():
    for kind in (DEPOL, AD):
        rec = werner_gap(3, kind)
        assert (rec.d, rec.channel) == (3, kind)
        assert rec.bell_threshold == critical_lr(max_entangled(3), kind).value
        assert rec.detection_threshold == critical_analytic(3, kind).value
        assert rec.gap == rec.bell_threshold - rec.detection_threshold


def test_werner_gap_requires_kraus_channel():
    with pytest.raises(UnsupportedChannel):
        werner_gap(3, ChannelKind.PRODUCT)
    with pytest.raises(UnsupportedChannel):
        werner_gap(3, ChannelKind.COLORED)
