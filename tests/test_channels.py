"""Noise channels: Kraus algebra, known outputs, dispatcher behavior."""

import numpy as np
import pytest

from qnl.channels import (ChannelKind, ChannelSpec, amplitude_damping_kraus,
                          apply_local_channel, block_form, channel_output,
                          depolarize_pair)
from qnl.errors import StrengthOutOfRange, UnsupportedChannel
from qnl.states import max_entangled, schmidt_state, to_density

from oracles import (apply_single, depolarizing_kraus, looped_damping_kraus,
                     populations)

STRENGTHS = (0.0, 0.25, 0.5, 0.75, 1.0)
# channel_output's rho against the block form's table, entry by entry:
# measured at most 3.3e-16 (amplitude damping) and 1.1e-16 under the other
# kinds, over d = 2-5 with 30 random inputs and p in {0, 1, random} each
TABLE_TOL = 2 * np.finfo(float).eps


def test_channel_spec_parse():
    spec = ChannelSpec.parse("depol:0.3")
    assert spec.kind is ChannelKind.DEPOLARIZING
    assert spec.strength == 0.3
    assert spec.noise_free_fraction == pytest.approx(0.7)
    assert ChannelSpec.parse("white:0.6").noise_free_fraction == 0.6


def test_channel_spec_parse_rejects_garbage():
    with pytest.raises(UnsupportedChannel):
        ChannelSpec.parse("white")
    with pytest.raises(UnsupportedChannel):
        ChannelSpec.parse("pink:0.5")
    with pytest.raises(UnsupportedChannel):
        ChannelSpec.parse("white:lots")
    with pytest.raises(StrengthOutOfRange):
        ChannelSpec.parse("white:1.5")


@pytest.mark.parametrize("strength", ["0.5", 1, np.float32(0.25),
                                      np.float64(0.75)])
def test_channel_spec_stores_the_checked_float(strength):
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, strength)
    assert type(spec.strength) is float
    assert spec.strength == float(strength)
    assert spec.noise_free_fraction == 1.0 - float(strength)


def test_noise_free_round_trip():
    for kind in ChannelKind:
        spec = ChannelSpec.from_noise_free_fraction(kind, 0.8)
        assert spec.noise_free_fraction == pytest.approx(0.8)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("r", STRENGTHS)
def test_kraus_completeness(d, r):
    for build in (depolarizing_kraus, amplitude_damping_kraus):
        ops = build(d, r).operators
        s = np.einsum("kij,kil->jl", ops.conj(), ops)
        assert np.max(np.abs(s - np.eye(d))) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 9])
@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
def test_amplitude_damping_kraus_equals_looped_oracle(d, r):
    ops = amplitude_damping_kraus(d, r).operators
    expect = looped_damping_kraus(d, r).operators
    assert ops.dtype == expect.dtype
    assert ops.shape == expect.shape
    assert np.array_equal(ops, expect)


def test_amplitude_damping_single_qubit_known_action():
    # hand-built d=2 damping operators applied with explicit loops
    r = 0.37
    e0 = np.array([[1, 0], [0, np.sqrt(1 - r)]], dtype=complex)
    e1 = np.array([[0, np.sqrt(r)], [0, 0]], dtype=complex)
    rho = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]], dtype=complex)
    by_hand = e0 @ rho @ e0.conj().T + e1 @ rho @ e1.conj().T
    out = apply_single(amplitude_damping_kraus(2, r), rho)
    assert np.max(np.abs(out - by_hand)) < 1e-14


def test_depolarizing_single_action_is_affine():
    rng = np.random.default_rng(9)
    for d in (2, 3, 5):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        r = 0.4
        out = apply_single(depolarizing_kraus(d, r), rho)
        expect = (1 - r) * rho + r * np.eye(d) / d
        assert np.max(np.abs(out - expect)) < 1e-12


def test_two_sided_depolarizing_on_max_entangled():
    # product of local depolarizings collapses to a two-term mixture here
    for d in (2, 3):
        rho = to_density(max_entangled(d))
        for r in (0.2, 0.6):
            out = depolarize_pair(rho, r)
            keep = (1 - r) ** 2
            expect = keep * rho.rho + (1 - keep) * np.eye(d * d) / (d * d)
            assert np.max(np.abs(out.rho - expect)) < 1e-12


def test_depolarize_pair_matches_kraus_path():
    psi = schmidt_state(3, [0.2, 0.4, np.sqrt(0.8)])
    rho = to_density(psi)
    for r in (0.0, 0.3, 1.0):
        fast = depolarize_pair(rho, r)
        slow = apply_local_channel(rho, depolarizing_kraus(3, r))
        assert np.max(np.abs(fast.rho - slow.rho)) < 1e-12


def test_apply_local_channel_is_linear():
    k = amplitude_damping_kraus(2, 0.5)
    r1 = to_density(max_entangled(2))
    r2 = to_density(schmidt_state(2, [1.0, 0.0]))
    mix = 0.3
    from qnl.states import TwoQuditState
    blended = TwoQuditState(2, mix * r1.rho + (1 - mix) * r2.rho)
    out = apply_local_channel(blended, k)
    o1 = apply_local_channel(r1, k)
    o2 = apply_local_channel(r2, k)
    assert np.max(np.abs(out.rho - mix * o1.rho - (1 - mix) * o2.rho)) < 1e-12


def test_white_noise_endpoints():
    psi = max_entangled(3)
    clean = channel_output(psi, ChannelSpec(ChannelKind.WHITE, 1.0))
    mixed = channel_output(psi, ChannelSpec(ChannelKind.WHITE, 0.0))
    assert np.max(np.abs(clean.rho - to_density(psi).rho)) < 1e-14
    assert np.max(np.abs(mixed.rho - np.eye(9) / 9)) < 1e-14


def test_product_noise_mixes_in_own_marginals():
    psi = schmidt_state(2, [0.6, 0.8])
    out = channel_output(psi, ChannelSpec(ChannelKind.PRODUCT, 0.0))
    expect = np.kron(np.diag([0.36, 0.64]), np.diag([0.36, 0.64]))
    assert np.max(np.abs(out.rho - expect)) < 1e-14


def test_colored_noise_structure():
    d, v = 3, 0.4
    out = channel_output(max_entangled(d),
                         ChannelSpec(ChannelKind.COLORED, v))
    mes = to_density(max_entangled(d)).rho
    diff = out.rho - v * mes
    # the non-signal weight all sits on the top-level product state
    assert diff[8, 8] == pytest.approx(1 - v)
    diff[8, 8] = 0.0
    assert np.max(np.abs(diff)) < 1e-14


def test_amplitude_damping_full_decay():
    for d in (2, 4):
        out = channel_output(max_entangled(d), ChannelSpec(ChannelKind.AMPLITUDE_DAMPING, 1.0))
        expect = np.zeros((d * d, d * d), dtype=complex)
        expect[0, 0] = 1.0
        assert np.max(np.abs(out.rho - expect)) < 1e-12


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("strength", STRENGTHS)
def test_channel_outputs_are_valid_states(kind, strength):
    # TwoQuditState's constructor enforces the density-matrix invariants
    for d in (2, 3, 4):
        out = channel_output(max_entangled(d), ChannelSpec(kind, strength))
        assert out.d == d
        assert np.trace(out.rho).real == pytest.approx(1.0, abs=1e-10)


def test_colored_channel_rejects_general_states():
    psi = schmidt_state(2, [0.6, 0.8])
    with pytest.raises(UnsupportedChannel):
        channel_output(psi, ChannelSpec(ChannelKind.COLORED, 0.5))


def test_kind_metadata():
    assert ChannelKind.DEPOLARIZING.is_kraus
    assert ChannelKind.AMPLITUDE_DAMPING.is_kraus
    assert not ChannelKind.WHITE.is_kraus
    assert ChannelKind.WHITE.parameter_name == "v"
    assert ChannelKind.AMPLITUDE_DAMPING.parameter_name == "p"


def block_table(psi, kind, p):
    """The block form of psi's noisy state at p as a d^2 x d^2 matrix: the
    populations sum_k p^k P_k on the diagonal and c_j c_k p^e on |jj><kk|."""
    d = psi.d
    stacks, far = block_form(psi.coeffs[None, :], kind)
    table = np.diag(sum(p ** k * s[0] for k, s in enumerate(stacks)).ravel())
    js, ks = np.triu_indices(d, 1)
    coherences = psi.coeffs[js] * psi.coeffs[ks] \
        * p ** np.where(np.arange(len(js)) < far, 1, 2)
    table[js * (d + 1), ks * (d + 1)] = coherences
    table[ks * (d + 1), js * (d + 1)] = coherences
    return table


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dense_states_hold_only_the_block_form(d, kind):
    # outside the populations and the |jj><kk| coherences rho is exactly 0
    rng = np.random.default_rng(40 + d)
    if kind is ChannelKind.COLORED:
        inputs = [max_entangled(d)]
    else:
        raw = rng.uniform(0.0, 1.0, size=(4, d))
        raw[rng.random((4, d)) < 0.3] = 0.0  # reduced-rank inputs too
        raw[:, 0] += 1e-3
        inputs = [schmidt_state(d, np.sqrt(r / r.sum())) for r in raw]
    ii = np.arange(d) * (d + 1)
    support = np.eye(d * d, dtype=bool)
    support[np.ix_(ii, ii)] = True
    for psi in inputs:
        for x in (0.0, 1.0, rng.uniform()):
            spec = ChannelSpec.from_noise_free_fraction(kind, x)
            rho = channel_output(psi, spec).rho
            p = spec.noise_free_fraction
            assert np.all(rho[~support] == 0.0)
            assert np.max(np.abs(rho - block_table(psi, kind, p))) <= TABLE_TOL
            oracle = populations(kind, psi.coeffs[None, :], np.array([p]))
            assert np.max(np.abs(np.diagonal(rho) - oracle.ravel())) \
                <= TABLE_TOL

