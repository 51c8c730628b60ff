"""Inequality values, closed-form probabilities, thresholds, optimizer."""

import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, logm
from scipy.optimize import minimize

import qnl.bell
from qnl.bell import (ALPHA_PHASES, BETA_PHASES, LOCAL_BOUND,
                      MeasurementSettings, _bell_profile,
                      _damping_quadratic,
                      _generator_eigh, _inequality_value,
                      _outcome_weights, _qubit_block_settings,
                      _rotated_settings, _settings_objective,
                      ad_probability_table,
                      catalan_constant, cglmp_ad_infinite, cglmp_ad_value,
                      cglmp_settings, cglmp_value, critical_lr,
                      infinite_threshold, optimize_settings,
                      probability_table)
from qnl.channels import (ChannelKind, ChannelSpec, amplitude_damping_kraus,
                          apply_local_channel, channel_output,
                          depolarize_pair)
from qnl.cli import main
from qnl.descent import (BFGS_GTOL, WOLFE_C1, WOLFE_C2, WOLFE_TRIES,
                         update_inverse_hessian, wolfe_step)
from qnl.errors import (DimensionMismatch, NonMonotonic, NoViolation,
                        UnsupportedChannel)
from qnl.gellmann import gellmann_basis
from qnl.solver import confirm_bracket
from qnl.states import (TwoQuditState, max_entangled, qutrit_family,
                        schmidt_state, to_density)

from oracles import (block_damping_quadratic, catalan_series,
                     decimal_bell_profile, profile_block,
                     sequential_optimize_settings,
                     settings_value_and_gradient)

AD = ChannelKind.AMPLITUDE_DAMPING
DATA = Path(__file__).resolve().parent / "data"


# Scalar oracles: the loops the array code in qnl.bell replaced.  The
# array code must reproduce them bit for bit.

def settings_oracle(d):
    j = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    av = np.empty((2, d, d), dtype=complex)
    bv = np.empty((2, d, d), dtype=complex)
    for s, alpha in enumerate(ALPHA_PHASES):
        for a in range(d):
            av[s, a] = omega ** (j * (a + alpha)) / np.sqrt(d)
    for t, beta in enumerate(BETA_PHASES):
        for b in range(d):
            bv[t, b] = omega ** (j * (-b + beta)) / np.sqrt(d)
    return av, bv


def closed_form_oracle(d, r, s, t, a, b):
    """Joint probability of the damped max-entangled state, one entry."""
    gamma = a - b + ALPHA_PHASES[s] + BETA_PHASES[t]
    x = np.pi * gamma / d
    kernel = ((1.0 - r) * np.sin((d - 1.0) * x) ** 2 / np.sin(x) ** 2
              + np.sin((2.0 * d - 1.0) * x) / np.sin(x) - 1.0)
    return float((1.0 - (d - 1.0) * (r - 2.0) * r) / d ** 3
                 + (1.0 - r) / d ** 3 * kernel)


def sum_a_eq_b_plus(p, k):
    """P(A = B + k) from one setting pair's d x d table."""
    d = p.shape[0]
    n = np.arange(d)
    return float(np.sum(p[(n + k) % d, n]))


def sum_b_eq_a_plus(p, k):
    d = p.shape[0]
    n = np.arange(d)
    return float(np.sum(p[n, (n + k) % d]))


def inequality_oracle(table):
    d = table.shape[2]
    p11, p12 = table[0, 0], table[0, 1]
    p21, p22 = table[1, 0], table[1, 1]

    def constituent(k):
        return (sum_a_eq_b_plus(p11, k)
                + sum_b_eq_a_plus(p21, k + 1)
                + sum_a_eq_b_plus(p22, k)
                + sum_b_eq_a_plus(p12, k))

    total = 0.0
    for k in range(d // 2):
        weight = 1.0 - 2.0 * k / (d - 1.0)
        total += weight * (constituent(k) - constituent(-(k + 1)))
    return total


def born_einsum_oracle(rho, m):
    """Born rule as one five-operand einsum per setting pair."""
    d = rho.d
    r4 = rho.rho.reshape(d, d, d, d)
    out = np.empty((2, 2, d, d))
    for s in range(2):
        for t in range(2):
            out[s, t] = np.einsum("ai,bj,ijkl,ak,bl->ab",
                                  m.a_vectors[s].conj(),
                                  m.b_vectors[t].conj(), r4,
                                  m.a_vectors[s], m.b_vectors[t],
                                  optimize="greedy").real
    return out


def rotate(base, thetas, mats):
    return _rotated_settings(base, *_generator_eigh(thetas, mats))


def rotated_settings_expm_oracle(base, thetas, mats):
    """Each (party, setting) basis conjugated by its own expm."""
    av = np.empty_like(base.a_vectors)
    bv = np.empty_like(base.b_vectors)
    for s in range(2):
        ua = expm(1j * np.einsum("a,aij->ij", thetas[s], mats))
        ub = expm(1j * np.einsum("a,aij->ij", thetas[2 + s], mats))
        av[s] = base.a_vectors[s] @ ua.T
        bv[s] = base.b_vectors[s] @ ub.T
    return av, bv


def qubit_block_thetas_oracle(d, mats):
    """Angles that rotate the standard settings onto the two-level embedding
    of the qubit settings, by matrix logarithm."""
    std = cglmp_settings(d)
    two = cglmp_settings(2)
    thetas = np.zeros((4, d * d - 1))
    for slot in range(4):
        party, s = divmod(slot, 2)
        base = std.a_vectors[s] if party == 0 else std.b_vectors[s]
        small = two.a_vectors[s] if party == 0 else two.b_vectors[s]
        target = np.eye(d, dtype=complex)
        target[:2, :2] = small
        u = target.T @ base.conj()  # sends each base row to its target row
        h = -1j * logm(u)
        h -= np.trace(h) / d * np.eye(d)
        h = 0.5 * (h + h.conj().T)
        thetas[slot] = 0.5 * np.einsum("aij,ji->a", mats, h).real
    return thetas


def random_mixed(rng, d):
    g = rng.standard_normal((d * d, d * d)) \
        + 1j * rng.standard_normal((d * d, d * d))
    rho = g @ g.conj().T
    return TwoQuditState(d, rho / np.trace(rho).real)


def damped_value_oracle(state, p):
    """Born-rule inequality value of the Kraus-damped state at fraction p."""
    rho = apply_local_channel(to_density(state),
                              amplitude_damping_kraus(state.d, 1.0 - p))
    return cglmp_value(rho).i_d


def damping_threshold_oracle(state):
    """Bell threshold under damping: Born values of the Kraus-damped state,
    bisected to width 1e-8."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if damped_value_oracle(state, mid) > LOCAL_BOUND:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bell_operator_oracle(d):
    """Dense W = sum w |A_s[a] B_t[b]><A_s[a] B_t[b]|, every weight the value
    of one of the 4 d^2 unit tables."""
    units = np.eye(4 * d * d).reshape(-1, 2, 2, d, d)
    w = [_inequality_value(u) for u in units]
    m = cglmp_settings(d)
    phi = (m.a_vectors[:, None, :, None, :, None]
           * m.b_vectors[None, :, None, :, None, :]).reshape(-1, d * d)
    return (phi.T * w) @ phi.conj()


def bell_block_oracle(d):
    """Bell block <ii|W|jj> from unit tables: each weight w[s, t, a - b] is
    the value of one of the 4 d unit tables with b = 0, and each setting
    pair's outcome amplitudes <ii|A_s[a] B_t[b]> are contracted by matmul."""
    n, m = np.arange(d), cglmp_settings(d)
    w = np.array([_inequality_value(u.reshape(2, 2, d, 1) * (n == 0))
                  for u in np.eye(4 * d)]).reshape(2, 2, d)  # [s, t, a - b]
    block = np.zeros((d, d))
    for s, t in np.ndindex(2, 2):
        # <ii|A_s[a] B_t[b]> per outcome pair (a, b); a - b < 0 wraps mod d
        amp = (m.a_vectors[s, :, None] * m.b_vectors[t]).reshape(-1, d)
        block += ((amp.T * w[s, t, n[:, None] - n].ravel()) @ amp.conj()).real
    return block


def random_schmidt(rng, d):
    raw = rng.uniform(0.05, 1.0, size=d)
    return schmidt_state(d, np.sqrt(raw / raw.sum()))


def powell_oracle(rho, restarts, seed):
    """The derivative-free settings search optimize_settings replaced:
    Powell on the Born value from the same starts, at most 500 evaluations
    each."""
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
        return cglmp_value(rho, rotate(base, x.reshape(4, -1), mats))

    best = cglmp_value(rho, std)
    for base, x0 in starts:
        res = minimize(lambda x: -value_at(base, x).i_d, x0, method="Powell",
                       options={"maxfev": 500, "xtol": 1e-4, "ftol": 1e-8})
        if -res.fun > best.i_d:
            best = value_at(base, res.x)
    return best


def central_difference_oracle(rho, base, thetas, mats, h=1e-5):
    """dI/dtheta of the Born value, one central difference per angle."""
    grad = np.empty_like(thetas)
    for idx in np.ndindex(thetas.shape):
        step = np.zeros_like(thetas)
        step[idx] = h
        grad[idx] = (cglmp_value(rho, rotate(base, thetas + step, mats)).i_d
                     - cglmp_value(rho, rotate(base, thetas - step, mats))
                     .i_d) / (2.0 * h)
    return grad


@pytest.mark.parametrize("d", range(2, 11))
def test_settings_match_scalar_oracle(d):
    av, bv = settings_oracle(d)
    m = cglmp_settings(d)
    assert np.array_equal(m.a_vectors, av)
    assert np.array_equal(m.b_vectors, bv)


@pytest.mark.parametrize("d", list(range(2, 21)) + [40, 100])
def test_closed_form_table_matches_scalar_oracle(d):
    for r in (0.0, 0.37, 1.0):
        table = ad_probability_table(d, r)
        assert table.shape == (2, 2, d, d)
        for idx in np.ndindex(table.shape):
            assert table[idx] == closed_form_oracle(d, r, *idx), (r, idx)


@pytest.mark.parametrize("d", range(2, 17))
def test_probability_table_matches_einsum_oracle(d):
    rng = np.random.default_rng(200 + d)
    psi = random_schmidt(rng, d)
    mats = gellmann_basis(d).matrices
    std = cglmp_settings(d)
    rotated = rotate(std, 0.4 * rng.standard_normal((4, d * d - 1)), mats)
    for kind in ChannelKind:
        # colored noise is defined for the max-entangled input only
        src = max_entangled(d) if kind is ChannelKind.COLORED else psi
        rho = channel_output(src, ChannelSpec(kind, 0.3))
        for m in (std, rotated):
            table = probability_table(rho, m)
            assert table.shape == (2, 2, d, d)
            assert np.max(np.abs(table - born_einsum_oracle(rho, m))) \
                <= 1e-15, kind


@pytest.mark.parametrize("d", range(2, 7))
def test_rotated_settings_match_expm_oracle(d):
    rng = np.random.default_rng(300 + d)
    mats = gellmann_basis(d).matrices
    base = cglmp_settings(d)
    for scale in (0.05, 0.4, 1.5):
        thetas = scale * rng.standard_normal((4, d * d - 1))
        m = rotate(base, thetas, mats)
        av, bv = rotated_settings_expm_oracle(base, thetas, mats)
        assert np.max(np.abs(m.a_vectors - av)) <= 1e-13, scale
        assert np.max(np.abs(m.b_vectors - bv)) <= 1e-13, scale


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9, 13, 16, 40])
def test_inequality_value_matches_scalar_oracle(d):
    tables = [ad_probability_table(d, r) for r in (0.0, 0.2, 0.85)]
    if d <= 16:  # Born tables of random damped Schmidt states
        rng = np.random.default_rng(d)
        tables += [probability_table(channel_output(random_schmidt(rng, d),
                                                    ChannelSpec(AD, r)))
                   for r in (0.0, 0.3)]
    for table in tables:
        assert _inequality_value(table) == inequality_oracle(table)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
def test_damping_threshold_matches_scalar_bisection(monkeypatch, d):
    # the quadratic's closed-form root is confirmed by at most two
    # verdicts, where bisecting to width 1e-8 takes 27
    calls = []

    def counted(fired, guess):
        return confirm_bracket(
            lambda p, rows: calls.append(p) or fired(p, rows), guess)

    monkeypatch.setattr(qnl.bell, "confirm_bracket", counted)
    psi = max_entangled(d)
    assert critical_lr(psi, AD).value == damping_threshold_oracle(psi)
    assert 0 < len(calls) <= 2


@pytest.mark.parametrize("d", [3, 4, 6, 10])
def test_born_damping_threshold_matches_scalar_bisection(d):
    psi = random_schmidt(np.random.default_rng(100 + d), d)
    assert critical_lr(psi, AD).value == damping_threshold_oracle(psi)


@pytest.mark.parametrize("d", range(2, 9))
def test_product_basis_states_have_zero_value(d):
    # W has zero diagonal in the product basis, so the Bell block of the
    # Schmidt basis carries every value critical_lr needs
    for j in range(d):
        for k in range(d):
            rho = np.zeros((d * d, d * d), dtype=complex)
            rho[j * d + k, j * d + k] = 1.0
            value = cglmp_value(TwoQuditState(d, rho)).i_d
            assert abs(value) <= 1e-14, (j, k)


@pytest.mark.parametrize("d", range(2, 9))
def test_bell_block_is_schmidt_block_of_dense_operator(d):
    schmidt = np.arange(d) * (d + 1)  # |ii> in the product basis
    dense = bell_operator_oracle(d)[np.ix_(schmidt, schmidt)]
    assert np.max(np.abs(profile_block(d) - dense.real)) <= 1e-14


@pytest.mark.parametrize("d", range(2, 41))
def test_bell_block_matches_unit_table_oracle(d):
    # the closed-form ramp weights and Toeplitz profile against the
    # weights _inequality_value gives each unit table
    assert np.max(np.abs(profile_block(d) - bell_block_oracle(d))) <= 1e-14


@pytest.mark.parametrize("d", range(2, 12))
def test_outcome_weights_match_unit_tables(d):
    # the weights the settings gradient reads, against the value
    # _inequality_value gives each of the 4 d^2 unit tables
    units = np.eye(4 * d * d).reshape(-1, 2, 2, d, d)
    w = np.array([_inequality_value(u) for u in units]).reshape(2, 2, d, d)
    g = _outcome_weights(d).reshape(2, d, 2, d).transpose(0, 2, 1, 3)
    assert np.max(np.abs(g - w)) <= 2.3e-16  # one ulp of 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 1.0, allow_nan=False))
def test_damping_quadratic_matches_born_value(d, seed, p):
    psi = random_schmidt(np.random.default_rng(seed), d)
    q0, q1, q2 = _damping_quadratic(psi)
    assert abs(q0 + q1 * p + q2 * p * p - damped_value_oracle(psi, p)) \
        <= 1e-13


@pytest.mark.parametrize("m01, m11", [(-1.0, 8.0), (1.0, -2.0)])
def test_dipping_damping_value_raises(monkeypatch, m01, m11):
    # the quadratics the blocks [[m00, m01], [m01, m11]] give the d = 2
    # max-entangled state: I(p) = 1 - p + 4 p^2 dips after p = 0;
    # 2.5 + p - p^2 falls before p = 1; both end above the bound
    m00 = 2.0 if m01 < 0.0 else 5.0
    q = np.array([m00 / 2.0, m01, m11 / 2.0])
    monkeypatch.setattr(qnl.bell, "_damping_quadratic", lambda state: q)
    assert sum(q) > LOCAL_BOUND
    with pytest.raises(NonMonotonic):
        critical_lr(max_entangled(2), AD)


@pytest.mark.parametrize("d", range(2, 65))
def test_damping_quadratic_matches_block_oracle(monkeypatch, d):
    # the profile sums against the matrix-vector products on the d x d
    # block, and the damping thresholds bisected on each bit for bit
    rng = np.random.default_rng(200 + d)
    for psi in [max_entangled(d)] + [random_schmidt(rng, d)
                                     for _ in range(4)]:
        q, q_block = _damping_quadratic(psi), block_damping_quadratic(psi)
        assert np.all(np.abs(q - q_block) <= 1e-14 * np.abs(q_block))
        value = critical_lr(psi, AD).value
        with monkeypatch.context() as patched:
            patched.setattr(qnl.bell, "_damping_quadratic",
                            block_damping_quadratic)
            assert value == critical_lr(psi, AD).value


def grid_verdict_oracle(state):
    """The verdict of the 200-point Born grid that critical_lr once ran."""
    vals = [damped_value_oracle(state, p) for p in np.linspace(0.0, 1.0, 200)]
    if np.any(np.diff(vals) < -1e-9):
        return NonMonotonic
    return NoViolation if vals[-1] <= LOCAL_BOUND else None


def test_damping_verdicts_match_born_grid():
    rng = np.random.default_rng(5)
    verdicts = []
    for i in range(12):
        d = 2 + i % 4
        raw = rng.uniform(0.0, 1.0, size=d) ** 3  # weak states too
        psi = schmidt_state(d, np.sqrt(raw / raw.sum()))
        try:
            critical_lr(psi, AD)
            verdict = None
        except (NoViolation, NonMonotonic) as exc:
            verdict = type(exc)
        assert verdict is grid_verdict_oracle(psi), psi.coeffs
        verdicts.append(verdict)
    assert NoViolation in verdicts and None in verdicts


@pytest.mark.parametrize("d", range(2, 11))
def test_qubit_embedding_start_is_finite(d):
    # MeasurementSettings checks shape and orthonormality on construction
    m = _qubit_block_settings(d)
    assert m.d == d
    assert np.all(np.isfinite(m.a_vectors))
    assert np.all(np.isfinite(m.b_vectors))


@pytest.mark.parametrize("d", range(2, 11))
def test_qubit_block_settings_match_logm_oracle(d):
    mats = gellmann_basis(d).matrices
    rotated = rotate(cglmp_settings(d), qubit_block_thetas_oracle(d, mats),
                     mats)
    direct = _qubit_block_settings(d)
    rng = np.random.default_rng(500 + d)
    for _ in range(3):
        rho = random_mixed(rng, d)
        assert np.max(np.abs(probability_table(rho, direct)
                             - probability_table(rho, rotated))) <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_settings_are_orthonormal_bases(d):
    m = cglmp_settings(d)
    for s in range(2):
        for vec in (m.a_vectors[s], m.b_vectors[s]):
            gram = vec.conj() @ vec.T
            assert np.max(np.abs(gram - np.eye(d))) < 1e-12


def test_settings_phase_structure():
    d = 3
    m = cglmp_settings(d)
    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    # party A, second setting carries the half-step phase offset
    expect = omega ** (j * (1 + 0.5)) / np.sqrt(d)
    assert np.max(np.abs(m.a_vectors[1, 1] - expect)) < 1e-12
    expect_b = omega ** (j * (-2 - 0.25)) / np.sqrt(d)
    assert np.max(np.abs(m.b_vectors[1, 2] - expect_b)) < 1e-12


def test_settings_validation():
    d = 3
    good = cglmp_settings(d)
    a, b = np.array(good.a_vectors), np.array(good.b_vectors)
    b_bad = b.copy()
    b_bad[1, 2] = b_bad[1, 0]  # only party B's setting 1 repeats a row
    a_bad = a.copy()
    a_bad[0, 1] *= 1.0 + 1e-6  # only party A's setting 0, off by the norm
    for av, bv in ((a, b_bad),          # the last of the four bases
                   (a, b[:, :2]),       # wrong shapes
                   (a[:, :, :2], b),
                   (a_bad, b)):         # party A bad alone
        with pytest.raises(DimensionMismatch):
            MeasurementSettings(d=d, a_vectors=av, b_vectors=bv)
    MeasurementSettings(d=d, a_vectors=a, b_vectors=b)


def test_qubit_value_is_chsh_maximum():
    bv = cglmp_value(to_density(max_entangled(2)))
    assert bv.i_d == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    assert bv.violated


def test_qutrit_value_matches_closed_form():
    # known maximum for the unoptimized settings: 4/(6 sqrt(3) - 9)
    bv = cglmp_value(to_density(max_entangled(3)))
    assert bv.i_d == pytest.approx(4.0 / (6.0 * np.sqrt(3.0) - 9.0),
                                   abs=1e-12)


def test_values_grow_with_dimension():
    vals = [cglmp_value(to_density(max_entangled(d))).i_d
            for d in range(2, 7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < cglmp_ad_infinite(0.0)


def test_product_state_stays_below_bound():
    bv = cglmp_value(to_density(schmidt_state(3, [1.0, 0.0, 0.0])))
    assert bv.i_d <= 2.0 + 1e-12
    assert not bv.violated


def test_probability_tables_normalized():
    for d in (2, 3, 5):
        rho = channel_output(max_entangled(d), ChannelSpec(AD, 0.45))
        table = probability_table(rho)
        sums = table.sum(axis=(2, 3))
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        assert table.min() > -1e-15


def test_outcome_shift_sums_collapse_to_single_entry():
    # for the damped max-entangled state the table only depends on the
    # outcome difference, so each shift sum is d times one entry
    d = 4
    rho = channel_output(max_entangled(d), ChannelSpec(AD, 0.3))
    table = probability_table(rho)
    for s in range(2):
        for t in range(2):
            for k in range(d):
                lhs = sum_a_eq_b_plus(table[s, t], k)
                assert lhs == pytest.approx(d * table[s, t, k % d, 0],
                                            abs=1e-12)


def test_four_constituents_are_equal_for_damped_mes():
    d = 3
    table = ad_probability_table(d, 0.25)
    p11, p12, p21, p22 = table[0, 0], table[0, 1], table[1, 0], table[1, 1]
    for k in (0, 1, -1):
        parts = [sum_a_eq_b_plus(p11, k),
                 sum_b_eq_a_plus(p21, k + 1),
                 sum_a_eq_b_plus(p22, k),
                 sum_b_eq_a_plus(p12, k)]
        assert np.max(np.abs(np.diff(parts))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_closed_form_probability_matches_born_rule(d, r):
    rho = channel_output(max_entangled(d), ChannelSpec(AD, r))
    born = probability_table(rho)
    assert np.max(np.abs(ad_probability_table(d, r) - born)) <= 1e-10


def test_ad_value_closed_path_equals_kraus_path():
    d, r = 3, 0.35
    closed = cglmp_ad_value(d, r).i_d
    rho = apply_local_channel(to_density(max_entangled(d)),
                              amplitude_damping_kraus(d, r))
    assert closed == pytest.approx(cglmp_value(rho).i_d, abs=1e-12)


def test_white_noise_thresholds():
    assert critical_lr(max_entangled(2), ChannelKind.WHITE).value == \
        pytest.approx(2.0 ** -0.5, abs=1e-9)
    assert critical_lr(max_entangled(3), ChannelKind.WHITE).value == \
        pytest.approx(0.6962, abs=1e-3)
    assert critical_lr(max_entangled(4), ChannelKind.WHITE).value == \
        pytest.approx(0.6906, abs=1e-3)


def test_depol_threshold_is_sqrt_of_white():
    for d in (2, 3):
        w = critical_lr(max_entangled(d), ChannelKind.WHITE).value
        p = critical_lr(max_entangled(d), ChannelKind.DEPOLARIZING).value
        assert p == pytest.approx(np.sqrt(w), abs=1e-12)


def test_damping_threshold_values():
    assert critical_lr(max_entangled(2), AD).value == pytest.approx(
        0.7071, abs=1e-3)
    assert critical_lr(max_entangled(3), AD).value == pytest.approx(
        0.7468, abs=1e-3)


def test_family_point_thresholds_under_damping():
    val = critical_lr(qutrit_family(7 * np.pi / 18, np.pi / 4), AD).value
    assert val == pytest.approx(0.8640, abs=1e-3)
    val = critical_lr(qutrit_family(4 * np.pi / 15, np.pi / 4), AD).value
    assert val == pytest.approx(0.7429, abs=1e-3)
    val = critical_lr(qutrit_family(0.8730, 0.6449), AD).value
    assert val == pytest.approx(0.7316, abs=1e-3)


def test_no_violation_raised_for_weak_states():
    with pytest.raises(NoViolation):
        critical_lr(schmidt_state(3, [1.0, 0.0, 0.0]), ChannelKind.WHITE)
    with pytest.raises(NoViolation):
        critical_lr(schmidt_state(3, [1.0, 0.0, 0.0]), AD)
    with pytest.raises(UnsupportedChannel):
        critical_lr(max_entangled(3), ChannelKind.COLORED)


def test_white_family_minimum_prefers_middle_slot():
    # scan the family for the lowest white-noise threshold; the best state
    # carries its small coefficient on the middle level
    best = (2.0, None)
    for a in np.linspace(0.55, 1.25, 29):
        for b in np.linspace(0.35, 1.05, 29):
            bv = cglmp_value(to_density(qutrit_family(a, b)))
            if bv.i_d > 2.0 and 2.0 / bv.i_d < best[0]:
                best = (2.0 / bv.i_d, (a, b))

    def v_of(x):
        return 2.0 / cglmp_value(to_density(qutrit_family(*x))).i_d

    res = minimize(v_of, best[1], method="Nelder-Mead",
                   options={"xatol": 1e-7, "fatol": 1e-12})
    assert res.fun == pytest.approx(0.6861, abs=1e-3)
    coeffs = np.sort(qutrit_family(*res.x).coeffs)
    assert np.allclose(coeffs, [0.4888, 0.6169, 0.6169], atol=2e-3)
    # the middle Schmidt level carries the odd coefficient out
    assert qutrit_family(*res.x).coeffs[1] == pytest.approx(0.4888, abs=2e-3)


def test_catalan_constant():
    # the double nearest G = 0.91596559417721901505460351493238411077...
    g = Fraction("0.91596559417721901505460351493238411077")
    value = catalan_constant()
    for neighbour in (math.nextafter(value, 0.0), math.nextafter(value, 1.0)):
        assert abs(Fraction(value) - g) < abs(Fraction(neighbour) - g)
    assert abs(value - catalan_series()) <= 1e-12


def test_infinite_limit_values():
    assert cglmp_ad_infinite(0.0) == pytest.approx(2.9698, abs=1e-4)
    # quadratic decay in the damping strength
    assert cglmp_ad_infinite(0.4) == pytest.approx(
        0.36 * cglmp_ad_infinite(0.0), abs=1e-12)
    thr = infinite_threshold()
    assert thr == pytest.approx(0.8206, abs=1e-4)
    assert (1.0 - thr) ** 0 * cglmp_ad_infinite(1.0 - thr) == pytest.approx(
        2.0, abs=1e-12)


def test_finite_dimension_approaches_limit():
    i40 = cglmp_ad_value(40, 0.0).i_d
    i100 = cglmp_ad_value(100, 0.0).i_d
    lim = cglmp_ad_infinite(0.0)
    assert abs(i100 - lim) < abs(i40 - lim)
    assert abs(i100 - lim) / lim < 0.02


def test_large_dimension_approaches_infinite_forms():
    # the max-entangled value and damping threshold at finite d close in
    # on the paper's d -> infinity forms
    errors = []
    for d in (100, 1000, 3000, 20000):
        psi = max_entangled(d)
        value = sum(_damping_quadratic(psi))  # c^T M c
        errors.append((abs(value - cglmp_ad_infinite(0.0)),
                       abs(critical_lr(psi, AD).value
                           - infinite_threshold())))
    (i100, t100), (i1000, t1000), (i3000, t3000), (i20k, t20k) = errors
    assert i100 > i1000 > i3000 > i20k and t100 > t1000 > t3000 > t20k
    assert i3000 <= 1.5e-4 and t3000 <= 3e-4
    assert i20k <= 2e-5 and t20k <= 5e-5


@pytest.mark.parametrize("d", range(2, 65))
def test_bell_profile_centre_is_exactly_zero(d):
    # so q0 = c_0^2 m(0) is exactly 0 for every damped Schmidt state
    assert _bell_profile(d)[d - 1] == 0.0


@pytest.mark.parametrize("d", [*range(2, 65), 1000, 20000])
def test_bell_profile_is_positive_off_its_centre(d):
    # Schmidt coefficients are >= 0, so q1 and q2 are >= 0 term by term
    # and critical_lr's dip guard cannot fire on a valid state
    assert np.all(np.delete(_bell_profile(d), d - 1) > 0.0)


@pytest.mark.parametrize("d", [*range(2, 65), 1000, 20000])
def test_bell_profile_within_8_ulps_of_decimal_oracle(d):
    # every entry up to d = 1000; at d = 20000 every 199th delta, both ends
    # and both neighbours of the centre
    deltas = range(1 - d, d) if d <= 1000 \
        else [*range(1 - d, d, 199), -1, 1]
    m = _bell_profile(d)
    for delta in deltas:
        exact = decimal_bell_profile(d, delta)
        ulp = Decimal(math.ulp(float(exact)))
        assert abs(Decimal(m[delta + d - 1]) - exact) <= 8 * ulp, delta


def objective_at(rho, base, thetas, mats):
    """The optimizer's objective for one state and one start, at thetas."""
    v0 = np.concatenate((base.a_vectors, base.b_vectors))
    values, grads = _settings_objective(rho, mats)(thetas[None], v0[None])
    return values[0], grads[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.booleans(), st.floats(0.0, 1.5, allow_nan=False))
def test_gradient_matches_central_differences(d, seed, mixed, qubit_base,
                                              scale):
    rng = np.random.default_rng(seed)
    rho = random_mixed(rng, d) if mixed \
        else to_density(random_schmidt(rng, d))
    base = _qubit_block_settings(d) if qubit_base else cglmp_settings(d)
    mats = gellmann_basis(d).matrices
    thetas = scale * rng.standard_normal((4, d * d - 1))
    value, grad = objective_at(rho, base, thetas, mats)
    born = cglmp_value(rho, rotate(base, thetas, mats)).i_d
    assert abs(value - born) <= 1e-14
    oracle = central_difference_oracle(rho, base, thetas, mats)
    assert np.max(np.abs(grad - oracle)) <= 1e-8


@pytest.mark.parametrize("d", range(2, 6))
def test_gradient_at_zero_angles(d):
    # every generator eigenvalue is 0: each Daleckii-Krein weight is
    # sinc(0), which must be exactly 1, not 0/0
    rng = np.random.default_rng(700 + d)
    rho = random_mixed(rng, d)
    mats = gellmann_basis(d).matrices
    zero = np.zeros((4, d * d - 1))
    for base in (cglmp_settings(d), _qubit_block_settings(d)):
        value, grad = objective_at(rho, base, zero, mats)
        assert abs(value - cglmp_value(rho, base).i_d) <= 1e-14
        oracle = central_difference_oracle(rho, base, zero, mats)
        assert np.max(np.abs(grad - oracle)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.booleans(), st.one_of(st.just(0.0),
                                st.floats(0.0, 1.5, allow_nan=False)))
def test_objective_matches_per_call_oracle(d, seed, mixed, qubit_base,
                                           scale):
    # one objective serves every start and evaluation of a state, several
    # starts per call: each start's value and gradient are those of the
    # objective rebuilt on each call for that start alone, bit for bit, so
    # nfev and every optimized value stay as they were
    rng = np.random.default_rng(seed)
    rho = random_mixed(rng, d) if mixed \
        else to_density(random_schmidt(rng, d))
    base = _qubit_block_settings(d) if qubit_base else cglmp_settings(d)
    bases = [base, cglmp_settings(d), _qubit_block_settings(d)]
    mats = gellmann_basis(d).matrices
    objective = _settings_objective(rho, mats)
    v0 = np.stack([np.concatenate((b.a_vectors, b.b_vectors)) for b in bases])
    for _ in range(2):  # the objective keeps no state between evaluations
        thetas = scale * rng.standard_normal((len(bases), 4, d * d - 1))
        values, grads = objective(thetas, v0)
        for b, angles, value, grad in zip(bases, thetas, values, grads):
            want_value, want_grad = settings_value_and_gradient(
                rho, b, angles, mats, _outcome_weights(d))
            assert value == want_value
            assert np.array_equal(grad, want_grad)


def test_optimizer_validates_settings_once_per_start(monkeypatch):
    # evaluations read plain rotated vectors; settings are validated only
    # where they are built: the two fixed bases and each start's end point
    count = 0
    init = MeasurementSettings.__init__

    def counted(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MeasurementSettings, "__init__", counted)
    rng = np.random.default_rng(5)
    rho = channel_output(random_schmidt(rng, 3), ChannelSpec(AD, 0.1))
    restarts = 2
    optimize_settings(rho, restarts=restarts, seed=1)
    starts = 2 + restarts  # the standard and qubit-block starts, then random
    assert 0 < count <= starts + 2


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("sample", range(3))
def test_optimizer_at_least_powell(d, sample):
    rng = np.random.default_rng(800 + 10 * d + sample)
    if sample == 2:
        rho = random_mixed(rng, d)
    else:
        kind = (ChannelKind.WHITE, AD)[sample]
        rho = channel_output(random_schmidt(rng, d),
                             ChannelSpec(kind, rng.uniform(0.6, 0.95)))
    assert optimize_settings(rho, restarts=0, seed=0).i_d \
        >= powell_oracle(rho, restarts=0, seed=0).i_d - 1e-12


def scipy_bfgs(fun, x0, args):
    """The BFGS that the in-house one replaced: scipy's, on the same
    (value, gradient) objective."""
    return minimize(fun, x0, args=args, jac=True, method="BFGS")


def oracle_state(d, kind, k):
    rng = np.random.default_rng(1000 * d + k)
    if kind == "mixed":
        return random_mixed(rng, d)
    spec = ChannelSpec(ChannelKind.WHITE, 0.9) if kind == "white" \
        else ChannelSpec(AD, rng.uniform(0.6, 0.95))
    return channel_output(random_schmidt(rng, d), spec)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("kind", ["white", "ad", "mixed"])
@pytest.mark.parametrize("d", range(3, 7))
def test_optimizer_at_least_scipy_bfgs(d, kind, k):
    # the same starts climbed by scipy's BFGS, one after another; a
    # different local maximum could end either search higher, and on this
    # list neither ends lower than the other by more than 1e-9
    rho = oracle_state(d, kind, k)
    found = optimize_settings(rho, restarts=1, seed=k).i_d
    assert found >= sequential_optimize_settings(
        rho, restarts=1, seed=k, minimize=scipy_bfgs).i_d - 1e-9
    assert found >= cglmp_value(rho).i_d


def noisy_state(rng, d, mixed, kind, x):
    """A random Schmidt state or a random mixed state under white noise of
    visibility 1 - x or depolarizing or damping noise of strength x."""
    v = 1.0 - x if kind is ChannelKind.WHITE else x
    if not mixed:
        return channel_output(random_schmidt(rng, d), ChannelSpec(kind, v))
    rho = random_mixed(rng, d)
    if kind is ChannelKind.DEPOLARIZING:
        return depolarize_pair(rho, v)
    if kind is AD:
        return apply_local_channel(rho, amplitude_damping_kraus(d, v))
    return TwoQuditState(d, v * rho.rho + (1.0 - v) * np.eye(d * d) / d ** 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sampled_from([ChannelKind.WHITE,
                                       ChannelKind.DEPOLARIZING, AD]),
       st.floats(0.0, 0.4), st.integers(1, 8))
def test_lockstep_optimizer_matches_sequential_oracle(d, restarts, seed, mixed,
                                                      kind, x, lockstep):
    # starts climbed together, lockstep at a time, end where each climbed
    # alone ends: the same value and probability table, bit for bit
    rho = noisy_state(np.random.default_rng(seed), d, mixed, kind, x)
    want = sequential_optimize_settings(rho, restarts=restarts, seed=seed)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(qnl.bell, "LOCKSTEP_STARTS", lockstep)
        got = optimize_settings(rho, restarts=restarts, seed=seed)
    assert got.i_d == want.i_d
    assert np.array_equal(got.probabilities, want.probabilities)


def test_benchmark_optimizer_values_pinned(capsys):
    # the 64 cglmp --optimize calls the benchmark draws for seeds 0-15; those
    # of seeds 0-3 hold the values the scipy BFGS search gave, the rest those
    # of the in-house BFGS with its bracketing and cubic-zoom line search
    for case in json.loads((DATA / "cglmp_opt_i_d.json").read_text()):
        assert main(case["argv"]) == 0
        assert json.loads(capsys.readouterr().out)["i_d"] == case["i_d"]


def rosenbrock(x, scale):
    r, t = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * r - 2.0 * t
    grad[1:] += 200.0 * r
    return scale * (100.0 * r @ r + t @ t), scale * grad


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0] * 5, [-1.0, 2.0, 0.5]])
def test_minimize_counts_every_call(x0):
    calls = []

    def fun(x, scale):
        calls.append(x.copy())
        return rosenbrock(x, scale)

    res = qnl.bell.minimize(fun, np.array(x0), (2.0,))
    assert res.nfev == len(calls)
    assert res.fun == fun(res.x, 2.0)[0] <= 1e-10
    assert np.max(np.abs(res.x - 1.0)) <= 1e-5
    assert np.max(np.abs(rosenbrock(res.x, 2.0)[1])) <= BFGS_GTOL


def test_minimize_stops_at_a_zero_gradient_start():
    x0 = np.array([0.3, -1.0, 2.0])
    calls = []

    def fun(x):
        calls.append(x)
        return 4.0, np.zeros_like(x)

    res = qnl.bell.minimize(fun, x0, ())
    assert (res.x == x0).all() and res.fun == 4.0 and res.nfev == 1
    assert len(calls) == 1


def drive(search, evaluate):
    """Run the search generator to its end, sending it evaluate(x) for each
    point x it yields; its return value."""
    try:
        x = next(search)
        while True:
            x = search.send(evaluate(x))
    except StopIteration as stop:
        return stop.value


def wolfe_line(fun, x):
    """The arguments of wolfe_step along -grad fun at x, and the list of
    points it evaluates."""
    calls = []

    def evaluate(y):
        calls.append(y)
        return fun(y)

    f0, g0 = fun(x)
    return evaluate, calls, -g0, f0, float(-g0 @ g0)


def convex_quadratic(x):
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -0.5], [0.0, -0.5, 0.2]])
    b = np.array([1.0, -2.0, 0.5])
    return 0.5 * x @ a @ x - b @ x, a @ x - b


def settings_line_objective():
    rho = oracle_state(4, "mixed", 0)
    objective = _settings_objective(rho, gellmann_basis(4).matrices)
    std = cglmp_settings(4)
    v0 = np.concatenate((std.a_vectors, std.b_vectors))

    def negated(x):
        values, grads = objective(x.reshape(1, 4, -1), v0[None])
        return -values[0], -grads[0].ravel()

    return negated, np.random.default_rng(3).normal(scale=0.4, size=60)


@pytest.mark.parametrize("first_step", [1e-3, 1.0, 50.0])
@pytest.mark.parametrize("case", ["quadratic", "rosenbrock", "settings"])
def test_wolfe_step_meets_strong_wolfe(case, first_step):
    # the first trial steps make the search double, accept at once or
    # bisect
    if case == "quadratic":
        fun, x = convex_quadratic, np.array([2.0, -1.0, 3.0])
    elif case == "rosenbrock":
        fun, x = (lambda y: rosenbrock(y, 1.0)), np.array([-1.2, 1.0])
    else:
        fun, x = settings_line_objective()
    evaluate, _, p, f0, slope0 = wolfe_line(fun, x)
    step, f, g = drive(wolfe_step(x, p, f0, slope0, first_step), evaluate)
    value, grad = fun(x + step * p)
    assert step > 0.0 and f == value and np.array_equal(g, grad)
    assert f <= f0 + WOLFE_C1 * step * slope0
    assert abs(g @ p) <= WOLFE_C2 * abs(slope0)


def test_wolfe_step_gives_up_on_an_unbounded_line():
    # phi(t) = -t: every trial step is too short, so the step doubles until
    # the trials run out
    evaluate, calls, p, f0, slope0 = wolfe_line(
        lambda y: (-float(y[0]), np.array([-1.0])), np.zeros(1))
    assert drive(wolfe_step(np.zeros(1), p, f0, slope0, 1.0),
                 evaluate) is None
    assert len(calls) == WOLFE_TRIES


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_inverse_hessian_update_matches_product_form(n, seed):
    # Nocedal and Wright eq. 6.17 written with two n x n products, as the
    # replaced BFGS wrote it
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    h = a @ a.T + np.eye(n)
    s, y = rng.standard_normal((2, n))
    if s @ y <= 0.0:
        y = -y
    r = 1.0 / (s @ y)
    want = (np.eye(n) - r * np.outer(s, y)) @ h \
        @ (np.eye(n) - r * np.outer(y, s)) + r * np.outer(s, s)
    got = h.copy()
    update_inverse_hessian(got, s, y)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
    update_inverse_hessian(got, s, -y)  # s^T y < 0: no update
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


ACIN_BOUND = 1.0 + np.sqrt(11.0 / 3.0)  # largest d = 3 value over states


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_optimizer_stays_below_qutrit_maximum(seed):
    psi = random_schmidt(np.random.default_rng(seed), 3)
    assert optimize_settings(to_density(psi), restarts=1, seed=0).i_d \
        <= ACIN_BOUND + 1e-9


@pytest.mark.parametrize("coeffs, restarts", [
    ((0.6169, 0.4888, 0.6169), 0),
    # the same state with its levels permuted: the standard settings give
    # 2.78, and a random start must climb to the maximum
    ((0.6169, 0.6169, 0.4888), 1),
])
def test_optimizer_reaches_qutrit_maximum(coeffs, restarts):
    # Acin, Durt, Gisin and Latorre (2002): the state that maximizes the
    # qutrit inequality, coefficients rounded to four digits
    c = np.array(coeffs)
    rho = to_density(schmidt_state(3, c / np.linalg.norm(c)))
    value = optimize_settings(rho, restarts=restarts, seed=0).i_d
    assert abs(value - ACIN_BOUND) <= 1e-8
    assert value <= ACIN_BOUND


def test_optimizer_never_below_standard_settings():
    rho = channel_output(max_entangled(3), ChannelSpec(AD, 0.2))
    standard = cglmp_value(rho).i_d
    improved = optimize_settings(rho, restarts=1, seed=3)
    assert improved.i_d >= standard - 1e-12


def test_optimizer_certifies_colored_violation():
    v = 0.5
    rho = channel_output(max_entangled(3), ChannelSpec(ChannelKind.COLORED, v))
    assert not cglmp_value(rho).violated        # standard settings miss it
    best = optimize_settings(rho, restarts=0, seed=0)
    assert best.violated
    assert best.i_d >= 2.0 + (np.sqrt(2.0) - 1.0) * v - 1e-6


def test_optimizer_finds_nothing_in_maximally_mixed():
    rho = TwoQuditState(2, np.eye(4, dtype=complex) / 4.0)
    assert optimize_settings(rho, restarts=1, seed=0).i_d == pytest.approx(
        0.0, abs=1e-9)


def test_qubit_block_settings_known_values():
    # the two-level embedding measures levels {0,1} with the qubit
    # settings and passes level 2 through; on a state entangled only on
    # the first two levels the three-outcome inequality evaluates to
    # (1 + 3 sqrt(2))/2, and on the colored mixture to 2 + (sqrt(2)-1) v
    m = _qubit_block_settings(3)
    psi = np.zeros(9, dtype=complex)
    psi[0] = psi[4] = 2.0 ** -0.5  # (|00> + |11>)/sqrt(2)
    rho = TwoQuditState(3, np.outer(psi, psi.conj()))
    assert cglmp_value(rho, m).i_d == pytest.approx(
        (1.0 + 3.0 * np.sqrt(2.0)) / 2.0, abs=1e-8)
    for v in (0.25, 0.5, 1.0):
        colored = channel_output(max_entangled(3),
                                 ChannelSpec(ChannelKind.COLORED, v))
        assert cglmp_value(colored, m).i_d == pytest.approx(
            2.0 + (np.sqrt(2.0) - 1.0) * v, abs=1e-8)


def test_rotated_settings_keep_probabilities_normalized():
    rng = np.random.default_rng(12)
    d = 3
    mats = gellmann_basis(d).matrices
    rho = channel_output(max_entangled(d), ChannelSpec(ChannelKind.WHITE, 0.6))
    for _ in range(5):
        thetas = 0.3 * rng.standard_normal((4, d * d - 1))
        m = rotate(cglmp_settings(d), thetas, mats)
        table = probability_table(rho, m)
        assert np.max(np.abs(table.sum(axis=(2, 3)) - 1.0)) < 1e-8
        assert table.min() > -1e-12
