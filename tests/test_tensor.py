"""Correlation tensors: closed form vs trace definition, metrics, norms."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnl.bell import MeasurementSettings
from qnl.channels import ChannelKind, ChannelSpec, KrausSet, channel_output
from qnl.criteria import CERTIFICATE_SLACK
from qnl.errors import DimensionMismatch, UnsupportedChannel
from qnl.gellmann import gellmann_basis
from qnl.states import max_entangled, schmidt_state, to_density
from qnl.tensor import (Metric, block_scalars, block_weights, c_factor,
                        colored_metric, correlation_tensor, damping_metric,
                        diagonal_block, diagonal_entries,
                        identity_metric, norm_sq,
                        pair_values, schmidt_correlation_tensor,
                        spectral_norm, spectral_norms, sum_per_input,
                        supporting_functionals)

from oracles import einsum_correlation_tensor, loop_basis


def random_schmidt(rng, d):
    c = rng.random(d) + 1e-3
    return schmidt_state(d, c / np.linalg.norm(c))


def brute_force_tensor(rho, d):
    # direct double loop over Tr[rho (Mi x Mj)], no einsum shortcuts
    basis = gellmann_basis(d)
    n = basis.size
    t = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            op = np.kron(basis.matrices[i], basis.matrices[j])
            t[i, j] = (d / (2.0 * (d - 1.0))) * np.trace(rho @ op).real
    return t


def test_c_factor():
    assert c_factor(2) == pytest.approx(1.0)
    assert c_factor(3) == pytest.approx(0.75)


@pytest.mark.parametrize("d", range(2, 65))
def test_diagonal_entries_equal_basis_diagonals(d):
    diagonal = np.array(loop_basis(d)[0][d * (d - 1):])
    assert np.array_equal(diagonal_entries(d),
                          np.diagonal(diagonal, axis1=1, axis2=2).real)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_form_matches_trace_definition(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(12):
        psi = random_schmidt(rng, d)
        closed = schmidt_correlation_tensor(psi)
        traced = correlation_tensor(to_density(psi))
        assert np.max(np.abs(closed.t - traced.t)) <= 1e-9


def loop_schmidt_tensor(c):
    # one-state loop form of the closed-form tensor, entry by entry
    d = len(c)
    cf = c_factor(d)
    t = np.zeros((d * d - 1, d * d - 1))
    npairs = d * (d - 1) // 2
    idx = 0
    for j in range(d):
        for k in range(j + 1, d):
            t[idx, idx] = 2.0 * c[j] * c[k] * cf
            t[npairs + idx, npairs + idx] = -t[idx, idx]
            idx += 1
    base, csq = d * (d - 1), c * c
    for i in range(1, d):
        head = float(np.sum(csq[:i]))
        t[base + i - 1, base + i - 1] = \
            (2.0 / (i * (i + 1))) * (head + i * i * csq[i]) * cf
        for j in range(i + 1, d):
            off = (2.0 / np.sqrt(i * j * (i + 1) * (j + 1))) \
                * (head - i * csq[i]) * cf
            t[base + i - 1, base + j - 1] = t[base + j - 1, base + i - 1] = off
    return t


@pytest.mark.parametrize("d", [2, 3, 5, 9, 12, 16])
def test_stacked_tensors_and_scalars_equal_loop_forms(d):
    # the block form rounds D P D^T differently from the loop formula; over
    # d = 2..16 the tensors differ by at most 1.7e-16 and the weighted
    # scalars by 6.7e-16, so the bounds are about twice that
    rng = np.random.default_rng(7 + d)
    states = [random_schmidt(rng, d) for _ in range(4)]
    c = np.array([s.coeffs for s in states])
    g = colored_metric(d, 0.37)
    ls, ns = block_scalars(pair_values(c.T), inputs_last(
        diagonal_block((c * c)[:, :, None] * np.eye(d), diagonal_entries(d))),
        block_weights(d, g.g[:, None]))
    for k, psi in enumerate(states):
        t = loop_schmidt_tensor(psi.coeffs)
        closed = schmidt_correlation_tensor(psi)
        assert np.max(np.abs(closed.t - t)) <= 4e-16
        assert abs(ls[k] - np.linalg.svd(t * g.g[None, :],
                                         compute_uv=False)[0]) <= 1e-15
        assert abs(ns[k] - float(np.sum((t * t) * g.g[None, :]))) <= 1e-15
        assert abs(ns[k] - norm_sq(closed, g)) <= 1e-15


@pytest.mark.parametrize("d", range(2, 11))
def test_trace_tensor_matches_einsum_oracle(d):
    rng = np.random.default_rng(300 + d)
    psi = random_schmidt(rng, d)
    for kind in ChannelKind:
        # colored noise is defined for the max-entangled input only
        src = max_entangled(d) if kind is ChannelKind.COLORED else psi
        rho = channel_output(src, ChannelSpec(kind, 0.3))
        oracle = einsum_correlation_tensor(rho.rho, d)
        assert np.max(np.abs(correlation_tensor(rho).t - oracle)) <= 1e-14, \
            kind


def test_trace_definition_matches_brute_force():
    psi = schmidt_state(3, [0.3, 0.5, np.sqrt(1 - 0.09 - 0.25)])
    rho = to_density(psi)
    fast = correlation_tensor(rho)
    assert np.max(np.abs(fast.t - brute_force_tensor(rho.rho, 3))) < 1e-12


def test_qubit_max_entangled_tensor_is_diagonal():
    t = schmidt_correlation_tensor(max_entangled(2)).t
    assert np.allclose(t, np.diag([1.0, -1.0, 1.0]))


def test_cross_zone_blocks_vanish_for_schmidt_states():
    psi = schmidt_state(4, [0.1, 0.2, 0.3, np.sqrt(1 - 0.14)])
    t = schmidt_correlation_tensor(psi).t
    off = 4 * 3  # generator count outside the diagonal group
    assert np.max(np.abs(t[:off, off:])) < 1e-14
    assert np.max(np.abs(t[off:, :off])) < 1e-14


def test_white_noise_scales_tensor_exactly():
    psi = schmidt_state(3, [0.2, 0.4, np.sqrt(0.8)])
    t0 = correlation_tensor(to_density(psi)).t
    for v in (0.0, 0.3, 0.8137, 1.0):
        out = channel_output(psi, ChannelSpec(ChannelKind.WHITE, v))
        tv = correlation_tensor(out).t
        assert np.max(np.abs(tv - v * t0)) < 1e-14


def test_depolarizing_scales_tensor_quadratically():
    psi = max_entangled(4)
    t0 = correlation_tensor(to_density(psi)).t
    r = 0.35
    out = channel_output(psi, ChannelSpec(ChannelKind.DEPOLARIZING, r))
    tv = correlation_tensor(out).t
    assert np.max(np.abs(tv - (1 - r) ** 2 * t0)) < 1e-12


def test_damping_scales_first_level_pairs_linearly():
    # off-diagonal generator pairs touching level 0 pick up one factor of p,
    # pairs away from level 0 pick up two
    d = 3
    psi = schmidt_state(d, [0.5, 0.5, np.sqrt(0.5)])
    basis = gellmann_basis(d)
    t0 = correlation_tensor(to_density(psi)).t
    r = 0.4
    p = 1.0 - r
    out = channel_output(psi, ChannelSpec(ChannelKind.AMPLITUDE_DAMPING, r))
    tv = correlation_tensor(out).t
    for idx in range(d * (d - 1)):
        j, _k = basis.pair_of[idx]
        scale = p if j == 0 else p * p
        assert tv[idx, idx] == pytest.approx(scale * t0[idx, idx], abs=1e-12)


def test_metrics():
    d = 3
    n = d * d - 1
    assert np.array_equal(identity_metric(d).g, np.ones(n))
    cm = colored_metric(d, 0.6).g
    assert np.array_equal(cm[:-1], np.ones(n - 1))
    assert cm[-1] == pytest.approx(0.6)
    dm = damping_metric(d).g
    assert np.array_equal(dm[:d * d - d], np.ones(d * d - d))
    assert np.array_equal(dm[d * d - d:], np.zeros(d - 1))


def test_metric_validation():
    with pytest.raises(Exception):
        Metric(3, np.ones(5))          # wrong length
    with pytest.raises(Exception):
        Metric(2, np.array([1.0, -0.5, 1.0]))  # negative weight


def test_norms_against_hand_expansion():
    psi = schmidt_state(2, [0.6, 0.8])
    t = schmidt_correlation_tensor(psi)
    g = identity_metric(2)
    assert norm_sq(t, g) == pytest.approx(float(np.sum(t.t ** 2)))
    assert spectral_norm(t, g) == pytest.approx(
        float(np.linalg.svd(t.t, compute_uv=False)[0]))
    # weighted: metric scales columns before both norms
    w = Metric(2, np.array([0.5, 1.0, 0.0]))
    scaled = t.t * w.g[None, :]
    assert norm_sq(t, w) == pytest.approx(float(np.sum(w.g[None, :] * t.t ** 2)))
    assert spectral_norm(t, w) == pytest.approx(
        float(np.linalg.svd(scaled, compute_uv=False)[0]))


def test_max_entangled_tensor_norm_value():
    # max-entangled tensor is diagonal with entries of size 1/(d-1), so
    # the squared norm collapses to (d^2-1)/(d-1)^2 = (d+1)/(d-1)
    for d in (2, 3, 4):
        t = schmidt_correlation_tensor(max_entangled(d))
        g = identity_metric(d)
        assert norm_sq(t, g) == pytest.approx((d + 1.0) / (d - 1.0), abs=1e-12)
        assert spectral_norm(t, g) == pytest.approx(1.0 / (d - 1.0), abs=1e-12)


def inputs_last(stack):
    """An (N, n, n) stack in the kernels' (n, n, N) layout."""
    return np.moveaxis(stack, 0, -1)


def stacked_norms(t, w):
    """spectral_norms of an (N, n, n) stack under weights (n,) or (N, n)."""
    return spectral_norms(inputs_last(t), np.atleast_2d(w).T)


def svd_norms(t, w):
    return np.linalg.svd(t * w[..., None, :], compute_uv=False)[:, 0]


def assert_close_to_svd(t, w):
    ref = svd_norms(t, w)
    assert np.all(np.abs(stacked_norms(t, w) - ref) <= 2e-15 * ref)


@pytest.mark.parametrize("seed", range(4))
def test_two_by_two_closed_form_matches_svd(seed):
    # entries of both signs over twelve decades, per-row and shared weights
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(5000, 2, 2)) \
        * 10.0 ** rng.uniform(-6.0, 6.0, size=(5000, 1, 1))
    assert_close_to_svd(t, rng.uniform(0.0, 2.0, size=(5000, 2)))
    assert_close_to_svd(t, rng.uniform(0.0, 2.0, size=2))


def test_two_by_two_closed_form_special_blocks():
    rng = np.random.default_rng(11)
    u, v = rng.normal(size=(2, 200, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=200)
    c, s = np.cos(angle), np.sin(angle)
    rotations = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    reflections = rotations * np.array([1.0, -1.0])
    ones = np.ones(2)
    assert np.array_equal(stacked_norms(np.zeros((3, 2, 2)), ones),
                          np.zeros(3))
    assert_close_to_svd(u[:, :, None] * v[:, None, :], ones)  # rank one
    diag = rng.normal(size=(200, 2))
    assert_close_to_svd(diag[:, :, None] * np.eye(2), ones)
    assert np.allclose(stacked_norms(diag[:, :, None] * np.eye(2), ones),
                       np.max(np.abs(diag), axis=1), rtol=2e-15, atol=0.0)
    # equal singular values: scaled rotations and reflections
    scale = rng.uniform(0.1, 10.0, size=(200, 1, 1))
    for block in (scale * rotations, scale * reflections):
        assert_close_to_svd(block, ones)
    assert_close_to_svd(-np.abs(rng.normal(size=(200, 2, 2))), ones)
    # colored noise at v = 0 gives the second diagonal generator no weight
    w = colored_metric(3, 0.0).g[6:]
    assert_close_to_svd(rng.normal(size=(200, 2, 2)), w)
    assert_close_to_svd(rng.normal(size=(200, 2, 2)), w[::-1])


@pytest.mark.parametrize("n", [1, 3, 4, 6, 8])
def test_other_block_sizes_take_the_svd(n):
    rng = np.random.default_rng(n)
    t = rng.normal(size=(50, n, n))
    w = rng.uniform(0.0, 2.0, size=(50, n))
    assert np.array_equal(stacked_norms(t, w), svd_norms(t, w))


@pytest.mark.parametrize("inputs", [0, 1, 2, 9, 64])
def test_sum_per_input_equals_each_inputs_own_sum(inputs):
    # every count of terms the kernels meet, from d = 2 pairs to d = 16
    # blocks and a d = 300 pair row, plus terms over twelve decades, so
    # that each association shows in the last bits
    rng = np.random.default_rng(inputs)
    for terms in [*range(1, 300), 1000, 44850]:
        x = rng.normal(size=(terms, inputs)) \
            * 10.0 ** rng.uniform(-6.0, 6.0, size=(terms, inputs))
        own = [np.sum(x[:, k]) for k in range(inputs)]
        assert sum_per_input(x).tolist() == own, terms
    blocks = rng.normal(size=(15, 15, inputs))
    assert sum_per_input(blocks).tolist() \
        == [np.sum(blocks[:, :, k]) for k in range(inputs)]


def exact_two_by_two_norm(m) -> float:
    """sigma_max of a 2 x 2 matrix of doubles, rounded once from 60 digits:
    the half-sum of the moduli of its conformal and anticonformal parts."""
    with localcontext() as ctx:
        ctx.prec = 60
        a00, a01, a10, a11 = (Decimal(float(v)) for v in m.ravel())
        return float((((a00 + a11) ** 2 + (a01 - a10) ** 2).sqrt()
                      + ((a00 - a11) ** 2 + (a01 + a10) ** 2).sqrt()) / 2)


def functional_cases(rng, n):
    """16 matrices a, and matrices x to try each functional on: random,
    multiples of a, and a perturbed in its ninth digit."""
    a = rng.normal(size=(16, n, n)) \
        * 10.0 ** rng.uniform(-6.0, 6.0, size=(16, 1, 1))
    if n == 2:  # purely conformal and purely anticonformal matrices too
        a[:4, 1, 1], a[:4, 1, 0] = a[:4, 0, 0], -a[:4, 0, 1]
        a[4:8, 1, 1], a[4:8, 1, 0] = -a[4:8, 0, 0], a[4:8, 0, 1]
    x = [rng.normal(size=a.shape) * np.abs(a).max(axis=(1, 2))[:, None, None],
         a * rng.uniform(0.1, 10.0, size=(16, 1, 1)),
         a * (1.0 + 1e-9 * rng.normal(size=a.shape))]
    return a, x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_two_by_two_supporting_functional(seed):
    # the d = 3 closed form: it meets sigma_max at its own matrix within 4
    # ulps of the exact value (np.linalg.svd itself strays up to 7 ulps on
    # random stacks, so against it the closed form's 2e-15 applies), and
    # stays below sigma_max of any matrix but for the certificate's slack
    a, xs = functional_cases(np.random.default_rng(seed), 2)
    f = np.moveaxis(supporting_functionals(inputs_last(a)), -1, 0)
    own = np.sum(f * a, axis=(1, 2))
    exact = np.array([exact_two_by_two_norm(m) for m in a])
    assert np.all(np.abs(own - exact) <= 4.0 * np.spacing(exact))
    svd = np.linalg.svd(a, compute_uv=False)[:, 0]
    assert np.all(np.abs(own - svd) <= 2e-15 * svd)
    for x in xs:
        norm = np.linalg.svd(x, compute_uv=False)[:, 0]
        assert np.all(np.sum(f * x, axis=(1, 2))
                      <= norm * (1.0 + CERTIFICATE_SLACK))


@pytest.mark.parametrize("n", [1, 3, 4, 8])
def test_supporting_functional_of_the_svd(n):
    a, xs = functional_cases(np.random.default_rng(n), n)
    f = np.moveaxis(supporting_functionals(inputs_last(a)), -1, 0)
    svd = np.linalg.svd(a, compute_uv=False)[:, 0]
    assert np.all(np.abs(np.sum(f * a, axis=(1, 2)) - svd) <= 1e-14 * svd)
    for x in xs:
        norm = np.linalg.svd(x, compute_uv=False)[:, 0]
        assert np.all(np.sum(f * x, axis=(1, 2))
                      <= norm * (1.0 + CERTIFICATE_SLACK))


@pytest.mark.parametrize("build, error", [
    (lambda nan: MeasurementSettings(3, np.full((2, 3, 3), nan),
                                     np.full((2, 3, 3), nan)),
     DimensionMismatch),
    (lambda nan: Metric(3, np.full(8, nan)), ValueError),
    (lambda nan: KrausSet(3, np.full((3, 3, 3), nan)), UnsupportedChannel),
], ids=["MeasurementSettings", "Metric", "KrausSet"])
def test_validation_rejects_nan(build, error):
    # every comparison with NaN is false, so each check must be written to
    # pass only on finite, valid input
    with pytest.raises(error):
        build(np.nan)
