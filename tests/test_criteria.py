"""Detection criterion, critical parameters, xi, and the surface scans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnl.criteria
from qnl.channels import ChannelKind, ChannelSpec, channel_output
from qnl.criteria import (VERDICT_TOL, MarginBatch, MarginCurve,
                          _verdict_grid_check, bisect_threshold,
                          critical_analytic, critical_bisection,
                          default_metric, is_entangled, scan_surface, xi)
from qnl.errors import (NoDetectionInRange, NonMonotonic, UnsupportedChannel)
from qnl.states import (SchmidtState, max_entangled, nmax_state,
                        qutrit_family, rank_k_state, schmidt_state,
                        to_density)
from qnl.tensor import (Metric, colored_metric, correlation_tensor,
                        damping_metric, identity_metric, norm_sq,
                        spectral_norm)

from oracles import colored_always_entangled

AD = ChannelKind.AMPLITUDE_DAMPING
DEPOL = ChannelKind.DEPOLARIZING
WHITE = ChannelKind.WHITE


def test_verdict_on_clean_states():
    ent = is_entangled(correlation_tensor(to_density(max_entangled(3))))
    assert ent.entangled
    assert ent.norm_sq == pytest.approx(2.0, abs=1e-12)
    assert ent.spectral_norm == pytest.approx(0.5, abs=1e-12)
    assert ent.margin == pytest.approx(1.5, abs=1e-12)

    sep = is_entangled(correlation_tensor(to_density(
        schmidt_state(3, [1.0, 0.0, 0.0]))))
    assert not sep.entangled


def test_default_metric_dispatch():
    assert np.array_equal(default_metric(WHITE, 3, 0.5).g,
                          identity_metric(3).g)
    assert np.array_equal(default_metric(DEPOL, 3, 0.5).g,
                          identity_metric(3).g)
    assert np.array_equal(default_metric(ChannelKind.COLORED, 3, 0.7).g,
                          colored_metric(3, 0.7).g)
    assert np.array_equal(default_metric(AD, 3, 0.5).g, damping_metric(3).g)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_analytic_white_and_depol(d):
    assert critical_analytic(d, WHITE).value == pytest.approx(1.0 / (d + 1))
    assert critical_analytic(d, DEPOL).value == pytest.approx(
        (d + 1.0) ** -0.5)


def test_analytic_damping_root_solves_cubic():
    for d in (2, 3, 4, 5, 8):
        p = critical_analytic(d, AD).value
        assert (d - 2) * p ** 3 + 2 * p == pytest.approx(1.0, abs=1e-12)
    assert critical_analytic(2, AD).value == pytest.approx(0.5, abs=1e-12)


def test_damping_root_matches_direct_cubic_solve():
    # oracle: the real root in (0, 1) of (d-2) p^3 + 2 p - 1 by np.roots
    for d in [*range(2, 2001), *(10 ** k for k in range(4, 9))]:
        root = critical_analytic(d, AD).value
        poly = np.roots([d - 2.0, 0.0, 2.0, -1.0])
        real = [x.real for x in poly
                if abs(x.imag) < 1e-9 and 0.0 < x.real < 1.0]
        assert len(real) == 1 and abs(real[0] - root) <= 1e-9, d


def test_analytic_rejects_mixing_families_without_closed_form():
    with pytest.raises(UnsupportedChannel):
        critical_analytic(3, ChannelKind.PRODUCT)
    with pytest.raises(UnsupportedChannel):
        critical_analytic(3, ChannelKind.COLORED)


@pytest.mark.parametrize("kind", [WHITE, DEPOL, AD])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bisection_agrees_with_analytic(kind, d):
    a = critical_analytic(d, kind).value
    b = critical_bisection(max_entangled(d), kind)
    assert b.method == "bisection"
    assert b.parameter_name == kind.parameter_name
    assert abs(a - b.value) < 1e-6


def test_rank_table_spot_checks():
    cell = critical_bisection(
        rank_k_state(3, 2, np.full(2, 2.0 ** -0.5)), DEPOL)
    assert cell.value == pytest.approx(0.6546, abs=5e-4)
    cell = critical_bisection(
        rank_k_state(4, 3, np.full(3, 3.0 ** -0.5)), AD)
    assert cell.value == pytest.approx(0.6124, abs=5e-4)


def test_no_detection_for_product_state():
    with pytest.raises(NoDetectionInRange):
        critical_bisection(schmidt_state(2, [1.0, 0.0]), WHITE)


@pytest.mark.parametrize("kind", [WHITE, ChannelKind.PRODUCT, AD])
def test_undetected_input_raises_before_bisecting(monkeypatch, kind):
    # one verdict at p = 1 settles an input detected nowhere
    def refuse(fired, size):
        raise AssertionError("bisected an input detected nowhere")

    monkeypatch.setattr(qnl.criteria, "bisect_threshold", refuse)
    with pytest.raises(NoDetectionInRange, match="does not fire anywhere"):
        critical_bisection(schmidt_state(3, [1.0, 0.0, 0.0]), kind)


def test_grid_check_flags_reentrant_curves():
    class Wobble:
        def entangled(self, p):
            return 0.2 < p < 0.4 or p > 0.8

    with pytest.raises(NonMonotonic):
        _verdict_grid_check(Wobble())
    # a single switch is the expected shape and passes
    class Clean:
        def entangled(self, p):
            return p > 0.3

    _verdict_grid_check(Clean())


def test_grid_check_flags_reentrant_cells_of_a_batch():
    class Batch:
        # cell 0 fires above 0.3; cell 1 fires, stops and fires again
        def entangled(self, p):
            return np.array([p > 0.3, 0.2 < p < 0.4 or p > 0.8])

    with pytest.raises(NonMonotonic):
        _verdict_grid_check(Batch())
    with pytest.raises(NonMonotonic):
        _verdict_grid_check(Batch(), np.array([False, True]))
    # only the clean cell is checked
    _verdict_grid_check(Batch(), np.array([True, False]))


def test_margin_curve_paths():
    psi = schmidt_state(3, [0.2, 0.4, np.sqrt(0.8)])
    assert MarginCurve(psi, WHITE).path == "scaling"
    assert MarginCurve(psi, DEPOL).path == "scaling"
    assert MarginCurve(psi, ChannelKind.PRODUCT).path == "product"
    assert MarginCurve(psi, AD).path == "damping"
    assert MarginCurve(psi, AD, identity_metric(3)).path == "damping"
    assert MarginCurve(max_entangled(3), ChannelKind.COLORED).path == "colored"


def trace_tensor(psi, kind, p):
    """Oracle: build the noisy state, take its dense trace tensor."""
    spec = ChannelSpec.from_noise_free_fraction(kind, float(p))
    return correlation_tensor(channel_output(psi, spec))


def trace_scalars(psi, kind, g, p):
    """Oracle scalars; g None is the channel's default metric at p."""
    t = trace_tensor(psi, kind, p)
    if g is None:
        g = default_metric(kind, psi.d, float(p))
    return spectral_norm(t, g), norm_sq(t, g)


def trace_threshold(psi, kind, g):
    """Oracle threshold: the shared bisection on trace-tensor verdicts."""
    def fired(p):
        l, n = trace_scalars(psi, kind, g, p[0])
        return np.array([n - l > VERDICT_TOL])

    return float(bisect_threshold(fired, 1)[0])


def random_schmidt(rng, d):
    raw = rng.uniform(0.05, 1.0, size=d)
    return schmidt_state(d, np.sqrt(raw / raw.sum()))


def four_metrics(rng, d):
    return (identity_metric(d), colored_metric(d, 0.3), damping_metric(d),
            Metric(d=d, g=rng.uniform(0.0, 2.0, size=d * d - 1)))


@pytest.mark.parametrize("d", range(2, 11))
def test_damped_closed_form_matches_trace_tensor(d):
    # every channel's block-form scalars against the dense trace tensor of
    # the noisy state, under the default and four explicit metrics;
    # colored noise is defined only for the max-entangled input
    rng = np.random.default_rng(d)
    psi = random_schmidt(rng, d)
    metrics = (None,) + four_metrics(rng, d)
    for kind in ChannelKind:
        state = max_entangled(d) if kind is ChannelKind.COLORED else psi
        curves = [MarginCurve(state, kind, g) for g in metrics]
        for p in (0.0, 0.2, 0.55, 1.0):
            t = trace_tensor(state, kind, p)
            for g, curve in zip(metrics, curves):
                w = default_metric(kind, d, p) if g is None else g
                l, n = curve.scalars(p)
                assert abs(l - spectral_norm(t, w)) <= 1e-12, (kind, p)
                assert abs(n - norm_sq(t, w)) <= 1e-12, (kind, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 1.0, allow_nan=False), st.sampled_from(ChannelKind),
       st.booleans())
def test_damped_closed_form_property(d, seed, p, kind, default):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=d)
    raw[rng.random(d) < 0.3] = 0.0  # reduced-rank inputs too
    raw[0] += 1e-3
    psi = max_entangled(d) if kind is ChannelKind.COLORED \
        else schmidt_state(d, np.sqrt(raw / raw.sum()))
    w = rng.uniform(0.0, 3.0, size=d * d - 1)
    w[rng.random(d * d - 1) < 0.3] = 0.0
    g = None if default else Metric(d=d, g=w)
    l_ref, n_ref = trace_scalars(psi, kind, g, p)
    l, n = MarginCurve(psi, kind, g).scalars(p)
    assert abs(l - l_ref) <= 1e-12 and abs(n - n_ref) <= 1e-12


def test_damped_batch_matches_single_inputs():
    rng = np.random.default_rng(7)
    coeffs = np.array([random_schmidt(rng, 4).coeffs for _ in range(5)])
    g = Metric(d=4, g=rng.uniform(0.0, 1.0, size=15))
    p = rng.uniform(0.0, 1.0, size=5)
    l, n = MarginBatch(4, coeffs, AD, g).scalars(p)
    for k in range(5):
        single = MarginCurve(SchmidtState(4, coeffs[k]), AD, g).scalars(p[k])
        assert (l[k], n[k]) == single


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_damped_identity_threshold_equals_trace_oracle(d):
    psi = random_schmidt(np.random.default_rng(100 + d), d)
    g = identity_metric(d)
    assert critical_bisection(psi, AD, g).value == trace_threshold(psi, AD, g)


def test_damped_identity_threshold_d16_pinned():
    # the d=16 input of the benchmark's seed-1 dense sweep
    psi = schmidt_state(16, [
        0.17852895073729977, 0.28506776325169014, 0.18358608804392904,
        0.2332979132529333, 0.32338436376767554, 0.3203849877731463,
        0.28049145041445334, 0.24515051710641111, 0.18261400130576258,
        0.14691632893616396, 0.3216881850803717, 0.2399015345925527,
        0.13058331283616637, 0.2615794781993575, 0.28970169028024123,
        0.2595430385893876])
    res = critical_bisection(psi, AD, identity_metric(16))
    assert res.value == 0.5814153142273426


def test_colored_rejects_non_mes():
    with pytest.raises(UnsupportedChannel):
        MarginCurve(schmidt_state(3, [0.6, 0.0, 0.8]), ChannelKind.COLORED)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_colored_always_entangled(d):
    assert colored_always_entangled(d, (1e-4, 1e-2, 0.5, 1.0))


def test_colored_sample_range_enforced():
    with pytest.raises(ValueError):
        colored_always_entangled(3, (0.0, 0.5))
    with pytest.raises(ValueError):
        colored_always_entangled(3, (0.5, 1.2))


def test_xi_depol_is_exactly_inverse_dim_plus_one():
    for d in (2, 3, 4, 6):
        p_crit = critical_analytic(d, DEPOL).value
        val = xi(max_entangled(d), DEPOL, p_crit)
        assert val == pytest.approx(1.0 / (d + 1), abs=1e-12)


def test_xi_damping_published_values():
    for d, expect in ((3, 0.3888), (4, 0.3256)):
        p_crit = critical_analytic(d, AD).value
        assert xi(max_entangled(d), AD, p_crit) == pytest.approx(
            expect, abs=5e-4)


def test_family_point_with_half_threshold():
    psi = qutrit_family(0.8730, 0.6449)
    res = critical_bisection(psi, AD)
    assert res.value == pytest.approx(0.5, abs=1e-3)
    assert xi(psi, AD, res.value) == pytest.approx(0.4513, abs=1e-3)


def test_nmax_state_thresholds():
    assert critical_bisection(nmax_state(3), AD).value == pytest.approx(
        0.4465, abs=5e-4)
    assert critical_bisection(nmax_state(4), AD).value == pytest.approx(
        0.4074, abs=1e-3)


def test_scan_surface_small_grid():
    alphas = np.linspace(0.0, np.pi / 2, 9)
    betas = np.linspace(0.0, np.pi / 2, 9)
    scan = scan_surface(WHITE, alphas, betas)
    # separable boundary cells never fire and carry value 1
    assert scan.flags[0].all()
    assert scan.values[0].min() == 1.0
    assert scan.flags[-1, 0] and scan.flags[-1, -1]
    inner = scan.values[1:-1, 1:-1]
    assert ((0.0 < inner) & (inner <= 1.0)).all()
    a, b, v = scan.minimum()
    assert v <= inner.min() + 1e-15


def test_scan_surface_xi_values_capped():
    alphas = np.linspace(0.0, np.pi / 2, 7)
    betas = np.linspace(0.0, np.pi / 2, 7)
    scan = scan_surface(AD, alphas, betas, quantity="xi")
    assert (scan.values <= 1.0 + 1e-12).all()


def test_scan_surface_deterministic():
    alphas = np.linspace(0.0, np.pi / 2, 6)
    betas = np.linspace(0.0, np.pi / 2, 6)
    s1 = scan_surface(AD, alphas, betas)
    s2 = scan_surface(AD, alphas, betas)
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(s1.flags, s2.flags)


@pytest.mark.parametrize("kind", [WHITE, DEPOL, ChannelKind.PRODUCT, AD])
def test_scan_cells_equal_single_thresholds(kind):
    # each batched cell must reproduce the single-state solver bit for bit
    grid = np.linspace(0.0, np.pi / 2, 9)
    crit = scan_surface(kind, grid, grid)
    frac = scan_surface(kind, grid, grid, quantity="xi")
    assert np.array_equal(crit.flags, frac.flags)
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            psi = qutrit_family(a, b)
            if crit.flags[i, j]:
                with pytest.raises(NoDetectionInRange):
                    critical_bisection(psi, kind)
                assert crit.values[i, j] == frac.values[i, j] == 1.0
                continue
            value = critical_bisection(psi, kind).value
            assert crit.values[i, j] == value
            assert frac.values[i, j] == xi(psi, kind, value)


def test_scan_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        scan_surface(WHITE, [0.5], [0.5], quantity="margin")
