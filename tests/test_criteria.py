"""Detection criterion, critical parameters, xi, and the surface scans."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnl.criteria
import qnl.solver
from qnl.channels import ChannelKind, ChannelSpec, channel_output
from qnl.criteria import (MarginBatch, MarginCurve, critical_analytic,
                          critical_bisection, default_metric, is_entangled,
                          scan_surface, xi)
from qnl.errors import (DimensionMismatch, NoDetectionInRange, NonMonotonic,
                        UnsupportedChannel)
from qnl.reports import reproduce_tables
from qnl.solver import (BISECTION_WIDTH, CERTIFICATE_PIECES, VERDICT_TOL,
                        BracketEnds, MarginPolynomials, _certify,
                        bisect_bracket, confirm_bracket)
from qnl.states import (SchmidtState, max_entangled, nmax_state,
                        qutrit_family, qutrit_family_coeffs, rank_k_state,
                        schmidt_state, to_density)
from qnl.tensor import (Metric, colored_metric, correlation_tensor,
                        damping_metric, diagonal_block, diagonal_entries,
                        identity_metric, norm_sq, pair_values, spectral_norm)

from oracles import (bisect_threshold, colored_always_entangled,
                     damping_switch_points, grid_verdicts, populations,
                     verdict_grid_check)

AD = ChannelKind.AMPLITUDE_DAMPING
DEPOL = ChannelKind.DEPOLARIZING
WHITE = ChannelKind.WHITE


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("metric_d", [2, 4])
def test_metric_of_another_dimension_raises(kind, metric_d):
    # the batch refuses it as the dense path (tensor._check_pair) does,
    # before any numpy broadcast sees the mismatched shapes
    psi, g = max_entangled(3), identity_metric(metric_d)
    with pytest.raises(DimensionMismatch):
        critical_bisection(psi, kind, g)
    with pytest.raises(DimensionMismatch):
        MarginBatch(3, psi.coeffs[None, :], kind, g)


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
    # colored noise has one: detected for every v > 0
    res = critical_analytic(3, ChannelKind.COLORED)
    assert (res.value, res.method) == (0.0, "analytic")


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
    def refuse(*args):
        raise AssertionError("bisected an input detected nowhere")

    monkeypatch.setattr(qnl.solver, "bisect_bracket", refuse)
    with pytest.raises(NoDetectionInRange, match="does not fire anywhere"):
        critical_bisection(schmidt_state(3, [1.0, 0.0, 0.0]), kind)


def test_grid_check_flags_reentrant_curves():
    class Wobble:
        def entangled(self, p):
            return 0.2 < p < 0.4 or p > 0.8

    with pytest.raises(NonMonotonic):
        verdict_grid_check(Wobble())
    # a single switch is the expected shape and passes
    class Clean:
        def entangled(self, p):
            return p > 0.3

    verdict_grid_check(Clean())


def test_grid_check_flags_reentrant_cells_of_a_batch():
    class Batch:
        # cell 0 fires above 0.3; cell 1 fires, stops and fires again
        def entangled(self, p):
            return np.array([p > 0.3, 0.2 < p < 0.4 or p > 0.8])

    with pytest.raises(NonMonotonic):
        verdict_grid_check(Batch())
    with pytest.raises(NonMonotonic):
        verdict_grid_check(Batch(), np.array([False, True]))
    # only the clean cell is checked
    verdict_grid_check(Batch(), np.array([True, False]))


def test_margin_curve_paths():
    psi = schmidt_state(3, [0.2, 0.4, np.sqrt(0.8)])
    assert MarginCurve(psi, WHITE).path == "scaling"
    assert MarginCurve(psi, DEPOL).path == "scaling"
    assert MarginCurve(psi, ChannelKind.PRODUCT).path == "product"
    assert MarginCurve(psi, AD).path == "damping"
    assert MarginCurve(psi, AD, identity_metric(3)).path == "damping"
    assert MarginCurve(max_entangled(3), ChannelKind.COLORED,
                       colored_metric(3, 0.3)).path == "colored"


def sampled_rows(rng, d, size=8):
    raw = rng.uniform(0.0, 1.0, size=(size, d))
    raw[rng.random((size, d)) < 0.3] = 0.0  # reduced-rank rows too
    raw[:, 0] += 1e-3
    return np.sqrt(raw / raw.sum(axis=1, keepdims=True))


def sampled_metric(rng, d, name):
    n = d * d - 1
    if name == "identity":
        return identity_metric(d)
    if name == "colored":
        return colored_metric(d, rng.uniform(0.0, 1.0))
    if name == "damping":
        return damping_metric(d)
    w = rng.uniform(0.0, 2.0, size=n)
    w[rng.random(n) < 0.3] = 0.0
    if name == "random, no diagonal weight":
        w[d * (d - 1):] = 0.0
    return Metric(d=d, g=w)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from(
    [(WHITE, "identity"), (WHITE, "colored"), (WHITE, "damping"),
     (WHITE, "random"), (DEPOL, "identity"), (DEPOL, "colored"),
     (DEPOL, "damping"), (DEPOL, "random"), (AD, "damping"),
     (AD, "random, no diagonal weight")]))
def test_proven_monotone_batches_pass_the_grid_oracle(d, seed, case):
    # _solve skips the grid where monotonicity is a theorem; the grid must
    # then find no second switch, on the detected rows and on all the rows
    kind, name = case
    rng = np.random.default_rng(seed)
    batch = MarginBatch(d, sampled_rows(rng, d), kind,
                        sampled_metric(rng, d, name))
    assert batch.monotone
    verdict_grid_check(batch, batch.entangled(1.0))
    verdict_grid_check(batch)


def test_certificate_runs_off_the_proven_paths(monkeypatch):
    certified = []

    def counted(batch, lo, hi, detected, ends):
        certified.append(batch.path)
        return _certify(batch, lo, hi, detected, ends)

    monkeypatch.setattr(qnl.criteria, "_certify", counted)
    psi = schmidt_state(3, [0.2, 0.4, np.sqrt(0.8)])
    zero_block = Metric(d=3, g=np.r_[np.linspace(0.5, 1.5, 6), 0.0, 0.0])
    for state, kind, g, runs in (
            (psi, WHITE, None, 0), (psi, DEPOL, colored_metric(3, 0.3), 0),
            (psi, AD, None, 0), (psi, AD, zero_block, 0),
            (psi, ChannelKind.PRODUCT, None, 1),
            (max_entangled(3), ChannelKind.COLORED, None, 0),
            (max_entangled(3), ChannelKind.COLORED, colored_metric(3, 0.3), 1),
            (psi, AD, identity_metric(3), 1)):
        certified.clear()
        critical_bisection(state, kind, g)
        assert len(certified) == runs, (kind, g)
    grid = np.linspace(0.0, np.pi / 2, 5)
    for kind, paths in ((WHITE, []), (AD, []),
                        (ChannelKind.PRODUCT, ["product"])):
        certified.clear()
        scan_surface(kind, grid, grid)
        assert certified == paths


# re-enters: the verdict is true on a window about 4e-4 wide near p = 0.37,
# below the bisected threshold 0.4193742610514164, between two points of
# the 100-point grid
REENTRANT_D2 = [0.5335533202133944, 0.8457664302212893]


def test_certificate_flags_a_switch_below_the_bracket():
    psi = schmidt_state(2, REENTRANT_D2)
    with pytest.raises(NonMonotonic, match="outside the bisection bracket"):
        critical_bisection(psi, AD, identity_metric(2))
    # the sampled grid saw one switch only
    verdict_grid_check(MarginBatch(2, psi.coeffs[None, :], AD,
                                   identity_metric(2)))


def certify(model, lo, hi, detected):
    """_certify, with the values at the ends of each input's pieces
    evaluated here, as _solve reads them while it locates the brackets."""
    ends = (np.zeros(model.size), lo, hi, np.ones(model.size))
    (l0, n0), (l_lo, n_lo), (l_hi, _), (l1, _) = (model.scalars(p)
                                                  for p in ends)
    return _certify(model, lo, hi, detected,
                    BracketEnds(n0 - l0, n_lo - l_lo, l_hi, l1))


class RootsMargin:
    """A synthetic margin model: l(p) = 0 and n(p) = tol + prod_k (p - r_k)
    for each input's roots r_k, evaluated as that product so that its sign
    is exact."""
    d = 2

    def __init__(self, roots):
        self.roots, self.size = roots, len(roots)

    def polynomial_form(self, rows=slice(None)):
        n = np.zeros((5, self.size))
        for row, r in enumerate(self.roots):
            n[:len(r) + 1, row] = np.poly(r)[::-1]
        n[0] += VERDICT_TOL
        n = n[:, rows]
        return MarginPolynomials(
            n=n, pairs=np.zeros((1, n.shape[1])), powers=np.array([1]),
            blocks=None, scale=np.sum(np.abs(n), axis=0))

    def scalars(self, p, rows=slice(None)):
        rows = np.arange(self.size)[rows]
        p = np.broadcast_to(p, rows.shape)
        n = VERDICT_TOL + np.array(
            [np.prod(x - np.asarray(self.roots[row]))
             for row, x in zip(rows, p)])
        return np.zeros_like(n), n

    def entangled(self, p):
        l, n = self.scalars(p)
        return n - l > VERDICT_TOL


# the first input's verdict switches once, at 0.7, but touches the
# tolerance at 0.3 (false side) or 0.9 (true side); CLEAN switches cleanly
TANGENT_BELOW, TANGENT_ABOVE, CLEAN = (0.3, 0.3, 0.7), (0.7, 0.9, 0.9), (0.7,)


@pytest.mark.parametrize("tangent, size, message", [
    (TANGENT_BELOW, 8, " near p = 0.3"),
    (TANGENT_ABOVE, 16, " near p = 0.9"),
    (TANGENT_BELOW, 1,
     f": proving one switch needs more than {CERTIFICATE_PIECES} pieces")])
def test_certificate_refuses_a_tangent_verdict(tangent, size, message):
    # with clean inputs beside it the tangent input's pieces narrow below
    # BISECTION_WIDTH within the work list's cap; alone, they outgrow it
    model = RootsMargin([tangent] + [CLEAN] * (size - 1))
    lo, hi = bisect_bracket(model.entangled, size)
    assert np.all(np.abs(hi - 0.7) < BISECTION_WIDTH)
    clean = np.arange(size) > 0
    # the clean inputs settle at their four ends
    assert certify(model, lo, hi, clean) == 4 * (size - 1)
    with pytest.raises(NonMonotonic,
                       match="detection verdict undecided" + message):
        certify(model, lo, hi, np.ones(size, dtype=bool))


class BulgeMargin(RootsMargin):
    """RootsMargin with l(p) = |M(p)| for the concave 1 x 1 block
    M(p) = 2p - p^2, added to n as well: the margin is unchanged, but l
    lies above its chord on [a, b] by (p - a)(b - p), which only the
    certificate's curvature term covers."""

    def polynomial_form(self, rows=slice(None)):
        form = super().polynomial_form(rows)
        n = form.n + np.array([[0.0], [2.0], [-1.0], [0.0], [0.0]])
        blocks = [np.full((1, 1, n.shape[1]), c) for c in (0.0, 2.0, -1.0)]
        return form._replace(n=n, blocks=blocks, scale=form.scale + 6.0)

    def scalars(self, p, rows=slice(None)):
        _, n = super().scalars(p, rows)
        l = 2.0 * np.broadcast_to(p, n.shape) - np.square(p)
        return l, n + l


def test_certificate_bounds_a_concave_block_by_its_curvature():
    # false on (0.6, 0.62), above the threshold 0.3, by at most 3.1e-5:
    # the chord alone lies up to 0.12 below l on [0.3, 1], and would
    # settle that piece in the first round
    model = BulgeMargin([(0.3, 0.6, 0.62)])
    lo, hi = bisect_bracket(model.entangled, 1)
    assert abs(hi[0] - 0.3) < BISECTION_WIDTH
    with pytest.raises(NonMonotonic, match="it is false at p = 0.6"):
        certify(model, lo, hi, np.array([True]))


@pytest.mark.parametrize("roots, verdict", [
    ((0.2, 0.5, 0.6), "true"),    # a window below the threshold 0.6
    ((0.3, 0.8, 0.9), "false")])  # a gap above the threshold 0.3
def test_certificate_flags_a_switch_outside_the_bracket(roots, verdict):
    model = RootsMargin([roots])
    lo, hi = bisect_bracket(model.entangled, 1)
    with pytest.raises(NonMonotonic, match=f"it is {verdict} at p = "
                       ".*, outside the bisection bracket"):
        certify(model, lo, hi, np.array([True]))


def test_certificate_skips_the_false_side_of_inputs_detected_at_zero():
    # true on [0, 0.1), false on (0.1, 0.6), true again above 0.6: only
    # [hi, 1] is proven; critical_bisection refuses such an input for
    # firing at zero
    model = RootsMargin([(0.1, 0.6)])
    lo, hi = bisect_bracket(model.entangled, 1)
    assert model.entangled(0.0)[0] and abs(lo[0] - 0.6) < BISECTION_WIDTH
    assert certify(model, lo, hi, np.array([True])) == 4


def test_certificate_cost_on_the_product_surface(monkeypatch):
    counts = []

    def counted(*args):
        counts.append(_certify(*args))
        return counts[-1]

    monkeypatch.setattr(qnl.criteria, "_certify", counted)
    grid = np.linspace(0.0, np.pi / 2, 101)
    scan = scan_surface(ChannelKind.PRODUCT, grid, grid)
    assert len(counts) == 1
    assert counts[0] <= 8 * np.count_nonzero(~scan.flags)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from(
    [(ChannelKind.PRODUCT, None), (ChannelKind.COLORED, None),
     (AD, "identity"), (AD, "colored"), (AD, "random")]))
def test_certified_batches_switch_once_inside_the_bracket(d, seed, case):
    # wherever the certificate passes, a 2,001-point grid sees at most one
    # switch per detected input that is not detected at p = 0, inside the
    # bracket the certificate proved: [lo, hi] widened by BISECTION_WIDTH
    kind, name = case
    rng = np.random.default_rng(seed)
    if kind is ChannelKind.COLORED:
        rows = np.tile(max_entangled(d).coeffs, (4, 1))
        g = colored_metric(d, rng.uniform(0.05, 1.0))
    else:
        rows = sampled_rows(rng, d)
        g = None if name is None else sampled_metric(rng, d, name)
        if name == "random":
            g = Metric(d=d, g=np.r_[g.g[:d * (d - 1)],
                                    rng.uniform(0.1, 2.0, d - 1)])
    batch = MarginBatch(d, rows, kind, g)
    assert not batch.monotone
    detected = batch.entangled(1.0)
    if not detected.any():
        return
    lo, hi = bisect_bracket(batch.entangled, batch.size)
    try:
        certify(batch, lo, hi, detected)
    except NonMonotonic:
        return
    # inputs detected at p = 0 get no false side, and no threshold
    detected &= ~batch.entangled(0.0)
    flags = grid_verdicts(batch, 2001)[:, detected]
    p = np.linspace(0.0, 1.0, 2001)
    switches = flags[1:] != flags[:-1]
    assert np.all(np.count_nonzero(switches, axis=0) <= 1)
    for column, (low, high) in zip(switches.T, zip(lo[detected],
                                                   hi[detected])):
        step = np.flatnonzero(column)
        if len(step):
            assert p[step[0]] <= high + BISECTION_WIDTH
            assert p[step[0] + 1] >= low - BISECTION_WIDTH


def test_two_by_two_blocks_never_reach_the_svd(monkeypatch):
    # the d = 3 diagonal-generator block takes the closed form
    svd = np.linalg.svd

    def guarded(a, *args, **kwargs):
        assert a.shape[-2:] != (2, 2)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", guarded)
    grid = np.linspace(0.0, np.pi / 2, 5)
    for kind in (ChannelKind.PRODUCT, AD, DEPOL):
        scan_surface(kind, grid, grid, quantity="xi")
    critical_bisection(qutrit_family(0.9, 0.7), AD, identity_metric(3))
    critical_bisection(max_entangled(3), ChannelKind.COLORED,
                       colored_metric(3, 0.3))


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


def fixed_metric(kind, d, g, p):
    """g, or for colored noise without one its own metric at p: a batch
    takes a fixed metric."""
    if g is None and kind is ChannelKind.COLORED:
        return colored_metric(d, p)
    return g


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
        for p in (0.0, 0.2, 0.55, 1.0):
            t = trace_tensor(state, kind, p)
            for g in metrics:
                w = default_metric(kind, d, p) if g is None else g
                l, n = MarginCurve(state, kind,
                                   fixed_metric(kind, d, g, p)).scalars(p)
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
    l, n = MarginCurve(psi, kind, fixed_metric(kind, d, g, p)).scalars(p)
    assert abs(l - l_ref) <= 1e-12 and abs(n - n_ref) <= 1e-12


BATCH_PATHS = {"white": WHITE, "depolarizing": DEPOL,
               "product": ChannelKind.PRODUCT, "colored": ChannelKind.COLORED,
               "damping": AD}


@pytest.mark.parametrize("weighted", [False, True], ids=["default", "random"])
@pytest.mark.parametrize("path", sorted(BATCH_PATHS))
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 10, 17])
def test_batch_scalars_equal_single_input_scalars(d, path, weighted):
    # a batch sums every input's terms in the order one input alone does:
    # from d = 5 the pairs, and from d = 4 the block entries, number 8 or
    # more, where numpy's pairwise sum interleaves them, and at d = 17 both
    # number more than 128, where it halves them
    kind = BATCH_PATHS[path]
    rng = np.random.default_rng(d)
    size = 64
    coeffs = np.tile(max_entangled(d).coeffs, (size, 1)) \
        if kind is ChannelKind.COLORED else sampled_rows(rng, d, size)
    g = Metric(d=d, g=rng.uniform(0.0, 2.0, size=d * d - 1)) \
        if weighted else None
    p = rng.uniform(0.0, 1.0, size=size)
    g = fixed_metric(kind, d, g, 0.3)
    l, n = MarginBatch(d, coeffs, kind, g).scalars(p)
    for k in range(size):
        single = MarginCurve(SchmidtState(d, coeffs[k]), kind, g)
        assert (l[k], n[k]) == single.scalars(p[k]), k


@pytest.mark.parametrize("d", [3, 5])
def test_damped_far_pairs_scale_by_the_rounded_square(d):
    # pairs away from the ground level carry v * (p * p), the square
    # rounded once; a metric that weights only one such pair's symmetric
    # generator reads it as l, and its square as n
    rng = np.random.default_rng(d)
    coeffs = sampled_rows(rng, d, 2049)
    dyadic = np.arange(1025) / 1024.0
    for p in (dyadic, rng.uniform(0.0, 1.0, size=1024)):
        rows = coeffs[:len(p)]
        for m in np.flatnonzero(np.triu_indices(d, 1)[0] > 0):
            w = np.zeros(d * d - 1)
            w[m] = 1.0
            l, n = MarginBatch(d, rows, AD, Metric(d=d, g=w)).scalars(p)
            scaled = pair_values(rows.T)[m] * (p * p)
            assert np.array_equal(l, np.abs(scaled))
            assert np.array_equal(n, scaled * scaled)


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


def oracle_coefficient_blocks(kind, coeffs, d):
    """The blocks C_k of c(d) D P(p) D^T = C0 + p C1 + p^2 C2, interpolated
    from the population oracle at p = 0, 1/2 and 1, (N, d-1, d-1) each."""
    at = [diagonal_block(populations(kind, coeffs, np.full(len(coeffs), x)),
                         diagonal_entries(d)) for x in (0.0, 0.5, 1.0)]
    return [at[0], 4.0 * at[1] - 3.0 * at[0] - at[2],
            2.0 * (at[2] - 2.0 * at[1] + at[0])]


@pytest.mark.parametrize("d", range(2, 17))
def test_horner_blocks_match_population_oracle(d):
    # the coefficient blocks C_k summed by Horner against c(d) D P(p) D^T
    # from the populations at p, within 4e-15 of sum_k p^k |C_k|: where the
    # block cancels (d = 2 under damping near p = 1/2, c(c0^2 + (1 - 2p)^2 S))
    # the oracle itself misses the exact block by 1.5e-14 of its norm
    rng = np.random.default_rng(200 + d)
    rows = sampled_rows(rng, d, 20)
    mes = np.tile(max_entangled(d).coeffs, (20, 1))
    p = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 17)])
    weighted = Metric(d=d, g=rng.uniform(0.5, 2.0, size=d * d - 1))
    for coeffs, kind, g in (
            (rows, ChannelKind.PRODUCT, None),
            (rows, ChannelKind.PRODUCT, weighted),
            (mes, ChannelKind.COLORED, colored_metric(d, 0.3)),
            (mes, ChannelKind.COLORED, weighted),
            (rows, AD, identity_metric(d)), (rows, AD, weighted)):
        batch = MarginBatch(d, coeffs, kind, g)
        ref = diagonal_block(populations(kind, coeffs, p),
                             diagonal_entries(d))
        err = np.linalg.norm(np.moveaxis(batch.block(p), -1, 0) - ref,
                             axis=(1, 2))
        scale = sum(p ** k * np.linalg.norm(c, axis=(1, 2)) for k, c in
                    enumerate(oracle_coefficient_blocks(kind, coeffs, d)))
        assert np.all(err <= 4e-15 * scale), (kind, g)


def test_colored_rejects_non_mes():
    with pytest.raises(UnsupportedChannel):
        MarginCurve(schmidt_state(3, [0.6, 0.0, 0.8]), ChannelKind.COLORED)


def test_colored_batch_needs_a_fixed_metric():
    # the channel's own metric follows v, which one batch cannot; inputs
    # that are not max-entangled are refused first, for that
    colored = ChannelKind.COLORED
    with pytest.raises(UnsupportedChannel, match=r"colored_metric\(d, v\)"):
        MarginBatch(3, max_entangled(3).coeffs[None, :], colored)
    with pytest.raises(UnsupportedChannel, match="only for the max-entangled"):
        MarginBatch(3, np.array([[0.6, 0.0, 0.8]]), colored)
    res = critical_bisection(max_entangled(3), colored)
    assert res == critical_analytic(3, colored)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.floats(0.0, 1.0, exclude_min=True,
                                     allow_subnormal=False))
def test_colored_margin_is_the_closed_cubic(d, v):
    # the dense trace tensor of the noisy max-entangled state under
    # colored_metric(d, v): n - l = v^2 ((3d - 4) + (d - 2)^2 v)/(d - 1)^2,
    # positive for every v > 0, hence critical_analytic's threshold 0.  The
    # difference cancels (1.5e-11 relative at v = 1e-4), so its bound is
    # a share of n + l
    t = trace_tensor(max_entangled(d), ChannelKind.COLORED, v)
    g = colored_metric(d, v)
    l, n = spectral_norm(t, g), norm_sq(t, g)
    l_closed = v * (1.0 - v * (d - 2.0) / (d - 1.0))
    n_closed = v * (1.0 + v * (-6.0 + 6.0 * d - d * d + v * (d - 2.0) ** 2)
                    / (d - 1.0) ** 2)
    cubic = v * v * ((3.0 * d - 4.0) + (d - 2.0) ** 2 * v) / (d - 1.0) ** 2
    assert abs(l - l_closed) <= 1e-13 * l_closed
    assert abs(n - n_closed) <= 1e-13 * n_closed
    assert abs((n - l) - cubic) <= 1e-13 * (n + l)


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


# thresholds of the block-form engine as it built the populations on every
# call (commit 7d0d1fc), pinned as threshold * 2**28 (an odd integer: the
# midpoint of a width 2**-27 bracket) or null where the input is not
# detected at p = 1; product noise's default metric is the identity
PINNED_THRESHOLDS = json.loads((Path(__file__).resolve().parent / "data"
                                / "pinned_thresholds.json").read_text())
PIN_CASES = {"product": (ChannelKind.PRODUCT, None),
             "ad default": (AD, None), "ad identity": (AD, identity_metric)}


def pinned_rows(d):
    """300 sampled coefficient rows, reduced-rank ones included, then the
    max-entangled row: the inputs of PINNED_THRESHOLDS at dimension d."""
    return np.vstack([sampled_rows(np.random.default_rng(d), d, 300),
                      max_entangled(d).coeffs])


@pytest.mark.parametrize("case", sorted(PIN_CASES))
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 10, 16])
def test_thresholds_equal_pinned_values(d, case):
    kind, metric = PIN_CASES[case]
    batch = MarginBatch(d, pinned_rows(d), kind,
                        None if metric is None else metric(d))
    threshold, detected, _ = qnl.criteria._solve(batch)
    pinned = PINNED_THRESHOLDS[case][str(d)]
    assert detected.tolist() == [k is not None for k in pinned]
    assert np.where(detected, threshold, None).tolist() \
        == [None if k is None else k / 2.0 ** 28 for k in pinned]


# the batches _solve takes as proven monotone under their default metric
MONOTONE_KINDS = (WHITE, DEPOL, AD)


@pytest.fixture
def fallbacks(monkeypatch):
    """The size of every bisect_bracket call: on a monotone batch, each
    input bisected is a switch point confirm_bracket did not confirm."""
    sizes = []

    def counted(fired, size, *start):
        sizes.append(size)
        return bisect_bracket(fired, size, *start)

    monkeypatch.setattr(qnl.solver, "bisect_bracket", counted)
    return sizes


def confirmed_and_bisected(batch):
    """(confirm_bracket's, bisect_bracket's) final brackets of a batch."""
    return (confirm_bracket(batch.entangled, batch.switch_points()),
            bisect_bracket(batch.entangled, batch.size))


def assert_same_brackets(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(MONOTONE_KINDS))
def test_confirmed_brackets_equal_bisection(d, seed, kind):
    # bit for bit, on rows with zero coefficients (no ground level among
    # them), product rows detected nowhere and the max-entangled row
    rng = np.random.default_rng(seed)
    ground_free = rng.uniform(0.1, 1.0, size=(4, d))
    ground_free[:, 0] = 0.0
    ground_free /= np.linalg.norm(ground_free, axis=1, keepdims=True)
    rows = np.vstack([sampled_rows(rng, d, 24), ground_free,
                      np.eye(d)[[0, d - 1]], max_entangled(d).coeffs])
    batch = MarginBatch(d, rows, kind)
    got, want = confirmed_and_bisected(batch)
    assert not batch.entangled(1.0)[-3:-1].any()
    assert_same_brackets(got, want)


class Switch:
    """Verdicts p > t, one switch per input: at t < 0 an input fires at
    p = 0, and at t >= 1 it is detected nowhere below 1."""

    def __init__(self, t):
        self.t = np.asarray(t, dtype=float)

    def fired(self, p, rows=slice(None)):
        return p > self.t[rows]


# switches on, beside and between the grid's points, and outside [0, 1)
SWITCHES = Switch([-0.5, 0.0, 2.0 ** -28, 2.0 ** -27, np.nextafter(0.25, 0.0),
                   0.25, np.nextafter(0.25, 1.0), 0.3, 0.5 + 2.0 ** -30,
                   1.0 - 2.0 ** -27, 1.0 - 2.0 ** -28, 1.0, 1.5])


@pytest.mark.parametrize("bins", [0, -1, 1, -1e6, 1e6])
def test_confirm_bracket_bisects_what_it_cannot_confirm(fallbacks, bins):
    want = bisect_bracket(SWITCHES.fired, len(SWITCHES.t))
    width = want[1][0] - want[0][0]
    got = confirm_bracket(SWITCHES.fired, SWITCHES.t + bins * width)
    assert_same_brackets(got, want)
    # exact guesses are all confirmed; guesses a bin or more off are not,
    # save those clipped into the right bin
    assert (sum(fallbacks) == 0) == (bins == 0)


@pytest.mark.parametrize("guess", [np.nan, 0.0, 1.0, -np.inf, np.inf])
def test_confirm_bracket_takes_any_guess(guess):
    got = confirm_bracket(SWITCHES.fired, np.full(len(SWITCHES.t), guess))
    assert_same_brackets(
        got, bisect_bracket(SWITCHES.fired, len(SWITCHES.t)))


@pytest.mark.parametrize("widen", [0, 1, 5, 2 ** 20, 2 ** 27])
def test_bisection_from_grid_brackets_equals_bisection(widen):
    # brackets that hold each switch, widened by up to `widen` bins on
    # either side and clipped to [0, 1], end on bisection's bins, in at
    # most as many sweeps as the widest takes to halve to one bin
    want = bisect_bracket(SWITCHES.fired, len(SWITCHES.t))
    rng = np.random.default_rng(widen)
    width = want[1][0] - want[0][0]
    lo = np.maximum(want[0] - rng.integers(0, widen + 1, len(want[0]))
                    * width, 0.0)
    hi = np.minimum(want[1] + rng.integers(0, widen + 1, len(want[1]))
                    * width, 1.0)
    sweeps = []
    got = bisect_bracket(lambda p: sweeps.append(p) or SWITCHES.fired(p),
                         len(lo), lo, hi)
    assert_same_brackets(got, want)
    assert len(sweeps) <= np.ceil(np.log2(np.max(hi - lo) / width))


def test_confirm_bracket_bisects_within_the_bracket(fallbacks):
    # a verdict that does not confirm the guessed bin narrows the bracket
    # to its side, and only that is bisected: a guess above the switch
    # leaves [0, guess's bin], one below it [guess's bin + 1, 1]
    switch = Switch([0.3, 0.7])
    want = bisect_bracket(switch.fired, 2)
    got = confirm_bracket(switch.fired, np.array([0.5, 0.5]),
                          np.zeros(2), np.ones(2))
    assert_same_brackets(got, want)
    assert fallbacks == [2]
    sweeps = []
    got = confirm_bracket(lambda p, rows: sweeps.append(p)
                          or switch.fired(p, rows), np.array([0.5, 0.5]))
    assert_same_brackets(got, want)
    # two verdicts at the guess's bin, then 26 halvings of a half
    assert len(sweeps) == 2 + 26


# scalars calls that critical_bisection made on these inputs when the
# certified paths bisected from [0, 1]: p = 1, 27 sweeps, the certificate's
# four ends, its halvings, and p = 0 again
BISECTED_CALLS = {("product", 64): 34, ("product", 256): 33,
                  ("colored", 12): 33, ("colored", 40): 33}


def test_certified_thresholds_take_few_margin_sweeps(monkeypatch):
    # damping under the identity metric on the benchmark's dense-sweep
    # draws (Schmidt coefficients sqrt(u / sum u), u ~ uniform(0.05, 1)),
    # then the max-entangled state under product noise, where the margin
    # is about 0 at p = 0 and the threshold small, and under colored noise
    # with a fixed metric
    calls = []
    scalars = MarginBatch.scalars

    def counted(self, p, rows=slice(None)):
        calls.append(p)
        return scalars(self, p, rows)

    monkeypatch.setattr(MarginBatch, "scalars", counted)
    counts = []
    for seed in range(16):
        rng = np.random.default_rng(seed)
        for d in (3, 6, 10, 16):
            raw = rng.uniform(0.05, 1.0, size=d)
            calls.clear()
            critical_bisection(schmidt_state(d, np.sqrt(raw / raw.sum())),
                               AD, identity_metric(d))
            counts.append(len(calls))
    assert np.median(counts) <= 15, counts
    for (path, d), bisected in BISECTED_CALLS.items():
        calls.clear()
        if path == "product":
            critical_bisection(max_entangled(d), ChannelKind.PRODUCT)
        else:
            critical_bisection(max_entangled(d), ChannelKind.COLORED,
                               colored_metric(d, 0.5))
        assert len(calls) <= bisected, (path, d, len(calls))


# the batches _solve locates by secant sweeps and certifies
CERTIFIED_CASES = ("product", "damping, identity metric",
                   "colored, fixed metric")


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(CERTIFIED_CASES))
def test_located_brackets_equal_bisection(d, seed, case):
    # bit for bit, _solve's thresholds are the midpoints of bisection's
    # brackets from [0, 1], on random rows, rows with zero coefficients,
    # basis rows detected nowhere and the max-entangled row; where the
    # certificate refuses them, it refuses bisection's brackets too
    rng = np.random.default_rng(seed)
    mes = max_entangled(d).coeffs
    if case == "colored, fixed metric":
        rows, kind = np.tile(mes, (4, 1)), ChannelKind.COLORED
        g = colored_metric(d, rng.uniform(0.05, 1.0))
    else:
        sparse = rng.uniform(0.1, 1.0, size=(4, d))
        sparse[np.arange(4), rng.integers(0, d, 4)] = 0.0
        sparse /= np.linalg.norm(sparse, axis=1, keepdims=True)
        rows = np.vstack([sampled_rows(rng, d, 24), sparse,
                          np.eye(d)[[0, d - 1]], mes])
        kind, g = (ChannelKind.PRODUCT, None) if case == "product" \
            else (AD, identity_metric(d))
    batch = MarginBatch(d, rows, kind, g)
    assert not batch.monotone
    lo, hi = bisect_bracket(batch.entangled, batch.size)
    detected = batch.entangled(1.0)
    try:
        threshold, got_detected, _ = qnl.criteria._solve(batch)
    except NonMonotonic:
        with pytest.raises(NonMonotonic):
            certify(batch, lo, hi, detected)
        return
    assert np.array_equal(got_detected, detected)
    assert np.array_equal(threshold, 0.5 * (lo + hi))


@pytest.mark.parametrize("kind", MONOTONE_KINDS)
def test_scan_rows_are_all_confirmed(fallbacks, kind):
    # the benchmarked 101 x 101 qutrit-family rows: no switch point falls
    # back to bisection, and every bracket is bisection's
    grid = np.linspace(0.0, np.pi / 2.0, 101)
    scans = [scan_surface(kind, grid, grid, quantity)
             for quantity in ("crit", "xi")]
    assert fallbacks == []
    batch = MarginBatch(3, qutrit_family_coeffs(grid[:, None], grid)
                        .reshape(-1, 3), kind)
    got, want = confirmed_and_bisected(batch)
    assert_same_brackets(got, want)
    assert np.array_equal(scans[0].values.ravel(), np.where(
        scans[0].flags.ravel(), 1.0, 0.5 * (want[0] + want[1])))


@pytest.mark.parametrize("kind", MONOTONE_KINDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 10, 16])
def test_pinned_rows_are_all_confirmed(fallbacks, d, kind):
    batch = MarginBatch(d, pinned_rows(d), kind)
    threshold, detected, _ = qnl.criteria._solve(batch)
    assert fallbacks == []
    lo, hi = bisect_bracket(batch.entangled, batch.size)
    assert np.array_equal(threshold[detected], (0.5 * (lo + hi))[detected])


def test_table_thresholds_are_all_confirmed(fallbacks):
    # qnl tables solves only on proven paths: nothing is bisected
    reproduce_tables()
    assert fallbacks == []



def test_subnormal_quartic_coefficient_warns_nothing():
    # B is subnormal here, so A / (3 B) overflows in the Cardano start,
    # which printed a RuntimeWarning; the switch point is NaN and the
    # input is bisected
    batch = MarginBatch(3, np.array([[0.6, 0.8, 1e-160]]), AD)
    assert np.isnan(batch.switch_points()[0])
    threshold, detected, _ = qnl.criteria._solve(batch)
    lo, hi = bisect_bracket(batch.entangled, 1)
    assert detected[0] and threshold[0] == 0.5 * (lo[0] + hi[0])


# log10 ranges of the squared ground coefficient of two stress families
GROUND_SQUARES = {"ground coefficient in [1e-8, 1e-3]": (-16.0, -6.0),
                  "ground coefficient in [1e-100, 1e-8]": (-200.0, -16.0)}


def damping_stress_batch(rng, d, family, size=2000):
    """A damping batch of `size` sampled rows from one stress family."""
    raw = rng.uniform(0.0, 1.0, size=(size, d))
    if family in GROUND_SQUARES:
        raw[:, 0] = 10.0 ** rng.uniform(*GROUND_SQUARES[family], size)
        # the excited levels share the rest of the unit sum
        raw[:, 1:] *= (1.0 - raw[:, :1]) / raw[:, 1:].sum(axis=1,
                                                            keepdims=True)
    if family == "near rank 2, levels >= 2 in [1e-100, 1e-4]":
        raw[:, 2:] = 10.0 ** rng.uniform(-200.0, -8.0, (size, d - 2))
    coeffs = np.sqrt(raw / raw.sum(axis=1, keepdims=True))
    metric = sampled_metric(rng, d, "random, no diagonal weight") \
        if family == "random metric, no diagonal weight" else None
    return MarginBatch(d, coeffs, AD, metric)


@pytest.mark.parametrize("family", [
    "uniform", *GROUND_SQUARES, "near rank 2, levels >= 2 in [1e-100, 1e-4]",
    "random metric, no diagonal weight"])
def test_damping_switch_points_snap_to_the_newton_oracle(fallbacks, family):
    # two Newton steps land in the bin of Newton run to 1e-15 relative, and
    # confirm_bracket bisects nothing.  Started from the Cardano root
    # alone, which lies within tol / alpha below the quartic's root, the
    # steps would overshoot where alpha is tiny, and ground coefficients
    # below about 1e-9 would fall back
    def bins(p):
        return np.floor(np.where(p < 1.0, p, 1.0) * qnl.solver._BINS)

    detected_inputs = 0
    for d in (2, 3, 4, 6, 10, 16, 32):
        batch = damping_stress_batch(np.random.default_rng(d), d, family)
        assert batch.monotone and batch.path == "damping"
        guess = batch.switch_points()
        detected = batch.entangled(1.0)
        assert np.array_equal(bins(guess)[detected], bins(
            damping_switch_points(batch))[detected]), d
        confirm_bracket(batch.entangled, guess)
        assert fallbacks == [], d
        detected_inputs += np.count_nonzero(detected)
    assert detected_inputs > 5000
