"""Acceptance gate: twelve end-to-end checks with stated tolerances.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see one
PASS/FAIL line per criterion.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from qnl.bell import (
    ad_probability_table,
    cglmp_ad_infinite,
    cglmp_ad_value,
    cglmp_settings,
    critical_lr,
    infinite_threshold,
    probability_table,
)
from qnl.channels import (
    ChannelKind,
    ChannelSpec,
    amplitude_damping_kraus,
    channel_output,
)
from qnl.cli import main as cli_main
from qnl.criteria import (
    critical_analytic,
    critical_bisection,
    scan_surface,
    xi,
)
from qnl.fidelity import critical_fidelity, werner_gap
from qnl.gellmann import gellmann_basis
from qnl.states import (
    SchmidtState,
    max_entangled,
    rank_k_state,
    to_density,
)
from qnl.tensor import correlation_tensor, schmidt_correlation_tensor

from oracles import colored_always_entangled, depolarizing_kraus

WHITE = ChannelKind.WHITE
DEPOL = ChannelKind.DEPOLARIZING
AD = ChannelKind.AMPLITUDE_DAMPING


@contextmanager
def criterion(n, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} ({label}): FAIL")
        raise
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {n} took {dt:.1f}s, budget {budget}s"
    print(f"criterion {n:2d} ({label}): PASS in {dt:.2f}s")


STANDARD_QUTRIT = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    np.diag([1, 1, -2]).astype(complex) / np.sqrt(3.0),
]


def test_criterion_01_basis():
    with criterion(1, "operator basis", budget=1.0):
        for d in range(2, 9):
            b = gellmann_basis(d)
            n = d * d - 1
            assert len(b.matrices) == n
            for m in b.matrices:
                assert abs(np.trace(m)) < 1e-12
                assert np.max(np.abs(m - m.conj().T)) < 1e-12
            gram = np.array([[np.trace(a @ c).real for c in b.matrices]
                             for a in b.matrices])
            assert np.max(np.abs(gram - 2.0 * np.eye(n))) < 1e-12
        # the d=3 set must be exactly the eight standard qutrit generators,
        # each matched once, whatever internal ordering the basis uses
        mats = gellmann_basis(3).matrices
        used = set()
        for std in STANDARD_QUTRIT:
            hits = [i for i in range(8)
                    if i not in used and np.max(np.abs(mats[i] - std)) < 1e-12]
            assert len(hits) == 1
            used.add(hits[0])
        assert len(used) == 8


def test_criterion_02_tensor_oracle():
    with criterion(2, "tensor closed form vs trace", budget=10.0):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4, 5):
            for _ in range(50):
                raw = rng.uniform(0.05, 1.0, size=d)
                psi = SchmidtState(d, np.sqrt(raw / raw.sum()))
                direct = correlation_tensor(to_density(psi)).t
                closed = schmidt_correlation_tensor(psi).t
                assert np.max(np.abs(direct - closed)) <= 1e-9


def test_criterion_03_analytic_criticals():
    with criterion(3, "analytic thresholds + bisection"):
        assert abs(critical_analytic(3, WHITE).value - 0.25) < 1e-12
        for d in range(2, 9):
            assert abs(critical_analytic(d, WHITE).value
                       - 1.0 / (d + 1)) < 1e-12
            assert abs(critical_analytic(d, DEPOL).value
                       - (d + 1) ** -0.5) < 1e-12
        for d, quoted in ((2, 0.5774), (3, 0.5000), (4, 0.4472)):
            assert abs(critical_analytic(d, DEPOL).value - quoted) < 1e-4
        for d, quoted in ((3, 0.4534), (4, 0.4239)):
            p = critical_analytic(d, AD).value
            assert abs(p - quoted) < 1e-4
            assert abs((d - 2) * p ** 3 + 2 * p - 1.0) < 1e-12
        for d, kind in ((3, WHITE), (2, DEPOL), (3, DEPOL), (4, DEPOL),
                        (3, AD), (4, AD)):
            bis = critical_bisection(max_entangled(d), kind).value
            assert abs(bis - critical_analytic(d, kind).value) < 1e-6


def test_criterion_04_rank_table():
    with criterion(4, "Schmidt-rank thresholds", budget=30.0):
        cells = (
            (DEPOL, 3, 2, 0.6546), (DEPOL, 4, 2, 0.6794),
            (DEPOL, 4, 3, 0.5283),
            (AD, 3, 2, 0.8165), (AD, 4, 2, 0.8660), (AD, 4, 3, 0.6124),
        )
        for kind, d, k, quoted in cells:
            psi = rank_k_state(d, k, np.full(k, 1.0 / np.sqrt(k)))
            assert abs(critical_bisection(psi, kind).value - quoted) <= 5e-4


def test_criterion_05_xi_table():
    with criterion(5, "surviving-fraction table"):
        for d in (2, 3, 4, 5):
            p = critical_analytic(d, DEPOL).value
            assert abs(xi(max_entangled(d), DEPOL, p)
                       - 1.0 / (d + 1)) < 1e-12
        for d, quoted in ((3, 0.3888), (4, 0.3256)):
            p = critical_analytic(d, AD).value
            assert abs(xi(max_entangled(d), AD, p) - quoted) <= 5e-4


def test_criterion_06_colored_noise():
    with criterion(6, "colored noise always detected"):
        samples = (1e-4, 1e-2, 0.5, 1.0)
        for d in range(2, 7):
            assert colored_always_entangled(d, samples)


def test_criterion_07_bell_thresholds():
    with criterion(7, "Bell visibility thresholds", budget=120.0):
        for d, quoted in ((3, 0.6962), (4, 0.6906)):
            v = critical_lr(max_entangled(d), WHITE).value
            assert abs(v - quoted) <= 1e-3
        depol_cells = ((2, 0.8410), (3, 0.8344), (4, 0.8310),
                       (5, 0.8290), (10, 0.8248))
        for d, quoted in depol_cells:
            p = critical_lr(max_entangled(d), DEPOL).value
            assert abs(p - quoted) <= 1e-3
        ad_cells = ((2, 0.7071), (3, 0.7468), (4, 0.7647),
                    (5, 0.7750), (10, 0.7954))
        for d, quoted in ad_cells:
            p = critical_lr(max_entangled(d), AD).value
            assert abs(p - quoted) <= 1e-3


def test_criterion_08_closed_form_probabilities():
    with criterion(8, "damping probability closed form"):
        for d in range(2, 7):
            for r in (0.0, 0.3, 0.7, 1.0):
                rho = channel_output(max_entangled(d), ChannelSpec(AD, r))
                born = probability_table(rho)
                closed = ad_probability_table(d, r)
                assert np.max(np.abs(born - closed)) <= 1e-8


def test_criterion_09_infinite_limit():
    with criterion(9, "infinite-dimension limit"):
        limit = cglmp_ad_infinite(0.0)
        assert abs(limit - 2.9698) <= 1e-4
        assert abs(infinite_threshold() - 0.8206) <= 1e-4
        i100 = cglmp_ad_value(100, 0.0).i_d
        assert abs(i100 - limit) / limit <= 0.02


def test_criterion_10_fidelity_table():
    with criterion(10, "fidelity at Bell threshold"):
        for kind, quotes in ((DEPOL, (0.8834, 0.8544, 0.8426)),
                             (AD, (0.8660, 0.8397, 0.8298))):
            for d, quoted in zip((2, 3, 4), quotes):
                assert abs(critical_fidelity(d, kind).f_crit
                           - quoted) <= 5e-4
        for kind, quotes in ((DEPOL, (0.2637, 0.3344, 0.3838)),
                             (AD, (0.2071, 0.2934, 0.3408))):
            for d, quoted in zip((2, 3, 4), quotes):
                assert abs(werner_gap(d, kind).gap - quoted) <= 1e-3


def test_criterion_11_surfaces():
    with criterion(11, "two-angle family surfaces", budget=300.0):
        mes_alpha = np.arctan(np.sqrt(2.0))  # equal-weight point
        grid = np.linspace(0.0, np.pi / 2.0, 101)

        white = scan_surface(WHITE, grid, grid)
        assert white.values.shape == (101, 101)
        a, b, val = white.minimum()
        assert 0.25 - 1e-9 <= val <= 0.2525   # grid straddles the true MES
        assert abs(a - mes_alpha) <= 0.02 and abs(b - np.pi / 4) <= 1e-9
        exact = critical_bisection(max_entangled(3), WHITE).value
        assert abs(exact - 0.25) < 1e-6

        product = scan_surface(ChannelKind.PRODUCT, grid, grid)
        assert bool(product.flags[0, 0]) and bool(product.flags[100, 0])
        assert abs(product.values[1, 0] - 0.6039) <= 1e-3

        damp = scan_surface(AD, grid, grid)
        a, b, val = damp.minimum()
        assert abs(val - 0.447) <= 1e-3
        assert abs(a - 4 * np.pi / 15) <= 0.02 and abs(b - np.pi / 4) <= 1e-9

        frac = scan_surface(AD, grid, grid, quantity="xi")
        a, b, val = frac.minimum()
        assert abs(val - 0.3560) <= 1e-3
        assert abs(a - 7 * np.pi / 18) <= 0.02 and abs(b - np.pi / 4) <= 1e-9


def test_criterion_12_property_suites(tmp_path):
    with criterion(12, "invariants and determinism"):
        strengths = np.linspace(0.0, 1.0, 5)
        for d in (2, 3):
            psi = max_entangled(d)
            for kind in ChannelKind:
                for s in strengths:
                    rho = channel_output(psi, ChannelSpec(kind, s)).rho
                    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
                    assert abs(np.trace(rho).real - 1.0) < 1e-10
                    assert np.linalg.eigvalsh(rho).min() > -1e-10
        for d in range(2, 7):
            for s in strengths:
                for ks in (depolarizing_kraus(d, s),
                           amplitude_damping_kraus(d, s)):
                    total = sum(k.conj().T @ k for k in ks.operators)
                    assert np.max(np.abs(total - np.eye(d))) <= 1e-10
        psi = SchmidtState(3, np.sqrt([0.5, 0.3, 0.2]))
        base = correlation_tensor(to_density(psi)).t
        for v in strengths:
            scaled = correlation_tensor(
                channel_output(psi, ChannelSpec(WHITE, v))).t
            assert np.max(np.abs(scaled - v * base)) <= 1e-14
        for d in range(2, 7):
            rho = channel_output(max_entangled(d), ChannelSpec(AD, 0.4))
            sums = probability_table(rho).sum(axis=(2, 3))
            assert np.max(np.abs(sums - 1.0)) <= 1e-8
        # identical bytes from identical config + seed
        pairs = (
            ["cglmp", "--d", "2", "--state", "mes", "--channel", "depol:0.3",
             "--optimize", "--restarts", "1", "--seed", "9"],
            ["scan", "--channel", "white", "--grid", "5"],
        )
        for i, args in enumerate(pairs):
            out_a = tmp_path / f"run{i}_a"
            out_b = tmp_path / f"run{i}_b"
            assert cli_main(args + ["--out", str(out_a)]) == 0
            assert cli_main(args + ["--out", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes()
