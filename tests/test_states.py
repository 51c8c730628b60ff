import numpy as np
import pytest

from qnl.errors import (DimensionMismatch, NegativeCoefficient,
                        NotHermitian, NotNormalizable, RankTooLarge)
from qnl.states import (SchmidtState, TwoQuditState, max_entangled,
                        nmax_state, qutrit_family, rank_k_state,
                        schmidt_state, to_density)


def test_schmidt_state_normalizes_small_drift():
    c = np.array([0.6, 0.8]) * (1.0 + 2e-7)
    psi = schmidt_state(2, c)
    assert np.sum(psi.coeffs ** 2) == pytest.approx(1.0, abs=1e-15)


def test_schmidt_state_rejects_large_drift():
    with pytest.raises(NotNormalizable):
        schmidt_state(2, [0.6, 0.82])


def test_schmidt_state_rejects_negative_and_zero():
    with pytest.raises(NegativeCoefficient):
        schmidt_state(2, [-0.6, 0.8])
    with pytest.raises(NotNormalizable):
        schmidt_state(2, [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        schmidt_state(3, [1.0, 0.0])


def test_ket_layout():
    psi = schmidt_state(3, [1.0, 0.0, 0.0])
    v = psi.ket()
    assert v[0] == 1.0 and np.count_nonzero(v) == 1
    mes = max_entangled(3)
    k = mes.ket()
    for i in range(3):
        assert k[i * 3 + i] == pytest.approx(1 / np.sqrt(3))


def test_rank_counts_nonzero_coefficients():
    assert schmidt_state(4, [1.0, 0.0, 0.0, 0.0]).rank == 1
    assert max_entangled(4).rank == 4
    assert rank_k_state(4, 2, [0.6, 0.8]).rank == 2


def test_is_max_entangled():
    assert max_entangled(5).is_max_entangled()
    assert not schmidt_state(2, [0.6, 0.8]).is_max_entangled()


def test_qutrit_family_points():
    assert qutrit_family(0.0, 0.3).rank == 1
    mes = qutrit_family(np.arctan(np.sqrt(2.0)), np.pi / 4.0)
    assert mes.is_max_entangled(1e-12)
    # quadrant edge must come out exactly zero, not -1e-17
    edge = qutrit_family(np.pi / 2.0, np.pi / 2.0)
    assert edge.coeffs[2] == 0.0 and edge.rank == 1


@pytest.mark.parametrize("alpha, beta", [(np.nan, np.inf), (np.inf, np.nan),
                                         (np.inf, 0.0), (0.3, -np.inf)])
def test_qutrit_family_rejects_non_finite_angles(alpha, beta):
    # rejected before any trigonometry, so numpy never warns
    with pytest.raises(NotNormalizable, match="angles must be finite"):
        qutrit_family(alpha, beta)


def test_rank_k_state_support_is_top_levels():
    psi = rank_k_state(4, 2, np.full(2, 1 / np.sqrt(2)))
    assert psi.coeffs[0] == 0.0 and psi.coeffs[1] == 0.0
    assert psi.coeffs[2] == psi.coeffs[3] == pytest.approx(1 / np.sqrt(2))


def test_rank_k_state_bounds():
    with pytest.raises(RankTooLarge):
        rank_k_state(3, 3, np.full(3, 1 / np.sqrt(3)))
    with pytest.raises(RankTooLarge):
        rank_k_state(3, 0, [])
    with pytest.raises(DimensionMismatch):
        rank_k_state(4, 2, [1.0])


def test_nmax_states():
    psi3 = nmax_state(3)
    expect = qutrit_family(4 * np.pi / 15, np.pi / 4)
    assert np.allclose(psi3.coeffs, expect.coeffs)
    psi4 = nmax_state(4)
    assert psi4.d == 4
    assert psi4.coeffs[0] == pytest.approx(np.cos(0.853))
    assert np.allclose(psi4.coeffs[1:], np.sin(0.853) / np.sqrt(3))
    with pytest.raises(DimensionMismatch):
        nmax_state(5)


def test_to_density_is_pure():
    rho = to_density(schmidt_state(3, [0.6, 0.0, 0.8]))
    assert np.trace(rho.rho).real == pytest.approx(1.0)
    assert np.max(np.abs(rho.rho @ rho.rho - rho.rho)) < 1e-12


def test_reduced_state_is_squared_coefficients():
    c = np.array([0.2, 0.4, np.sqrt(1 - 0.04 - 0.16)])
    rho = to_density(schmidt_state(3, c))
    for side in (0, 1):
        red = rho.reduced(side)
        assert np.max(np.abs(red - np.diag(c ** 2))) < 1e-12


def test_two_qudit_state_validation():
    with pytest.raises(DimensionMismatch):
        TwoQuditState(2, np.eye(3, dtype=complex) / 3)
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.5
    with pytest.raises(NotHermitian):
        TwoQuditState(2, bad)
    with pytest.raises(NotNormalizable):
        TwoQuditState(2, np.eye(4, dtype=complex))
    neg = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotNormalizable):
        TwoQuditState(2, neg)


def test_state_arrays_are_readonly():
    psi = max_entangled(2)
    with pytest.raises(ValueError):
        psi.coeffs[0] = 1.0
    rho = to_density(psi)
    with pytest.raises(ValueError):
        rho.rho[0, 0] = 2.0
