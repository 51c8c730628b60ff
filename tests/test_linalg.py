import numpy as np
import pytest

from qnl.errors import NotHermitian
from qnl.linalg import (hermitian_eigenvalues, is_hermitian,
                        largest_singular_value, partial_trace)


def power_iteration_sigma(a, iters=500):
    # independent largest-singular-value oracle: power iteration on a^H a
    m = a.conj().T @ a
    v = np.ones(m.shape[0], dtype=complex)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt((v.conj() @ m @ v).real))


def test_is_hermitian():
    assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_sorted():
    a = np.diag([3.0, -1.0, 2.0]).astype(complex)
    vals = hermitian_eigenvalues(a)
    assert np.allclose(vals, [-1.0, 2.0, 3.0])


def test_hermitian_eigenvalues_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_largest_singular_value_against_power_iteration():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert largest_singular_value(a) == pytest.approx(
            power_iteration_sigma(a), abs=1e-9)


def test_largest_singular_value_empty():
    assert largest_singular_value(np.zeros((0, 0))) == 0.0


def test_partial_trace_factorizes_products():
    rng = np.random.default_rng(3)
    d = 3
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ra = x @ x.conj().T
    rb = y @ y.conj().T
    ra /= np.trace(ra).real
    rb /= np.trace(rb).real
    rho = np.kron(ra, rb)
    assert np.allclose(partial_trace(rho, d, 0), ra, atol=1e-12)
    assert np.allclose(partial_trace(rho, d, 1), rb, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(4)
    d = 2
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for keep in (0, 1):
        assert np.trace(partial_trace(rho, d, keep)).real == pytest.approx(1.0)
