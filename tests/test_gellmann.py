"""Basis construction: ordering, orthogonality, dimension checks."""

import numpy as np
import pytest

from qnl.errors import InvalidDimension
from qnl.gellmann import (ANTISYMMETRIC, DIAGONAL, SYMMETRIC, check_dimension,
                          gellmann_basis)

from oracles import loop_basis

SQ3 = 1.0 / np.sqrt(3.0)

# the standard qutrit generator set, written out entrywise
STANDARD_QUTRIT = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    SQ3 * np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex),
]


def test_check_dimension_rejects_bad_input():
    for bad in (1, 0, -3, True):
        with pytest.raises(InvalidDimension):
            check_dimension(bad)
    assert check_dimension(2) == 2


def test_check_dimension_bounds_array_sizes():
    # the largest d for which d^2 (d^4) units of 1 KiB fit numpy's limit
    assert check_dimension(94_906_265) == 94_906_265
    assert check_dimension(9741, 4) == 9741
    for d, power in ((94_906_266, 2), (9742, 4), (2 ** 63 - 1, 2),
                     (np.int64(2 ** 62), 2), (10 ** 20, 2)):
        with pytest.raises(InvalidDimension, match="too large"):
            check_dimension(d, power)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_orthogonality_and_tracelessness(d):
    basis = gellmann_basis(d)
    assert basis.size == d * d - 1
    for i in range(basis.size):
        mi = basis.matrices[i]
        assert abs(np.trace(mi)) < 1e-14
        assert np.max(np.abs(mi - mi.conj().T)) < 1e-14
        for j in range(i, basis.size):
            tr = np.trace(mi @ basis.matrices[j]).real
            assert abs(tr - (2.0 if i == j else 0.0)) < 1e-12


@pytest.mark.parametrize("d", range(2, 17))
def test_basis_equals_loop_oracle(d):
    # byte for byte, so signed zeros count too
    basis = gellmann_basis.__wrapped__(d)
    mats, groups, pairs = loop_basis(d)
    assert basis.matrices.tobytes() == np.array(mats).tobytes()
    assert basis.group_of == tuple(groups)
    assert basis.pair_of == tuple(pairs)


def test_qubit_basis_is_pauli():
    basis = gellmann_basis(2)
    assert np.array_equal(basis.matrices[0],
                          np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(basis.matrices[1],
                          np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(basis.matrices[2],
                          np.array([[1, 0], [0, -1]], dtype=complex))


def test_qutrit_basis_matches_standard_set():
    basis = gellmann_basis(3)
    for std in STANDARD_QUTRIT:
        hits = [i for i in range(basis.size)
                if np.max(np.abs(basis.matrices[i] - std)) < 1e-12]
        assert len(hits) == 1


def test_ordering_convention():
    basis = gellmann_basis(3)
    assert basis.group_of == (SYMMETRIC, SYMMETRIC, SYMMETRIC,
                              ANTISYMMETRIC, ANTISYMMETRIC, ANTISYMMETRIC,
                              DIAGONAL, DIAGONAL)
    assert basis.pair_of[:3] == ((0, 1), (0, 2), (1, 2))
    assert basis.pair_of[3:6] == ((0, 1), (0, 2), (1, 2))


def test_matrices_are_readonly():
    basis = gellmann_basis(3)
    with pytest.raises(ValueError):
        basis.matrices[0][0, 0] = 5.0

