"""The 16 result records: immutable, compared by their fields (arrays by
value) and hashed by them as a tuple, printed as a frozen dataclass prints
them (array fields hidden), and checked once per construction.

Each record is compared with a frozen dataclass of the same fields, the
form the records had before they became Record subclasses.
"""

import copy
import itertools
import pickle
import re
from dataclasses import field, make_dataclass

import numpy as np
import pytest

from qnl.bell import BellValue, MeasurementSettings, cglmp_settings
from qnl.channels import ChannelKind, ChannelSpec, KrausSet
from qnl.criteria import CriterionVerdict, CriticalResult, SurfaceScan
from qnl.errors import (DimensionMismatch, NotHermitian, NotNormalizable,
                        QnlError, StrengthOutOfRange, UnsupportedChannel)
from qnl.fidelity import FidelityReport, WernerGap
from qnl.gellmann import GellMannBasis
from qnl.record import Record, set_field
from qnl.reports import TableBundle, TableCell
from qnl.states import SchmidtState, TwoQuditState, max_entangled
from qnl.tensor import CorrelationTensor, Metric

WHITE = ChannelKind.WHITE


def _settings_args(d=3):
    s = cglmp_settings(d)
    return d, s.a_vectors.copy(), s.b_vectors.copy()


# (class, fields in order, fields repr hides, valid positional arguments)
RECORDS = [
    (MeasurementSettings, ("d", "a_vectors", "b_vectors"),
     {"a_vectors", "b_vectors"}, _settings_args),
    (BellValue, ("i_d", "probabilities"), {"probabilities"},
     lambda: (2.5, np.zeros((2, 2, 3, 3)))),
    (ChannelSpec, ("kind", "strength"), set(), lambda: (WHITE, 0.5)),
    (KrausSet, ("d", "operators"), {"operators"},
     lambda: (2, np.eye(2, dtype=complex)[None])),
    (CriterionVerdict, ("spectral_norm", "norm_sq", "margin", "entangled"),
     set(), lambda: (1.0, 2.0, 1.0, True)),
    (CriticalResult, ("parameter_name", "value", "method", "channel",
                      "state"),
     set(), lambda: ("v", 0.25, "bisection", WHITE, "max-entangled d=3")),
    (SurfaceScan, ("kind", "quantity", "alphas", "betas", "values", "flags"),
     {"alphas", "betas", "values", "flags"},
     lambda: (WHITE, "crit", np.zeros(2), np.zeros(3), np.zeros((2, 3)),
              np.zeros((2, 3), dtype=bool))),
    (FidelityReport, ("d", "channel", "f_crit", "strength_at_threshold",
                      "formula_value", "direct_value"),
     set(), lambda: (3, WHITE, 0.9, 0.5, 0.8, 0.8)),
    (WernerGap, ("d", "channel", "bell_threshold", "detection_threshold",
                 "gap"),
     set(), lambda: (3, WHITE, 0.7, 0.25, 0.45)),
    (GellMannBasis, ("d", "matrices", "group_of", "pair_of"),
     {"matrices", "group_of", "pair_of"},
     lambda: (2, np.zeros((3, 2, 2)), ("symmetric", "antisymmetric",
                                        "diagonal"),
              ((0, 1), (0, 1), (1, 1)))),
    (TableCell, ("table", "noise", "d", "column", "computed", "expected",
                 "tolerance", "flags"),
     set(), lambda: ("detection", "white", "3", "max_entangled", 0.25, 0.25,
                     1e-4, ("no-paper-reference",))),
    (TableBundle, ("cells", "failures", "flagged"), set(),
     lambda: ([], 0, 0)),
    (SchmidtState, ("d", "coeffs"), {"coeffs"},
     lambda: (2, np.array([0.6, 0.8]))),
    (TwoQuditState, ("d", "rho"), {"rho"}, lambda: (2, np.eye(4) / 4)),
    (CorrelationTensor, ("d", "t"), {"t"}, lambda: (2, np.zeros((3, 3)))),
    (Metric, ("d", "g"), {"g"}, lambda: (2, np.ones(3))),
]
IDS = [r[0].__name__ for r in RECORDS]


def reference_class(cls, fields, hidden):
    """The frozen dataclass each record was before."""
    ref = make_dataclass(cls.__name__,
                         [(name, object, field(repr=name not in hidden))
                          for name in fields], frozen=True)
    ref.__qualname__ = cls.__qualname__
    return ref


def same_value(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_every_record_is_listed():
    assert len(RECORDS) == 16
    assert all(issubclass(cls, Record) for cls, *_ in RECORDS)


@pytest.mark.parametrize("cls, fields, hidden, make", RECORDS, ids=IDS)
def test_fields_are_slots_in_order(cls, fields, hidden, make):
    args = make()
    r = cls(*args)
    assert cls.__slots__ == fields
    assert set(cls._hidden) == hidden
    assert list(r._asdict()) == list(fields)
    assert all(v is a for v, a in zip(r._asdict().values(), args))
    # keyword construction, as the package's builders call most records
    assert cls(**dict(zip(fields, args)))._asdict().keys() == set(fields)
    with pytest.raises(TypeError):
        vars(r)  # no per-instance dict


@pytest.mark.parametrize("cls, fields, hidden, make", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, hidden, make):
    r = cls(*make())
    for name in fields:
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            setattr(r, name, None)
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1


@pytest.mark.parametrize("cls, fields, hidden, make", RECORDS, ids=IDS)
def test_repr_eq_and_hash_as_the_dataclass(cls, fields, hidden, make):
    args = make()
    r, ref = cls(*args), reference_class(cls, fields, hidden)(*args)
    assert repr(r) == repr(ref)
    # the same field objects compare equal, arrays included (tuple
    # comparison tries identity first)
    assert r == cls(*args)
    assert not r != cls(*args)
    try:
        want = hash(ref)
    except TypeError:  # an array or list field
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == want == hash(tuple(args))


@pytest.mark.parametrize("cls, fields, hidden, make", RECORDS, ids=IDS)
def test_never_equals_another_class(cls, fields, hidden, make):
    args = make()
    r = cls(*args)
    twin = object.__new__(type(cls.__name__, (Record,),
                               {"__slots__": fields}))
    for name, value in zip(fields, args):
        set_field(twin, name, value)
    assert r != twin and twin != r
    assert r != tuple(args)
    assert r.__eq__(twin) is NotImplemented


@pytest.mark.parametrize("cls, fields, hidden, make", RECORDS, ids=IDS)
def test_equal_but_distinct_arrays_compare_equal(cls, fields, hidden, make):
    a, b = make(), make()
    assert all(x is not y for x, y in zip(a, b)
               if isinstance(x, np.ndarray))
    assert cls(*a) == cls(*b)
    assert not cls(*a) != cls(*b)


def test_different_arrays_compare_unequal():
    assert max_entangled(3) == max_entangled(3)
    assert max_entangled(3) != SchmidtState(3, np.array([0.6, 0.8, 0.0]))
    assert Metric(2, np.ones(3)) != Metric(2, np.array([1.0, 1.0, 0.0]))
    assert CorrelationTensor(2, np.zeros((3, 3))) \
        != CorrelationTensor(2, np.eye(3))
    scan = (WHITE, "crit", np.zeros(2), np.zeros(3))
    values = np.zeros((2, 3))
    flags = np.zeros((2, 3), dtype=bool)
    assert SurfaceScan(*scan, values, flags) \
        != SurfaceScan(*scan, values + 0.5, flags)
    assert SurfaceScan(*scan, values, flags) \
        != SurfaceScan(*scan, values, ~flags)


def test_array_records_of_another_class_are_not_compared():
    psi = max_entangled(2)
    metric = Metric(2, np.ones(3))
    assert psi.__eq__(metric) is NotImplemented
    assert metric.__eq__(psi) is NotImplemented
    assert psi != metric


def test_records_of_different_classes_differ():
    records = [cls(*make()) for cls, _, _, make in RECORDS]
    for a, b in itertools.permutations(records, 2):
        assert a != b


def test_equality_and_hash_follow_the_fields():
    assert ChannelSpec(WHITE, 0.5) != ChannelSpec(WHITE, 0.25)
    assert ChannelSpec(WHITE, 0.5) != ChannelSpec(ChannelKind.PRODUCT, 0.5)
    assert len({ChannelSpec(WHITE, 0.5), ChannelSpec(WHITE, 0.5),
                ChannelSpec(WHITE, 0.25)}) == 2
    cell = ("detection", "white", "3", "rank_2", 0.25, 0.25, 1e-4)
    assert TableCell(*cell) == TableCell(*cell, ())
    assert TableCell(*cell) != TableCell(*cell, ("no-detection",))


@pytest.mark.parametrize("cls, fields, hidden, make", RECORDS, ids=IDS)
def test_copy_and_pickle_construct_anew(cls, fields, hidden, make):
    r = cls(*make())
    for other in (copy.copy(r), copy.deepcopy(r),
                  pickle.loads(pickle.dumps(r))):
        assert type(other) is cls
        assert all(same_value(getattr(other, n), getattr(r, n))
                   for n in fields)


@pytest.mark.parametrize("cls, names", [
    (MeasurementSettings, ("a_vectors", "b_vectors")),
    (BellValue, ("probabilities",)),
    (KrausSet, ("operators",)),
    (SchmidtState, ("coeffs",)),
    (TwoQuditState, ("rho",)),
    (CorrelationTensor, ("t",)),
    (Metric, ("g",)),
], ids=lambda x: x.__name__ if isinstance(x, type) else "")
def test_array_fields_become_read_only(cls, names):
    make = next(m for c, _, _, m in RECORDS if c is cls)
    r = cls(*make())
    for name in names:
        assert not getattr(r, name).flags.writeable


def _not_orthonormal():
    d, a, b = _settings_args()
    return d, 2 * a, b


CHECKS = [
    (lambda: MeasurementSettings(4, *_settings_args()[1:]),
     DimensionMismatch, "settings shape (2, 3, 3) does not match d=4"),
    (lambda: MeasurementSettings(*_not_orthonormal()),
     DimensionMismatch, "outcome vectors are not orthonormal"),
    (lambda: ChannelSpec(WHITE, 1.5),
     StrengthOutOfRange, "strength 1.5 outside [0, 1]"),
    (lambda: ChannelSpec(ChannelKind.AMPLITUDE_DAMPING, -0.1),
     StrengthOutOfRange, "strength -0.1 outside [0, 1]"),
    (lambda: KrausSet(2, 0.5 * np.eye(2, dtype=complex)[None]),
     UnsupportedChannel, "Kraus operators do not sum to the identity"),
    (lambda: FidelityReport(3, WHITE, 0.9, 0.5, 0.8, 0.7),
     QnlError, "closed-form and direct fidelity disagree: 0.8 vs 0.7"),
    (lambda: TwoQuditState(3, np.eye(4) / 4),
     DimensionMismatch, "rho shape (4, 4) does not match d=3"),
    (lambda: TwoQuditState(2, np.triu(np.ones((4, 4))) / 4),
     NotHermitian, "matrix is not Hermitian within"),
    (lambda: TwoQuditState(2, np.eye(4) / 2),
     NotNormalizable, "trace is 2.0, expected 1"),
    (lambda: TwoQuditState(2, np.diag([1.5, -0.5, 0.0, 0.0])),
     NotNormalizable, "density matrix has a negative eigenvalue"),
    (lambda: CorrelationTensor(3, np.zeros((3, 3))),
     DimensionMismatch, "tensor shape (3, 3) does not match d=3"),
    (lambda: Metric(3, np.ones(3)),
     DimensionMismatch, "metric shape (3,) does not match d=3"),
    (lambda: Metric(2, np.array([1.0, -1.0, 1.0])),
     ValueError, "metric weights must be nonnegative"),
]


@pytest.mark.parametrize("build, exc, message", CHECKS,
                         ids=[m[:30] for _, _, m in CHECKS])
def test_checks_run_at_construction(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value).startswith(message)


def test_channel_strength_is_stored_as_checked():
    spec = ChannelSpec(WHITE, 1)
    assert type(spec.strength) is float
    assert repr(spec) == "ChannelSpec(kind=<ChannelKind.WHITE: 'white'>, " \
        "strength=1.0)"
