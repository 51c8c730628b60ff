"""Traceless Hermitian generator basis for a single qudit.

Ordering convention used everywhere in this package:

  block 1, symmetric:      S_{jk} = |j><k| + |k><j|          for j < k,
                           pairs in lexicographic order
  block 2, antisymmetric:  A_{jk} = -i|j><k| + i|k><j|       same pair order
  block 3, diagonal:       D_l = sqrt(2/(l(l+1))) (sum_{j<l} |j><j| - l|l><l|)
                           for l = 1..d-1

All d^2 - 1 matrices are traceless, Hermitian, and satisfy
Tr(B_i B_j) = 2 delta_ij.  For d=2 this is exactly (sigma_x, sigma_y,
sigma_z).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidDimension
from .record import Record, set_field

# group tags, in storage order
SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
DIAGONAL = "diagonal"


# numpy describes an array only if its byte count fits an intp.  Every
# array the package builds from a size n (a dimension d or a scan's grid)
# holds at most UNIT_BYTES per n^power: power 2 for the O(d^2) paths and a
# scan's grid^2 cells, 4 for dense two-qudit operators.  tracemalloc peaks
# of whole commands read at most 0.6 KiB per unit at d = 10 (power 4),
# d = 400 (power 2) and grid = 151, and fall with size.  A size within the
# bound ends at worst in MemoryError, which the CLI reports as exit 2.
MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)
UNIT_BYTES = 1024


def describable(n: int, power: int) -> bool:
    """True if arrays of UNIT_BYTES per n**power entries fit numpy."""
    return UNIT_BYTES * int(n) ** power <= MAX_ARRAY_BYTES


def check_dimension(d: int, power: int = 2) -> int:
    """d as an int: an integer >= 2 whose arrays, d**power units of
    UNIT_BYTES, numpy can describe.  Callers that build dense two-qudit
    arrays pass power 4; larger d end in InvalidDimension here rather than
    in numpy's ValueError or TypeError."""
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 2:
        raise InvalidDimension(f"dimension must be an integer >= 2, got {d!r}")
    if not describable(d, power):
        raise InvalidDimension(
            f"dimension {d} is too large: its d^{power}-sized arrays would "
            "exceed numpy's largest array")
    return int(d)


class GellMannBasis(Record):
    """The d^2-1 generators plus index bookkeeping.

    matrices[i] is the i-th generator; group_of[i] is one of the three group
    tags; pair_of[i] is (j, k) with j < k for the off-diagonal groups and
    (l, l) for the diagonal group.
    """

    __slots__ = ("d", "matrices", "group_of", "pair_of")
    _hidden = ("matrices", "group_of", "pair_of")

    def __init__(self, d: int, matrices: np.ndarray, group_of: tuple,
                 pair_of: tuple):
        set_field(self, "d", d)
        set_field(self, "matrices", matrices)  # (d^2-1, d, d) complex
        set_field(self, "group_of", group_of)
        set_field(self, "pair_of", pair_of)

    @property
    def size(self) -> int:
        return self.d * self.d - 1


def diagonal_entries(d: int) -> np.ndarray:
    """D[l - 1, a], the diagonal of generator D_l, (d-1, d): s_l for a < l,
    -l s_l for a = l, 0 above; s_l = sqrt(2/(l(l+1)))."""
    l, a = np.arange(1, d)[:, None], np.arange(d)
    s = np.sqrt(2.0 / (l * (l + 1)))
    return np.where(a < l, s, np.where(a == l, -l * s, 0.0))


@lru_cache(maxsize=32)
def gellmann_basis(d: int) -> GellMannBasis:
    d = check_dimension(d, 4)
    js, ks = np.triu_indices(d, 1)
    sym, anti = np.arange(len(js)), np.arange(len(js), 2 * len(js))
    levels = np.arange(d)
    arr = np.zeros((d * d - 1, d, d), dtype=complex)
    arr[sym, js, ks] = arr[sym, ks, js] = 1.0
    arr[anti, js, ks] = -1.0j
    arr[anti, ks, js] = 1.0j
    arr[2 * len(js):, levels, levels] = diagonal_entries(d)
    arr.setflags(write=False)
    pairs = list(zip(js.tolist(), ks.tolist()))
    return GellMannBasis(
        d=d, matrices=arr,
        group_of=(SYMMETRIC,) * len(js) + (ANTISYMMETRIC,) * len(js)
        + (DIAGONAL,) * (d - 1),
        pair_of=tuple(pairs + pairs + [(l, l) for l in range(1, d)]))
