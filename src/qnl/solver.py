"""The threshold solver: where a batch's detection verdicts switch in p.

A verdict reads n - l > VERDICT_TOL, for the weighted squared norm n and
spectral norm l of a noisy state's correlation tensor at noise-free
fraction p in [0, 1] (criteria.MarginBatch).  A threshold is the midpoint
of the final bracket of a bisection to BISECTION_WIDTH (bisect_bracket),
and it needs a verdict that switches once in p.  A verdict that switches
once does so on that bisection's grid too, in one bin, so a guess of the
switch point snapped to the grid is confirmed by two verdicts
(confirm_bracket), and only the inputs it cannot confirm are bisected,
within the bracket their verdicts give.  The guess is a closed form where
the single switch is a theorem (criteria.MarginBatch.switch_points,
bell.critical_lr); elsewhere it comes from at most SECANT_SWEEPS secant
sweeps on the margin (_secant_guess), and _certify proves the single
switch per input from the margin's polynomial form (MarginPolynomials)
and the values the solver read at the bracket's ends.

Batches keep their inputs on the last axis of every array, as the batch
kernels of tensor.py take them, and so do the certificate's work arrays:
each per-input reduction reads contiguous rows of N numbers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import NonMonotonic
from .tensor import spectral_norms, sum_per_input, supporting_functionals

if TYPE_CHECKING:
    from .criteria import MarginBatch

VERDICT_TOL = 1e-10
BISECTION_WIDTH = 1e-8
# bisect_bracket ends on a bin of the grid of multiples of 1 / _BINS
_BINS = 2.0 ** math.ceil(-math.log2(BISECTION_WIDTH))
# off the proven paths, a switch point is guessed by at most this many
# secant sweeps before its bin is confirmed
SECANT_SWEEPS = 8
# a certificate's bounds must clear the tolerance by this share of the
# scale of the margin's terms, so that rounding never yields a proof
CERTIFICATE_SLACK = 64 * np.finfo(float).eps
# the certificate's work list holds at most this many pieces per input
CERTIFICATE_PIECES = 16
# inputs certified together: bounds the certificate's work arrays, which
# hold a few dozen numbers per piece, near the bisection's own
CERTIFICATE_INPUTS = 1024
# q(a + (b - a) t) = sum_j beta_j C(4, j) t^j (1 - t)^(4 - j) for q of
# degree <= 4: beta = _TO_BERNSTEIN @ (q at a + (b - a) _NODES), and the
# smallest and largest beta_j bound q on [a, b].  The matrix is the exact
# inverse of the Bernstein basis at the nodes, written out: inverting it
# at import would load LAPACK into every command
_NODES = np.linspace(0.0, 1.0, 5)
_TO_BERNSTEIN = np.array([[36, 0, 0, 0, 0],
                          [-39, 144, -108, 48, -9],
                          [26, -128, 240, -128, 26],
                          [-9, 48, -108, 144, -39],
                          [0, 0, 0, 0, 36]]) / 36.0


def _inputs(x: np.ndarray, rows) -> np.ndarray:
    """The inputs `rows` (a slice or indices) of an array that keeps them
    last; indices are gathered by take, several times faster there than
    fancy indexing."""
    return x[..., rows] if isinstance(rows, slice) else x.take(rows, axis=-1)


def _horner(coefficients, x):
    """sum_k x^k coefficients[k], summed by Horner from the top."""
    total = coefficients[-1]
    for coefficient in reversed(coefficients[:-1]):
        total = total * x + coefficient
    return total


class MarginPolynomials(NamedTuple):
    """A batch's margin as polynomials in p, per input (N inputs, last).

    n (5, N) holds the coefficients of the weighted squared norm in powers
    p^0 .. p^4.  The weighted spectral norm is l(p) = max(max_m pairs_m
    p^powers_m, sigma_max(sum_k p^k blocks[k])): pairs (d(d-1)/2, N) are
    the weighted pair entries' moduli at p = 1, powers (d(d-1)/2,) their
    exponents, and blocks, at most 3 coefficients (d-1, d-1, N) of the
    weighted diagonal-generator block, None where the metric gives that
    block no weight.  scale (N,) bounds the moduli of the terms that sum
    to n and l at any p in [0, 1]: rounding errors are a share of it."""
    n: np.ndarray
    pairs: np.ndarray
    powers: np.ndarray
    blocks: list | None
    scale: np.ndarray


def bisect_bracket(fired, size: int, lo=None, hi=None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Bisect size inputs together on the grid of multiples of
    BISECTION_WIDTH rounded down to a power of two; the final brackets
    (lo, hi), one bin of that grid each.

    fired(p) maps one p per input to one verdict per input; each input's
    verdict is false below its threshold and true above it, so it is
    false at every lo but 0 and true at every hi but 1.  Brackets start at
    [lo, hi], grid points that hold the switch, by default [0, 1], and
    each one wider than a bin is halved on every step, its midpoint
    rounded down to the grid.  From [0, 1] every bracket halves on every
    step, so all share one width, a power of two: the loop takes 27 steps,
    and every end is a multiple of that width.  Inputs whose bracket is a
    bin already are evaluated at its lo and keep it."""
    lo = np.zeros(size) if lo is None else lo * _BINS
    hi = np.full(size, _BINS) if hi is None else hi * _BINS
    while np.any(wide := hi - lo > 1.0):
        mid = np.floor(0.5 * (lo + hi))
        up = fired(mid / _BINS)
        hi = np.where(wide & up, mid, hi)
        lo = np.where(wide & ~up, mid, lo)
    return lo / _BINS, hi / _BINS


def quadratic_root(a, b, c):
    """The root of a x^2 + b x = c that tends to c / b as a -> 0, the
    positive one for a >= 0 < c, by the form that avoids cancellation; inf
    or NaN where there is none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(b * b + 4.0 * a * c)
        return np.where(b >= 0.0, 2.0 * c / (b + r), (r - b) / (2.0 * a))


def confirm_bracket(fired, guess, lo=None, hi=None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """bisect_bracket's final brackets, located from a guess of each
    input's switch point; fired(p, rows) maps one p per entry of rows (all
    inputs, or the indices of some) to their verdicts.  lo and hi, grid
    points whose verdicts are known, bound each input's switch (false or 0
    at lo, true or 1 at hi); by default [0, 1].

    A verdict that switches once does so on the grid of multiples of the
    final width too, and bisection ends on the one bin [lo, hi] of that
    grid whose lo is 0 or false and whose hi is 1 or true.  So the guess,
    snapped to the grid and into its bracket, needs two verdicts to
    confirm its bin, each taken only if an input's bin end lies inside its
    bracket.  A guess of NaN or of 1 or more takes the top bin, where
    bisection leaves an input not detected below 1.  A verdict that does
    not confirm narrows the bracket to its side, and inputs whose bin is
    not confirmed are bisected within their brackets."""
    lo = np.zeros(len(guess)) if lo is None else lo
    hi = np.ones(len(guess)) if hi is None else hi
    # the bin's two ends, one after the other
    p = np.clip(np.floor(np.where(guess < 1.0, guess, 1.0) * _BINS),
                lo * _BINS, hi * _BINS - 1.0) / _BINS
    for _ in range(2):
        inside = (lo < p) & (p < hi)
        if inside.any():
            up = fired(p, slice(None))
            hi = np.where(inside & up, p, hi)
            lo = np.where(inside & ~up, p, lo)
        p = p + 1.0 / _BINS
    rows = np.flatnonzero(hi - lo > 1.0 / _BINS)
    if len(rows):
        lo, hi = lo.copy(), hi.copy()
        lo[rows], hi[rows] = bisect_bracket(lambda p: fired(p, rows),
                                            len(rows), lo[rows], hi[rows])
    return lo, hi


class BracketEnds(NamedTuple):
    """What _certify reads at the ends of the pieces [0, lo] and [hi, 1] of
    each input (N,): the margin n - l at p = 0 and at lo, which pick the
    false side's bound, and l at hi and at p = 1, whose chord bounds the
    true side's.  The solver evaluated all four."""
    margin_zero: np.ndarray
    margin_lo: np.ndarray
    spectral_hi: np.ndarray
    spectral_one: np.ndarray


class _Bracket:
    """The grid brackets that a batch's verdicts give its inputs as the
    solver evaluates them, with the values _certify reads at their ends.

    lo holds the largest p found false (0 before any) and hi the smallest
    found true (1 before any); a verdict at a point outside its input's
    bracket moves nothing.  A fresh bracket is [0, 1], with the margin at
    p = 0 and l at p = 1."""

    def __init__(self, batch: MarginBatch, margin_zero: np.ndarray,
                 spectral_one: np.ndarray):
        self.batch = batch
        self.lo, self.hi = np.zeros(batch.size), np.ones(batch.size)
        self.margin_lo = margin_zero.copy()
        self.spectral_hi = spectral_one.copy()

    def margins(self, p, rows=slice(None)) -> np.ndarray:
        """Margins n - l of the inputs rows at grid points p, one per entry;
        each point inside its input's bracket becomes one of its ends."""
        l, margin = self.batch.margins(p, rows)
        up = margin > VERDICT_TOL
        lo, hi = self.lo[rows], self.hi[rows]
        low = ~up & (lo < p) & (p < hi)
        high = up & (lo < p) & (p < hi)
        self.lo[rows] = np.where(low, p, lo)
        self.margin_lo[rows] = np.where(low, margin, self.margin_lo[rows])
        self.hi[rows] = np.where(high, p, hi)
        self.spectral_hi[rows] = np.where(high, l, self.spectral_hi[rows])
        return margin

    def fired(self, p, rows=slice(None)) -> np.ndarray:
        return self.margins(p, rows) > VERDICT_TOL


def _secant_guess(bracket: _Bracket, margin_zero: np.ndarray,
                  margin_one: np.ndarray) -> np.ndarray:
    """Each input's switch point, guessed by at most SECANT_SWEEPS sweeps
    for the inputs detected at p = 1 and not at p = 0.  Of the others, one
    detected at 0 guesses 0, the bin bisection ends on where the verdict
    holds throughout, and one not detected at 1 guesses 1, the top bin.
    margin_one becomes a work array.

    The margin m is modelled by the quadratic through (0, m(0)) and the
    last two points evaluated, at first p = 1/2 and 1: a secant on
    (m(p) - m(0)) / p.  It is exact where n and l are a quadratic and a
    line in p, as under product noise on the max-entangled state.  A plain
    secant on m creeps where the margin is about 0 at p = 0 and dips below
    it, as under damping with the identity metric, and most where the
    threshold is small.  Each sweep evaluates the grid point nearest the
    model's root, or nearest the bracket's midpoint where the root falls
    outside the bracket, for each input whose point lies strictly inside
    its bracket; the others are done, and confirm_bracket checks the bin
    of their root.  An input's model changes only when it is evaluated, so
    the roots of the last sweep are the guesses."""
    at_zero = margin_zero > VERDICT_TOL
    todo = (margin_one > VERDICT_TOL) & ~at_zero
    guessed = todo
    # the older of the last two points evaluated, and the margin at the
    # newer, which is then an end of the bracket
    p1, q1 = np.ones(len(todo)), margin_one
    q2 = bracket.margins(0.5)
    for sweep in range(SECANT_SWEEPS + 1):
        x = _secant_root(bracket, margin_zero, p1, q1, q2)
        lo, hi = bracket.lo, bracket.hi
        # evaluated where the grid point nearest the root is inside
        todo = todo & (lo + 0.5 / _BINS < x) & (x < hi - 0.5 / _BINS)
        if sweep == SECANT_SWEEPS or not todo.any():
            return np.where(guessed, x, np.where(at_zero, 0.0, 1.0))
        np.copyto(p1, np.where(q2 > VERDICT_TOL, hi, lo), where=todo)
        np.copyto(q1, q2, where=todo)
        x = np.round(x * _BINS) / _BINS
        if 2 * np.count_nonzero(todo) > len(todo):
            # evaluate the whole batch, the other inputs at their lo, which
            # moves nothing: gathering most inputs costs more than the rest
            np.copyto(x, lo, where=~todo)
            np.copyto(q2, bracket.margins(x), where=todo)
        else:
            rows = np.flatnonzero(todo)
            q2[rows] = bracket.margins(x[rows], rows)


def _secant_root(bracket: _Bracket, margin_zero: np.ndarray, p1, q1,
                 q2) -> np.ndarray:
    """Per input, the root of _secant_guess's model through margin_zero at
    p = 0, q1 at p1 and q2 at the bracket end last evaluated, or the
    bracket's midpoint where that root is not strictly inside it."""
    lo, hi = bracket.lo, bracket.hi
    p2 = np.where(q2 > VERDICT_TOL, hi, lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        g1, g2 = (q1 - margin_zero) / p1, (q2 - margin_zero) / p2
        c2 = (g2 - g1) / (p2 - p1)
        x = quadratic_root(c2, g2 - c2 * p2, VERDICT_TOL - margin_zero)
    return np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))


def _certify(batch: MarginBatch, lo: np.ndarray, hi: np.ndarray,
             detected: np.ndarray, ends: BracketEnds) -> int:
    """Prove that the verdict of each detected input is false on [0, lo]
    and true on [hi, 1], its final bisection bracket [lo, hi], from the
    values ends holds at the ends of those pieces; return the number of
    (input, p) points whose scalars the proof reads: the four ends of each
    input, and each point at which it evaluates sigma_max.

    On a piece [a, b] of either side, with the margin's polynomial form
    (MarginBatch.polynomial_form), weighted block M(p) = M0 + p M1 + p^2 M2:
    - true side: M(p) = A(p) + (p - a)(p - b) M2 exactly, A the affine
      interpolant of M between a and b.  sigma_max(A(p)) and the pair term
      are convex in p, so l(p) <= chord(l(a), l(b)) + K (p - a)(b - p),
      K = sigma_max(M2);
    - false side: l(p) >= <F, M(p)>, F the supporting functional of M at
      the endpoint with the larger margin (tensor.supporting_functionals),
      or the top pair term there if it is larger; exact at that endpoint.
    n minus the bound is a polynomial of degree <= 4, bounded on [a, b] by
    its Bernstein coefficients; every comparison keeps CERTIFICATE_SLACK
    of the form's scale.  A piece no bound settles is halved, with one
    scalars call per round for all of them.  A halving point whose verdict
    contradicts its side is a switch outside the bracket.  A piece that
    touches the bracket and is narrower than BISECTION_WIDTH is dropped,
    so the one switch lies within BISECTION_WIDTH of the bracket on either
    side; a narrower piece elsewhere leaves the verdict undecided, as does
    a work list longer than CERTIFICATE_PIECES per input.  Inputs whose
    verdict is true at p = 0 get no false side.  Inputs are certified
    CERTIFICATE_INPUTS at a time.  Raises NonMonotonic."""
    rows = np.flatnonzero(detected)
    evaluations = 0
    for start in range(0, len(rows), CERTIFICATE_INPUTS):
        chunk = rows[start:start + CERTIFICATE_INPUTS]
        evaluations += _certify_inputs(
            batch, chunk, lo[chunk], hi[chunk],
            BracketEnds(*(values[chunk] for values in ends)))
    return evaluations


def _certify_inputs(batch: MarginBatch, rows: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray, ends: BracketEnds) -> int:
    """_certify on the inputs `rows` of a batch, whose brackets are
    [lo, hi] and whose values at the pieces' ends are ends: one work list,
    the count of points read."""
    form = batch.polynomial_form(rows)
    size = len(rows)
    # K per input: the block's p^2 coefficient, zero where it is affine
    curvature = np.zeros(size)
    if form.blocks is not None and len(form.blocks) == 3:
        curvature = spectral_norms(form.blocks[2], np.ones((batch.d - 1, 1)))
    has_false = (ends.margin_zero <= VERDICT_TOL) & (lo > 0.0)
    has_true = hi < 1.0
    # one column per piece: a, b and the values y(a), y(b) its bound
    # reads, the margin on the false side and l on the true side
    pieces = np.concatenate([
        np.stack([np.zeros(size), lo, ends.margin_zero,
                  ends.margin_lo])[:, has_false],
        np.stack([hi, np.ones(size), ends.spectral_hi,
                  ends.spectral_one])[:, has_true]], axis=1)
    # each piece's input, as a position in rows
    owner = np.concatenate([np.flatnonzero(has_false),
                            np.flatnonzero(has_true)])
    true_side = np.repeat([False, True], [np.sum(has_false),
                                          np.sum(has_true)])
    evaluations = 4 * size
    while len(owner):
        settled = _settled(form, curvature, owner, true_side, pieces)
        a, b = pieces[0], pieces[1]
        narrow = b - a < BISECTION_WIDTH
        at_bracket = np.where(true_side, a == hi[owner], b == lo[owner])
        if np.any(narrow & ~settled & ~at_bracket):
            p = a[narrow & ~settled & ~at_bracket][0]
            raise NonMonotonic(
                f"detection verdict undecided near p = {p:.9g}, away from "
                "the bisection bracket")
        keep = ~settled & ~narrow
        if 2 * np.count_nonzero(keep) > CERTIFICATE_PIECES * size:
            raise NonMonotonic(
                "detection verdict undecided: proving one switch needs more "
                f"than {CERTIFICATE_PIECES} pieces per input")
        pieces, owner = pieces[:, keep], owner[keep]
        true_side = true_side[keep]
        if not len(owner):
            break
        mid = 0.5 * (pieces[0] + pieces[1])
        l, n = batch.scalars(mid, rows[owner])
        evaluations += len(mid)
        wrong = (n - l > VERDICT_TOL) != true_side
        if np.any(wrong):
            verdict = "false" if true_side[wrong][0] else "true"
            raise NonMonotonic(
                f"detection verdict switches more than once: it is {verdict} "
                f"at p = {mid[wrong][0]:.9g}, outside the bisection bracket")
        left, right = pieces.copy(), pieces.copy()
        left[1] = right[0] = mid
        left[3] = right[2] = np.where(true_side, l, n - l)
        pieces = np.concatenate([left, right], axis=1)
        owner, true_side = np.tile(owner, 2), np.tile(true_side, 2)
    return evaluations


def _settled(form: MarginPolynomials, curvature: np.ndarray,
             owner: np.ndarray, true_side: np.ndarray,
             pieces: np.ndarray) -> np.ndarray:
    """Whether the bounds of _certify prove each piece's side."""
    a, b, ya, yb = pieces
    t = _NODES[:, None]
    at = a + (b - a) * t
    slack = CERTIFICATE_SLACK * form.scale[owner]
    settled = np.zeros(len(owner), dtype=bool)
    i = np.flatnonzero(true_side)
    width = b[i] - a[i]
    upper = ya[i] * (1.0 - t) + yb[i] * t \
        + (curvature[owner[i]] * width * width) * (t * (1.0 - t))
    beta = _TO_BERNSTEIN @ (_horner(form.n[:, owner[i]], at[:, i]) - upper)
    settled[i] = np.min(beta, axis=0) > VERDICT_TOL + slack[i]
    i = np.flatnonzero(~true_side)
    q = form.n[:, owner[i]] - _lower_bound(
        form, owner[i], np.where(ya[i] >= yb[i], a[i], b[i]))
    beta = _TO_BERNSTEIN @ _horner(q, at[:, i])
    settled[i] = np.max(beta, axis=0) <= VERDICT_TOL - slack[i]
    return settled


def _lower_bound(form: MarginPolynomials, rows: np.ndarray,
                 e: np.ndarray) -> np.ndarray:
    """Coefficients in p^0 .. p^4 of a polynomial below l(p) on [0, 1]
    that meets it at p = e, (5, len(rows)): the top pair term at e, or
    <F, M(p)> for the supporting functional F of the block at e."""
    take = np.arange(len(rows))
    pairs = _inputs(form.pairs, rows)
    pair_at = pairs * np.where(form.powers[:, None] == 1, e, e * e)
    top = np.argmax(pair_at, axis=0)
    coeffs = np.zeros((5, len(rows)))
    coeffs[form.powers[top], take] = pairs[top, take]
    if form.blocks is None:
        return coeffs
    blocks = [_inputs(m, rows) for m in form.blocks]
    block = _horner(blocks, e)
    f = supporting_functionals(block)
    use = sum_per_input(f * block) > pair_at[top, take]
    coeffs[:, use] = 0.0
    for j, m in enumerate(blocks):
        coeffs[j, use] = sum_per_input(f * m)[use]
    return coeffs
