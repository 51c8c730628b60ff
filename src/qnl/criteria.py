"""Entanglement verdicts, critical-parameter solvers, and surface scans.

The detection rule: a state is flagged entangled when the weighted squared
norm of its correlation tensor exceeds the weighted spectral norm,
norm_sq > spectral_norm + tol.  The rule is sufficient only; a false
verdict means "not detected".

Solvers sweep the noise-free fraction p in [0, 1] (p = v for mixing
channels, p = 1 - r for Kraus channels).  One margin model, MarginBatch,
evaluates a batch of Schmidt inputs at once on the block form of
tensor.py, for every channel and every metric; no density matrix is
built.  A channel enters only through its block form (channels.block_form):
how its pair entries scale with p, and the populations P(p) of the noisy
state, a polynomial in p of degree at most 2 whose coefficient blocks
each batch builds once and sums by Horner at every p.  One solver, _solve,
finds the threshold of every input of a batch together, by the threshold
solver of solver.py; critical_bisection is its single-input case, and
scan_surface batches the whole qutrit-family surface.  A threshold is the
midpoint of the final bracket of a bisection to solver.BISECTION_WIDTH,
and it needs a verdict that switches once in p.  _solve guesses each input's
switch point and confirms the guess's bin of the bisection's grid with
two verdicts (solver.confirm_bracket).  Where a single switch is a theorem
(MarginBatch.monotone: the scaling path, and damping with no weight on
the diagonal generators) the guess is the closed-form switch point
(MarginBatch.switch_points).  On every other path it comes from secant
sweeps on the margin, and the single switch of each input is certified
from the margin's polynomial form (MarginBatch.polynomial_form): the
verdict is false on [0, lo] and true on [hi, 1] for the final bracket
[lo, hi], or _solve raises NonMonotonic.

A batch keeps its inputs on the last axis of every array, as the batch
kernels of tensor.py take them.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelKind, block_form
from .errors import (DimensionMismatch, NoDetectionInRange,
                     UnsupportedChannel)
from .record import Record, set_field
from .solver import (VERDICT_TOL, BracketEnds, MarginPolynomials, _Bracket,
                     _certify, _horner, _inputs, _secant_guess,
                     confirm_bracket, quadratic_root)
from .states import SchmidtState, qutrit_family_coeffs
from .tensor import (CorrelationTensor, Metric, block_norms, block_scalars,
                     block_weights, colored_metric, damping_metric,
                     diagonal_block, diagonal_entries, identity_metric,
                     norm_sq, pair_values, spectral_norm, sum_per_input)


class CriterionVerdict(Record):
    __slots__ = ("spectral_norm", "norm_sq", "margin", "entangled")

    def __init__(self, spectral_norm: float, norm_sq: float, margin: float,
                 entangled: bool):
        set_field(self, "spectral_norm", spectral_norm)
        set_field(self, "norm_sq", norm_sq)
        set_field(self, "margin", margin)
        set_field(self, "entangled", entangled)


class CriticalResult(Record):
    __slots__ = ("parameter_name", "value", "method", "channel", "state")

    def __init__(self, parameter_name: str, value: float, method: str,
                 channel: ChannelKind, state: str):
        set_field(self, "parameter_name", parameter_name)  # "v" or "p"
        set_field(self, "value", value)
        set_field(self, "method", method)  # "analytic" or "bisection"
        set_field(self, "channel", channel)
        set_field(self, "state", state)  # human-readable descriptor


def describe_state(psi: SchmidtState) -> str:
    if psi.is_max_entangled():
        return f"max-entangled d={psi.d}"
    cs = ", ".join(f"{c:.6f}" for c in psi.coeffs)
    return f"schmidt d={psi.d} coeffs=({cs})"


def is_entangled(t: CorrelationTensor, g: Metric | None = None) -> CriterionVerdict:
    if g is None:
        g = identity_metric(t.d)
    l = spectral_norm(t, g)
    n = norm_sq(t, g)
    margin = n - l
    return CriterionVerdict(spectral_norm=l, norm_sq=n, margin=margin,
                            entangled=margin > VERDICT_TOL)


def default_metric(kind: ChannelKind, d: int, p: float) -> Metric:
    """The metric the analysis pairs with each channel."""
    if kind is ChannelKind.COLORED:
        return colored_metric(d, p)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        return damping_metric(d)
    return identity_metric(d)


def _inputs_last(blocks: np.ndarray) -> np.ndarray:
    """An (N, n, n) stack as a contiguous (n, n, N) one."""
    return np.ascontiguousarray(blocks.transpose(1, 2, 0))


class MarginBatch:
    """Weighted tensor scalars of N noisy Schmidt inputs as functions of p.

    coeffs holds one coefficient row per input, (N, d).  Methods take p as a
    scalar or one value per input and return one value per input.  The
    metric g is fixed; without one the batch takes the channel's default,
    except under colored noise, whose own metric follows p
    (critical_analytic holds its threshold).  `path` is "scaling" (white,
    local depolarizing), "product", "colored" or "damping".

    Every channel keeps the tensor in the block form of tensor.py: the
    pure state's pair entries, scaled by p (by p * p for damped pairs away
    from the ground level), and the diagonal-generator block c(d) D P(p) D^T
    of the noisy state's populations.  White and local depolarizing noise
    scale the whole tensor as p and p^2, so their scalars are taken once
    at p = 1.  The other channels' populations P(p) = sum_k p^k P_k and
    the index of their first p^2 pair come from channels.block_form, so
    the batch builds the coefficient blocks c(d) D P_k D^T once and
    block(p) sums them by Horner; they are built only when the metric
    weights them, and the batch keeps no population stack.

    Every array keeps the inputs on its last axis: pair entries
    (d(d-1)/2, N), coefficient blocks (d-1, d-1, N), built (N, d-1, d-1)
    by diagonal_block and transposed once.

    `monotone` is true where the verdict n - l > tol provably switches at
    most once, from false to true, as p grows; there _solve confirms the
    closed-form switch points (switch_points), and elsewhere it bisects
    and proves the single switch per input, by _certify:
    - scaling: with s = p or p^2 it reads s (n0 s - l0) > tol, and both
      factors grow with s once the second is positive;
    - damping without diagonal-generator weight: pair m scales as p^e_m,
      e_m in {1, 2}, so the verdict holds iff for every m
      p^e_m (sum_k w_k v_k^2 p^(2 e_k - e_m) - w_m |v_m|) > tol; every
      exponent is at least 0, so each condition stays true once true.
    """

    def __init__(self, d: int, coeffs: np.ndarray, kind: ChannelKind,
                 g: Metric | None = None):
        self.d, self.size = d, len(coeffs)
        scaling = kind in (ChannelKind.WHITE, ChannelKind.DEPOLARIZING)
        if not scaling:
            # colored rows not max-entangled are refused here, first
            populations, self._far = block_form(coeffs, kind)
        if g is None:
            if kind is ChannelKind.COLORED:
                raise UnsupportedChannel(
                    "colored noise's own metric changes with v; pass a "
                    "fixed one, such as colored_metric(d, v)")
            g = default_metric(kind, d, 1.0)
        elif g.d != d:
            raise DimensionMismatch(f"metric d={g.d} vs state d={d}")
        self._weights = block_weights(d, g.g[:, None])
        self._pairs = pair_values(coeffs.T)
        self._blocks = None
        if scaling:
            norms = None
            if self._weights[2] is not None:
                pure = (coeffs * coeffs)[:, :, None] * np.eye(d)
                norms = block_norms(_inputs_last(diagonal_block(
                    pure, diagonal_entries(d))), self._weights[2])
            self._l0, self._n0 = block_scalars(self._pairs, norms,
                                               self._weights)
            # tensor scales as p (white) or p^2 (local depolarizing)
            self._power = 1 if kind is ChannelKind.WHITE else 2
            self.path = "scaling"
        else:
            self.path = "damping" \
                if kind is ChannelKind.AMPLITUDE_DAMPING else kind.value
            # the coefficient blocks of block(p), built where the metric
            # weights them
            if self._weights[2] is not None:
                dg = diagonal_entries(d)
                # colored noise's one noise block is a view of every input
                self._blocks = [np.broadcast_to(_inputs_last(
                    diagonal_block(c, dg)), (d - 1, d - 1, self.size))
                    for c in populations]
        self.monotone = self.path == "scaling" or (
            self.path == "damping" and self._weights[2] is None)

    def block(self, p: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Diagonal-generator blocks c(d) D P(p) D^T at one p per input (or
        per entry of rows), (d-1, d-1, N), summed by Horner from the
        coefficient blocks of P(p) = P0 + p P1 + p^2 P2."""
        return _horner([_inputs(c, rows) for c in self._blocks], p)

    def scalars(self, p, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(spectral norms, squared norms) at noise-free fractions p, one
        per input, or one per entry of rows, the indices of the inputs
        taken."""
        pairs = _inputs(self._pairs, rows)
        p = np.broadcast_to(np.asarray(p, dtype=float), pairs.shape[1:])
        if self.path == "scaling":
            # float_power rounds p^2 as Python's scalar power does
            s = p if self._power == 1 else np.float_power(p, 2)
            return s * self._l0[rows], s * s * self._n0[rows]
        # weights[2] is None when the metric gives the block no weight; its
        # norms come before the pairs are scaled, so that the two never
        # hold their work arrays at once, which bounds a sweep's memory
        norms = None if self._weights[2] is None else \
            block_norms(self.block(p, rows), self._weights[2])
        far = self._far
        scaled = pairs * p
        if far < len(pairs):
            # v * (p * p): numpy's vector power can miss p^2 by an ulp,
            # and which ulp depends on the CPU it dispatches to
            np.multiply(pairs[far:], p * p, out=scaled[far:])
        return block_scalars(scaled, norms, self._weights)

    def polynomial_form(self, rows=slice(None)) -> MarginPolynomials:
        """The margin's terms as polynomials in p, per input or per entry
        of rows, on every path but `scaling`.  The weighted block is
        M(p) = B(p) diag(w), with B(p) the Horner sum of block() and w the
        diagonal generators' weights.  n(p) sums pair_sum_m v_m^2 p^(2 e_m)
        and sum_ij w_j B_ij(p)^2."""
        pair_max, pair_sum, w0 = self._weights
        values = _inputs(self._pairs, rows)
        powers = np.where(np.arange(len(values)) < self._far, 1, 2)
        n = np.zeros((5, values.shape[1]))
        terms = pair_sum * values * values
        for e in (1, 2):
            n[2 * e] = sum_per_input(terms[powers == e])
        pairs = np.abs(values) * pair_max
        scale = sum_per_input(terms) + np.max(pairs, axis=0)
        if w0 is None:
            return MarginPolynomials(n, pairs, powers, None, scale)
        populations = [_inputs(c, rows) for c in self._blocks]
        blocks = [b * w0 for b in populations]
        norms = 0.0  # sum_k sqrt(sum_ij w_j B_k,ij^2)
        for k, b in enumerate(populations):
            for k2, b2 in enumerate(populations):
                n[k + k2] += sum_per_input(b * b2 * w0)
            norms = norms + np.sqrt(sum_per_input(b * b * w0))
        # Cauchy-Schwarz bounds every term of n's block part by norms^2
        scale += norms * norms + sum(np.sqrt(sum_per_input(m * m))
                                     for m in blocks)
        return MarginPolynomials(n, pairs, powers, blocks, scale)

    def margins(self, p, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(spectral norms l, margins n - l), as scalars takes p and rows."""
        l, n = self.scalars(p, rows)
        return l, n - l

    def entangled(self, p, rows=slice(None)) -> np.ndarray:
        return self.margins(p, rows)[1] > VERDICT_TOL

    def switch_points(self) -> np.ndarray:
        """Per input of a monotone batch, the p at which n - l reaches
        VERDICT_TOL, in closed form; NaN, or 1 or more, where it is not
        reached below 1.
        - scaling: s = p or p^2 solves n0 s^2 - l0 s = tol;
        - damping: l(p) = max(alpha p, beta p^2) and n(p) = A p^2 + B p^4,
          alpha and beta the largest weighted pair moduli of exponent 1
          and 2, A and B the pair sums (polynomial_form).  The verdict
          holds where both B p^4 + (A - beta) p^2 > tol, a quadratic in
          p^2, and the convex quartic A p^2 + B p^4 - alpha p > tol do, so
          the switch is the larger of their roots.  The quartic's is
          found by two Newton steps; where alpha = 0 the first condition
          implies the second."""
        if self.path == "scaling":
            s = quadratic_root(self._n0, -self._l0, VERDICT_TOL)
            return s if self._power == 1 else np.sqrt(s)
        form = self.polynomial_form()
        a, b = form.n[2], form.n[4]
        alpha, beta = (np.max(form.pairs[form.powers == e], axis=0,
                              initial=0.0) for e in (1, 2))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # B p^3 + A p = alpha, the root for tol = 0, by the hyperbolic
            # form of Cardano's formula; A p = alpha if B = 0
            scale = np.sqrt(a / (3.0 * b))
            p = np.where(b > 0.0, 2.0 * scale * np.sinh(
                np.arcsinh(1.5 * alpha / (a * scale)) / 3.0), alpha / a)
            # start from the larger of that root, within tol / alpha below
            # the quartic's, and the root for alpha = 0, below it too and
            # close as alpha -> 0; each Newton step squares the error
            p = np.maximum(p, np.sqrt(quadratic_root(b, a, VERDICT_TOL)))
            for _ in range(2):
                p = p - (((b * p * p + a) * p - alpha) * p - VERDICT_TOL) \
                    / ((4.0 * b * p * p + 2.0 * a) * p - alpha)
        return np.maximum(np.sqrt(quadratic_root(b, a - beta, VERDICT_TOL)),
                          np.where(alpha > 0.0, p, 0.0))


class MarginCurve:
    """Scalars of one noisy state as functions of p: a MarginBatch of one."""

    def __init__(self, psi: SchmidtState, kind: ChannelKind,
                 g: Metric | None = None):
        self.psi, self.kind = psi, kind
        self._batch = MarginBatch(psi.d, psi.coeffs[None, :], kind, g)

    @property
    def path(self) -> str:
        return self._batch.path

    def scalars(self, p: float) -> tuple[float, float]:
        """(spectral_norm, norm_sq) at noise-free fraction p."""
        l, n = self._batch.scalars(p)
        return float(l[0]), float(n[0])


def _surviving_fraction(batch: MarginBatch, p_crit) -> np.ndarray:
    """sqrt(norm(p_crit)/norm(1)) per input, capped at 1 (1 if norm(1) = 0)."""
    n1 = batch.scalars(1.0)[1]
    ratio = np.divide(batch.scalars(p_crit)[1], n1, out=np.ones(batch.size),
                      where=n1 > 0.0)
    return np.minimum(np.sqrt(ratio), 1.0)


def _solve(batch: MarginBatch
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(threshold, detected, detected at p = 0) per input; the threshold
    is the midpoint of each input's final bisection bracket, located by
    confirm_bracket from a guess of its switch point.  A batch proven
    monotone guesses its closed-form switch points, and its margin is 0 at
    p = 0, where every term of n and l vanishes.  Any other evaluates the
    margin at p = 0, guesses by _secant_guess and certifies the single
    switch of each input detected at p = 1 from the values read at its
    bracket's ends.  Thresholds hold only where detected; a batch detected
    nowhere is not solved."""
    l1, margin_one = batch.margins(1.0)
    detected = margin_one > VERDICT_TOL
    if not detected.any():
        return np.ones(batch.size), detected, np.zeros(batch.size, bool)
    if batch.monotone:
        lo, hi = confirm_bracket(batch.entangled, batch.switch_points())
        return 0.5 * (lo + hi), detected, np.zeros(batch.size, bool)
    margin_zero = batch.margins(0.0)[1]
    bracket = _Bracket(batch, margin_zero, l1)
    guess = _secant_guess(bracket, margin_zero, margin_one)
    lo, hi = confirm_bracket(bracket.fired, guess, bracket.lo, bracket.hi)
    _certify(batch, lo, hi, detected, BracketEnds(
        margin_zero, bracket.margin_lo, bracket.spectral_hi, l1))
    return 0.5 * (lo + hi), detected, margin_zero > VERDICT_TOL


def critical_bisection(state: SchmidtState, kind: ChannelKind,
                       g: Metric | None = None) -> CriticalResult:
    if kind is ChannelKind.COLORED and g is None:  # its own metric: 0
        block_form(state.coeffs[None, :], kind)  # refuses inputs not MES
        return critical_analytic(state.d, kind)
    batch = MarginBatch(state.d, state.coeffs[None, :], kind, g)
    threshold, detected, at_zero = _solve(batch)
    if not detected[0]:
        raise NoDetectionInRange(
            "criterion does not fire anywhere in the strength range")
    if at_zero[0]:
        raise NoDetectionInRange(
            "criterion fires at zero noise-free fraction; nothing to bracket")
    return CriticalResult(parameter_name=kind.parameter_name,
                          value=float(threshold[0]), method="bisection",
                          channel=kind, state=describe_state(state))


def critical_analytic(d: int, kind: ChannelKind) -> CriticalResult:
    """Closed-form critical noise-free fraction for the max-entangled state;
    colored noise's margin v^2 ((3d-4) + (d-2)^2 v)/(d-1)^2 gives 0."""
    if kind is ChannelKind.WHITE:
        value = 1.0 / (d + 1.0)
    elif kind is ChannelKind.DEPOLARIZING:
        value = (d + 1.0) ** -0.5
    elif kind is ChannelKind.AMPLITUDE_DAMPING:
        value = _damping_cubic_root(d)
    elif kind is ChannelKind.COLORED:
        value = 0.0
    else:
        raise UnsupportedChannel(
            f"no single closed form for channel {kind.value}")
    return CriticalResult(parameter_name=kind.parameter_name, value=value,
                          method="analytic", channel=kind,
                          state=f"max-entangled d={d}")


def _damping_cubic_root(d: int) -> float:
    """Real root in (0,1) of (d-2) p^3 + 2 p = 1."""
    if d == 2:
        return 0.5
    a = 2.0 ** 5 / (27.0 * (d - 2.0))
    b = (1.0 + np.sqrt(1.0 + a)) ** (1.0 / 3.0)
    root = (1.0 / (2.0 * (d - 2.0))) ** (1.0 / 3.0) \
        * (1.0 - a ** (1.0 / 3.0) / (b * b)) * b
    return float(root)


def xi(state: SchmidtState, kind: ChannelKind, p_crit: float) -> float:
    """Surviving correlation fraction sqrt(norm(p_crit)/norm(1)), capped at
    1, under the channel's own metric at p_crit."""
    batch = MarginBatch(state.d, state.coeffs[None, :], kind,
                        default_metric(kind, state.d, p_crit))
    return float(_surviving_fraction(batch, p_crit)[0])


class SurfaceScan(Record):
    __slots__ = ("kind", "quantity", "alphas", "betas", "values", "flags")
    _hidden = ("alphas", "betas", "values", "flags")

    def __init__(self, kind: ChannelKind, quantity: str, alphas: np.ndarray,
                 betas: np.ndarray, values: np.ndarray, flags: np.ndarray):
        set_field(self, "kind", kind)
        set_field(self, "quantity", quantity)  # "crit" or "xi"
        set_field(self, "alphas", alphas)
        set_field(self, "betas", betas)
        set_field(self, "values", values)  # (len(alphas), len(betas))
        set_field(self, "flags", flags)  # True where never detected

    def minimum(self) -> tuple[float, float, float] | None:
        """(alpha, beta, value) of the smallest unflagged cell; None when
        every cell is flagged."""
        if self.flags.all():
            return None
        masked = np.where(self.flags, np.inf, self.values)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        return float(self.alphas[i]), float(self.betas[j]), \
            float(self.values[i, j])


def scan_surface(kind: ChannelKind, alpha_grid, beta_grid,
                 quantity: str = "crit") -> SurfaceScan:
    """Critical parameter (or xi) over the two-angle qutrit family, in one
    batch solved as critical_bisection solves one input.  Cells where the
    criterion does not fire at p = 1 are flagged, value 1."""
    if quantity not in ("crit", "xi"):
        raise ValueError(f"unknown scan quantity {quantity!r}")
    alphas = np.asarray(alpha_grid, dtype=float)
    betas = np.asarray(beta_grid, dtype=float)
    batch = MarginBatch(3, qutrit_family_coeffs(alphas[:, None], betas)
                        .reshape(-1, 3), kind)
    crit, detected, _ = _solve(batch)
    if quantity == "xi":
        crit = _surviving_fraction(batch, crit)
    values = np.where(detected, crit, 1.0).reshape(len(alphas), len(betas))
    return SurfaceScan(kind=kind, quantity=quantity, alphas=alphas,
                       betas=betas, values=values,
                       flags=~detected.reshape(values.shape))
