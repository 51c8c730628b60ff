"""Entanglement verdicts, critical-parameter solvers, and surface scans.

The detection rule: a state is flagged entangled when the weighted squared
norm of its correlation tensor exceeds the weighted spectral norm,
norm_sq > spectral_norm + tol.  The rule is sufficient only; a false
verdict means "not detected".

Solvers sweep the noise-free fraction p in [0, 1] (p = v for mixing
channels, p = 1 - r for Kraus channels).  One margin model, MarginBatch,
evaluates a batch of Schmidt inputs at once on the block form of
tensor.py, for every channel and every metric; no density matrix is
built.  A channel enters only through how its pair entries scale with p
and through the populations P(p) of the noisy state, a polynomial in p of
degree at most 2 whose coefficient blocks each batch builds once and sums
by Horner at every p.  One solver, _solve,
bisects every input of a batch together; critical_bisection is its
single-input case, scan_surface batches the whole qutrit-family surface,
and the Bell thresholds of bell.critical_lr use the same bisection.  A
bisected threshold needs a verdict that switches once in p.  Where that
is a theorem (MarginBatch.monotone: the scaling path, and damping with
no weight on the diagonal generators) nothing more is checked; on every
other path _solve grid-checks the verdicts for a second switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelKind
from .errors import NoDetectionInRange, NonMonotonic, UnsupportedChannel
from .states import SchmidtState, max_entangled_rows, qutrit_family_coeffs
from .tensor import (CorrelationTensor, Metric, block_scalars, block_weights,
                     colored_metric, damping_metric, diagonal_block,
                     diagonal_entries, identity_metric, norm_sq, pair_values,
                     spectral_norm)

VERDICT_TOL = 1e-10
BISECTION_WIDTH = 1e-8
GRID_POINTS = 100


@dataclass(frozen=True)
class CriterionVerdict:
    spectral_norm: float
    norm_sq: float
    margin: float
    entangled: bool


@dataclass(frozen=True)
class CriticalResult:
    parameter_name: str  # "v" or "p"
    value: float
    method: str          # "analytic" or "bisection"
    channel: ChannelKind
    state: str           # human-readable descriptor


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


def _damped_populations(csq: np.ndarray) -> list:
    """Coefficients (P0, P1, P2) of the damped populations, (N, d, d) each:
    with q = 1 - p and S the excited weight sum_k>0 c_k^2,
    P(0, 0) = c_0^2 + q^2 S, P(0, k) = P(k, 0) = p q c_k^2 and
    P(k, k) = p^2 c_k^2."""
    size, d = csq.shape
    excited = csq[:, 1:]
    s = np.sum(excited, axis=1)
    p0, p1, p2 = np.zeros((3, size, d, d))
    p0[:, 0, 0] = csq[:, 0] + s
    p1[:, 0, 0], p2[:, 0, 0] = -2.0 * s, s
    p1[:, 0, 1:] = p1[:, 1:, 0] = excited
    p2[:, 0, 1:] = p2[:, 1:, 0] = -excited
    i = np.arange(1, d)
    p2[:, i, i] = excited
    return [p0, p1, p2]


class MarginBatch:
    """Weighted tensor scalars of N noisy Schmidt inputs as functions of p.

    coeffs holds one coefficient row per input, (N, d).  Methods take p as a
    scalar or one value per input and return one value per input.  The
    metric is built once; only colored noise without an explicit metric
    reweights it with p.  `path` is "scaling" (white, local depolarizing),
    "product", "colored" or "damping".

    Every channel keeps the tensor in the block form of tensor.py: the
    pure state's pair entries, scaled by p (by p^2 for damped pairs away
    from the ground level), and the diagonal-generator block c(d) D P(p) D^T
    of the noisy state's populations.  White and local depolarizing noise
    scale the whole tensor as p and p^2, so their scalars are taken once
    at p = 1.  The other channels' populations are P0 + p P1 (+ p^2 P2
    under damping), so the batch builds the coefficient blocks
    c(d) D P_k D^T once and block(p) sums them by Horner; they are built
    only when the metric weights them, and the batch keeps no (N, d, d)
    population stack.

    `monotone` is true where the verdict n - l > tol provably switches at
    most once, from false to true, as p grows:
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
        if g is None and kind is not ChannelKind.COLORED:
            g = default_metric(kind, d, 1.0)
        # colored noise without a metric reweights with p on every call
        self._weights = None if g is None else block_weights(d, g.g)
        self._pairs, self._pair_pow = pair_values(coeffs), 1.0
        csq, dg = coeffs * coeffs, diagonal_entries(d)
        pure = csq[:, :, None] * np.eye(d)
        if kind in (ChannelKind.WHITE, ChannelKind.DEPOLARIZING):
            self._l0, self._n0 = block_scalars(self._pairs, diagonal_block(
                pure, dg), self._weights)
            # tensor scales as p (white) or p^2 (local depolarizing)
            self._power = 1 if kind is ChannelKind.WHITE else 2
            self.path = "scaling"
        elif kind is ChannelKind.PRODUCT:
            # populations blended in with weight 1 - p
            noise = csq[:, :, None] * csq[:, None, :]
            self.path = "product"
        elif kind is ChannelKind.COLORED:
            if not np.all(max_entangled_rows(coeffs)):
                raise UnsupportedChannel("colored noise is defined only "
                                         "for the max-entangled input")
            noise = np.zeros((d, d))
            noise[-1, -1] = 1.0
            self.path = "colored"
        else:  # amplitude damping
            # pairs touching the ground level decay once, the others twice
            self._pair_pow = np.where(np.triu_indices(d, 1)[0] == 0, 1.0, 2.0)
            self.path = "damping"
        self.monotone = self.path == "scaling" or (
            self.path == "damping" and self._weights[2] is None)
        # the coefficient blocks of block(p), built where the metric weights
        # them; the colored default metric weights them at every p > 0
        self._blocks = None
        if self.path != "scaling" and (self._weights is None
                                       or self._weights[2] is not None):
            populations = _damped_populations(csq) if self.path == "damping" \
                else (noise, pure - noise)
            self._blocks = [diagonal_block(c, dg) for c in populations]

    def block(self, p: np.ndarray) -> np.ndarray:
        """Diagonal-generator blocks c(d) D P(p) D^T at one p per input,
        (N, d-1, d-1), summed by Horner from the coefficient blocks of
        P(p) = P0 + p P1 + p^2 P2."""
        block = self._blocks[-1]
        for coefficient in reversed(self._blocks[:-1]):
            block = block * p[:, None, None] + coefficient
        return block

    def scalars(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(spectral norms, squared norms) at noise-free fractions p."""
        p = np.broadcast_to(np.asarray(p, dtype=float), (self.size,))
        if self.path == "scaling":
            # float_power rounds as Python's scalar power does
            s = np.float_power(p, self._power)
            return s * self._l0, s * s * self._n0
        weights = self._weights
        if weights is None:  # colored noise: colored_metric(d, p) per input
            w = np.ones((self.size, self.d * self.d - 1))
            w[:, -1] = p
            weights = block_weights(self.d, w)
        pairs = self._pairs * p[:, None] ** self._pair_pow
        # weights[2] is None when the metric gives the block no weight
        block = None if weights[2] is None else self.block(p)
        return block_scalars(pairs, block, weights)

    def entangled(self, p) -> np.ndarray:
        l, n = self.scalars(p)
        return n - l > VERDICT_TOL


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


def _verdict_grid_check(curve, cells=True) -> None:
    """Raise NonMonotonic if a verdict switches more than once on the
    GRID_POINTS grid of p.

    curve.entangled(p) gives one verdict or one per input of a batch; cells
    masks the inputs that are checked."""
    flags = np.array([curve.entangled(p)
                      for p in np.linspace(0.0, 1.0, GRID_POINTS)])
    switches = np.count_nonzero(flags[1:] != flags[:-1], axis=0)
    if np.any((switches > 1) & cells):
        raise NonMonotonic(
            "detection verdict switches more than once over the sweep")


def bisect_threshold(fired, size: int) -> np.ndarray:
    """Bisect size inputs on [0, 1] together; midpoints of the brackets.

    fired(p) maps one p per input to one verdict per input; each input's
    verdict is false below its threshold and true above it.  Every bracket
    starts at [0, 1] and halves on every step, so all share one width, a
    power of two: the loop always takes 27 steps to BISECTION_WIDTH."""
    lo, hi, width = np.zeros(size), np.ones(size), 1.0
    while width > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        fired_at = fired(mid)
        hi = np.where(fired_at, mid, hi)
        lo = np.where(fired_at, lo, mid)
        width *= 0.5
    return 0.5 * (lo + hi)


def _surviving_fraction(batch: MarginBatch, p_crit) -> np.ndarray:
    """sqrt(norm(p_crit)/norm(1)) per input, capped at 1 (1 if norm(1) = 0)."""
    n1 = batch.scalars(1.0)[1]
    ratio = np.divide(batch.scalars(p_crit)[1], n1, out=np.ones(batch.size),
                      where=n1 > 0.0)
    return np.minimum(np.sqrt(ratio), 1.0)


def _solve(batch: MarginBatch) -> tuple[np.ndarray, np.ndarray]:
    """(threshold, detected) per input: one bisection over the batch, and,
    unless the batch is proven monotone, the monotonicity grid on the
    inputs detected at p = 1.  Thresholds hold only where detected; a batch
    detected nowhere is not bisected."""
    detected = batch.entangled(1.0)
    if not detected.any():
        return np.ones(batch.size), detected
    threshold = bisect_threshold(batch.entangled, batch.size)
    if not batch.monotone:
        _verdict_grid_check(batch, detected)
    return threshold, detected


def critical_bisection(state: SchmidtState, kind: ChannelKind,
                       g: Metric | None = None) -> CriticalResult:
    batch = MarginBatch(state.d, state.coeffs[None, :], kind, g)
    threshold, detected = _solve(batch)
    if not detected[0]:
        raise NoDetectionInRange(
            "criterion does not fire anywhere in the strength range")
    if batch.entangled(0.0)[0]:
        raise NoDetectionInRange(
            "criterion fires at zero noise-free fraction; nothing to bracket")
    return CriticalResult(parameter_name=kind.parameter_name,
                          value=float(threshold[0]), method="bisection",
                          channel=kind, state=describe_state(state))


def critical_analytic(d: int, kind: ChannelKind) -> CriticalResult:
    """Closed-form critical noise-free fraction for the max-entangled state."""
    if kind is ChannelKind.WHITE:
        value = 1.0 / (d + 1.0)
    elif kind is ChannelKind.DEPOLARIZING:
        value = (d + 1.0) ** -0.5
    elif kind is ChannelKind.AMPLITUDE_DAMPING:
        value = _damping_cubic_root(d)
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
    """Surviving correlation fraction sqrt(norm(p_crit)/norm(1)), capped at 1.

    Colored noise weights its metric at p_crit."""
    g = None
    if kind is ChannelKind.COLORED:
        g = colored_metric(state.d, p_crit)
    batch = MarginBatch(state.d, state.coeffs[None, :], kind, g)
    return float(_surviving_fraction(batch, p_crit)[0])


@dataclass(frozen=True)
class SurfaceScan:
    kind: ChannelKind
    quantity: str  # "crit" or "xi"
    alphas: np.ndarray = field(repr=False)
    betas: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)  # (len(alphas), len(betas))
    flags: np.ndarray = field(repr=False)   # True where never detected

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
    coeffs = qutrit_family_coeffs(alphas[:, None], betas).reshape(-1, 3)
    batch = MarginBatch(3, coeffs, kind)
    crit, detected = _solve(batch)
    if quantity == "xi":
        crit = _surviving_fraction(batch, crit)
    values = np.where(detected, crit, 1.0).reshape(len(alphas), len(betas))
    return SurfaceScan(kind=kind, quantity=quantity, alphas=alphas,
                       betas=betas, values=values,
                       flags=~detected.reshape(values.shape))
