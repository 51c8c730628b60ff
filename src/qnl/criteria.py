"""Entanglement verdicts, critical-parameter solvers, and surface scans.

The detection rule: a state is flagged entangled when the weighted squared
norm of its correlation tensor exceeds the weighted spectral norm,
norm_sq > spectral_norm + tol.  The rule is sufficient only; a false
verdict means "not detected".

Solvers sweep the noise-free fraction p in [0, 1] (p = v for mixing
channels, p = 1 - r for Kraus channels).  One margin model, MarginBatch,
evaluates a batch of Schmidt inputs at once, in closed form for every
channel and every metric; no density matrix is built.  One bisection
brackets every input of a batch together;
critical_bisection and xi are the single-input case, scan_surface batches
one alpha-row of the qutrit family at a time, and the Bell thresholds of
bell.critical_lr use the same bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelKind
from .errors import (NoDetectionInRange, NonMonotonic, QnlError,
                     UnsupportedChannel)
from .gellmann import gellmann_basis
from .states import SchmidtState, max_entangled, qutrit_family_coeffs
from .tensor import (CorrelationTensor, Metric, c_factor, colored_metric,
                     damping_metric, identity_metric, norm_sq, norm_sqs,
                     schmidt_correlation_tensors, spectral_norm,
                     spectral_norms)

VERDICT_TOL = 1e-10
BISECTION_WIDTH = 1e-8
BISECTION_MAX_ITER = 60
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
    if psi.is_max_entangled(1e-12):
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


class MarginBatch:
    """Weighted tensor scalars of N noisy Schmidt inputs as functions of p.

    coeffs holds one coefficient row per input, (N, d).  Methods take p as a
    scalar or one value per input and return one value per input.  The
    metric is built once; only colored noise without an explicit metric
    reweights it with p.  `path` is "scaling" (white, local depolarizing),
    "product", "colored" or "damping".

    The damped Schmidt tensor is block diagonal: a diagonal block over the
    off-diagonal generators, whose entries scale as p or p^2, and a
    (d-1) x (d-1) block c(d) D P(p) D^T over the diagonal generators, where
    D holds their diagonal entries and P(a, b) = <ab|rho'|ab> is the damped
    state's diagonal.  The second block is built only when the metric
    weights the diagonal generators.
    """

    def __init__(self, d: int, coeffs: np.ndarray, kind: ChannelKind,
                 g: Metric | None = None):
        self.d, self.kind, self.size = d, kind, len(coeffs)
        if g is None and kind is not ChannelKind.COLORED:
            g = default_metric(kind, d, 1.0)
        self._g = g
        if kind is ChannelKind.PRODUCT:
            # marginals of a Schmidt state are diagonal, entries c_i^2
            rho = (coeffs * coeffs)[:, :, None] * np.eye(d, dtype=complex)
            r = np.einsum("aij,nji->na", gellmann_basis(d).matrices, rho).real
            self._t0 = schmidt_correlation_tensors(d, coeffs)
            self._tprod = c_factor(d) * (r[:, :, None] * r[:, None, :])
            self.path = "product"
        elif kind in (ChannelKind.WHITE, ChannelKind.DEPOLARIZING):
            t0 = schmidt_correlation_tensors(d, coeffs)
            self._l0, self._n0 = spectral_norms(t0, g.g), norm_sqs(t0, g.g)
            # tensor scales as p (white) or p^2 (local depolarizing)
            self._power = 1 if kind is ChannelKind.WHITE else 2
            self.path = "scaling"
        elif kind is ChannelKind.COLORED:
            if np.any(np.abs(coeffs - 1.0 / np.sqrt(d)) > 1e-9):
                raise UnsupportedChannel(
                    "colored noise is defined only for the max-entangled input")
            half = d * (d - 1) // 2
            self._tmes_diag = np.full(d * d - 1, 1.0 / (d - 1.0))
            self._tmes_diag[half: 2 * half] *= -1.0
            self._tlast_diag = np.eye(d * d - 1)[-1]
            self.path = "colored"
        else:  # amplitude damping
            js, ks = np.triu_indices(d, 1)
            self._pair_vals = 2.0 * coeffs[:, js] * coeffs[:, ks] * c_factor(d)
            # tensor entries scale as p for pairs touching the ground level,
            # p^2 otherwise (both subsystems damped)
            self._pair_pow = np.where(js == 0, 1.0, 2.0)
            self._csq = coeffs * coeffs
            self._diag_w = g.g[d * (d - 1):]
            # diagonal entries D[l, a] of the diagonal generators, kept only
            # when the metric weights their block
            self._dg = np.diagonal(gellmann_basis(d).matrices[d * (d - 1):],
                                   axis1=1, axis2=2).real \
                if np.any(self._diag_w != 0.0) else None
            self.path = "damping"

    def scalars(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(spectral norms, squared norms) at noise-free fractions p."""
        p = np.broadcast_to(np.asarray(p, dtype=float), (self.size,))
        if self.path == "scaling":
            # float_power rounds as Python's scalar power does
            s = np.float_power(p, self._power)
            return s * self._l0, s * s * self._n0
        if self.path == "product":
            w = self._g.g
            t = p[:, None, None] * self._t0 \
                + (1.0 - p)[:, None, None] * self._tprod
            n = np.sum((w * t * t).reshape(self.size, -1), axis=1)
            return spectral_norms(t, w), n
        if self.path == "colored":
            # colored_metric(d, p) unless a metric was given
            w = np.concatenate([np.ones((self.size, self.d * self.d - 2)),
                                p[:, None]], axis=1) \
                if self._g is None else self._g.g
            diag = p[:, None] * self._tmes_diag \
                + (1.0 - p)[:, None] * self._tlast_diag
            return np.max(np.abs(diag * w), axis=1), \
                np.sum(w * diag * diag, axis=1)
        half = self.d * (self.d - 1) // 2
        gs, ga = self._g.g[:half], self._g.g[half: 2 * half]
        vals = self._pair_vals * p[:, None] ** self._pair_pow
        l = np.max(np.abs(vals) * np.maximum(gs, ga), axis=1)
        n = np.sum((gs + ga) * vals * vals, axis=1)
        if self._dg is None:
            return l, n
        # the damped state's diagonal P(a, b) = <ab|rho'|ab>, with q = 1 - p
        q, d, excited = 1.0 - p, self.d, self._csq[:, 1:]
        table = np.zeros((self.size, d, d))
        table[:, 0, 0] = self._csq[:, 0] + q * q * np.sum(excited, axis=1)
        table[:, 0, 1:] = table[:, 1:, 0] = (p * q)[:, None] * excited
        i = np.arange(1, d)
        table[:, i, i] = (p * p)[:, None] * excited
        t = c_factor(d) * (self._dg @ table @ self._dg.T)
        return np.maximum(l, spectral_norms(t, self._diag_w)), \
            n + norm_sqs(t, self._diag_w)

    def entangled(self, p) -> np.ndarray:
        l, n = self.scalars(p)
        return n - l > VERDICT_TOL

    def scaling_roots(self) -> tuple[np.ndarray, np.ndarray]:
        """(critical p, never-fired flag) in closed form; scaling path only."""
        fired = (self._n0 > 0.0) & (self._l0 < self._n0 - VERDICT_TOL)
        ratio = np.divide(self._l0, self._n0, out=np.ones(self.size),
                          where=fired)
        return np.float_power(ratio, 1.0 / self._power), ~fired


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


def _verdict_grid_check(curve, points: int, cells=True) -> None:
    """Raise NonMonotonic if a verdict switches more than once on a p grid.

    curve.entangled(p) gives one verdict or one per input of a batch; cells
    masks the inputs that are checked."""
    flags = np.array([curve.entangled(p)
                      for p in np.linspace(0.0, 1.0, points)])
    switches = np.count_nonzero(flags[1:] != flags[:-1], axis=0)
    if np.any((switches > 1) & cells):
        raise NonMonotonic(
            "detection verdict switches more than once over the sweep")


def bisect_threshold(fired, size: int) -> np.ndarray:
    """Bisect size inputs on [0, 1] together; midpoints of the brackets.

    fired(p) maps one p per input to one verdict per input; each input's
    verdict is false below its threshold and true above it."""
    lo, hi = np.zeros(size), np.ones(size)
    for _ in range(BISECTION_MAX_ITER):
        open_ = hi - lo > BISECTION_WIDTH
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        fired_at = fired(mid)
        hi = np.where(open_ & fired_at, mid, hi)
        lo = np.where(open_ & ~fired_at, mid, lo)
    return 0.5 * (lo + hi)


def _surviving_fraction(batch: MarginBatch, p_crit) -> np.ndarray:
    """sqrt(norm(p_crit)/norm(1)) per input, capped at 1 (1 if norm(1) = 0)."""
    n1 = batch.scalars(1.0)[1]
    ratio = np.divide(batch.scalars(p_crit)[1], n1, out=np.ones(batch.size),
                      where=n1 > 0.0)
    return np.minimum(np.sqrt(ratio), 1.0)


def critical_bisection(state: SchmidtState, kind: ChannelKind,
                       g: Metric | None = None,
                       grid_points: int = GRID_POINTS) -> CriticalResult:
    batch = MarginBatch(state.d, state.coeffs[None, :], kind, g)
    if not batch.entangled(1.0)[0]:
        raise NoDetectionInRange(
            "criterion does not fire anywhere in the strength range")
    if batch.entangled(0.0)[0]:
        raise NoDetectionInRange(
            "criterion fires at zero noise-free fraction; nothing to bracket")
    value = float(bisect_threshold(batch.entangled, 1)[0])
    _verdict_grid_check(batch, grid_points)
    return CriticalResult(parameter_name=kind.parameter_name,
                          value=value, method="bisection",
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
    # radical form cross-checked against direct cubic solving
    poly = np.roots([d - 2.0, 0.0, 2.0, -1.0])
    real = [x.real for x in poly
            if abs(x.imag) < 1e-9 and 0.0 < x.real < 1.0]
    if len(real) != 1 or abs(real[0] - root) > 1e-9:
        raise QnlError("cubic root cross-check failed")
    return float(root)


def colored_always_entangled(d: int, v_samples) -> bool:
    """Criterion fires at every sample; closed forms must agree to 1e-8."""
    v = np.asarray(v_samples, dtype=float)
    if not np.all((0.0 < v) & (v <= 1.0)):
        raise ValueError("samples must lie in (0, 1]")
    mes = np.tile(max_entangled(d).coeffs, (len(v), 1))
    l, n = MarginBatch(d, mes, ChannelKind.COLORED).scalars(v)
    l_closed = v * (1.0 - v * (d - 2.0) / (d - 1.0))
    n_closed = v * (1.0 + v * (-6.0 + 6.0 * d - d * d
                               + v * (d - 2.0) ** 2) / (d - 1.0) ** 2)
    return bool(np.all((np.abs(l - l_closed) <= 1e-8)
                       & (np.abs(n - n_closed) <= 1e-8)
                       & (n - l > VERDICT_TOL)))


def xi(state: SchmidtState, kind: ChannelKind, p_crit: float,
       g: Metric | None = None) -> float:
    """Surviving correlation fraction sqrt(norm(p_crit)/norm(1)), capped at 1."""
    if g is None and kind is ChannelKind.COLORED:
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

    def minimum(self) -> tuple[float, float, float]:
        """(alpha, beta, value) of the smallest unflagged cell."""
        masked = np.where(self.flags, np.inf, self.values)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        return float(self.alphas[i]), float(self.betas[j]), \
            float(self.values[i, j])


def scan_surface(kind: ChannelKind, alpha_grid=None, beta_grid=None,
                 quantity: str = "crit",
                 g: Metric | None = None) -> SurfaceScan:
    """Critical parameter (or xi) over the two-angle qutrit family.

    Each alpha-row is one batch: scaling cells take the closed-form root,
    the others are bisected and grid-checked as in critical_bisection.
    Cells where the criterion does not fire at p = 1 are flagged, value 1.
    """
    if quantity not in ("crit", "xi"):
        raise ValueError(f"unknown scan quantity {quantity!r}")
    alphas = np.linspace(0.0, np.pi / 2.0, 101) if alpha_grid is None \
        else np.asarray(alpha_grid, dtype=float)
    betas = np.linspace(0.0, np.pi / 2.0, 101) if beta_grid is None \
        else np.asarray(beta_grid, dtype=float)
    values = np.empty((len(alphas), len(betas)))
    flags = np.zeros((len(alphas), len(betas)), dtype=bool)
    for i, a in enumerate(alphas):
        batch = MarginBatch(3, qutrit_family_coeffs(a, betas), kind, g)
        if batch.path == "scaling":
            crit, flagged = batch.scaling_roots()
        else:
            fired = batch.entangled(1.0)
            crit = bisect_threshold(batch.entangled, batch.size)
            _verdict_grid_check(batch, GRID_POINTS, fired)
            flagged = ~fired
        if quantity == "xi":
            crit = _surviving_fraction(batch, crit)
        values[i] = np.where(flagged, 1.0, crit)
        flags[i] = flagged
    return SurfaceScan(kind=kind, quantity=quantity, alphas=alphas,
                       betas=betas, values=values, flags=flags)
