"""Two-setting d-outcome Bell test: standard settings, the inequality value,
damping closed forms, critical parameters, large-d limit, and a settings
optimizer that climbs the exact gradient of the inequality value.

Conventions.  Settings are indexed 0 and 1 per party.  The A-side outcome
vectors are Fourier modes with phase offsets (0, 1/2), the B-side with
(1/4, -1/4) and conjugated outcome phase.  The local-realism bound is 2.

Modular coincidence sums read the equality literally:

    P(A_s = B_t + k) = sum_n P(A_s = n + k mod d, B_t = n)
    P(B_t = A_s + k) = sum_n P(A_s = n, B_t = n + k mod d)

With these settings the joint probability depends on the outcomes only
through a - b, which makes each sum d times any one of its terms; a
property test pins that shortcut.  Settings, damping tables and the
inequality value are array code; the scalar loops they replaced live on in
the tests as bit-exact oracles.  Thresholds read I from the profile
m(i - j) = <ii|W|jj> of the Bell operator: 2d - 1 numbers in closed form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import ChannelKind
from .criteria import (CriticalResult, confirm_bracket, describe_state,
                       quadratic_root)
from .errors import (DimensionMismatch, NonMonotonic, NoViolation,
                     UnsupportedChannel)
from .gellmann import check_dimension, gellmann_basis
from .linalg import realign
from .record import Record, set_field
from .states import SchmidtState, TwoQuditState

LOCAL_BOUND = 2.0
ALPHA_PHASES = (0.0, 0.5)
BETA_PHASES = (0.25, -0.25)
ORTHO_TOL = 1e-10
# settings optimizer (minimize): the gradient stop, a tenth of the usual
# 1e-5, which leaves end values up to about 1e-7 short; strong-Wolfe constants
BFGS_GTOL = 1e-6
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
WOLFE_TRIES = 40  # trial steps per line search


class MeasurementSettings(Record):
    """Outcome vectors per (party, setting): arrays (2, d, d), [setting,
    outcome, component]."""

    __slots__ = ("d", "a_vectors", "b_vectors")
    _hidden = ("a_vectors", "b_vectors")

    def __init__(self, d: int, a_vectors: np.ndarray, b_vectors: np.ndarray):
        for v in (a_vectors, b_vectors):
            if v.shape != (2, d, d):
                raise DimensionMismatch(
                    f"settings shape {v.shape} does not match d={d}")
            gram = v @ v.conj().transpose(0, 2, 1)  # one per setting
            if not np.max(np.abs(gram - np.eye(d))) <= ORTHO_TOL:
                raise DimensionMismatch("outcome vectors are not orthonormal")
            v.setflags(write=False)
        set_field(self, "d", d)
        set_field(self, "a_vectors", a_vectors)
        set_field(self, "b_vectors", b_vectors)


class BellValue(Record):
    __slots__ = ("i_d", "probabilities")
    _hidden = ("probabilities",)

    def __init__(self, i_d: float, probabilities: np.ndarray):  # (2, 2, d, d)
        probabilities.setflags(write=False)
        set_field(self, "i_d", i_d)
        set_field(self, "probabilities", probabilities)

    @property
    def violated(self) -> bool:
        return bool(self.i_d > LOCAL_BOUND)


def cglmp_settings(d: int) -> MeasurementSettings:
    d = check_dimension(d)
    return MeasurementSettings(d, *_standard_vectors(d))


def _standard_vectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The A- and B-side outcome vectors of cglmp_settings, unvalidated."""
    j = np.arange(d)  # outcome index (axis 1) and component index (axis 2)
    omega = np.exp(2j * np.pi / d)
    av = omega ** (j * (j[:, None] + np.array(ALPHA_PHASES)[:, None, None])) \
        / np.sqrt(d)
    bv = omega ** (j * (-j[:, None] + np.array(BETA_PHASES)[:, None, None])) \
        / np.sqrt(d)
    return av, bv


def probability_table(rho: TwoQuditState,
                      m: MeasurementSettings | None = None) -> np.ndarray:
    """All joint probabilities, shape (2, 2, d, d) indexed [s, t, a, b]:
    <A_s[a] B_t[b]| rho |A_s[a] B_t[b]>, the projector rows of A against
    the realigned rho against those of B."""
    if m is None:
        m = cglmp_settings(rho.d)
    if rho.d != m.d:
        raise DimensionMismatch(f"state d={rho.d} vs settings d={m.d}")
    d = rho.d
    p = _projector_rows(m.a_vectors) @ realign(rho.rho, d) \
        @ _projector_rows(m.b_vectors).T  # [(s, a), (t, b)]
    return np.ascontiguousarray(
        p.real.reshape(2, d, 2, d).transpose(0, 2, 1, 3))


def _projector_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows vec(|v><v|^T) = conj(v) (x) v of the outcome vectors (2, d, d)
    of one party, shape (2d, d^2), ordered (setting, outcome)."""
    d = vectors.shape[-1]
    v = vectors.reshape(2 * d, d)
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(2 * d, d * d)


def _inequality_value(table: np.ndarray) -> float:
    d = table.shape[2]
    n = np.arange(d)
    shifted = (n + n[:, None]) % d  # [k, n] -> n + k mod d
    # [s, t, k] -> P(A_s = B_t + k) and P(B_t = A_s + k); each gather is made
    # contiguous so that every sum rounds as a 1-D sum of d terms would
    a_eq_b = np.ascontiguousarray(table[:, :, shifted, n]).sum(axis=-1)
    b_eq_a = np.ascontiguousarray(table[:, :, n, shifted]).sum(axis=-1)
    # constituent k (mod d) of the inequality, one per shift
    part = a_eq_b[0, 0] + b_eq_a[1, 0, (n + 1) % d] + a_eq_b[1, 1] \
        + b_eq_a[0, 1]
    total = 0.0
    for k, weight in enumerate(_ramp_weights(d)[0, 0, :d // 2]):
        total += weight * (part[k] - part[-(k + 1)])
    return float(total)


def cglmp_value(rho: TwoQuditState,
                m: MeasurementSettings | None = None) -> BellValue:
    table = probability_table(rho, m)
    value = _inequality_value(table)
    return BellValue(i_d=value, probabilities=table)


def ad_probability_table(d: int, r: float) -> np.ndarray:
    """Joint probabilities [s, t, a, b] of the damped max-entangled state,
    no Born rule.

    Valid because the phase offsets keep gamma = a - b + alpha_s + beta_t
    away from integer multiples of d.
    """
    d = check_dimension(d)
    j = np.arange(d)
    gamma = (j[:, None] - j) + np.array(ALPHA_PHASES)[:, None, None, None] \
        + np.array(BETA_PHASES)[:, None, None]
    x = np.pi * gamma / d
    kernel = ((1.0 - r) * np.sin((d - 1.0) * x) ** 2 / np.sin(x) ** 2
              + np.sin((2.0 * d - 1.0) * x) / np.sin(x) - 1.0)
    return (1.0 - (d - 1.0) * (r - 2.0) * r) / d ** 3 \
        + (1.0 - r) / d ** 3 * kernel


def cglmp_ad_value(d: int, r: float) -> BellValue:
    """Inequality value for the damped max-entangled state, closed form."""
    table = ad_probability_table(d, r)
    value = _inequality_value(table)
    return BellValue(i_d=value, probabilities=table)


def catalan_constant() -> float:
    """Catalan's constant G, the double nearest 0.9159655941772190150546..."""
    return 0.915965594177219


def cglmp_ad_infinite(r: float) -> float:
    """Large-d limit of the damped max-entangled inequality value."""
    return (1.0 - r) ** 2 * 32.0 * catalan_constant() / np.pi ** 2


def infinite_threshold() -> float:
    """Noise-free fraction where the large-d value crosses the bound."""
    return float(np.pi / (4.0 * np.sqrt(catalan_constant())))


def _ramp_weights(d: int) -> np.ndarray:
    """w[s, t, k], the weight of P(A_s - B_t = k mod d) in I.

    _inequality_value weighs these by the ramp r_k = 1 - 2k/(d - 1) for
    (s, t) = (0, 0) and (1, 1), r_{-k} for (0, 1) and -r_k for (1, 0).
    """
    k = np.arange(d)
    ramp = 1.0 - 2.0 * k / (d - 1.0)
    return np.array([[ramp, ramp[-k]], [-ramp, ramp]])


def _bell_profile(d: int) -> np.ndarray:
    """m(delta), delta = 1-d..d-1, of the Toeplitz block M[i, j] = <ii|W|jj>
    = m(i - j) of the Bell operator W, I(rho) = Tr(W rho).

    As <ii|A_s[a] B_t[b]> = omega^{i(a - b + alpha_s + beta_t)}/d, the ramp r_k
    enters only via sum_k r_k omega^{delta k}, -2d/((d - 1)(omega^delta - 1))
    and, as the weights sum to 0, 0 at delta = 0, so W's product-basis diagonal
    is 0.  The setting pairs sum to m(delta) = 2/((d - 1) cos(pi delta/2d)),
    cos as sin(pi (d - |delta|)/2d), precise near |delta| = d.  m(1) = 2 sqrt 2
    (Tsirelson) at d = 2; m(1), m(2) = 2/sqrt 3, 2 at d = 3."""
    delta = np.abs(np.arange(1 - d, d))
    profile = 2.0 / ((d - 1.0) * np.sin(np.pi * (d - delta) / (2.0 * d)))
    profile[d - 1] = 0.0
    return profile


def _damping_quadratic(state: SchmidtState) -> np.ndarray:
    """(q0, q1, q2) with I(p) = q0 + q1 p + q2 p^2 under local damping: the
    no-jump Kraus pair sends the state to a + p b, a = c_0 |00> and b its
    excited part; the other pairs leave product basis states.  q0 = c_0^2 m(0),
    q1 = 2 c_0 sum_j m(-j) b_j, q2 = sum_{delta,j} m(delta) b_{j+delta} b_j."""
    d, c0 = state.d, state.coeffs[0]
    m, b = _bell_profile(d), np.concatenate(([0.0], state.coeffs[1:]))
    row = c0 * m[d - 1::-1]  # c_0 M[0, j] = c_0 m(-j)
    return np.array([row[0] * c0, 2.0 * (row @ b),
                     m @ np.correlate(b, b, "full")])


def critical_lr(state: SchmidtState, kind: ChannelKind) -> CriticalResult:
    """Smallest noise-free fraction at which the inequality is violated.
    m > 0 off m(0) and coeffs >= 0 give q1, q2 >= 0: no state trips the dip."""
    damping = kind is ChannelKind.AMPLITUDE_DAMPING
    if not (kind.is_kraus or kind is ChannelKind.WHITE):
        raise UnsupportedChannel(
            f"no local-realism threshold defined for channel {kind.value}")
    q0, q1, q2 = _damping_quadratic(state)
    # I'(p) = q1 + 2 q2 p is linear, so its ends bound it on [0, 1]
    if damping and min(q1, q1 + 2.0 * q2) < -1e-9:
        raise NonMonotonic("inequality value is not monotone in p")
    pure_value = q0 + q1 + q2  # the undamped value, c^T M c
    if pure_value <= LOCAL_BOUND:
        raise NoViolation(
            f"inequality value {pure_value:.6f} never exceeds the bound")
    method, value = "analytic", LOCAL_BOUND / pure_value
    if kind is ChannelKind.DEPOLARIZING:
        value = np.sqrt(value)
    elif damping:
        lo, hi = confirm_bracket(
            lambda p, rows: q0 + q1 * p + q2 * p * p > LOCAL_BOUND,
            quadratic_root(q2, q1, LOCAL_BOUND - q0)[None])
        method, value = "bisection", 0.5 * (lo[0] + hi[0])
    return CriticalResult(parameter_name=kind.parameter_name,
                          value=float(value), method=method, channel=kind,
                          state=describe_state(state))


def _generator_eigh(thetas: np.ndarray,
                    mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, U) with H = U diag(w) U^dagger for the four generators H = sum
    theta_a B_a, rows of thetas; one matmul and one batched eigh."""
    d = mats.shape[-1]
    return np.linalg.eigh((thetas @ mats.reshape(-1, d * d)).reshape(4, d, d))


def _rotated_vectors(v0: np.ndarray, w: np.ndarray, u: np.ndarray,
                     uh: np.ndarray) -> np.ndarray:
    """Outcome vectors (4, d, d), [slot, a, m] in slot order [A_0, A_1, B_0,
    B_1], each slot's rows v0 conjugated by exp(iH) = U diag(e^{iw})
    U^dagger of the generators _generator_eigh decomposed; uh = U^dagger."""
    rot = (u * np.exp(1j * w)[:, None, :]) @ uh
    return v0 @ rot.transpose(0, 2, 1)  # each row rotated by exp(iH)^T


def _rotated_settings(base: MeasurementSettings, w: np.ndarray,
                      u: np.ndarray) -> MeasurementSettings:
    """base rotated as _rotated_vectors does it, validated."""
    vecs = _rotated_vectors(np.concatenate((base.a_vectors, base.b_vectors)),
                            w, u, u.conj().transpose(0, 2, 1))
    return MeasurementSettings(d=base.d, a_vectors=vecs[:2],
                               b_vectors=vecs[2:])


def _qubit_block_settings(d: int) -> MeasurementSettings:
    """The d=2 standard settings on levels {0, 1}; the other levels are
    measured directly."""
    vecs = np.tile(np.eye(d, dtype=complex), (4, 1, 1))
    vecs[:, :2, :2] = np.concatenate(_standard_vectors(2))
    return MeasurementSettings(d=d, a_vectors=vecs[:2], b_vectors=vecs[2:])


def _outcome_weights(d: int) -> np.ndarray:
    """G[(s, a), (t, b)] = w[s, t, a - b mod d] of _ramp_weights, so that
    I = sum G[(s, a), (t, b)] P[s, t, a, b] for any probability table."""
    n = np.arange(d)
    return _ramp_weights(d)[:, :, (n[:, None] - n) % d] \
        .transpose(0, 2, 1, 3).reshape(2 * d, 2 * d)


def _settings_objective(rho: TwoQuditState, mats: np.ndarray):
    """value_and_gradient(thetas, v0) -> (I, dI/dtheta): the inequality value
    at the base outcome vectors v0 (4, d, d) rotated by the angles thetas
    (4, d^2 - 1) along the generators mats, and its gradient, shape (4,
    d^2 - 1).  What does not depend on the angles (the realigned rho, its
    contiguous transpose, the outcome weights, the generators' columns) is
    built here, once per state; v0 is built once per start.

    Each outcome vector v_sa of one party sees the operator E_sa = sum_tb
    G[(s, a), (t, b)] <u_tb| rho |u_tb> that the other party's vectors u
    leave on it, so I = sum_sa v_sa^dagger F_sa with F_sa = E_sa v_sa.
    With v = exp(iH) v0 per slot, dI = 2 Re sum_a v_a^dagger E_a dv_a =
    2 Re Tr(dexp K), K = sum_a v0_a F_a^dagger.  Daleckii-Krein gives dexp
    in the eigenbasis of H: along X it is i U (Phi o U^dagger X U)
    U^dagger, with Phi_mn = e^{i(w_m + w_n)/2} sinc((w_m - w_n)/2), so
    dI/dtheta_c = -2 Im Tr(B_c U (Phi o U^dagger K U) U^dagger).
    """
    d = rho.d
    r = realign(rho.rho, d)
    # a contiguous R^T keeps the B-side product's rounding independent of
    # how BLAS is handed a transposed view
    rt = np.ascontiguousarray(r.T)
    weights = _outcome_weights(d)
    weights_t = weights.T
    mat_cols = mats.reshape(-1, d * d).T

    def value_and_gradient(thetas: np.ndarray,
                           v0: np.ndarray) -> tuple[float, np.ndarray]:
        w, u = _generator_eigh(thetas, mats)
        uh = u.conj().transpose(0, 2, 1)
        vecs = _rotated_vectors(v0, w, u, uh)
        # E for the A slots, then the B slots
        e = np.concatenate((weights @ (_projector_rows(vecs[2:]) @ rt),
                            weights_t @ (_projector_rows(vecs[:2]) @ r)))
        rows = (e.reshape(4 * d, d, d) @ vecs.reshape(4 * d, d, 1)) \
            .reshape(4, d, d)
        value = np.vdot(vecs[:2], rows[:2]).real
        k = uh @ v0.transpose(0, 2, 1) @ rows.conj() @ u
        phi = np.exp(0.5j * (w[:, :, None] + w[:, None, :])) \
            * np.sinc((w[:, :, None] - w[:, None, :]) / (2.0 * np.pi))
        dexp = u @ (phi * k) @ uh
        grad = dexp.transpose(0, 2, 1).reshape(4, d * d) @ mat_cols
        return float(value), -2.0 * grad.imag

    return value_and_gradient


class MinimizeResult(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int  # calls to fun


def minimize(fun, x0, args) -> MinimizeResult:
    """BFGS descent of fun, which returns (value, gradient), from x0.

    The inverse Hessian starts at I and takes the BFGS update (Nocedal and
    Wright, eq. 6.17) as an O(n^2) rank-two correction.  Each step meets
    the strong Wolfe conditions (_wolfe_step); the first trial step is
    min(1, 1.01 * 2 (f - f_prev) / g^T p), with f_prev = f + |g| / 2 before
    the first step.  The descent stops at max|g| <= BFGS_GTOL or after
    200 n steps, and keeps the current point where the line search fails
    or H g stops being a descent direction.  nfev counts the calls to fun.
    """
    calls = 0

    def evaluate(x):
        nonlocal calls
        calls += 1
        value, grad = fun(x, *args)
        return float(value), np.asarray(grad, dtype=float)

    x = np.array(x0, dtype=float).ravel()
    f, g = evaluate(x)
    h = np.eye(x.size)
    f_prev = f + float(np.linalg.norm(g)) / 2.0
    for _ in range(200 * x.size):
        if np.max(np.abs(g)) <= BFGS_GTOL:
            break
        p = -(h @ g)
        slope = float(g @ p)
        if not slope < 0.0:
            break
        step = 1.01 * 2.0 * (f - f_prev) / slope
        found = _wolfe_step(evaluate, x, p, f, slope,
                            min(1.0, step) if step > 0.0 else 1.0)
        if found is None:
            break
        step, f_new, g_new = found
        s, y = step * p, g_new - g
        x, f_prev, f, g = x + s, f, f_new, g_new
        _update_inverse_hessian(h, s, y)
    return MinimizeResult(x=x, fun=f, nfev=calls)


def _update_inverse_hessian(h, s, y):
    """H <- (I - r s y^T) H (I - r y s^T) + r s s^T, r = 1 / s^T y, in place
    and in O(n^2): H += s a^T - u s^T with u = r H y, a = r (1 + y^T u) s - u,
    as one (n, 2) by (2, n) product, which at n = 140-400 takes an eighth of
    the time of two np.outer.  No update where s^T y <= 0."""
    sy = float(s @ y)
    if sy > 0.0:
        u = (h @ y) / sy
        a = ((1.0 + float(y @ u)) / sy) * s - u
        h += np.stack((s, -u), axis=1) @ np.stack((a, s))


def _wolfe_step(evaluate, x, p, f0, slope0, step):
    """(step, f, g) along p meeting the strong Wolfe conditions, or None
    after WOLFE_TRIES trials: bisection on the Wolfe conditions (Lewis and
    Overton, Math. Program. 141, 135 (2013), for the weak form).  A step is
    too long where Armijo fails or the slope exceeds c2 |slope0|, too short
    where it is below -c2 |slope0|; the trial step doubles until one is too
    long, then bisects the bracket [lo, hi]."""
    lo, hi = 0.0, np.inf
    for _ in range(WOLFE_TRIES):
        f, g = evaluate(x + step * p)
        slope = float(g @ p)
        if f > f0 + WOLFE_C1 * step * slope0 or slope > -WOLFE_C2 * slope0:
            hi = step
        elif slope < WOLFE_C2 * slope0:
            lo = step
        else:
            return step, f, g
        step = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
    return None


def optimize_settings(rho: TwoQuditState, restarts: int,
                      seed: int) -> BellValue:
    """Maximize the inequality over rotated settings.

    Every start is base settings rotated by exp(iH) of angles: the
    standard settings and the two-level embedding of the qubit settings
    at zero angles always, then restarts random angles about the standard
    settings.  BFGS climbs from each start on the exact gradient of I in
    the 4(d^2 - 1) angles; the objective (_settings_objective) is built once
    per call and each start's base vectors once, so an evaluation does only
    the work that depends on the angles and validates no settings.  Each
    end point's value is taken again by the Born rule on validated
    settings, and the best is kept; never returns less than the
    standard-settings value; deterministic for a fixed seed.
    """
    d = rho.d
    std = cglmp_settings(d)
    mats = gellmann_basis(d).matrices
    size = 4 * (d * d - 1)
    rng = np.random.default_rng(seed)
    starts = [(std, np.zeros(size)),
              (_qubit_block_settings(d), np.zeros(size))]
    starts += [(std, rng.normal(scale=0.4, size=size))
               for _ in range(restarts)]
    objective = _settings_objective(rho, mats)

    def negated(x, v0):
        value, grad = objective(x.reshape(4, -1), v0)
        return -value, -grad.ravel()

    best = cglmp_value(rho, std)
    for base, x0 in starts:
        v0 = np.concatenate((base.a_vectors, base.b_vectors))
        res = minimize(negated, x0, (v0,))
        found = cglmp_value(rho, _rotated_settings(
            base, *_generator_eigh(res.x.reshape(4, -1), mats)))
        if found.i_d > best.i_d:
            best = found
    return best
