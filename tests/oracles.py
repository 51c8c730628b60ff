"""Independent reference paths the tests compare the package against.

Each one recomputes something the package computes on its own faster
path: the Heisenberg-Weyl Kraus form of local depolarizing noise (the
package has only the affine form, channels.depolarize_pair), the
single-qudit Kraus action, the closed-form colored-noise scalars
that criteria.MarginBatch evaluates on its block form, the populations
of the noisy state at one p under every channel (channels.block_form
gives their coefficients in p, which MarginBatch sums by Horner), the
scan CSV formatted cell by cell from numpy scalars, the
correlation tensor contracted on rho by two einsums (the package reads it
from the realigned rho), the damped Bell quadratic read from the
d x d Toeplitz block (the package reads the block's 2d - 1 profile
values), Catalan's constant summed from its series (the package holds
the double nearest it), the generator basis built one matrix at a time
(the package scatters it from index arrays and diagonal_entries), a
sampled check that each detection verdict switches once (the package
proves it from the margin's polynomial form), thresholds bisected by 27
verdict sweeps (the package confirms a closed-form switch point with
two), the fidelity read from the dense rho (critical_fidelity sums the
block form), damping switch points taken by Newton to a relative step of
1e-15 (the package takes two steps), the settings objective with
every operand rebuilt on each call, validated settings included
(bell._settings_objective builds what does not depend on the angles
once), the basis CSV written by visiting every entry of every generator
(the package formats only np.nonzero's entries), the damping Kraus
operators filled one at a time (the package sets them by index
assignment), the Bell profile's closed form evaluated at 50 digits by a
stdlib decimal sine (the package evaluates it in doubles), and the tensor
CSV formatted entry by entry (the package formats a row per template).
"""

from decimal import Decimal, localcontext

import numpy as np

from qnl.bell import (MeasurementSettings, _bell_profile, _generator_eigh,
                      _projector_rows)
from qnl.channels import ChannelKind, KrausSet
from qnl.criteria import (VERDICT_TOL, MarginBatch, bisect_bracket,
                          quadratic_root)
from qnl.errors import DimensionMismatch, NonMonotonic
from qnl.gellmann import (ANTISYMMETRIC, DIAGONAL, SYMMETRIC,
                          gellmann_basis)
from qnl.linalg import realign
from qnl.reports import CSV_DECIMALS, FLAG_NO_DETECTION
from qnl.states import max_entangled
from qnl.tensor import c_factor, colored_metric

GRID_POINTS = 100


def depolarizing_kraus(d: int, r: float) -> KrausSet:
    """Heisenberg-Weyl realization of rho -> (1-r) rho + (r/d) I."""
    shift = np.roll(np.eye(d), 1, axis=0)  # X: |j> -> |j+1>
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))  # Z
    ops = []
    for a in range(d):
        xa = np.linalg.matrix_power(shift, a)
        for b in range(d):
            w = xa @ np.linalg.matrix_power(clock, b)
            if a == 0 and b == 0:
                ops.append(np.sqrt(1.0 - r + r / (d * d)) * w)
            else:
                ops.append(np.sqrt(r / (d * d)) * w)
    return KrausSet(d=d, operators=np.array(ops))


def apply_single(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Channel action on one qudit."""
    return np.einsum("kij,jl,kml->im", kraus.operators, rho,
                     kraus.operators.conj())


def colored_always_entangled(d: int, v_samples) -> bool:
    """Criterion fires at every sample, each under its own metric
    colored_metric(d, v); closed forms must agree to 1e-8."""
    v = np.asarray(v_samples, dtype=float)
    if not np.all((0.0 < v) & (v <= 1.0)):
        raise ValueError("samples must lie in (0, 1]")
    mes = max_entangled(d).coeffs[None, :]
    l, n = np.array([MarginBatch(d, mes, ChannelKind.COLORED,
                                 colored_metric(d, x)).scalars(x)
                     for x in v])[:, :, 0].T
    l_closed = v * (1.0 - v * (d - 2.0) / (d - 1.0))
    n_closed = v * (1.0 + v * (-6.0 + 6.0 * d - d * d
                               + v * (d - 2.0) ** 2) / (d - 1.0) ** 2)
    return bool(np.all((np.abs(l - l_closed) <= 1e-8)
                       & (np.abs(n - n_closed) <= 1e-8)
                       & (n - l > VERDICT_TOL)))


def verdict_grid_check(curve, cells=True) -> None:
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
    """The midpoints of bisect_bracket's final brackets, 27 verdict sweeps
    each: the thresholds criteria.confirm_bracket locates from closed-form
    switch points."""
    lo, hi = bisect_bracket(fired, size)
    return 0.5 * (lo + hi)


def damping_switch_points(batch: MarginBatch) -> np.ndarray:
    """MarginBatch.switch_points on the damping path, the quartic's root
    found by Newton from a guarded start until the step falls below 1e-15
    relative, within 32 steps, on the rows where alpha > 0 only."""
    form = batch.polynomial_form()
    a, b = form.n[2], form.n[4]
    alpha, beta = (np.max(form.pairs[form.powers == e], axis=0,
                          initial=0.0) for e in (1, 2))
    root = np.sqrt(quadratic_root(b, a - beta, VERDICT_TOL))
    rows = np.flatnonzero(alpha > 0.0)
    if len(rows):
        a, b, alpha = a[rows], b[rows], alpha[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            # B p^3 + A p = alpha, the root for tol = 0, by the
            # hyperbolic form of Cardano's formula; A p = alpha if B = 0
            scale = np.sqrt(a / (3.0 * b))
            p = np.where(b > 0.0, 2.0 * scale * np.sinh(
                np.arcsinh(1.5 * alpha / (a * scale)) / 3.0), alpha / a)
        # the larger of the roots for tol = 0 and for alpha = 0 lies below
        # the quartic's, where its slope is at least alpha
        p = np.maximum(p, np.sqrt(quadratic_root(b, a, VERDICT_TOL)))
        for _ in range(32):
            step = (((b * p * p + a) * p - alpha) * p - VERDICT_TOL) \
                / ((4.0 * b * p * p + 2.0 * a) * p - alpha)
            p = p - step
            if np.all(np.abs(step) <= 1e-15 * p):
                break
        root[rows] = np.maximum(root[rows], p)
    return root


def grid_verdicts(batch: MarginBatch, points: int) -> np.ndarray:
    """Verdicts of every input of a batch at `points` evenly spaced values
    of p in [0, 1], (points, N), from one scalars call."""
    p = np.linspace(0.0, 1.0, points)
    l, n = batch.scalars(np.repeat(p, batch.size),
                         np.tile(np.arange(batch.size), points))
    return (n - l > VERDICT_TOL).reshape(points, batch.size)


def populations(kind: ChannelKind, coeffs: np.ndarray,
                p: np.ndarray) -> np.ndarray:
    """P(a, b) = <ab|rho(p)|ab> of each noisy Schmidt input at its own p,
    (N, d, d), for every channel kind, each written from its noise at p."""
    size, d = coeffs.shape
    csq = coeffs * coeffs
    pure = csq[:, :, None] * np.eye(d)
    pc = p[:, None, None]
    if kind is ChannelKind.DEPOLARIZING:
        # each side keeps its level with 1 - r = p, else is uniform
        qc = 1.0 - pc
        marginals = csq[:, :, None] + csq[:, None, :]
        return pc * pc * pure + pc * qc * marginals / d + qc * qc / (d * d)
    if kind is not ChannelKind.AMPLITUDE_DAMPING:
        if kind is ChannelKind.WHITE:
            noise = np.full((d, d), 1.0 / (d * d))
        elif kind is ChannelKind.PRODUCT:
            noise = csq[:, :, None] * csq[:, None, :]
        else:  # colored: all weight on the top level pair
            noise = np.zeros((d, d))
            noise[-1, -1] = 1.0
        return pc * pure + (1.0 - pc) * noise
    # damped diagonal, with q = 1 - p
    q, excited = 1.0 - p, csq[:, 1:]
    table = np.zeros((size, d, d))
    table[:, 0, 0] = csq[:, 0] + q * q * np.sum(excited, axis=1)
    table[:, 0, 1:] = table[:, 1:, 0] = (p * q)[:, None] * excited
    i = np.arange(1, d)
    table[:, i, i] = (p * p)[:, None] * excited
    return table


def fidelity(psi, rho) -> float:
    """sqrt(<psi|rho|psi>) on the dense rho (fidelity.critical_fidelity
    sums the noisy state's block form instead)."""
    if psi.d != rho.d:
        raise DimensionMismatch(f"state d={psi.d} vs rho d={rho.d}")
    v = psi.ket()
    val = float(np.real(v.conj() @ rho.rho @ v))
    return float(np.sqrt(min(max(val, 0.0), 1.0)))


def per_cell_surface_csv(scan) -> str:
    """The scan CSV, each cell formatted from the numpy scalars."""
    lines = [f"alpha,beta,{scan.quantity},flag"]
    for i, a in enumerate(scan.alphas):
        for j, b in enumerate(scan.betas):
            flag = FLAG_NO_DETECTION if scan.flags[i, j] else ""
            lines.append(f"{a:.{CSV_DECIMALS}f},{b:.{CSV_DECIMALS}f},"
                         f"{scan.values[i, j]:.{CSV_DECIMALS}f},{flag}")
    return "\n".join(lines) + "\n"


def per_entry_csv_matrix(header: list[str], rows) -> str:
    """The tensor CSV, each entry formatted by its own f-string."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.{CSV_DECIMALS}f}" for x in row))
    return "\n".join(lines) + "\n"


def per_entry_basis_csv(d: int) -> str:
    """`qnl basis --format csv` text, every entry of every generator
    visited and those below 1e-15 in modulus skipped."""
    basis = gellmann_basis(d)
    lines = ["index,group,j,k,row,col,re,im"]
    for idx in range(basis.size):
        j, k = basis.pair_of[idx]
        m = basis.matrices[idx]
        for r in range(d):
            for c in range(d):
                if abs(m[r, c]) < 1e-15:
                    continue
                lines.append(f"{idx},{basis.group_of[idx]},{j},{k},"
                             f"{r},{c},{m[r, c].real:.{CSV_DECIMALS}f},"
                             f"{m[r, c].imag:.{CSV_DECIMALS}f}")
    return "\n".join(lines) + "\n"


def looped_damping_kraus(d: int, r: float) -> KrausSet:
    """Amplitude-damping Kraus set, the d operators filled in loops."""
    e0 = np.zeros((d, d), dtype=complex)
    e0[0, 0] = 1.0
    for i in range(1, d):
        e0[i, i] = np.sqrt(1.0 - r)
    ops = [e0]
    for j in range(1, d):
        ej = np.zeros((d, d), dtype=complex)
        ej[0, j] = np.sqrt(r)
        ops.append(ej)
    return KrausSet(d=d, operators=np.array(ops))


def einsum_correlation_tensor(rho: np.ndarray, d: int) -> np.ndarray:
    """c(d) Tr[rho (B_i (x) B_j)] by two einsums on rho as [i, j, k, l];
    complex, so that an imaginary residue shows."""
    m = gellmann_basis(d).matrices
    r4 = rho.reshape(d, d, d, d)
    z = np.einsum("abcd,ica->ibd", r4, m)
    return np.einsum("ibd,jdb->ij", z, m) * c_factor(d)


def profile_block(d: int) -> np.ndarray:
    """The Toeplitz block M[i, j] = m(i - j) of the Bell profile."""
    k = np.arange(d)
    return _bell_profile(d)[k[:, None] - k + d - 1]


PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582")


def decimal_sin(x: Decimal) -> Decimal:
    """sin x for 0 <= x <= pi/2 by its Taylor series, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        term = total = x
        n = 1
        while abs(term) > Decimal("1e-58"):
            term *= -x * x / ((2 * n) * (2 * n + 1))
            total += term
            n += 1
    return +total  # rounded to the caller's precision


def decimal_bell_profile(d: int, delta: int) -> Decimal:
    """m(delta) = 2 / ((d - 1) sin(pi (d - |delta|) / 2d)) to 50 digits,
    0 at delta = 0."""
    if delta == 0:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50
        angle = PI_50 * (d - abs(delta)) / (2 * d)
        return 2 / ((d - 1) * decimal_sin(angle))


def block_damping_quadratic(state) -> np.ndarray:
    """(q0, q1, q2) of the damped inequality value as matrix-vector
    products on the block: a^T M a, 2 a^T M b and b^T M b, with a = c_0 |00>
    and b the excited coefficients."""
    a, b = np.zeros(state.d), state.coeffs.copy()
    a[0], b[0] = b[0], 0.0
    block = profile_block(state.d)
    return np.array([a @ block @ a, 2.0 * (a @ block @ b), b @ block @ b])


def settings_value_and_gradient(rho, base, thetas, mats, weights):
    """I at base rotated by the angles thetas and dI/dtheta, shape (4,
    d^2 - 1), as the optimizer once computed them on every evaluation: the
    rotated settings validated, rho realigned and the base vectors stacked
    anew.  See bell._settings_objective for the Daleckii-Krein gradient."""
    d = rho.d
    w, u = _generator_eigh(thetas, mats)
    rot = (u * np.exp(1j * w)[:, None, :]) @ u.conj().transpose(0, 2, 1)
    vecs = np.concatenate((base.a_vectors, base.b_vectors)) \
        @ rot.transpose(0, 2, 1)
    m = MeasurementSettings(d=d, a_vectors=vecs[:2], b_vectors=vecs[2:])
    r = realign(rho.rho, d)
    e = np.concatenate((
        weights @ (_projector_rows(m.b_vectors) @ np.ascontiguousarray(r.T)),
        weights.T @ (_projector_rows(m.a_vectors) @ r)))
    vecs = np.concatenate((m.a_vectors, m.b_vectors))  # [slot, a, m]
    rows = (e.reshape(4 * d, d, d) @ vecs.reshape(4 * d, d, 1)) \
        .reshape(4, d, d)
    value = np.vdot(m.a_vectors, rows[:2]).real
    v0 = np.concatenate((base.a_vectors, base.b_vectors))
    uh = u.conj().transpose(0, 2, 1)
    k = uh @ v0.transpose(0, 2, 1) @ rows.conj() @ u
    phi = np.exp(0.5j * (w[:, :, None] + w[:, None, :])) \
        * np.sinc((w[:, :, None] - w[:, None, :]) / (2.0 * np.pi))
    dexp = u @ (phi * k) @ uh
    grad = dexp.transpose(0, 2, 1).reshape(4, d * d) \
        @ mats.reshape(-1, d * d).T
    return float(value), -2.0 * grad.imag


def catalan_series() -> float:
    """Sum (-1)^k / (2k+1)^2 over 600,000 terms, paired; error below 1e-12."""
    k = np.arange(300_000, dtype=float)
    return float(np.sum(1.0 / (4.0 * k + 1.0) ** 2
                        - 1.0 / (4.0 * k + 3.0) ** 2))


def loop_basis(d: int):
    """(matrices, group tags, pairs) of the generator basis as lists, in
    storage order, each matrix filled entry by entry."""
    mats, groups, pairs = [], [], []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
            groups.append(SYMMETRIC)
            pairs.append((j, k))
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
            groups.append(ANTISYMMETRIC)
            pairs.append((j, k))
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -l
        m *= np.sqrt(2.0 / (l * (l + 1)))
        mats.append(m)
        groups.append(DIAGONAL)
        pairs.append((l, l))
    return mats, groups, pairs
