"""BFGS descent on an objective that gives (value, gradient), written as
generators so that one caller can drive many descents in lockstep: bfgs
yields each point it wants evaluated and is sent (value, gradient) there,
and its line search, wolfe_step, is a generator of its trial points."""

from __future__ import annotations

import numpy as np

# the gradient stop, a tenth of the usual 1e-5, which leaves the settings
# optimizer's end values up to about 1e-7 short; strong-Wolfe constants
BFGS_GTOL = 1e-6
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
WOLFE_TRIES = 40  # trial steps per line search


def bfgs(x0):
    """BFGS descent from x0 as a generator: it yields each point to
    evaluate, is sent (value, gradient) there, and returns (x, value) at
    the end point.

    The inverse Hessian starts at I and takes the BFGS update (Nocedal and
    Wright, eq. 6.17) as an O(n^2) rank-two correction.  Each step meets
    the strong Wolfe conditions (wolfe_step); the first trial step is
    min(1, 1.01 * 2 (f - f_prev) / g^T p), with f_prev = f + |g| / 2 before
    the first step.  The descent stops at max|g| <= BFGS_GTOL or after
    200 n steps, and keeps the current point where the line search fails
    or H g stops being a descent direction.
    """
    x = np.array(x0, dtype=float).ravel()
    f, g = yield x
    h = np.eye(x.size)
    f_prev = f + float(np.linalg.norm(g)) / 2.0
    for _ in range(200 * x.size):
        if np.abs(g).max() <= BFGS_GTOL:
            break
        p = -(h @ g)
        slope = float(g @ p)
        if not slope < 0.0:
            break
        step = 1.01 * 2.0 * (f - f_prev) / slope
        found = yield from wolfe_step(x, p, f, slope,
                                      min(1.0, step) if step > 0.0 else 1.0)
        if found is None:
            break
        step, f_new, g_new = found
        s, y = step * p, g_new - g
        x, f_prev, f, g = x + s, f, f_new, g_new
        update_inverse_hessian(h, s, y)
    return x, f


def update_inverse_hessian(h, s, y):
    """H <- (I - r s y^T) H (I - r y s^T) + r s s^T, r = 1 / s^T y, in place
    and in O(n^2): H += s a^T - u s^T with u = r H y, a = r (1 + y^T u) s - u,
    as one (n, 2) by (2, n) product, which at n = 140-400 takes an eighth of
    the time of two np.outer.  No update where s^T y <= 0."""
    sy = float(s @ y)
    if sy > 0.0:
        u = (h @ y) / sy
        left, right = np.empty((s.size, 2)), np.empty((2, s.size))
        left[:, 0], left[:, 1] = s, -u
        right[0] = ((1.0 + float(y @ u)) / sy) * s - u
        right[1] = s
        h += left @ right


def wolfe_step(x, p, f0, slope0, step):
    """A generator of the points x + step p it tries, sent (f, g) at each,
    that returns (step, f, g) meeting the strong Wolfe conditions, or None
    after WOLFE_TRIES trials: bisection on the Wolfe conditions (Lewis and
    Overton, Math. Program. 141, 135 (2013), for the weak form).  A step is
    too long where Armijo fails or the slope exceeds c2 |slope0|, too short
    where it is below -c2 |slope0|; the trial step doubles until one is too
    long, then bisects the bracket [lo, hi]."""
    lo, hi = 0.0, np.inf
    for _ in range(WOLFE_TRIES):
        f, g = yield x + step * p
        slope = float(g @ p)
        if f > f0 + WOLFE_C1 * step * slope0 or slope > -WOLFE_C2 * slope0:
            hi = step
        elif slope < WOLFE_C2 * slope0:
            lo = step
        else:
            return step, f, g
        step = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
    return None
