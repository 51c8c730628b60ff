"""Layer probes: one public call per layer at each probe dimension.

Inputs are built outside the timed region, every probe is warmed up once,
and its result is checked against a dense oracle written here. The time
reported is the median of the repeats, in seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from qnl import bell, channels, criteria, gellmann, states, tensor

DIMENSIONS = (3, 6, 10, 16)
STRENGTH = 0.3
MIN_REPEATS = 5
MIN_PROBE_S = 0.05
MAX_REPEATS = 200


def _time(call, prepare=None) -> float:
    """Median seconds of call(); prepare() runs untimed before each call."""
    times = []
    total = 0.0
    while len(times) < MAX_REPEATS and (len(times) < MIN_REPEATS
                                        or total < MIN_PROBE_S):
        if prepare is not None:
            prepare()
        t0 = perf_counter()
        call()
        dt = perf_counter() - t0
        times.append(dt)
        total += dt
    return statistics.median(times)


def _close(failures: list, name: str, got, want, tol: float) -> None:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        failures.append(f"probe {name}: deviates from oracle by {dev}")


# ------------------------------------------------------------------ oracles

def _basis_oracle(failures: list, basis, d: int) -> None:
    m = basis.matrices
    gram = np.einsum("aij,bji->ab", m, m)
    _close(failures, f"basis.d{d} gram", gram, 2.0 * np.eye(d * d - 1), 1e-12)
    _close(failures, f"basis.d{d} hermitian", m,
           np.conj(np.transpose(m, (0, 2, 1))), 0.0)
    _close(failures, f"basis.d{d} trace", np.einsum("aii->a", m), 0.0, 1e-12)


def _local_kraus_oracle(rho: np.ndarray, ops: np.ndarray, d: int) -> np.ndarray:
    """sum_km (E_k x E_m) rho (E_k x E_m)^dagger, one side at a time."""
    eye = np.eye(d)
    for side in range(2):
        out = np.zeros_like(rho)
        for e in ops:
            k = np.kron(e, eye) if side == 0 else np.kron(eye, e)
            out += k @ rho @ k.conj().T
        rho = out
    return rho


def _depol_oracle(rho: np.ndarray, d: int, r: float) -> np.ndarray:
    """(1-r) rho + r (I/d) x tr_side(rho), applied to each side in turn."""
    for side in range(2):
        r4 = rho.reshape(d, d, d, d)
        if side == 0:
            rest = np.einsum("kikj->ij", r4)
            mixed = np.kron(np.eye(d) / d, rest)
        else:
            rest = np.einsum("ikjk->ij", r4)
            mixed = np.kron(rest, np.eye(d) / d)
        rho = (1.0 - r) * rho + r * mixed
    return rho


def _born_oracle(rho: np.ndarray, m, d: int) -> np.ndarray:
    out = np.empty((2, 2, d, d))
    for s in range(2):
        for t in range(2):
            u = np.einsum("ai,bj->abij", m.a_vectors[s],
                          m.b_vectors[t]).reshape(d * d, d * d)
            out[s, t] = np.einsum("ki,ij,kj->k", u.conj(), rho,
                                  u).real.reshape(d, d)
    return out


# ------------------------------------------------------------------ probes

def run_probes() -> tuple[dict[str, float], list[str]]:
    """Time and check every probe: (seconds per probe, check failures)."""
    out, failures = {}, []
    for d in DIMENSIONS:
        rng = np.random.default_rng(d)
        raw = rng.uniform(0.05, 1.0, size=d)
        psi = states.schmidt_state(d, np.sqrt(raw / raw.sum()))
        pure = states.to_density(psi)
        kraus = channels.amplitude_damping_kraus(d, STRENGTH)
        damped = channels.apply_local_channel(pure, kraus)
        damped_rho = np.array(damped.rho)
        t_damped = tensor.correlation_tensor(damped)
        g = tensor.identity_metric(d)
        settings = bell.cglmp_settings(d)
        mes_damped = channels.apply_local_channel(
            states.to_density(states.max_entangled(d)), kraus)

        def timed(layer: str, call, prepare=None):
            result = call()  # warm-up; its result is the one checked
            out[f"probe.{layer}.d{d}_s"] = _time(call, prepare)
            return result

        basis = timed("basis", lambda: gellmann.gellmann_basis(d),
                      gellmann.gellmann_basis.cache_clear)
        _basis_oracle(failures, basis, d)

        closed = timed("closed_tensor",
                       lambda: tensor.schmidt_correlation_tensor(psi))
        trace = timed("trace_tensor", lambda: tensor.correlation_tensor(pure))
        # acceptance criterion 2: closed form against the trace, 1e-9
        _close(failures, f"closed_tensor.d{d}", closed.t, trace.t, 1e-9)

        got = timed("channel_ad",
                    lambda: channels.apply_local_channel(pure, kraus))
        _close(failures, f"channel_ad.d{d}", got.rho,
               _local_kraus_oracle(pure.rho, kraus.operators, d), 1e-12)

        got = timed("channel_depol",
                    lambda: channels.depolarize_pair(pure, STRENGTH))
        _close(failures, f"channel_depol.d{d}", got.rho,
               _depol_oracle(pure.rho, d, STRENGTH), 1e-12)

        got = timed("validate",
                    lambda: states.TwoQuditState(d=d, rho=damped_rho))
        if np.linalg.eigvalsh(damped_rho)[0] < states.EIG_FLOOR:
            failures.append(f"probe validate.d{d}: oracle rejects the state")
        _close(failures, f"validate.d{d}", got.rho, damped_rho, 0.0)

        verdict = timed("margin", lambda: criteria.is_entangled(t_damped, g))
        t = t_damped.t
        _close(failures, f"margin.d{d}", verdict.margin,
               np.sum(t * t) - np.linalg.norm(t, 2), 1e-9)

        table = timed("cglmp_born",
                      lambda: bell.probability_table(damped, settings))
        _close(failures, f"cglmp_born.d{d}", table,
               _born_oracle(damped.rho, settings, d), 1e-12)

        value = timed("cglmp_closed",
                      lambda: bell.cglmp_ad_value(d, STRENGTH))
        born = bell.cglmp_value(mes_damped, settings)
        _close(failures, f"cglmp_closed.d{d}", value.probabilities,
               born.probabilities, 1e-12)
        _close(failures, f"cglmp_closed.d{d} i_d", value.i_d, born.i_d, 1e-9)
    return out, failures
