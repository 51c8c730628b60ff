"""Per-layer metrics of qnl from one traced pass.

The layers are the modules of src/qnl. Each traced function gives
`<module>.<function>.calls` and `<module>.<function>.self_s`; the ratios
below are counts that repeat exactly from run to run.
"""

from __future__ import annotations

import numpy as np

from tracer import SpanTable, Tracer

# (metric prefix, module, attribute path)
TARGETS = (
    ("gellmann.gellmann_basis", "qnl.gellmann", "gellmann_basis"),
    ("states.schmidt_state", "qnl.states", "schmidt_state"),
    ("states.TwoQuditState", "qnl.states", "TwoQuditState"),
    ("channels.channel_output", "qnl.channels", "channel_output"),
    ("channels.apply_local_channel", "qnl.channels", "apply_local_channel"),
    ("tensor.schmidt_correlation_tensor", "qnl.tensor",
     "schmidt_correlation_tensor"),
    ("tensor.correlation_tensor", "qnl.tensor", "correlation_tensor"),
    ("tensor.Metric", "qnl.tensor", "Metric"),
    ("tensor.spectral_norm", "qnl.tensor", "spectral_norm"),
    ("tensor.norm_sq", "qnl.tensor", "norm_sq"),
    ("linalg.largest_singular_value", "qnl.linalg", "largest_singular_value"),
    ("linalg.hermitian_eigenvalues", "qnl.linalg", "hermitian_eigenvalues"),
    ("criteria.MarginCurve.scalars", "qnl.criteria", "MarginCurve.scalars"),
    ("criteria.critical_bisection", "qnl.criteria", "critical_bisection"),
    ("criteria.scan_surface", "qnl.criteria", "scan_surface"),
    ("criteria.xi", "qnl.criteria", "xi"),
    ("bell.critical_lr", "qnl.bell", "critical_lr"),
    ("bell.cglmp_ad_value", "qnl.bell", "cglmp_ad_value"),
    ("bell.probability_table", "qnl.bell", "probability_table"),
    ("bell.MeasurementSettings", "qnl.bell", "MeasurementSettings"),
    ("bell.optimize_settings", "qnl.bell", "optimize_settings"),
    ("bell.minimize", "qnl.bell", "minimize"),
    ("fidelity.critical_fidelity", "qnl.fidelity", "critical_fidelity"),
    ("fidelity.werner_gap", "qnl.fidelity", "werner_gap"),
    ("reports.write_tables", "qnl.reports", "write_tables"),
    ("reports.surface_csv", "qnl.reports", "surface_csv"),
    ("cli.main", "qnl.cli", "main"),
)

CAPTURES = {
    # distinct thresholds are (d, channel kind)
    "bell.critical_lr": lambda args, kwargs, res: (args[0].d, str(args[1])),
    "criteria.scan_surface": lambda args, kwargs, res: int(res.values.size),
    "bell.minimize": lambda args, kwargs, res: (int(res.nfev), -float(res.fun)),
    # the state, to recompute the standard-settings value after the pass
    "bell.optimize_settings": lambda args, kwargs, res: args[0],
}

# threshold solvers: a scan cell counts as one threshold
SOLVERS = {"criteria.critical_bisection", "criteria.scan_surface"}


def new_tracer() -> Tracer:
    return Tracer("qnl", TARGETS, CAPTURES)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, standard_value) -> dict[str, float]:
    """standard_value(rho) gives the standard-settings inequality value;
    it is called after the tracer is uninstalled."""
    names = tracer.names
    table = SpanTable(tracer.spans(), names)
    calls = table.calls()
    self_s = np.bincount(table.target, weights=table.self_ns(),
                         minlength=len(names)) / 1e9
    out = {}
    for i, prefix in enumerate(names):
        out[f"{prefix}.calls"] = int(calls[i])
        out[f"{prefix}.self_s"] = float(self_s[i])

    def count(name: str, mask=None) -> int:
        return int(table.calls(mask)[names.index(name)])

    cells = sum(v for _, v in tracer.captured("criteria.scan_surface"))
    thresholds = count("criteria.critical_bisection") + cells
    in_solver = table.under(SOLVERS)
    out["criteria.scalars_per_threshold"] = _ratio(
        count("criteria.MarginCurve.scalars", in_solver), thresholds)
    out["states.validations_per_threshold"] = _ratio(
        count("states.TwoQuditState", in_solver), thresholds)
    out["tensor.metrics_per_threshold"] = _ratio(
        count("tensor.Metric", in_solver), thresholds)

    lr_keys = [v for _, v in tracer.captured("bell.critical_lr")]
    out["bell.critical_lr.repeat_ratio"] = _ratio(len(lr_keys),
                                                  len(set(lr_keys)))

    # starts of one optimize_settings call are its minimize children, in
    # call order; a start improves if it beats the best value so far, which
    # begins at the standard settings
    starts_by_call = {}
    for sid, (nfev, value) in tracer.captured("bell.minimize"):
        parent = table.parent[table.row_of[sid]]
        caller = int(table.sid[parent]) if parent >= 0 else None
        starts_by_call.setdefault(caller, []).append((nfev, value))
    optimizations = tracer.captured("bell.optimize_settings")
    tried = improving = nfev_total = 0
    for sid, rho in optimizations:
        best = standard_value(rho)
        for nfev, value in starts_by_call.get(sid, []):
            tried += 1
            nfev_total += nfev
            if value > best:
                improving += 1
                best = value
    out["bell.optimize.nfev"] = _ratio(nfev_total, len(optimizations))
    out["bell.optimize.improving_starts_ratio"] = _ratio(improving, tried)
    return out
