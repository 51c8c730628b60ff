"""Runs one workload in a process of its own and prints its measurements.

Started by run.py with qnl's source directory on PYTHONPATH:

    child.py WORKLOAD SEED SECONDS TRACE SCRATCH_DIR

The last line of stdout is one JSON object. Untraced, it holds every pass
(wall and CPU seconds, measured and in reference seconds, see calibrate.py;
per-op wall seconds) and the process's peak RSS.
Traced, it holds one untraced and one traced pass, the per-layer metrics
and the probe times.
"""

from __future__ import annotations

import io
import json
import resource
import shutil
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import calibrate
import workloads as wl


def run_op(op: wl.Op) -> tuple[int | None, str, str]:
    """One in-process CLI call: (exit code or None if it raised, out, err)."""
    import qnl.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = qnl.cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - any raise is a failed operation
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_pass(ops: list[wl.Op], refs: dict, scratch: Path,
             sample_every: float = calibrate.INTERVAL_S) -> dict:
    """Run every op once, timed, then check the outputs untimed.

    The host's speed is sampled every `sample_every` seconds (0: never)
    while the ops run (calibrate.py); the pass's wall and CPU seconds are
    given net of the sampling, measured and in reference seconds. Per-op
    seconds include the sampling.
    """
    results, op_wall = [], []
    with calibrate.HostSpeed(sample_every) as host:
        c0 = process_time()
        t0 = perf_counter()
        for op in ops:
            t = perf_counter()
            results.append(run_op(op))
            op_wall.append(perf_counter() - t)
        wall = perf_counter() - t0 - host.handler_wall_s
        cpu = process_time() - c0 - host.handler_cpu_s
    failures, dev = [], 0.0
    for op, (rc, out, err) in zip(ops, results):
        if rc != 0:
            failures.append(f"{op.label}: exit {rc}: {err.strip()[-2000:]}")
            continue
        try:
            dev = max(dev, wl.check(op, out, refs[op.label], scratch))
        except Exception as exc:  # noqa: BLE001 - a broken output fails
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    shutil.rmtree(scratch / "tables", ignore_errors=True)
    kernel = host.mean_kernel_s()
    if kernel is None:  # a pass shorter than one sampling interval
        kernel = calibrate.REF_S
    return {"wall_s": wall, "cpu_s": cpu,
            "ref_wall_s": calibrate.to_reference(wall, kernel),
            "ref_cpu_s": calibrate.to_reference(cpu, kernel),
            "kernel_s": kernel, "kernel_samples": len(host.samples),
            "attempted": len(ops), "failed": len(failures),
            "failures": failures, "max_abs_dev": dev,
            "op_wall_s": dict(zip((op.label for op in ops), op_wall))}


def warm_up(ops: list[wl.Op]) -> None:
    """Finish the lazy first calls so passes measure steady state."""
    from qnl.bell import catalan_constant
    from qnl.gellmann import gellmann_basis

    catalan_constant()
    ds = {3} | {int(op.argv[i + 1]) for op in ops
                for i, a in enumerate(op.argv) if a == "--d"}
    for d in sorted(ds):
        gellmann_basis(d)


def measure(ops, refs, scratch: Path, seconds: float) -> dict:
    """Passes until the next one would end after `seconds`; at least one."""
    passes = []
    start = perf_counter()
    while True:
        t = perf_counter()
        passes.append(run_pass(ops, refs, scratch))
        now = perf_counter()
        if now - start + (now - t) > seconds:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "peak_rss_mb": rss_kb / 1024.0}


def trace(workload: str, ops, refs, scratch: Path) -> dict:
    import layers
    import probes
    from qnl.bell import cglmp_value

    # no host-speed samples: they would add to the self time of the
    # function they interrupt
    untraced = run_pass(ops, refs, scratch, sample_every=0)
    tracer = layers.new_tracer()
    tracer.install()
    try:
        traced = run_pass(ops, refs, scratch, sample_every=0)
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, lambda rho: cglmp_value(rho).i_d)
    np.save(scratch / f"spans-{workload}.npy", tracer.spans())
    (scratch / f"spans-{workload}.names.json").write_text(
        json.dumps(tracer.names), encoding="utf-8")
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    times, probe_failures = probes.run_probes()
    metrics.update(times)
    return {"passes": [untraced, traced], "layers": metrics,
            "probe_failures": probe_failures}


def main(argv: list[str]) -> int:
    workload, seed, seconds, traced, scratch = argv
    scratch = Path(scratch)
    ops = wl.make_ops(workload, int(seed), scratch)
    refs = wl.load_refs(workload, int(seed))
    warm_up(ops)
    if traced == "1":
        result = trace(workload, ops, refs, scratch)
    else:
        result = measure(ops, refs, scratch, float(seconds))
    import qnl
    result["qnl_file"] = qnl.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
