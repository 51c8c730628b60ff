"""Benchmark of the qnl command line, end to end and layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qnl is imported from its src/.
Workloads (see workloads.py and NOTES.md): scan, tables, dense_sweep,
cglmp_opt, or `all` to run the four one after another.

With --trace 0 the end-to-end metrics are reported: set-up time of a fresh
process (median of SETUP_RUNS), wall and CPU seconds per pass over the
workload's operations (medians), and the peak RSS of the workload's own
process. The times are in reference seconds: each is scaled by the speed
of the host while it was measured, sampled with a fixed kernel
(calibrate.py), so that the shared host's slow and fast phases do not read
as changes of the program. The measured seconds go to the run record.
With --trace 1 one untraced and one traced pass give the per-layer
metrics, then the layer probes run. Every operation's output is checked
against references recorded at the seed commit.

The last stdout line is the result object; the line before it is the run
record. Both are also written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scan", "tables", "dense_sweep", "cglmp_opt")
SETUP_RUNS = 5
# host-speed sampling interval during set-up, which lasts about 0.6 s
SETUP_INTERVAL_S = 0.05
# each invocation must finish within 180 s
TIME_LIMIT_S = 172.0

# what a CLI user pays on every call: import (scipy included), parser,
# and the lazy first calls; net of the host-speed sampling (calibrate.py)
SETUP_SNIPPET = f"""
import sys, time
sys.path.append({str(HERE)!r})
import calibrate
with calibrate.HostSpeed({SETUP_INTERVAL_S}) as host:
    t0 = time.perf_counter()
    import qnl.cli
    qnl.cli.build_parser()
    from qnl.bell import catalan_constant
    from qnl.gellmann import gellmann_basis
    catalan_constant()
    gellmann_basis(3)
    seconds = time.perf_counter() - t0 - host.handler_wall_s
print(seconds)
print(host.mean_kernel_s() or calibrate.REF_S)
print(qnl.__file__)
"""

# run-record probe of the BLAS numpy uses; the benchmark never sets threads
BLAS_SNIPPET = """
import ctypes, glob, json, os, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
info = {"name": blas.get("name"), "version": blas.get("version"),
        "threads": None}
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "libscipy_openblas*"))
if libs:
    lib = ctypes.CDLL(libs[0])
    for sym in ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads"):
        if hasattr(lib, sym):
            info["threads"] = getattr(lib, sym)()
            break
print(json.dumps(info))
"""


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _python(args: list[str], timeout: float) -> str:
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return proc.stdout


def _check_import_path(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"qnl imported from {path}, not from {SRC}")


def measure_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Set-up of SETUP_RUNS fresh processes: (measured, reference) seconds."""
    times, ref_times = [], []
    for _ in range(SETUP_RUNS):
        seconds, kernel, path = _python(
            ["-c", SETUP_SNIPPET], deadline - perf_counter()).split("\n")[:3]
        _check_import_path(path)
        times.append(float(seconds))
        ref_times.append(calibrate.to_reference(float(seconds), float(kernel)))
    return times, ref_times


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qnl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(seed: int, deadline: float) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": json.loads(_python(["-c", BLAS_SNIPPET],
                                   deadline - perf_counter())),
        "QNL_THREADS": os.environ.get("QNL_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def run_child(workload: str, seed: int, seconds: int, trace: int,
              deadline: float) -> dict:
    scratch = OUT / f"work-{workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    out = _python([str(HERE / "child.py"), workload, str(seed), str(seconds),
                   str(trace), str(scratch)], deadline - perf_counter())
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    _check_import_path(result["qnl_file"])
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> tuple[dict, dict]:
    """(metrics, run details) of one workload."""
    if trace:
        res = run_child(workload, seed, seconds, trace, deadline)
        untraced, traced = res["passes"]
        failures = (untraced["failures"] + traced["failures"]
                    + res["probe_failures"])
        attempted = untraced["attempted"] + traced["attempted"] \
            + sum(1 for k in res["layers"] if k.startswith("probe."))
        metrics = dict(res["layers"])
        metrics["check.fail_ratio"] = len(failures) / attempted
        metrics["check.max_abs_dev"] = max(untraced["max_abs_dev"],
                                           traced["max_abs_dev"])
        detail = {"untraced_wall_s": untraced["wall_s"],
                  "traced_wall_s": traced["wall_s"]}
    else:
        setup, ref_setup = measure_setup(deadline)
        res = run_child(workload, seed, seconds, trace, deadline)
        passes = res["passes"]
        failures = [f for p in passes for f in p["failures"]]
        attempted = sum(p["attempted"] for p in passes)
        walls = [p["ref_wall_s"] for p in passes]
        cpus = [p["ref_cpu_s"] for p in passes]
        metrics = {
            "setup_s": statistics.median(ref_setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        detail = {
            "setup_s": ref_setup,
            "wall_s_quartiles": quartiles(walls),
            "cpu_s_quartiles": quartiles(cpus),
            "measured_setup_s": setup,
            "measured_wall_s_quartiles": quartiles(
                [p["wall_s"] for p in passes]),
            "measured_cpu_s_quartiles": quartiles(
                [p["cpu_s"] for p in passes]),
            "kernel_s_quartiles": quartiles([p["kernel_s"] for p in passes]),
            "kernel_samples": sum(p["kernel_samples"] for p in passes),
            "passes": len(passes),
            "fail_ratio": len(failures) / attempted,
            "max_abs_dev": max(p["max_abs_dev"] for p in passes),
            "op_wall_s": {k: statistics.median(p["op_wall_s"][k]
                                               for p in passes)
                          for k in passes[0]["op_wall_s"]},
        }
    detail.update(attempted=attempted, failed=len(failures),
                  failures=failures[:20])
    return metrics, detail


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def emit(workloads: list[str], seed: int, seconds: int,
         trace: int) -> tuple[dict, dict]:
    """(run record, result object) of the given workloads."""
    start = perf_counter()
    deadline = start + TIME_LIMIT_S * len(workloads)
    units = declared_metrics(trace)
    record = run_record(seed, deadline)
    record.update(trace=trace, seconds=seconds, workloads={})
    all_metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        metrics, detail = run_workload(workload, seed, seconds, trace,
                                       deadline)
        if set(metrics) != set(units):
            raise BenchError(
                "metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(units))}")
        record["workloads"][workload] = detail
        attempted += detail["attempted"]
        failed += detail["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name in units:
            all_metrics[prefix + name] = {"value": metrics[name],
                                          "unit": units[name]}
            print(f"{workload:12s} {name:44s} {metrics[name]:14.6g} "
                  f"{units[name]}", file=sys.stderr)
        for failure in detail["failures"]:
            print(f"{workload:12s} FAILED {failure}", file=sys.stderr)
    record["elapsed_s"] = perf_counter() - start
    return record, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": all_metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qnl" / "cli.py").is_file():
        print(f"error: no qnl sources at {SRC / 'qnl'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        record, result = emit(workloads, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"run_record": record, "result": result},
                             indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
