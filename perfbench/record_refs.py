"""Record the reference outputs the benchmark checks against.

Run once at the commit whose outputs are the reference, from the repo root:

    python3 perfbench/record_refs.py [workload ...]

It writes perfbench/refs/. The benchmark never writes there.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import workloads as wl  # noqa: E402


def _run(op: wl.Op) -> str:
    rc, out, err = child.run_op(op)
    if rc != 0:
        raise SystemExit(f"{op.label} failed (exit {rc}):\n{err}")
    return out


def record(workload: str, scratch: Path) -> None:
    wl.REFS.mkdir(exist_ok=True)
    if workload == "scan":
        for op in wl.make_ops("scan", 0, scratch):
            wl.scan_ref_path(op.label).write_bytes(
                gzip.compress(_run(op).encode("utf-8"), mtime=0))
        return
    if workload == "tables":
        (op,) = wl.make_ops("tables", 0, scratch)
        _run(op)
        report = (scratch / "tables" / "diff_report.json").read_text(
            encoding="utf-8")
        (wl.REFS / "tables.json").write_text(report, encoding="utf-8")
        return
    cases = {}
    for case in range(wl.POOL):
        refs = {}
        for op in wl.make_ops(workload, case, scratch):
            out = json.loads(_run(op))
            ref = {"argv": list(op.argv)}
            if workload == "cglmp_opt":
                std = wl.Op(op.label, wl.standard_argv(op))
                ref["i_d"] = out["i_d"]
                ref["standard_i_d"] = json.loads(_run(std))["i_d"]
            else:
                ref["value"] = out["value"]
                ref["method"] = out["method"]
            refs[op.label] = ref
        cases[str(case)] = refs
        print(f"{workload} case {case} recorded", flush=True)
    (wl.REFS / f"{workload}.json").write_text(
        json.dumps({"pool": wl.POOL, "cases": cases}, indent=1) + "\n",
        encoding="utf-8")


def main(argv: list[str]) -> int:
    scratch = HERE.parent / ".perfbench_out" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload in argv or wl.WORKLOADS:
            record(workload, scratch)
            print(f"{workload} recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
