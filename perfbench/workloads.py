"""Workload definitions, stored reference outputs and output checks.

Every operation is one `qnl` CLI call (an argv list). Inputs come from the
workload seed only; the program sees nothing but the argv. The seeded
workloads draw from a pool of POOL cases (case = seed % POOL) so that every
seed has reference outputs recorded at the seed commit by record_refs.py.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("scan", "tables", "dense_sweep", "cglmp_opt")
POOL = 16

# the grid is fixed by the paper (acceptance criterion 11); the seed does not
# change it
GRID = 101
SCANS = (("white", "crit"), ("product", "crit"), ("ad", "crit"), ("ad", "xi"))
DENSE_CRIT_DS = (3, 6, 10, 16)
DENSE_BELL_DS = (3, 6, 10)
OPT_CASES = ((3, "depol"), (3, "ad"), (4, "depol"), (4, "ad"))
OPT_RESTARTS = 2

# thresholds are bisected to this width
THRESHOLD_TOL = 1e-8
# Powell end points are compared loosely: a change in rounding inside the
# Born rule may move the optimiser's path without changing its quality
I_D_TOL = 1e-6
# CSV cells are rounded to 4 decimals; one unit in the last place may flip
CSV_TOL = 1e-4 + 1e-12

TABLE_CELLS, TABLE_FAILURES, TABLE_FLAGGED = 56, 0, 2

# surface checks from acceptance criterion 11: (minimum range, alpha of the
# minimum, tolerance on alpha); beta of the minimum is pi/4 in all three
_MES_ALPHA = float(np.arctan(np.sqrt(2.0)))
SCAN_MINIMA = {
    "scan.white.crit": ((0.25 - 1e-9, 0.2525), _MES_ALPHA, 0.02),
    "scan.ad.crit": ((0.447 - 1e-3, 0.447 + 1e-3), 4 * np.pi / 15, 0.02),
    "scan.ad.xi": ((0.3560 - 1e-3, 0.3560 + 1e-3), 7 * np.pi / 18, 0.02),
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple


def case_of(seed: int) -> int:
    return seed % POOL


def _coeffs_arg(rng: np.random.Generator, d: int) -> str:
    # drawn as in acceptance criterion 2
    raw = rng.uniform(0.05, 1.0, size=d)
    c = np.sqrt(raw / raw.sum())
    return "coeffs:" + ",".join(repr(float(x)) for x in c)


def make_ops(workload: str, seed: int, scratch: Path) -> list[Op]:
    if workload == "scan":
        return [Op(f"scan.{ch}.{q}", ("scan", "--channel", ch, "--grid",
                                      str(GRID), "--quantity", q))
                for ch, q in SCANS]
    if workload == "tables":
        return [Op("tables", ("tables", "--out", str(scratch / "tables")))]
    case = case_of(seed)
    rng = np.random.default_rng(case)
    if workload == "dense_sweep":
        ops = [Op(f"crit.d{d}", ("crit", "--d", str(d), "--state",
                                 _coeffs_arg(rng, d), "--channel", "ad:0",
                                 "--metric", "identity"))
               for d in DENSE_CRIT_DS]
        ops += [Op(f"cglmp-crit.d{d}", ("cglmp-crit", "--d", str(d), "--state",
                                        _coeffs_arg(rng, d), "--channel",
                                        "ad:0"))
                for d in DENSE_BELL_DS]
        return ops
    if workload == "cglmp_opt":
        return [Op(f"cglmp.d{d}.{ch}",
                   ("cglmp", "--d", str(d), "--state", "mes", "--channel",
                    f"{ch}:{float(rng.uniform(0.05, 0.2))!r}", "--optimize",
                    "--restarts", str(OPT_RESTARTS), "--seed", str(case)))
                for d, ch in OPT_CASES]
    raise ValueError(f"unknown workload {workload!r}")


def standard_argv(op: Op) -> tuple:
    """The same cglmp call with the standard settings, no optimiser."""
    return op.argv[:op.argv.index("--optimize")]


# ---------------------------------------------------------------- references

def scan_ref_path(label: str) -> Path:
    return REFS / f"{label}.csv.gz"


def load_refs(workload: str, seed: int) -> dict:
    """label -> reference for every op of the workload at this seed."""
    if workload == "scan":
        return {f"scan.{ch}.{q}": gzip.decompress(
            scan_ref_path(f"scan.{ch}.{q}").read_bytes()).decode("utf-8")
            for ch, q in SCANS}
    data = json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))
    if workload == "tables":
        return {"tables": data}
    return data["cases"][str(case_of(seed))]


# -------------------------------------------------------------------- checks

class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check(op: Op, stdout: str, ref, scratch: Path) -> float:
    """Check one op's output; return its largest deviation from the
    reference. Raises CheckFailed."""
    if op.label.startswith("scan."):
        return _check_scan(op.label, stdout, ref)
    if op.label == "tables":
        return _check_tables(stdout, ref, scratch / "tables")
    _require(list(op.argv) == ref["argv"],
             f"{op.label}: argv differs from the recorded case")
    out = json.loads(stdout)
    if op.label.startswith("cglmp."):
        i_d = out["i_d"]
        _require(i_d >= ref["standard_i_d"] - 1e-12,
                 f"{op.label}: i_d {i_d} below the standard settings "
                 f"{ref['standard_i_d']}")
        _require(out["violated"] == (i_d > 2.0),
                 f"{op.label}: violated flag disagrees with i_d")
        dev = abs(i_d - ref["i_d"])
        _require(dev <= I_D_TOL, f"{op.label}: i_d {i_d} vs {ref['i_d']}")
        return dev
    _require(out["method"] == ref["method"],
             f"{op.label}: method {out['method']} vs {ref['method']}")
    dev = abs(out["value"] - ref["value"])
    _require(dev <= THRESHOLD_TOL,
             f"{op.label}: threshold {out['value']} vs {ref['value']}")
    return dev


def parse_surface(text: str):
    lines = text.rstrip("\n").split("\n")
    rows = [ln.split(",") for ln in lines[1:]]
    coords = [(r[0], r[1]) for r in rows]
    values = np.array([float(r[2]) for r in rows])
    flags = [r[3] for r in rows]
    return lines[0], coords, values, flags


def _check_scan(label: str, text: str, ref_text: str) -> float:
    header, coords, values, flags = parse_surface(text)
    r_header, r_coords, r_values, r_flags = parse_surface(ref_text)
    _require(header == r_header, f"{label}: header {header!r}")
    _require(coords == r_coords, f"{label}: grid coordinates differ")
    _require(flags == r_flags, f"{label}: no-detection flags differ")
    dev = float(np.max(np.abs(values - r_values)))
    _require(dev <= CSV_TOL, f"{label}: values deviate by {dev}")
    grid = values.reshape(GRID, GRID)
    flagged = np.array([f == "no-detection" for f in flags]).reshape(GRID, GRID)
    if label == "scan.product.crit":
        _require(flagged[0, 0] and flagged[GRID - 1, 0],
                 f"{label}: corner cells must be flagged no-detection")
        _require(abs(grid[1, 0] - 0.6039) <= 1e-3,
                 f"{label}: value at (1, 0) is {grid[1, 0]}")
    if label in SCAN_MINIMA:
        (lo, hi), alpha, alpha_tol = SCAN_MINIMA[label]
        k = int(np.argmin(np.where(flagged.ravel(), np.inf, values)))
        a, b = (float(x) for x in coords[k])
        _require(lo <= values[k] <= hi, f"{label}: minimum {values[k]}")
        _require(abs(a - alpha) <= alpha_tol, f"{label}: minimum at alpha {a}")
        _require(abs(b - np.pi / 4) <= 1e-4, f"{label}: minimum at beta {b}")
    return dev


def _check_tables(stdout: str, ref: dict, out_dir: Path) -> float:
    report = json.loads((out_dir / "diff_report.json").read_text(
        encoding="utf-8"))
    _require((report["cells"], report["failures"], report["flagged"])
             == (TABLE_CELLS, TABLE_FAILURES, TABLE_FLAGGED),
             f"tables: {report['cells']} cells, {report['failures']} "
             f"failures, {report['flagged']} flagged")
    _require(stdout.rstrip("\n").split("\n")[-1].startswith(
        f"{TABLE_CELLS} cells, {TABLE_FAILURES} failures, "
        f"{TABLE_FLAGGED} flagged"), "tables: summary line")
    dev = 0.0
    for got, want in zip(report["entries"], ref["entries"], strict=True):
        for key in ("table", "noise", "d", "state", "expected", "flags", "ok"):
            _require(got[key] == want[key],
                     f"tables: {want['table']}/{want['noise']}/{want['d']}/"
                     f"{want['state']} {key} {got[key]!r} vs {want[key]!r}")
        if want["computed"] is None:
            _require(got["computed"] is None, "tables: unexpected value")
            continue
        dev = max(dev, abs(got["computed"] - want["computed"]))
    _require(dev <= THRESHOLD_TOL, f"tables: cells deviate by {dev}")
    return dev
