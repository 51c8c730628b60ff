"""Table and figure-data reproduction with built-in expected values.

Every published number this package reproduces is recomputed from scratch
here; the expected values live only as comparison metadata for the diff
report.  Cells whose reference value is known to be loose or absent carry
flags, and flagged cells never fail a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bell import critical_lr, infinite_threshold
from .channels import ChannelKind
from .criteria import SurfaceScan, critical_bisection, xi
from .fidelity import critical_fidelity, werner_gap
from .states import (SchmidtState, max_entangled, nmax_state, qutrit_family,
                     rank_k_state)

CSV_DECIMALS = 4
DEFAULT_CELL_TOL = 5e-4

FLAG_LOOSE_REFERENCE = "reference-angle-loose"
FLAG_NO_REFERENCE = "no-paper-reference"
FLAG_NO_DETECTION = "no-detection"

STATE_COLUMNS = ("max_entangled", "rank_2", "rank_3", "nonmax")


@dataclass(frozen=True)
class TableCell:
    table: str
    noise: str
    d: str           # printed dimension label, "inf" for the limit row
    column: str
    computed: float | None
    expected: float | None
    tolerance: float
    flags: tuple = ()

    @property
    def deviation(self) -> float | None:
        if self.computed is None or self.expected is None:
            return None
        return abs(self.computed - self.expected)

    @property
    def failed(self) -> bool:
        if self.flags or self.deviation is None:
            return False
        return self.deviation > self.tolerance


def _cell_state(d: int, column: str) -> SchmidtState | None:
    if column == "max_entangled":
        return max_entangled(d)
    if column == "rank_2" and d >= 3:
        return rank_k_state(d, 2, np.full(2, 1.0 / np.sqrt(2.0)))
    if column == "rank_3" and d >= 4:
        return rank_k_state(d, 3, np.full(3, 1.0 / np.sqrt(3.0)))
    if column == "nonmax" and d in (3, 4):
        return nmax_state(d)
    return None


# (noise, d, column) -> published critical value; None marks cells the
# source leaves blank even though the state exists
ENT_EXPECTED = {
    ("depol", 2, "max_entangled"): 0.5773,
    ("depol", 3, "max_entangled"): 0.5,
    ("depol", 3, "rank_2"): 0.6546,
    ("depol", 4, "max_entangled"): 0.4472,
    ("depol", 4, "rank_2"): 0.6794,
    ("depol", 4, "rank_3"): 0.5283,
    ("ad", 2, "max_entangled"): 0.5,
    ("ad", 3, "max_entangled"): 0.4534,
    ("ad", 3, "rank_2"): 0.8165,
    ("ad", 3, "nonmax"): 0.4465,
    ("ad", 4, "max_entangled"): 0.4239,
    ("ad", 4, "rank_2"): 0.8660,
    ("ad", 4, "rank_3"): 0.6124,
    ("ad", 4, "nonmax"): 0.4074,
}

XI_EXPECTED = {
    ("depol", 2, "max_entangled"): 0.3333,
    ("depol", 3, "max_entangled"): 0.25,
    ("depol", 3, "rank_2"): 0.4285,
    ("depol", 4, "max_entangled"): 0.2,
    ("depol", 4, "rank_2"): 0.4615,
    ("depol", 4, "rank_3"): 0.2790,
    ("ad", 2, "max_entangled"): 0.5,
    ("ad", 3, "max_entangled"): 0.3888,
    ("ad", 3, "rank_2"): 0.6667,
    ("ad", 3, "nonmax"): 0.3560,
    ("ad", 4, "max_entangled"): 0.3256,
    ("ad", 4, "rank_2"): 0.750,
    ("ad", 4, "rank_3"): 0.3750,
}

BELL_EXPECTED = {
    ("depol", 2): 0.8410, ("ad", 2): 0.7071,
    ("depol", 3): 0.8344, ("ad", 3): 0.7468,
    ("depol", 4): 0.8310, ("ad", 4): 0.7647,
    ("depol", 5): 0.8290, ("ad", 5): 0.7750,
    ("depol", 10): 0.8248, ("ad", 10): 0.7954,
    ("depol", "inf"): 0.8206, ("ad", "inf"): 0.8206,
}

FIDELITY_EXPECTED = {
    ("depol", 2): 0.8834, ("ad", 2): 0.8660,
    ("depol", 3): 0.8544, ("ad", 3): 0.8397,
    ("depol", 4): 0.8426, ("ad", 4): 0.8298,
    ("depol", "inf"): 0.8206, ("ad", "inf"): 0.8206,
}

GAP_EXPECTED = {
    ("depol", 2): 0.2637, ("ad", 2): 0.2071,
    ("depol", 3): 0.3344, ("ad", 3): 0.2934,
    ("depol", 4): 0.3838, ("ad", 4): 0.3408,
    ("depol", "inf"): 0.8206, ("ad", "inf"): 0.8206,
}

_KINDS = {"depol": ChannelKind.DEPOLARIZING, "ad": ChannelKind.AMPLITUDE_DAMPING}


def detection_table(tol: float = DEFAULT_CELL_TOL) -> list[TableCell]:
    """Critical noise-free fractions for entanglement detection."""
    cells = []
    for noise, kind in _KINDS.items():
        for d in (2, 3, 4):
            for column in STATE_COLUMNS:
                state = _cell_state(d, column)
                if column == "nonmax" and noise == "depol":
                    state = None  # source treats these cells as out of scope
                expected = ENT_EXPECTED.get((noise, d, column))
                if state is None:
                    continue
                if expected is None:
                    continue
                flags = ()
                cell_tol = tol
                if (noise, d, column) == ("ad", 4, "nonmax"):
                    flags = (FLAG_LOOSE_REFERENCE,)
                    cell_tol = 1e-3
                value = critical_bisection(state, kind).value
                cells.append(TableCell("detection", noise, str(d), column,
                                       value, expected, cell_tol, flags))
    return cells


def xi_table(tol: float = DEFAULT_CELL_TOL) -> list[TableCell]:
    """Surviving correlation fraction at the detection threshold."""
    cells = []
    for noise, kind in _KINDS.items():
        for d in (2, 3, 4):
            for column in STATE_COLUMNS:
                state = _cell_state(d, column)
                if column == "nonmax" and noise == "depol":
                    state = None
                if column == "nonmax" and noise == "ad" and d == 3:
                    # this table's nonmax row quotes the family point where
                    # the surviving-fraction surface bottoms out, not the
                    # detection-optimal state
                    state = qutrit_family(7.0 * np.pi / 18.0, np.pi / 4.0)
                if state is None:
                    continue
                expected = XI_EXPECTED.get((noise, d, column))
                flags = ()
                if (noise, d, column) == ("ad", 4, "nonmax"):
                    # the source table leaves this entry out; emit computed
                    flags = (FLAG_NO_REFERENCE,)
                elif expected is None:
                    continue
                p_crit = critical_bisection(state, kind).value
                value = xi(state, kind, p_crit)
                cells.append(TableCell("xi", noise, str(d), column,
                                       value, expected, tol, flags))
    return cells


def bell_table(tol: float = DEFAULT_CELL_TOL) -> list[TableCell]:
    """Critical noise-free fractions for violating the Bell bound."""
    cells = []
    for noise, kind in _KINDS.items():
        for d in (2, 3, 4, 5, 10):
            value = critical_lr(max_entangled(d), kind).value
            cells.append(TableCell("bell", noise, str(d), "max_entangled",
                                   value, BELL_EXPECTED[(noise, d)], tol))
        cells.append(TableCell("bell", noise, "inf", "max_entangled",
                               infinite_threshold(),
                               BELL_EXPECTED[(noise, "inf")], tol))
    return cells


def fidelity_table(tol: float = DEFAULT_CELL_TOL) -> list[TableCell]:
    cells = []
    for noise, kind in _KINDS.items():
        for d in (2, 3, 4):
            value = critical_fidelity(d, kind).f_crit
            cells.append(TableCell("fidelity", noise, str(d), "max_entangled",
                                   value, FIDELITY_EXPECTED[(noise, d)], tol))
        cells.append(TableCell("fidelity", noise, "inf", "max_entangled",
                               infinite_threshold(),
                               FIDELITY_EXPECTED[(noise, "inf")], tol))
    return cells


def gap_table(tol: float = DEFAULT_CELL_TOL) -> list[TableCell]:
    cells = []
    for noise, kind in _KINDS.items():
        for d in (2, 3, 4):
            value = werner_gap(d, kind)
            cells.append(TableCell("gap", noise, str(d), "max_entangled",
                                   value, GAP_EXPECTED[(noise, d)], tol))
        # detection threshold vanishes with growing d, so the limit row
        # equals the Bell threshold limit
        cells.append(TableCell("gap", noise, "inf", "max_entangled",
                               infinite_threshold(),
                               GAP_EXPECTED[(noise, "inf")], tol))
    return cells


TABLE_BUILDERS = {
    "detection": detection_table,
    "xi": xi_table,
    "bell": bell_table,
    "fidelity": fidelity_table,
    "gap": gap_table,
}


@dataclass(frozen=True)
class TableBundle:
    cells: list
    failures: int
    flagged: int


def reproduce_tables(tol: float = DEFAULT_CELL_TOL) -> TableBundle:
    cells = []
    for builder in TABLE_BUILDERS.values():
        cells.extend(builder(tol))
    failures = sum(1 for c in cells if c.failed)
    flagged = sum(1 for c in cells if c.flags)
    return TableBundle(cells=cells, failures=failures, flagged=flagged)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.{CSV_DECIMALS}f}"


def table_csv(cells: list, name: str) -> str:
    """Render one table's cells in the source's wide layout."""
    rows = {}
    for c in cells:
        if c.table != name:
            continue
        rows.setdefault((c.noise, c.d), {})[c.column] = c
    columns = [col for col in STATE_COLUMNS
               if any(col in r for r in rows.values())]
    lines = ["noise,d," + ",".join(columns)]
    for (noise, d), cols in rows.items():
        vals = [_fmt(cols[col].computed) if col in cols else ""
                for col in columns]
        lines.append(f"{noise},{d}," + ",".join(vals))
    return "\n".join(lines) + "\n"


def diff_report(bundle: TableBundle) -> dict:
    entries = []
    for c in bundle.cells:
        entries.append({
            "table": c.table,
            "noise": c.noise,
            "d": c.d,
            "state": c.column,
            "computed": c.computed,
            "expected": c.expected,
            "abs_diff": c.deviation,
            "tolerance": c.tolerance,
            "flags": list(c.flags),
            "ok": not c.failed,
        })
    return {
        "cells": len(bundle.cells),
        "failures": bundle.failures,
        "flagged": bundle.flagged,
        "entries": entries,
    }


def write_tables(out_dir: str | Path,
                 tol: float = DEFAULT_CELL_TOL) -> TableBundle:
    """Write the five CSV tables plus the JSON diff report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = reproduce_tables(tol)
    names = {
        "detection": "detection_critical.csv",
        "xi": "xi_critical.csv",
        "bell": "bell_critical.csv",
        "fidelity": "fidelity_critical.csv",
        "gap": "werner_gap.csv",
    }
    for table, fname in names.items():
        (out / fname).write_text(table_csv(bundle.cells, table),
                                 encoding="utf-8", newline="\n")
    (out / "diff_report.json").write_text(
        json.dumps(diff_report(bundle), indent=2) + "\n",
        encoding="utf-8", newline="\n")
    return bundle


def surface_csv(scan: SurfaceScan) -> str:
    lines = [f"alpha,beta,{scan.quantity},flag"]
    for i, a in enumerate(scan.alphas):
        for j, b in enumerate(scan.betas):
            flag = FLAG_NO_DETECTION if scan.flags[i, j] else ""
            lines.append(f"{a:.{CSV_DECIMALS}f},{b:.{CSV_DECIMALS}f},"
                         f"{scan.values[i, j]:.{CSV_DECIMALS}f},{flag}")
    return "\n".join(lines) + "\n"

