"""Table reproduction: the reference list, solver reuse and output bytes;
the scan CSV writer against its per-cell oracle."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnl.reports as reports
from qnl.channels import ChannelKind
from qnl.criteria import SurfaceScan, scan_surface
from qnl.reports import (TABLES, TableCell, reproduce_tables, surface_csv,
                         write_tables)

from oracles import per_cell_surface_csv

GOLDEN = Path(__file__).resolve().parent / "data" / "tables"
FILES = ("detection_critical.csv", "xi_critical.csv", "bell_critical.csv",
         "fidelity_critical.csv", "werner_gap.csv", "diff_report.json")


def test_cells_follow_the_reference_list():
    bundle = reproduce_tables()
    keys = [(c.table, c.noise, c.d, c.column) for c in bundle.cells]
    assert keys == [(table, noise, str(d), column)
                    for table, (_, _, references) in TABLES.items()
                    for noise, d, column in references]
    assert [c.expected for c in bundle.cells] == [
        expected for _, _, references in TABLES.values()
        for expected in references.values()]
    assert (len(bundle.cells), bundle.failures, bundle.flagged) == (56, 0, 2)


def test_each_detection_threshold_is_solved_once(monkeypatch):
    calls = []
    solver = reports.critical_bisection

    def counted(*args, **kwargs):
        calls.append(args)
        return solver(*args, **kwargs)

    monkeypatch.setattr(reports, "critical_bisection", counted)
    reproduce_tables()
    assert len(calls) == 15


def test_written_files_match_golden_bytes(tmp_path):
    write_tables(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / name).read_bytes(), name


def test_write_tables_returns_the_report_it_wrote(tmp_path):
    report = write_tables(tmp_path)
    assert json.dumps(report, indent=2) + "\n" == \
        (tmp_path / "diff_report.json").read_text(encoding="utf-8")


def test_nan_cell_fails():
    cell = TableCell("detection", "ad", "2", "max_entangled", float("nan"),
                     0.5, 5e-4)
    assert cell.failed


# four-decimal rounding ties and their neighbours
NEAR_TIES = [0.0, 0.00005, 0.00015, 0.12345, 0.5, 0.99985, 0.99995, 1.0]
# what the writer's digit arithmetic leaves to Python: binary-exact ties,
# a set sign bit, values that round up to 10.0000 and non-finite values
UNSETTLED = [0.03125, 0.09375, 0.15625, -0.0, -0.00004, -0.5, -12.34567,
             9.99995, 9.99996, 9.9999999, 10.0, float("nan"), float("inf"),
             float("-inf")]
VALUES = st.one_of(st.floats(0.0, 1.0), st.floats(-20.0, 20.0), st.floats(),
                   st.sampled_from(NEAR_TIES + UNSETTLED))
# the CLI's axes span [0, pi/2]; other widths beside them
AXES = st.one_of(st.floats(0.0, np.pi / 2.0), st.sampled_from(
    [0.0, np.pi / 2.0, -0.0, -0.25, 12.5, -123.45678, 1e6, 0.03125]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scan_csv_equals_per_cell_oracle(data):
    rows, cols = data.draw(st.integers(2, 30)), data.draw(st.integers(2, 30))

    def draw(size, elements, dtype=float):
        return np.array(data.draw(st.lists(elements, min_size=size,
                                           max_size=size)), dtype=dtype)

    alphas, betas = draw(rows, AXES), draw(cols, AXES)
    values = draw(rows * cols, VALUES).reshape(rows, cols)
    # every cell flagged, none, or a drawn mix
    fill = data.draw(st.sampled_from([True, False, None]))
    flags = (draw(rows * cols, st.booleans(), bool) if fill is None
             else np.full(rows * cols, fill)).reshape(rows, cols)
    scan = SurfaceScan(ChannelKind.PRODUCT, data.draw(
        st.sampled_from(["crit", "xi"])), alphas, betas, values, flags)
    assert surface_csv(scan) == per_cell_surface_csv(scan)


@pytest.mark.parametrize("kind, quantity", [
    (ChannelKind.WHITE, "crit"), (ChannelKind.PRODUCT, "crit"),
    (ChannelKind.AMPLITUDE_DAMPING, "crit"),
    (ChannelKind.AMPLITUDE_DAMPING, "xi")])
def test_benchmarked_scan_csvs_equal_per_cell_oracle(kind, quantity):
    grid = np.linspace(0.0, np.pi / 2.0, 101)
    scan = scan_surface(kind, grid, grid, quantity)
    assert surface_csv(scan) == per_cell_surface_csv(scan)
