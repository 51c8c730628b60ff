"""Table reproduction: the reference list, solver reuse and output bytes."""

from pathlib import Path

import qnl.reports as reports
from qnl.reports import TABLES, TableCell, reproduce_tables, write_tables

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


def test_nan_cell_fails():
    cell = TableCell("detection", "ad", "2", "max_entangled", float("nan"),
                     0.5, 5e-4)
    assert cell.failed
