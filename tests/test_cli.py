"""CLI plumbing: parsing, output formats, exit codes, determinism."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qnl.channels import ChannelKind
from qnl.cli import main, parse_state
from qnl.criteria import critical_analytic, scan_surface
from qnl.errors import QnlError
from qnl.states import max_entangled


def run(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_state_specifiers():
    assert np.allclose(parse_state(4, "mes").coeffs, max_entangled(4).coeffs)
    psi = parse_state(3, "qutrit:0.9,0.7")
    assert psi.d == 3 and psi.coeffs[0] == pytest.approx(np.cos(0.9))
    psi = parse_state(4, "rank:2:0.6,0.8")
    assert psi.rank == 2
    psi = parse_state(2, "coeffs:0.6,0.8")
    assert np.allclose(psi.coeffs, [0.6, 0.8])


def test_parse_state_rejects_malformed():
    for d, text in ((3, "bogus"), (3, "bogus:1"), (2, "qutrit:0.9,0.7"),
                    (3, "qutrit:0.9"), (3, "rank:2"), (2, "coeffs:0.6")):
        with pytest.raises(QnlError):
            parse_state(d, text)


def test_crit_json_output(capsys):
    code, out, _ = run(["crit", "--d", "3", "--state", "mes",
                        "--channel", "depol:0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["parameter_name"] == "p"
    assert payload["value"] == pytest.approx(0.5, abs=1e-6)
    assert payload["method"] == "bisection"


def test_crit_analytic_method(capsys):
    code, out, _ = run(["crit", "--d", "4", "--channel", "white:1",
                        "--method", "analytic"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.2)


@pytest.mark.parametrize("argv", [
    ["crit", "--d", "3", "--state", "coeffs:0.8,0.6,0", "--channel", "ad:0",
     "--method", "analytic"],
    ["crit", "--d", "3", "--state", "coeffs:0.8,0.6,0", "--channel", "ad:0",
     "--method", "analytic", "--metric", "identity"],
    ["crit", "--d", "3", "--channel", "ad:0", "--method", "analytic",
     "--metric", "identity"],
    ["crit", "--d", "4", "--state", "rank:2:0.6,0.8", "--channel", "white:1",
     "--method", "analytic"],
    ["crit", "--d", "4", "--channel", "depol:0", "--method", "analytic",
     "--metric", "ad"],
])
def test_crit_analytic_rejects_inputs_it_ignores(argv, capsys):
    # the closed forms cover only the max-entangled state under the
    # channel's own metric
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_crit_analytic_accepts_the_default_metric_by_name(capsys):
    for argv in (["crit", "--d", "3", "--channel", "ad:0", "--method",
                  "analytic", "--metric", "ad"],
                 ["crit", "--d", "3", "--channel", "white:1", "--method",
                  "analytic", "--metric", "identity"]):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert json.loads(out)["method"] == "analytic"


def test_tensor_json_reports_summary_scalars(capsys):
    code, out, _ = run(["tensor", "--d", "2", "--state", "mes",
                        "--channel", "white:1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["spectral_norm"] == pytest.approx(1.0)
    assert payload["norm_sq"] == pytest.approx(3.0)
    assert payload["entangled"] is True
    t = np.array(payload["tensor"])
    assert t.shape == (3, 3)


def test_tensor_csv_is_matrix_only(capsys):
    code, out, _ = run(["tensor", "--d", "2", "--state", "mes",
                        "--channel", "white:1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c0,c1,c2"
    assert lines[1] == "1.0000,0.0000,0.0000"
    assert len(lines) == 4


def test_scan_csv_layout(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(["scan", "--channel", "white", "--grid", "4",
                      "--out", str(out_file)], capsys)
    assert code == 0
    raw = out_file.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,beta,crit,flag"
    assert len(lines) == 17
    # boundary row never fires
    assert lines[1].startswith("0.0000,0.0000,1.0000,no-detection")


def test_scan_json_minimum_matches_surface(capsys):
    code, out, _ = run(["scan", "--channel", "white", "--grid", "11",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    grid = np.linspace(0.0, np.pi / 2.0, 11)
    alpha, beta, value = scan_surface(ChannelKind.WHITE, grid,
                                      grid).minimum()
    assert payload["minimum"] == {"value": value, "alpha": alpha,
                                  "beta": beta}
    assert value == pytest.approx(0.2546, abs=1e-4)


def test_scan_json_minimum_is_null_when_nothing_is_detected(capsys):
    code, out, _ = run(["scan", "--channel", "product", "--grid", "2",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["never_detected"] == [[True, True], [True, True]]
    assert payload["minimum"] is None


def test_cglmp_json(capsys):
    code, out, _ = run(["cglmp", "--d", "3", "--state", "mes",
                        "--channel", "white:1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["i_d"] == pytest.approx(2.8729, abs=1e-4)
    assert payload["violated"] is True
    assert np.array(payload["probabilities"]).shape == (2, 2, 3, 3)


def test_cglmp_crit_json(capsys):
    code, out, _ = run(["cglmp-crit", "--d", "2", "--channel", "ad:0"],
                       capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.7071, abs=1e-3)


def test_fidelity_and_gap_json(capsys):
    code, out, _ = run(["fidelity", "--d", "2", "--channel", "depol:0"],
                       capsys)
    assert code == 0
    assert json.loads(out)["f_crit"] == pytest.approx(0.8834, abs=5e-4)
    code, out, _ = run(["werner-gap", "--d", "2", "--channel", "ad:0"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == pytest.approx(0.2071, abs=1e-3)
    assert payload["bell_threshold"] == pytest.approx(
        payload["detection_threshold"] + payload["gap"], abs=1e-12)


@pytest.mark.parametrize("d", [9, 14])
def test_gap_detection_threshold_is_the_closed_form(d, capsys):
    # bell - gap is one ulp off the closed form at these d
    code, out, _ = run(["werner-gap", "--d", str(d), "--channel", "depol:0"],
                       capsys)
    assert code == 0
    assert json.loads(out)["detection_threshold"] == critical_analytic(
        d, ChannelKind.DEPOLARIZING).value


def test_bad_inputs_exit_2(tmp_path, capsys):
    assert run(["crit", "--d", "3", "--channel", "pink:0.5"], capsys)[0] == 2
    assert run(["crit", "--d", "3", "--state", "wat",
                "--channel", "white:1"], capsys)[0] == 2
    assert run(["crit", "--d", "2", "--state", "qutrit:1,1",
                "--channel", "white:1"], capsys)[0] == 2
    # detection never fires for a product state
    assert run(["crit", "--d", "2", "--state", "coeffs:1,0",
                "--channel", "white:1"], capsys)[0] == 2
    for argv in (["crit", "--d", "3", "--state", "coeffs:a,b,c",
                  "--channel", "white:1"],
                 ["crit", "--d", "3", "--state", "rank:x:1",
                  "--channel", "white:1"],
                 ["crit", "--d", "3", "--state", "coeffs:nan,1,1",
                  "--channel", "white:1"],
                 ["tensor", "--d", "3", "--state", "qutrit:inf,nan",
                  "--channel", "white:0.0"],
                 ["scan", "--channel", "bogus", "--grid", "3"],
                 ["scan", "--channel", "white", "--grid", "0"],
                 ["scan", "--channel", "white", "--grid", "1"],
                 ["cglmp", "--d", "3", "--optimize", "--restarts", "-3"],
                 ["cglmp", "--d", "3", "--restarts", "-1"],
                 # numpy's generator rejects a negative seed with a traceback
                 ["cglmp", "--d", "3", "--seed", "-1"],
                 ["cglmp", "--d", "3", "--optimize", "--seed", "-1"],
                 # nan and inf passed every cell, a negative value failed all
                 *(["tables", "--out", str(tmp_path), f"--tolerance={tol}"]
                   for tol in ("nan", "inf", "-inf", "-1e-3"))):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv


@pytest.mark.parametrize("argv", [
    ["crit", "--d", "3", "--format", "csv"],
    ["cglmp", "--d", "3", "--format", "csv"],
    ["cglmp-crit", "--d", "3", "--format", "json"],
    ["fidelity", "--d", "3", "--channel", "ad:0", "--format", "csv"],
    ["werner-gap", "--d", "3", "--channel", "ad:0", "--format", "csv"],
    ["tables", "--format", "csv"],
    ["basis", "--d", "3", "--seed", "1"],
    ["tensor", "--d", "3", "--seed", "1"],
    ["crit", "--d", "3", "--seed", "1"],
    ["cglmp-crit", "--d", "3", "--seed", "1"],
    ["scan", "--channel", "white", "--grid", "3", "--seed", "1"],
    ["fidelity", "--d", "3", "--channel", "ad:0", "--seed", "1"],
    ["werner-gap", "--d", "3", "--channel", "ad:0", "--seed", "1"],
    ["tables", "--seed", "1"],
    ["basis", "--d", "3", "--json"],
])
def test_options_a_subcommand_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


_numbers = st.one_of(
    st.sampled_from(["", "nan", "-nan", "inf", "-inf", "1e309", "-0", "x",
                     "0x1", "1,", " "]),
    st.floats(min_value=-2.0, max_value=2.0).map(repr),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.integers(min_value=-3, max_value=5).map(str))
_states = st.one_of(
    st.just("mes"),
    st.sampled_from(["wat", "coeffs:", "rank:"]),
    st.builds(lambda name, xs: f"{name}:{','.join(xs)}",
              st.sampled_from(["qutrit", "coeffs", "rank:2", "rank:x"]),
              st.lists(_numbers, max_size=4)))
_kinds = st.sampled_from(["white", "product", "colored", "depol", "ad"])
_channels = st.one_of(
    st.builds(lambda kind, x: f"{kind}:{x!r}", _kinds,
              st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from(["white", "ad", "", ":"]),
    st.builds(lambda kind, x: f"{kind}:{x}",
              _kinds | st.just("pink"), _numbers))


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(["basis", "tensor", "crit", "cglmp",
                                "cglmp-crit", "fidelity", "werner-gap",
                                "scan"]))
    if sub == "scan":
        return [sub, "--channel", draw(_channels), "--grid",
                str(draw(st.integers(min_value=-1, max_value=4)))]
    argv = [sub, "--d", str(draw(st.integers(min_value=-1, max_value=4)))]
    if sub in ("tensor", "crit", "cglmp", "cglmp-crit"):
        argv += ["--state", draw(_states)]
    if sub != "basis":
        argv += ["--channel", draw(_channels)]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
# non-finite qutrit angles are rejected before numpy's trigonometry warns
@example(argv=["tensor", "--d", "3", "--state", "qutrit:nan,inf",
               "--channel", "white:0.0"])
@example(argv=["crit", "--d", "3", "--state", "qutrit:inf,0",
               "--channel", "white:0.0"])
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    # exit 0, 1 or 2, returned or raised by argparse; any other exception
    # escaping main fails the test
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_basis_csv_and_json(capsys):
    code, out, _ = run(["basis", "--d", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "index,group,j,k,row,col,re,im"
    code, out, _ = run(["basis", "--d", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["matrices"][0]["group"] == "symmetric"


def test_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["cglmp", "--d", "2", "--state", "mes", "--channel", "depol:0.2",
            "--optimize", "--restarts", "1", "--seed", "42"]
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    scan_args = ["scan", "--channel", "ad", "--grid", "6"]
    assert run(scan_args + ["--out", str(c)], capsys)[0] == 0
    assert run(scan_args + ["--out", str(d)], capsys)[0] == 0
    assert c.read_bytes() == d.read_bytes()


def test_tables_exit_codes(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, out, _ = run(["tables", "--out", str(out_dir)], capsys)
    assert code == 0
    assert "0 failures" in out
    for name in ("detection_critical.csv", "xi_critical.csv",
                 "bell_critical.csv", "fidelity_critical.csv",
                 "werner_gap.csv", "diff_report.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "diff_report.json").read_text())
    assert report["failures"] == 0
    assert report["cells"] == 56

    # an absurdly tight tolerance must flip the exit code, flagged cells aside
    code, out, _ = run(["tables", "--out", str(tmp_path / "t2"),
                        "--tolerance", "1e-9"], capsys)
    assert code == 1
    assert "FAIL" in out
