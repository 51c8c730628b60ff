"""CLI plumbing: parsing, output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qnl.bell import infinite_threshold
from qnl.channels import ChannelKind, ChannelSpec, channel_output
from qnl.cli import build_parser, main, parse_state
from qnl.criteria import (VERDICT_TOL, critical_analytic, critical_bisection,
                          describe_state, scan_surface)
from qnl.errors import QnlError, UnsupportedChannel
from qnl.states import max_entangled, schmidt_state


DATA = Path(__file__).resolve().parent / "data"
# sha256 of the benchmarked 101 x 101 scan CSVs, "<channel>.<quantity>"
SCAN_DIGESTS = json.loads((DATA / "scan_sha256.json").read_text())
# argv, exit code, stdout and stderr of sample fidelity, werner-gap and
# tensor commands, error paths included
CLI_RECORDS = json.loads((DATA / "cli_records.json").read_text())


def run(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_LIMIT = 1_000_000 * 1024  # bytes; ulimit -v 1000000

# the limit is set in the child, before numpy is imported
LIMITED_CHILD = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from qnl.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_limited(args):
    """main(args) in a child process under the 1 GB address-space limit,
    with one BLAS thread: (exit code, stdout, stderr)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CHILD, str(ADDRESS_LIMIT), *args],
        env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


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


@pytest.mark.parametrize("record", CLI_RECORDS,
                         ids=lambda r: " ".join(r["argv"]))
def test_record_bytes_pinned(record, capsys):
    assert run(record["argv"], capsys) == (
        record["exit"], record["stdout"], record["stderr"])


def _spy(monkeypatch, modules, names):
    """Wrap each name where a module binds it; the list of calls made."""
    calls = []
    for module in modules:
        for name in names:
            if not hasattr(module, name):
                continue
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
    return calls


def test_werner_gap_solves_each_threshold_once(monkeypatch, capsys):
    calls = _spy(monkeypatch, (sys.modules["qnl.fidelity"],
                               sys.modules["qnl.cli"]),
                 ("critical_lr", "critical_analytic"))
    code, _, _ = run(["werner-gap", "--d", "3", "--channel", "ad:0"], capsys)
    assert code == 0
    assert calls == ["critical_lr", "critical_analytic"]


def test_tables_builds_its_diff_report_once(tmp_path, monkeypatch, capsys):
    calls = _spy(monkeypatch, (sys.modules["qnl.reports"],
                               sys.modules["qnl.cli"]), ("diff_report",))
    code, _, _ = run(["tables", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert calls == ["diff_report"]


def test_empty_metric_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tensor", "--d", "3", "--metric", ""])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("d", [9, 14])
def test_gap_detection_threshold_is_the_closed_form(d, capsys):
    # bell - gap is one ulp off the closed form at these d
    code, out, _ = run(["werner-gap", "--d", str(d), "--channel", "depol:0"],
                       capsys)
    assert code == 0
    assert json.loads(out)["detection_threshold"] == critical_analytic(
        d, ChannelKind.DEPOLARIZING).value


def test_overflowing_coefficients_exit_2_with_one_error_line(capsys):
    # the squared norm overflows to inf and is rejected without a warning
    code, out, err = run(["crit", "--d", "3", "--state",
                          "coeffs:1e200,1e200,1e200"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("coeffs, message", [
    ("1e-170,1e-170,1e-170", "off by more than"),
    ("0,0,0", "all coefficients are zero"),
])
def test_underflowing_and_zero_coefficients_exit_2(coeffs, message, capsys):
    code, out, err = run(["crit", "--d", "3", "--state", f"coeffs:{coeffs}",
                          "--channel", "white:0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


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


def test_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys):
    existing = tmp_path / "existing.csv"
    existing.write_text("")
    for argv in (["tables", "--out", str(existing)],
                 ["crit", "--d", "3", "--channel", "white:0",
                  "--out", str(tmp_path)],
                 ["crit", "--d", "3", "--channel", "white:0",
                  "--out", "/dev/null/x.json"]):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv
        assert err.count("\n") == 1, argv


def test_max_entangled_tolerance_is_shared(capsys):
    # three coefficients about 1e-10 (accepted) and 1e-8 (rejected) from
    # 1/sqrt(3); every caller that asks whether the input is maximally
    # entangled gives the same answer
    s, colored = 3.0 ** -0.5, ChannelKind.COLORED
    for offset, accepted in ((1e-10, True), (1e-8, False)):
        coeffs = [s + offset, s - offset, s]
        psi = schmidt_state(3, coeffs)
        answers = [describe_state(psi) == "max-entangled d=3"]
        for solve in (lambda: channel_output(psi, ChannelSpec(colored, 0.5)),
                      lambda: critical_bisection(psi, colored)):
            try:
                solve()
                answers.append(True)
            except UnsupportedChannel:
                answers.append(False)
        state = "coeffs:" + ",".join(repr(c) for c in coeffs)
        code, _, _ = run(["crit", "--d", "3", "--state", state, "--channel",
                          "white:0", "--method", "analytic"], capsys)
        answers.append(code == 0)
        assert answers == [accepted] * 4, offset


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


def test_format_defaults_per_subcommand():
    # each subcommand owns its --format action, so one command's default
    # does not leak into another's, whatever order they are parsed in
    parser = build_parser()
    for _ in range(2):
        assert parser.parse_args(["scan", "--channel", "white"]).fmt == "csv"
        assert parser.parse_args(["basis", "--d", "3"]).fmt == "json"
        assert parser.parse_args(["tensor", "--d", "3"]).fmt == "json"
        assert not hasattr(parser.parse_args(["crit", "--d", "3"]), "fmt")


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


@pytest.mark.parametrize("args", [
    ["basis", "--d", "120"],
    ["tensor", "--d", "120", "--channel", "white:0.5"],
    ["cglmp", "--d", "120"],
])
def test_memory_exhaustion_exits_2_with_one_error_line(args):
    # each builds a d^2 x d^2 or (d^2 - 1, d, d) array, several GB at d = 120
    code, out, err = run_limited(args)
    assert code == 2, err
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1


@pytest.mark.parametrize("channel", ["white:1", "depol:0", "ad:0"])
def test_critical_fidelity_fits_in_1_gb(channel):
    # the cross-check sums the block form's O(d^2) numbers, no d^2 x d^2 rho
    code, out, err = run_limited(["fidelity", "--d", "120",
                                  "--channel", channel])
    assert code == 0, err
    assert err == ""
    assert json.loads(out)["d"] == 120


def test_reentrant_detection_verdict_exits_2_with_one_error_line():
    # the verdict of this input also fires on a window about 4e-4 wide near
    # p = 0.37, below the bisected threshold; a 100-point grid missed it
    # and the command printed 0.4193742610514164 with exit 0
    code, out, err = run_limited([
        "crit", "--d", "2", "--state",
        "coeffs:0.5335533202133944,0.8457664302212893", "--channel", "ad:0",
        "--metric", "identity"])
    assert code == 2, err
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: detection verdict switches more than once")
    assert "outside the bisection bracket" in err
    assert err.count("\n") == 1


def _tolerance_shifted_root(d):
    """The root in s of s (n0 s - l0) = VERDICT_TOL for the max-entangled
    state, n0 = (d + 1)/(d - 1) and l0 = 1/(d - 1): the verdict's tolerance
    moves s = 1/(d + 1) up by about VERDICT_TOL (d - 1), 3e-8 at d = 300."""
    l0, n0 = 1.0 / (d - 1.0), (d + 1.0) / (d - 1.0)
    return (l0 + np.sqrt(l0 * l0 + 4.0 * n0 * VERDICT_TOL)) / (2.0 * n0)


@pytest.mark.parametrize("channel", ["white", "depol", "ad"])
def test_large_d_detection_threshold_fits_in_1_gb(channel):
    # the threshold reads O(d^2) numbers, never the O(d^4) basis
    code, out, err = run_limited(["crit", "--d", "300", "--state", "mes",
                                  "--channel", channel + ":0.5"])
    assert code == 0, err
    value, s = json.loads(out)["value"], _tolerance_shifted_root(300)
    expected = {"white": s, "depol": np.sqrt(s), "ad": critical_analytic(
        300, ChannelKind.AMPLITUDE_DAMPING).value}[channel]
    assert abs(value - expected) <= 1e-8
    if channel == "white":
        assert abs(value - 1.0 / 301.0) <= 4e-8


def test_large_d_bell_threshold_fits_in_1_gb():
    # the damping quadratic reads the 2d - 1 profile values, no d x d block
    code, out, err = run_limited(["cglmp-crit", "--d", "20000",
                                  "--channel", "ad:0"])
    assert code == 0, err
    assert abs(json.loads(out)["value"] - infinite_threshold()) <= 1e-4


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


@pytest.mark.parametrize("name", sorted(SCAN_DIGESTS))
def test_benchmarked_scan_csv_bytes_pinned(name, capsys):
    # every cell of the surface, byte for byte, not only to the benchmark's
    # 1e-4 tolerance
    channel, quantity = name.split(".")
    code, out, _ = run(["scan", "--channel", channel, "--grid", "101",
                        "--quantity", quantity], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == SCAN_DIGESTS[name]
