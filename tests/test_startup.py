"""Start-up cost: no command imports scipy, the settings optimizer included,
none imports dataclasses, whose code generation cost every call about
7 ms (qnl.record), and none imports numpy.fft (about 1.4 ms), which the
Bell profile's closed form does without.

The checks run in a fresh interpreter, since the test process itself has
both loaded by the test oracles' and the record tests' imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return sorted({m.partition(".")[0] for m in sys.modules}
                  & {"scipy", "dataclasses"}
                  | {"numpy.fft"} & set(sys.modules))

steps = []
import qnl
steps.append(["import qnl", None, loaded()])
import qnl.cli
steps.append(["import qnl.cli", None, loaded()])
qnl.cli.build_parser()
steps.append(["build_parser", None, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qnl.cli.main(argv)
    steps.append([" ".join(argv), code, loaded()])
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    """[step, exit code or None, modules of interest loaded] after each
    import, the parser and each listed command, in one fresh process."""
    tmp_path = tmp_path_factory.mktemp("startup")
    calls = [
        ["crit", "--d", "3", "--state", "mes", "--channel", "white:1"],
        ["tensor", "--d", "3", "--channel", "ad:0.2"],
        ["fidelity", "--d", "3", "--channel", "depol:0"],
        ["werner-gap", "--d", "3", "--channel", "depol:0"],
        ["scan", "--channel", "white", "--grid", "5"],
        ["cglmp-crit", "--d", "3", "--channel", "ad:0"],
        ["tables", "--out", str(tmp_path)],
        ["cglmp", "--d", "3", "--optimize", "--restarts", "0"],
        ["cglmp", "--d", "4", "--state", "mes", "--channel", "ad:0.1",
         "--optimize", "--restarts", "2", "--seed", "1"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(calls)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert len(steps) == 3 + len(calls)
    for name, code, _ in steps:
        assert code in (None, 0), name
    return steps


def test_no_command_loads_scipy(steps):
    for name, _, loaded in steps:
        assert "scipy" not in loaded, f"{name} loaded scipy"


def test_no_command_loads_dataclasses(steps):
    for name, _, loaded in steps:
        assert "dataclasses" not in loaded, f"{name} loaded dataclasses"


def test_no_command_loads_numpy_fft(steps):
    for name, _, loaded in steps:
        assert "numpy.fft" not in loaded, f"{name} loaded numpy.fft"
