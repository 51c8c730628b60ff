"""Start-up cost: no command imports scipy, the settings optimizer included.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded by the test oracles' imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

steps = []
import qnl
steps.append(["import qnl", None, scipy_loaded()])
import qnl.cli
steps.append(["import qnl.cli", None, scipy_loaded()])
qnl.cli.build_parser()
steps.append(["build_parser", None, scipy_loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qnl.cli.main(argv)
    steps.append([" ".join(argv), code, scipy_loaded()])
print(json.dumps(steps))
"""


def test_no_command_loads_scipy(tmp_path):
    calls = [
        ["crit", "--d", "3", "--state", "mes", "--channel", "white:1"],
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
    for name, code, scipy in steps:
        assert code in (None, 0), name
        assert not scipy, f"{name} loaded scipy"
