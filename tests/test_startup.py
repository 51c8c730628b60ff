"""Start-up cost: only the settings optimizer imports scipy.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded by other tests' imports.
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
print(json.dumps({"steps": steps,
                  "optimize_loaded": "scipy.optimize" in sys.modules}))
"""


def test_only_the_optimizer_loads_scipy(tmp_path):
    calls = [
        ["crit", "--d", "3", "--state", "mes", "--channel", "white:1"],
        ["scan", "--channel", "white", "--grid", "5"],
        ["cglmp-crit", "--d", "3", "--channel", "ad:0"],
        ["tables", "--out", str(tmp_path)],
        ["cglmp", "--d", "3", "--optimize", "--restarts", "0"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(calls)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    *before, (_, optimize_code, _) = out["steps"]
    for name, code, scipy in before:
        assert code in (None, 0), name
        assert not scipy, f"{name} loaded scipy"
    assert optimize_code == 0 and out["optimize_loaded"]
