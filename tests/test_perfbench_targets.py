"""The benchmark's traced names exist in the package.

perfbench/layers.py names every function it traces by module and
attribute path; a rename or deletion in src/ would otherwise surface only
when the traced benchmark pass fails to install its tracer.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for _, module, path in layers.TARGETS:
        obj = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(obj, part), f"{module}.{path}"
            obj = getattr(obj, part)
