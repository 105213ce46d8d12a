"""The benchmark's tracer still finds what it traces in the package.

``perfbench/tracing.py`` lists the functions it traces in ``TARGETS`` and
looks each one up with a plain ``getattr`` only when a traced run starts, so
a name deleted from the package would first fail there.  ``perfbench/run.py``
then requires every traced ``analyze`` operation to reach each layer of its
``Analyze.layers`` through those functions, so a code path that stops
calling every traced function of a layer fails only a traced bench run too.
Both files are read with ``ast``, not imported.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from saddlebos.cli import main

from helpers import TRIAL_CSV

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_functions() -> list[tuple[str, str, str]]:
    """The (module, function, group) of each entry of ``TARGETS``."""
    for node in ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return [tuple(part.value for part in entry.elts[:3]) for entry in node.value.elts]
    raise AssertionError("no TARGETS assignment found")


def analyze_workloads() -> tuple[tuple, list[tuple[str, list, dict]]]:
    """``Analyze.layers`` and the (name, flags, outputs) of each
    ``Analyze(...)`` workload in ``perfbench/run.py``."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    layers, workloads = None, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Analyze":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "layers":
                    layers = ast.literal_eval(stmt.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Analyze":
            kw = {k.arg: ast.literal_eval(k.value) for k in node.keywords if k.arg in ("flags", "outputs")}
            workloads.append((ast.literal_eval(node.args[0]), kw["flags"], kw["outputs"]))
    assert layers and workloads, "no Analyze workloads found"
    return layers, workloads


def test_every_traced_function_exists():
    targets = traced_functions()
    assert ("geometry", "classify_saddle_points", "geometry.classify") in targets
    assert ("markers", "com_trajectory", "markers.com") in targets
    missing = [
        f"{module}.{name}"
        for module, name, _ in targets
        if not callable(getattr(importlib.import_module(f"saddlebos.{module}"), name, None))
    ]
    assert missing == []


LAYERS, WORKLOADS = analyze_workloads()


def traced_analyze_groups(tmp_path, monkeypatch, flags, outputs) -> set[str]:
    """The ``TARGETS`` groups that ``analyze`` with ``flags`` and ``outputs``
    reaches on the fixture."""
    reached = set()
    for module, name, group in traced_functions():
        original = getattr(importlib.import_module(f"saddlebos.{module}"), name)

        def traced(*args, original=original, group=group, **kwargs):
            reached.add(group)
            return original(*args, **kwargs)

        # every binding site, as the tracer patches them
        for key, mod in list(sys.modules.items()):
            if key == "saddlebos" or key.startswith("saddlebos."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, traced)
    argv = ["analyze", "--markers", str(TRIAL_CSV), *flags]
    for name, (flag, suffix) in outputs.items():
        argv += [flag, str(tmp_path / f"{name}{suffix}")]
    assert main(argv) == 0
    return reached


@pytest.mark.parametrize("flags, outputs", [w[1:] for w in WORKLOADS], ids=[w[0] for w in WORKLOADS])
def test_analyze_reaches_every_traced_layer(tmp_path, capsys, monkeypatch, flags, outputs):
    reached = traced_analyze_groups(tmp_path, monkeypatch, flags, outputs)
    assert set(LAYERS) - {group.split(".")[0] for group in reached} == set()


def test_static_analyze_reaches_the_transform_and_classify_groups(tmp_path, capsys, monkeypatch):
    # a static run scores through traced geometry calls, so the bench's
    # geometry.transform_s and geometry.classify_s profile it
    flags, outputs = next(w[1:] for w in WORKLOADS if w[0] == "analyze-long")
    reached = traced_analyze_groups(tmp_path, monkeypatch, flags, outputs)
    assert {"geometry.transform", "geometry.classify"} - reached == set()
