"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from trialgen import make_trial  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
FIXTURE = HERE.parent / "tests" / "data" / "trial_parallel_sway.csv"


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(run.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_output_names_every_metric(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "score-batch",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }


def test_generator_reproduces_the_fixture():
    assert make_trial(30.0).text == FIXTURE.read_text(encoding="utf-8")


def test_generator_is_deterministic_per_seed():
    kwargs = dict(duration_s=5.0, dropout=0.05, foot_drift_m=0.01)
    first = make_trial(seed=7, **kwargs)
    assert make_trial(seed=7, **kwargs) == first
    assert make_trial(seed=8, **kwargs).text != first.text
    assert first.n_frames - first.n_complete == 25
    assert len(first.feet) == 5


def test_head_is_the_first_frames():
    trial = make_trial(4.0, seed=1, dropout=0.1)
    head = trial.head(100)
    assert head.text.splitlines() == trial.text.splitlines()[:101]
    assert head.complete == trial.complete[:100]


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "saddlebos" or name.startswith("saddlebos.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracing_restores_every_patched_function():
    import saddlebos.cli  # noqa: F401
    import saddlebos.oracle  # noqa: F401  the CLI imports it lazily

    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            during = _bindings()
            patched = {key for key, value in during.items() if value is not before.get(key)}
            raise RuntimeError("leave the block by an exception")
    # every target is patched at its home module, and names imported into
    # other modules are patched too
    assert ("saddlebos.geometry", "classify_saddle_points") in patched
    assert ("saddlebos.cli", "classify_saddle_points") in patched
    assert ("saddlebos.metrics", "_outer_border_indices") in patched
    assert len(patched) > len(tracing.TARGETS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_add_up_to_the_root():
    import numpy as np
    from saddlebos import ComTrajectory, metrics, posture_catalog

    posture = posture_catalog()[0]
    t = np.arange(400) / 100.0
    traj = ComTrajectory(t, np.column_stack((0.35 + 0.1 * np.sin(t), 0.2 + 0.1 * np.cos(3 * t))))
    tracer = tracing.Tracer()
    with tracer.patched(), tracer.operation("root", "bench.harness"):
        metrics.compute_report(traj, posture.boundary(), posture.frame())
    spans = tracer.spans
    names = [record[tracing.NAME] for record in spans]
    assert "metrics.compute_report" in names and "metrics._outer_border_indices" in names
    # compute_report -> outer_border -> _outer_border_indices: three levels
    depth = {0: 0}
    for i, record in enumerate(spans[1:], start=1):
        depth[i] = depth[record[tracing.PARENT]] + 1
    assert max(depth.values()) >= 3
    root = spans[0]
    assert sum(tracing.self_times(spans)) == pytest.approx(root[tracing.END] - root[tracing.START])
    assert tracing.nesting_problems(spans) == []
    wall = root[tracing.END] - root[tracing.START]
    _, problems = run.layer_metrics(spans, [wall], ("geometry", "metrics"))
    assert problems == []
    _, problems = run.layer_metrics(spans, [wall], ("metrics", "oracle"))
    assert problems == ["traced operation 0: no span in layer(s) oracle"]


def test_span_checks_can_fail():
    #        name, group, start, end, parent, op, items
    spans = [["root", "bench.harness", 0.0, 1.0, -1, 0, 0],
             ["a", "metrics.report", 0.1, 0.6, 0, 0, 0],
             ["b", "metrics.border", 0.4, 1.2, 0, 0, 0],
             ["c", "geometry.classify", 0.2, 0.3, 1, 1, 0]]
    problems = tracing.nesting_problems(spans)
    assert "span 2 b lies outside its parent root" in problems
    assert "span 3 c belongs to another operation than its parent" in problems
    assert any(p.startswith("span 0 root has negative self time") for p in problems)
    _, problems = run.layer_metrics(spans[:2], [2.0], ())
    assert problems == ["traced operation 0: self times add up to 1.000000 s, wall 2.000000 s"]
