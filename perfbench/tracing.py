"""Span recorder that times saddlebos from outside, one public function at a time.

``Tracer.patched()`` replaces each function named in ``TARGETS`` with a
wrapper that records a span (group, start, end, parent span, operation id,
item count).  The replacement happens at every binding site: each loaded
``saddlebos`` module whose namespace holds the original function object, so
names imported with ``from .geometry import ...`` are traced as well as
module-internal calls.  Leaving the ``with`` block restores every original,
also when the traced code raised.

Spans stay in memory; ``Tracer.dump`` writes them out once the run is over.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from functools import wraps
from importlib import import_module
from time import perf_counter


def _rows(arg: int):
    """Item counter: length of positional argument ``arg``."""
    return lambda args, result: len(args[arg]) if len(args) > arg else 0


def _result_rows(args, result):
    return len(result)


# (module, function, group, item counter).  Groups are ``<layer>.<name>`` and
# become the per-layer metric ``<group>_s`` (self time).
TARGETS = (
    ("trial_io", "parse_trial_csv", "trial_io.parse", _result_rows),
    ("trial_io", "export_report", "trial_io.export", None),
    ("trial_io", "export_polygon", "trial_io.export", None),
    ("trial_io", "posture_catalog", "trial_io.postures", None),
    ("trial_io", "random_postures", "trial_io.postures", None),
    ("markers", "com_trajectory", "markers.com", None),
    ("markers", "foot_poses", "markers.stance", None),
    ("geometry", "saddle_frame_from_ecops", "geometry.build", None),
    ("geometry", "derive_bos_params", "geometry.build", None),
    ("geometry", "saddle_array_from_task", "geometry.transform", _rows(1)),
    ("geometry", "task_array_from_saddle", "geometry.transform", _rows(1)),
    ("geometry", "polygon_to_task_space", "geometry.transform", _rows(1)),
    ("geometry", "classify_saddle_points", "geometry.classify", _rows(1)),
    ("geometry", "sample_boundary", "geometry.sample", None),
    ("metrics", "compute_report", "metrics.report", _rows(0)),
    ("metrics", "poi", "metrics.report", _rows(0)),
    ("metrics", "poi360", "metrics.report", _rows(0)),
    ("metrics", "outer_border", "metrics.border", None),
    ("metrics", "_outer_border_indices", "metrics.border", None),
    ("metrics", "covariance_ellipse", "metrics.ellipse", None),
    ("oracle", "classify_points", "oracle.even_odd", None),
    ("oracle", "point_in_polygon", "oracle.even_odd", None),
    ("oracle", "_distance_to_edges", "oracle.edge_distance", None),
    ("oracle", "check_star_shape", "oracle.star", None),
    ("oracle", "_ray_crossing_counts", "oracle.star", None),
    ("oracle", "check_convexity", "oracle.star", None),
    ("oracle", "check_containment_agreement", "oracle.agreement", None),
    ("oracle", "check_equivariance", "oracle.equivariance", None),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group, _ in TARGETS))

# span record fields
NAME, GROUP, START, END, PARENT, OP, ITEMS = range(7)


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str, group: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, group, perf_counter(), 0.0, parent, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str, group: str):
        """Root span of one operation; spans opened inside share its id."""
        self.op += 1
        record = self._open(name, group)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, fn, name: str, group: str, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, group)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record[ITEMS] = counter(args, result)
                return result
            finally:
                self._close(record)

        return traced

    @contextmanager
    def patched(self):
        """Trace every function in TARGETS at every binding site."""
        for module_name in dict.fromkeys(target[0] for target in TARGETS):
            import_module(f"saddlebos.{module_name}")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "saddlebos" or key.startswith("saddlebos."))
        ]
        patches = []
        try:
            for module_name, func_name, group, counter in TARGETS:
                original = getattr(sys.modules[f"saddlebos.{module_name}"], func_name)
                wrapper = self.wrap(original, f"{module_name}.{func_name}", group, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "group", "start", "end", "parent", "op", "items"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its children cover.

    Spans of one thread nest, so the children of a span are disjoint and the
    covered part is the sum of their durations.  ``nesting_problems`` checks
    that they do.
    """
    covered = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            covered[record[PARENT]] += record[END] - record[START]
    return [r[END] - r[START] - c for r, c in zip(spans, covered)]


def nesting_problems(spans: list[list]) -> list[str]:
    """Spans that break the nesting ``self_times`` relies on: a span that
    ends before it starts, lies outside its parent or belongs to another
    operation than its parent, or whose children overlap (negative self
    time)."""
    problems = []
    for i, record in enumerate(spans):
        label = f"span {i} {record[NAME]}"
        if record[END] < record[START]:
            problems.append(f"{label} ends before it starts")
        parent = record[PARENT]
        if parent < 0:
            continue
        outer = spans[parent]
        if not outer[START] <= record[START] <= record[END] <= outer[END]:
            problems.append(f"{label} lies outside its parent {outer[NAME]}")
        if record[OP] != outer[OP]:
            problems.append(f"{label} belongs to another operation than its parent")
    for i, own in enumerate(self_times(spans)):
        if own < 0.0:
            problems.append(f"span {i} {spans[i][NAME]} has negative self time {own:.6f} s")
    return problems
