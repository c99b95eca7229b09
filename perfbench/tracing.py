"""Spans recorded from outside the program, around its public functions.

A traced run installs wrappers (``install``) around the functions named in
``FUNCTIONS`` and ``METHODS``; each call records a span with its name, start,
end, parent span and phase.  Spans stay in memory; the per-layer metrics are
self times computed from them when the run ends.  Calls made inside forked
worker processes are out of reach: their spans stay in the child.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, phase].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase: str | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        result = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                result[parent] -= end - start
        return result

    def breakdown(self) -> dict[int, dict[str, float]]:
        """Self time per span name under each top-level span, by its index."""
        own = self.self_times()
        top: list[int] = []
        result: dict[int, dict[str, float]] = {}
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            top.append(index if parent < 0 else top[parent])
            names = result.setdefault(top[index], {})
            names[name] = names.get(name, 0.0) + own[index]
        return result


# Module functions: every reference held by a loaded ``repro`` module is
# replaced, because callers import them by name.
FUNCTIONS = (
    ("repro.datasets.tudataset", "load_tudataset", "datasets"),
    ("repro.graphs.centrality", "pagerank_matrix", "centrality"),
)

# Methods: (module, class, attribute, layer); the span name adds the backend.
METHODS = (
    ("repro.core.encoding", "GraphHDEncoder", "encode_many", "encode"),
    ("repro.hdc.classifier", "CentroidClassifier", "fit_state", "accumulate"),
    ("repro.hdc.classifier", "CentroidClassifier", "fit_from_state", "accumulate"),
    ("repro.hdc.classifier", "CentroidClassifier", "decision_scores", "similarity"),
    ("repro.hdc.classifier", "CentroidClassifier", "predict", "similarity"),
)


def _wrap(tracer: Tracer, function: Callable, name_of: Callable) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = tracer.open(name_of(args))
        try:
            return function(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced functions; returns the function that unwraps them."""
    restore: list[tuple[object, str, object]] = []
    for module_name, attribute, layer in FUNCTIONS:
        original = getattr(sys.modules[module_name], attribute)
        traced = _wrap(tracer, original, lambda args, layer=layer: layer)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    restore.append((module, key, original))
    for module_name, class_name, attribute, layer in METHODS:
        owner = getattr(sys.modules[module_name], class_name)
        original = owner.__dict__[attribute]
        traced = _wrap(
            tracer,
            original,
            lambda args, layer=layer: f"{layer}.{args[0].backend.name}",
        )
        setattr(owner, attribute, traced)
        restore.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    return uninstall
