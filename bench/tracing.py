"""Span tracing of hierfusion's layer functions, installed from outside.

The traced pass replaces each layer function listed in `LAYER_FUNCTIONS`
with a wrapper that records a span around the call. The wrapper goes into
every `hierfusion` module namespace that holds the function, not only the
defining module, because callers bind the names at import time (the CLI
imports them by name, and `build_visual_structure` calls `class_statistics`
through its own module globals). Nothing inside the package changes.

Spans stay in memory and are written out once, after the pass.
"""

import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

PACKAGE = "hierfusion"

# The layer functions the per-layer metrics name, by defining module.
# `serialization` and `rng` are measured through these callers.
LAYER_FUNCTIONS = {
    "features": (
        "generate_synthetic",
        "save_feature_table",
        "load_feature_table",
        "train_test_split",
        "class_statistics",
    ),
    "structure_builder": (
        "build_visual_structure",
        "class_distance_matrix",
        "affinity_matrix",
        "spectral_embedding",
        "symmetric_eigen",
        "kmeans",
    ),
    "model": ("train", "predict", "save_checkpoint", "load_checkpoint", "save_history"),
    "metrics": ("evaluate", "save_predictions"),
    "taxonomy": ("load_structure", "save_structure"),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """Records nested spans; `run` tags every span of one command."""

    def __init__(self, capture=()):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._capture = frozenset(capture)
        # span name -> [(args, kwargs, result)] for the names in `capture`
        self.captured = defaultdict(list)

    def call(self, name, fn, args, kwargs):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))
        if name in self._capture:
            self.captured[name].append((args, kwargs, result))
        return result

    def write(self, path) -> None:
        """Write the spans as JSON lines, in order of completion."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def install(tracer: Tracer):
    """Wrap every layer function; return the list of patches to undo."""
    wrappers = {}  # id(original) -> (original, wrapper)
    for module_name, names in LAYER_FUNCTIONS.items():
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        for fn_name in names:
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = (fn, _wrap(tracer, f"{module_name}.{fn_name}", fn))
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                setattr(module, attr, wrapper)
                patches.append((module, attr, value))
    return patches


def uninstall(patches) -> None:
    for module, attr, original in patches:
        setattr(module, attr, original)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def self_times(spans) -> dict:
    """Summed self time per span name: duration minus time in child spans."""
    in_children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            in_children[span.parent] += span.end - span.start
    totals = defaultdict(float)
    for span in spans:
        totals[span.name] += (span.end - span.start) - in_children[span.id]
    return dict(totals)


def call_counts(spans) -> dict:
    counts = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    return dict(counts)
