"""In-memory span tracer that instruments ``robustcausal`` from outside.

``instrument(tracer)`` swaps each traced function for a wrapper in every
module namespace that binds it, so both the cross-module call sites
(``graph._te_link_from_codes``, ``cli.read_dataset_csv``, ...) and the
calls a module makes to its own functions record a span. Nothing under
``src/`` is edited, and leaving the ``with`` block restores every binding.

A span is ``[name, parent index, start, end]``; the layer of a span is the
part of its name before the first dot, which is the module that does the
work. Self time is a span's duration minus the durations of its direct
children; a layer is busy while any of its spans is open.

Pool workers are not traced: a forked worker inherits the wrappers, which
call straight through when they run outside the tracing process.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from robustcausal import (
    cli,
    ensemble,
    estimators,
    evaluation,
    granger,
    graph,
    significance,
    synthetic,
    timeseries,
)

MODULES = (cli, timeseries, synthetic, estimators, significance, granger, graph, ensemble, evaluation)


class Tracer:
    """Spans and counters of one process, kept in memory until dumped.

    Span fields live in parallel flat lists, so recording a span allocates
    no container the garbage collector would have to scan.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def spans(self):
        """(name, parent index, start, end) of every span, in begin order."""
        return zip(self.names, self.parents, self.starts, self.ends)

    def dump(self, path) -> None:
        payload = {"fields": ["name", "parent", "start_s", "end_s"],
                   "spans": list(self.spans()), "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _traced(tracer: Tracer, fn, name: str, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if os.getpid() != tracer.pid:
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            tracer.end(index)
        if observe is not None:
            observe(tracer.counts, args, kwargs, result)
        return result

    return traced


def _gate(counts, args, kwargs, result) -> None:
    counts["significance.gate_passes"] += bool(result.mi_test.significant)


def _shuffle_bytes(counts, args, kwargs, result) -> None:
    # Computed from the code dtype and shape of the tiled source, not measured.
    codes, n_rows = args[0], args[1]
    counts["significance.shuffle_bytes_computed"] += int(n_rows) * codes.size * codes.itemsize


def _granger_link(counts, args, kwargs, result) -> None:
    counts["granger.links"] += bool(result.link)


def _windows(counts, args, kwargs, result) -> None:
    counts["ensemble.windows"] += len(result)


def _trials(counts, args, kwargs, result) -> None:
    counts["evaluation.trials"] += sum(point.n_trials for point in result.points)


# (module, attribute, span name, observer); the span is named after the
# module that does the work, wherever the function is called from.
FUNCTIONS = (
    (timeseries, "read_dataset_csv", "timeseries.read_csv", None),
    (timeseries, "validate_dataset", "timeseries.validate", None),
    (synthetic, "generate", "synthetic.generate", None),
    (estimators, "_entropy_bits_rows", "estimators.entropy_rows", None),
    (estimators, "_entropy_bits", "estimators.entropy", None),
    (estimators, "_joint_counts", "estimators.joint_counts", None),
    (estimators, "_te_from_codes", "estimators.te_point", None),
    (significance, "te_link_test", "significance.te_link_test", None),
    (significance, "_te_link_from_codes", "significance.link_test", _gate),
    (significance, "_shuffled_source_rows", "significance.shuffle", _shuffle_bytes),
    (significance, "_te_stage", "significance.te_stage", None),
    (granger, "granger_test", "granger.test", _granger_link),
    (graph, "build_graph", "graph.build", None),
    (graph, "export_graph", "graph.export", None),
    (ensemble, "analyze_ensemble", "ensemble.analyze", None),
    (ensemble, "draw_subsamples", "ensemble.draw", _windows),
    (ensemble, "_subsample_graph", "ensemble.window_graph", None),
    (ensemble, "link_frequencies", "ensemble.vote", None),
    (ensemble, "robust_graph", "ensemble.vote", None),
    (evaluation, "monte_carlo_rates", "evaluation.monte_carlo", _trials),
)

METHODS = (
    (estimators.BinningSpec, "from_dataset", "estimators.binning"),
    (estimators.BinningSpec, "digitize", "estimators.digitize"),
)


def _traced_pool(tracer: Tracer, base):
    """The pool class with a parent-side span from construction to shutdown."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            self._bench_span = tracer.begin("ensemble.parallel_section")
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc_info):
            try:
                return super().__exit__(*exc_info)
            finally:
                tracer.end(self._bench_span)

    return TracedPool


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced call through ``tracer`` inside the block."""
    saved = []
    try:
        for module, attr, name, observe in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = _traced(tracer, original, name, observe)
            for owner in MODULES:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        saved.append((owner, key, value))
                        setattr(owner, key, wrapper)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(_traced(tracer, original.__func__, name))
            else:
                replacement = _traced(tracer, original, name)
            saved.append((cls, attr, original))
            setattr(cls, attr, replacement)
        saved.append((ensemble, "ProcessPoolExecutor", ensemble.ProcessPoolExecutor))
        ensemble.ProcessPoolExecutor = _traced_pool(tracer, ensemble.ProcessPoolExecutor)
        yield tracer
    finally:
        for owner, key, value in reversed(saved):
            setattr(owner, key, value)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@dataclass
class SpanSummary:
    """Durations derived from the spans, in seconds. ``by_root_s`` is keyed
    by (name of the outermost span, span name); ``wall_s`` sums the
    outermost spans."""

    count: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    layer_busy_s: Counter = field(default_factory=Counter)
    layer_self_s: Counter = field(default_factory=Counter)
    by_root_s: Counter = field(default_factory=Counter)
    wall_s: float = 0.0


def summarize(tracer: Tracer) -> SpanSummary:
    """Per-name counts and totals, and busy and self time per layer."""
    children_s = [0.0] * len(tracer.names)
    for name, parent, start, end in tracer.spans():
        if parent >= 0:
            children_s[parent] += end - start
    layers_above: list[frozenset] = []
    roots: list[str] = []
    summary = SpanSummary()
    for index, (name, parent, start, end) in enumerate(tracer.spans()):
        layer = layer_of(name)
        duration = end - start
        above = frozenset()
        if parent >= 0:
            above = layers_above[parent] | {layer_of(tracer.names[parent])}
            roots.append(roots[parent])
        else:
            roots.append(name)
            summary.wall_s += duration
        layers_above.append(above)
        summary.by_root_s[roots[index], name] += duration
        summary.count[name] += 1
        summary.total_s[name] += duration
        summary.layer_self_s[layer] += duration - children_s[index]
        if layer not in above:
            summary.layer_busy_s[layer] += duration
    return summary
