"""Subsample-ensemble consistency filtering of lagged causal graphs.

The idea: a link inferred from the full sample is only trusted if it keeps
reappearing when the analysis is repeated on many shorter contiguous
windows of the same record. The pipeline draws ``n`` windows of length
``q`` and tests every candidate (source, target, lag) link on each. The
outcomes form one vote matrix, a row per window and a column per
candidate. Each column's votes are counted, and the links whose count
reaches ``ceil(threshold * n)`` are kept. One test config, its binning
included, serves the full sample and every window, as in
:func:`robustcausal.graph.build_graph`.

Window schemes
--------------
``random-continuous``
    Each window start is drawn uniformly from ``[0, l - q]``; windows may
    overlap. Start draws use one RNG stream per window index, so window j
    is the same no matter how many other windows are requested.
``fixed-overlap``
    Exactly three windows: first, centered, last.
``nonoverlapping``
    Starts at ``0, q, 2q, ...``; requires ``n * q <= l``.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import InvalidConfig, TooManyWindows, WindowTooLong
from .estimators import BinningSpec
from .granger import GrangerConfig
from .graph import (CausalLink, LaggedCausalGraph, LinkKey, build_graph, candidate_keys,
                    evaluate_candidates)
from .significance import SurrogateConfig
from .timeseries import Dataset, _check_count, _check_integer, _check_level, _derived_seed, _rng

__all__ = [
    "EnsembleConfig",
    "LinkFrequencyTable",
    "EnsembleResult",
    "draw_subsamples",
    "link_frequencies",
    "robust_graph",
    "analyze_ensemble",
]

SUBSAMPLE_MODES = ("random-continuous", "fixed-overlap", "nonoverlapping")


@dataclass(frozen=True)
class EnsembleConfig:
    """How to draw subsamples, how strict the consistency vote is, and
    (``reuse_parent_bins``) whether every window of a TE ensemble is binned
    with the discretization derived once on the full record."""

    n_subsamples: int
    subsample_length: int
    rng_seed: int
    mode: str = "random-continuous"
    threshold: float = 0.9
    reuse_parent_bins: bool = False

    def __post_init__(self):
        _check_count("n_subsamples", self.n_subsamples, 1)
        _check_count("subsample_length", self.subsample_length, 2)
        _check_integer("rng_seed", self.rng_seed)
        if self.mode not in SUBSAMPLE_MODES:
            raise InvalidConfig(
                f"mode must be one of {SUBSAMPLE_MODES}, got {self.mode!r}"
            )
        if self.mode == "fixed-overlap" and self.n_subsamples != 3:
            raise InvalidConfig(
                f"fixed-overlap mode draws exactly 3 windows, got n_subsamples={self.n_subsamples}"
            )
        _check_level("threshold", self.threshold, closed=True)


def _required_count(threshold: float, n: int) -> int:
    """Votes needed to keep a link: ceil(threshold * n), guarded against
    float noise pushing an exact product over the next integer."""
    return int(np.ceil(threshold * n - 1e-9))


def draw_subsamples(d: Dataset, cfg: EnsembleConfig) -> list[Dataset]:
    """Draw the configured contiguous windows from a dataset."""
    l = d.length
    q = cfg.subsample_length
    if q >= l:
        raise WindowTooLong(f"subsample length {q} does not fit in sample length {l}")
    if cfg.mode == "random-continuous":
        starts = [
            int(_rng(cfg.rng_seed, j).integers(0, l - q, endpoint=True))
            for j in range(cfg.n_subsamples)
        ]
    elif cfg.mode == "fixed-overlap":
        starts = [0, (l - q) // 2, l - q]
    else:
        if cfg.n_subsamples * q > l:
            raise TooManyWindows(
                f"{cfg.n_subsamples} nonoverlapping windows of length {q} "
                f"exceed sample length {l}"
            )
        starts = [j * q for j in range(cfg.n_subsamples)]
    return [d.window(start, q) for start in starts]


@dataclass(frozen=True)
class LinkFrequencyTable:
    """Appearance counts of every observed link across the windows.

    ``counts`` maps (source, target, lag) to the number of windows whose
    test kept the link; ``mean_strengths`` averages the link strength over
    those windows. Keys absent from ``counts`` have count 0.
    """

    variables: tuple[str, ...]
    max_lag: int
    method: str
    n_subsamples: int
    counts: dict[LinkKey, int]
    mean_strengths: dict[LinkKey, float]

    def to_csv(self) -> str:
        """CSV with one row per candidate link: source,target,lag,count,fraction.
        Names that hold a comma, a quote or a line break are quoted."""
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("source", "target", "lag", "count", "fraction"))
        for key in sorted(candidate_keys(self.variables, self.max_lag)):
            count = self.counts.get(key, 0)
            writer.writerow((*key, count, repr(count / self.n_subsamples)))
        return text.getvalue()


def link_frequencies(decisions: np.ndarray, statistics: np.ndarray, *,
                     variables: tuple[str, ...], max_lag: int, method: str) -> LinkFrequencyTable:
    """Count the votes of each column of a vote matrix (see ``EnsembleResult``).

    The matrix needs at least one row and a column per candidate key, and
    ``statistics`` its shape; else ``InvalidConfig``. A mean strength adds
    the voting windows' statistics in window order from 0.0 and divides by
    the count, bit for bit a per-link running sum.
    """
    keys = candidate_keys(variables, max_lag)
    shape = decisions.shape
    if len(shape) != 2 or not shape[0] or shape[1] != len(keys) or statistics.shape != shape:
        raise InvalidConfig(f"a vote matrix needs >= 1 row and {len(keys)} columns, one per "
                            f"candidate; got decisions {shape}, statistics {statistics.shape}")
    sums = np.zeros(len(keys))
    for row in np.where(decisions, statistics, 0.0):
        sums += row  # + 0.0 leaves a sum begun at 0.0 unchanged
    counts = {key: int(n) for key, n in zip(keys, decisions.sum(axis=0)) if n}
    means = {key: float(total) / counts[key] for key, total in zip(keys, sums) if key in counts}
    return LinkFrequencyTable(tuple(variables), max_lag, method, len(decisions), counts, means)


def robust_graph(freq: LinkFrequencyTable, threshold: float = 0.9) -> LaggedCausalGraph:
    """Keep the links whose appearance count reaches ceil(threshold * n)."""
    _check_level("threshold", threshold, closed=True)
    required = _required_count(threshold, freq.n_subsamples)
    links = tuple(CausalLink(*key, freq.mean_strengths[key])
                  for key, count in freq.counts.items() if count >= required)
    return LaggedCausalGraph(freq.variables, links, freq.max_lag, freq.method)


@dataclass(frozen=True)
class EnsembleResult:
    """Everything one ensemble run produces: ``robust`` is the full graph's
    consistency-filtered counterpart, voted from ``frequencies``.

    ``decisions`` and ``statistics`` are the vote matrix: row j is window
    j's ``evaluate_candidates`` row, windows in draw order.
    """

    full_graph: LaggedCausalGraph
    decisions: np.ndarray
    statistics: np.ndarray
    frequencies: LinkFrequencyTable
    robust: LaggedCausalGraph


def _subsample_graph(
    window: Dataset,
    test: SurrogateConfig | GrangerConfig,
    *,
    max_lag: int,
    spec: BinningSpec | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One window's row of the vote matrix, tested exactly as on the full sample.

    A named module-level function: the pool pickles it by reference, and
    ``benchmarks/layer_trace.py`` times window tests through it.
    """
    return evaluate_candidates(window, test, max_lag, spec=spec)


def analyze_ensemble(
    d: Dataset,
    cfg: EnsembleConfig,
    test: SurrogateConfig | GrangerConfig,
    *,
    max_lag: int = 4,
    workers: int = 1,
) -> EnsembleResult:
    """Full pipeline: full-sample graph, per-window vote rows, vote, filter.

    The test config picks the method, as in ``build_graph``. Each window's
    TE surrogate streams derive from (surrogate seed, window index), so
    results are reproducible and independent of ``workers``. With
    ``cfg.reuse_parent_bins`` the TE discretization derived on the full
    sample is reused for every window; with a ``GrangerConfig`` it raises
    ``InvalidConfig`` before any window is drawn.
    """
    _check_count("workers", workers, 1)
    te = isinstance(test, SurrogateConfig)
    parent_spec = None
    if cfg.reuse_parent_bins:
        if not te:
            raise InvalidConfig("reuse_parent_bins needs a TE test: a Granger test bins nothing")
        parent_spec = BinningSpec.from_dataset(d, bin_count=test.bins)
    full_graph = build_graph(d, test, max_lag, spec=parent_spec)

    windows = draw_subsamples(d, cfg)
    # Window j's surrogates are seeded from (seed, 0x5B5B, j); the salt is
    # part of the stream definition, so changing it changes every vote.
    tests = [
        replace(test, rng_seed=_derived_seed(test.rng_seed, 0x5B5B, j)) if te else test
        for j in range(len(windows))
    ]
    window_row = partial(_subsample_graph, max_lag=max_lag, spec=parent_spec)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(window_row, windows, tests))
    else:
        rows = list(map(window_row, windows, tests))

    decisions, statistics = (np.array(part) for part in zip(*rows))
    freq = link_frequencies(decisions, statistics, variables=d.names, max_lag=max_lag,
                            method=test.method)
    return EnsembleResult(full_graph, decisions, statistics, freq,
                          robust_graph(freq, cfg.threshold))
