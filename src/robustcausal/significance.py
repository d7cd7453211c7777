"""Shuffle-surrogate significance testing for mutual information and
transfer entropy.

Procedure
---------
The source series is shuffled (a uniform random permutation destroying all
temporal relationships) and the statistic is recomputed for ``n_surrogates``
independent realizations. The observed value is compared against the
surrogate population with a one-sided, one-sample t-test: with surrogate
mean ``mu`` and sample standard deviation ``s``, the statistic
``(observed - mu) / s`` must exceed the Student-t critical value at the
configured confidence level (df = n_surrogates - 1), as
``_critical.t_exceeds`` decides it.

A transfer-entropy link test is gated: TE is only computed if the mutual
information between the lag-aligned source and target is itself
significant, and by default the gate alone decides the link. An optional
second surrogate t-test on the TE statistic can be switched on for a
stricter decision. Both stages are one call of the estimator kernel
``estimators._cmi`` on the same shuffled sources: the gate is ``I(X_past;
Y_now)``, the TE stage ``I(X_past; Y_now | Y_past)``. With the stage off,
the decision needs no TE, so ``TeLinkResult.te`` is computed only when it
is first read: a graph reads it for every candidate, the error-rate trials
of ``evaluation.monte_carlo_rates`` never do.

Every link test runs on a record (``_record``): the series of a graph's
sample or window, an error-rate trial's pair, or the pair of one
``te_link_test``. The record builds on first use, and keeps for the tests
that follow, what they share: each variable's codes and the source and
target sides of the two stages.

Early stopping
--------------
A bank of n shuffles is drawn and counted in chunks that end after 3n//10
and 6n//10 rows (those in 2..n-1), then n. After each chunk but the last
the test asks whether the full bank could still pass. Surrogate values are
at least 0, and for a fixed sum of the rows not yet counted the t statistic
is largest when they are all equal, so its largest reachable value has a
closed form in the counted rows' mean and spread (``_t_ceiling``). Once
that is below the critical value by more than the full bank's t could be
rounded (``_T_MARGIN``), the test stops and is not significant, as the
full bank would be: every decision, and with it every written output, is
that of the full-n test. No upper bound on the values is needed, and none is used: the
t-maximising completion always lies below the counted mean.
``SignificanceResult.rows`` says how many rows were counted; a stopped
test describes them by its mean, spread and statistic. A gate that passes
has counted all n rows, and the TE stage counts the same chunks with the
same stop.

Determinism
-----------
Every surrogate batch draws from an RNG stream derived from the configured
seed plus the (source, target, lag) identity, so decisions are
bit-reproducible and independent of the order in which candidate links are
evaluated. A link test draws one shuffle ensemble and evaluates both MI and
TE on the same shuffled sources, exactly as a sequential by-hand procedure
would reuse its surrogate realizations. Its chunks come from that stream in
order, so the rows a stopped test drew are a prefix of the full ensemble.
"""

from __future__ import annotations

import math
import threading
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from ._critical import _ALPHA_MIN, t_critical, t_exceeds
from .estimators import (BinningSpec, _cmi, _entropy_bits, _given, _Given, _joint_counts,
                         _scratch_buffer, _te_from_codes)
from .timeseries import (TimeSeries, _check_count, _check_integer, _check_level, _check_pair,
                         _read_only, _rng)

__all__ = [
    "SurrogateConfig",
    "SignificanceResult",
    "TeLinkResult",
    "te_link_test",
]

# the rows ``_offset_rows`` keeps: (cx, step, rows) of this thread
_fill_rows = threading.local()

# A bank of n surrogate rows is counted in chunks that end after 3n//10 and
# 6n//10 rows (those in 2..n-1), then n; after each chunk but the last the
# test stops if it can no longer pass.
_CHECKPOINT_TENTHS = (3, 6)
# A test stops only if the largest t it can still reach is this far below
# the critical value, and its counted rows spread by more than this share
# of the observed value; together they cover the rounding of the full
# bank's t (see ``_surrogate_test``).
_T_MARGIN = 1e-6
_SPREAD_FLOOR = 1e-4


@dataclass(frozen=True)
class SurrogateConfig:
    """Settings for the surrogate significance procedure.

    By default a link decision rests on the MI gate alone and the transfer
    entropy is only computed, not itself surrogate-tested; switching
    ``te_surrogate_test`` on adds a second t-test on the TE statistic,
    which roughly squares the false-positive rate of the combined decision.
    A graph built with this config is labelled ``method`` "te".

    ``bins`` forces the bin count, else Scott's rule derives it per record.
    A ``spec`` passed explicitly to ``build_graph`` wins over ``bins``.
    """

    method: ClassVar[str] = "te"

    rng_seed: int
    n_surrogates: int = 100
    confidence: float = 0.95
    te_surrogate_test: bool = False
    bins: int | None = None

    def __post_init__(self):
        _check_integer("rng_seed", self.rng_seed)
        _check_count("n_surrogates", self.n_surrogates, 2)
        _check_level("confidence", self.confidence, floor=_ALPHA_MIN)
        if self.bins is not None:
            _check_count("bins", self.bins, 2)


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of one surrogate test.

    ``rows`` is the number of surrogate rows counted. A test that stopped
    early has ``rows`` below the configured bank size, describes the
    counted rows by ``surrogate_mean``, ``surrogate_std`` and
    ``statistic``, and is not significant, as the full bank would be.
    """

    observed: float
    surrogate_mean: float
    surrogate_std: float
    statistic: float
    significant: bool
    rows: int


@dataclass(frozen=True)
class TeLinkResult:
    """Outcome of the gated transfer-entropy link test.

    ``te`` is the observed transfer entropy when the MI gate passes and 0.0
    otherwise. It is computed the first time it is read: from the code
    arrays the test kept (``_te_from_codes``) when the TE surrogate stage is
    off, else it is ``te_test.observed``. ``te_test`` is None when the gate
    failed or the TE surrogate stage is switched off.
    """

    link: bool
    mi_test: SignificanceResult
    te_test: SignificanceResult | None
    # (cx, cy, lag, m) of the test, read by ``te`` when the stage is off
    _te_inputs: tuple[np.ndarray, np.ndarray, int, int] = field(repr=False, compare=False)

    @cached_property
    def te(self) -> float:
        if self.te_test is not None:
            return self.te_test.observed
        if not self.mi_test.significant:
            return 0.0
        return _te_from_codes(*self._te_inputs)


def _name_key(name: str) -> int:
    """Stable 32-bit identity of a variable name for seed derivation."""
    return zlib.crc32(name.encode("utf-8"))


def _moments(s: np.ndarray) -> tuple[float, float]:
    """Mean and sum of squared deviations of ``s``, by the reductions of
    ``s.mean()`` and ``s.std(ddof=1)``, so bit for bit the same."""
    mean = np.add.reduce(s) / s.size
    dev = s - mean
    dev *= dev
    return float(mean), float(np.add.reduce(dev))


def _decide(observed: float, surrogates: np.ndarray, confidence: float) -> SignificanceResult:
    """One-sided, one-sample t-test of the observed value against surrogates."""
    n = surrogates.size
    mu, m2 = _moments(surrogates)
    s = math.sqrt(m2 / (n - 1))
    if s == 0.0:
        if observed > mu:
            return SignificanceResult(observed, mu, s, math.inf, True, n)
        return SignificanceResult(observed, mu, s, 0.0, False, n)
    statistic = (observed - mu) / s
    significant = t_exceeds(statistic, confidence, n - 1)
    return SignificanceResult(observed, mu, s, statistic, significant, n)


def _checkpoints(n: int) -> list[int]:
    """Row counts after which a bank of ``n`` is checked, ending at ``n``."""
    cuts = {tenths * n // 10 for tenths in _CHECKPOINT_TENTHS}
    return sorted(k for k in cuts if 2 <= k < n) + [n]


def _t_ceiling(observed: float, mean: float, m2: float, k: int, n: int) -> float:
    """An upper bound, wherever it is positive, on the t statistic of a bank
    of ``n`` values whose first ``k`` have ``mean`` and squared deviations
    ``m2`` (> 0) and whose other ``r = n - k`` are at least 0.

    A positive t has ``observed`` above the bank's mean. For a fixed sum of
    the other values, and so a fixed mean, the spread is smallest, and t
    largest, when they all equal some ``v >= 0``. Over v, with ``delta =
    observed - mean``, t(v) has one stationary point ``v* = mean - m2 / (k
    * delta)``: a maximum, of ``sqrt((n - 1) * (delta**2 / m2 + r / (n *
    k)))``, when ``delta > 0``. So the bound is t(v*) if ``v* > 0``, else
    t(0). An upper bound on the values is never needed: v* lies below the
    mean, and t falls on both sides of it.
    """
    r = n - k
    delta = observed - mean
    if delta > 0.0 and mean * k * delta > m2:
        return math.sqrt((n - 1) * (delta * delta / m2 + r / (n * k)))
    return (delta + r / n * mean) / math.sqrt((m2 + k * r / n * mean * mean) / (n - 1))


def _surrogate_test(
    observed: float,
    count: Callable[[np.ndarray, np.ndarray], np.ndarray],
    chunks: Iterable[np.ndarray],
    n: int,
    confidence: float,
) -> SignificanceResult:
    """The t-test of ``observed`` against the ``n`` surrogate values that
    ``count`` gives for ``chunks`` of shuffled rows, taken in turn.

    Surrogate values are at least 0. After each chunk but the last, the
    test stops, not significant, once ``_t_ceiling`` shows that no values
    of the rows not yet counted can lift the full bank's t to within
    ``_T_MARGIN`` of the critical value ``crit``, when ``crit`` is
    positive, so no test that could pass stops. Otherwise it is
    ``_decide`` on all ``n`` values.

    The bound is exact arithmetic on the counted values. The full bank's t
    in floats can exceed it only by its rounding, about ``eps * observed /
    s`` for a t near the critical value, and its spread s is at least
    ``s_k * sqrt((k - 1) / (n - 1))`` for the spread s_k of the first k. With
    s_k above ``_SPREAD_FLOOR * observed`` that stays below ``_T_MARGIN``
    for banks of up to 10**8 rows.
    """
    crit = t_critical(confidence, n - 1)
    values = np.empty(n)
    k = 0
    for rows in chunks:
        count(rows, values[k : k + rows.shape[0]])
        k += rows.shape[0]
        if k == n or crit <= 0.0:
            continue
        mean, m2 = _moments(values[:k])
        s = math.sqrt(m2 / (k - 1))
        if s > _SPREAD_FLOOR * observed and _t_ceiling(observed, mean, m2, k, n) < crit - _T_MARGIN:
            return SignificanceResult(observed, mean, s, (observed - mean) / s, False, k)
    return _decide(observed, values, confidence)


def _offset_rows(cx: np.ndarray, n_rows: int, step: int) -> np.ndarray:
    """``cx`` plus ``j * step`` in each row j < n_rows, in this thread's
    ``"fill"`` scratch buffer. The rows are kept for a read-only ``cx`` (a
    source's ``fill``) and rebuilt only when another array, another step or
    more rows are asked for, so the link tests of one source build them
    once; their row count only grows."""
    kept = getattr(_fill_rows, "kept", None)
    if (kept is None or kept[0] is not cx or cx.flags.writeable or kept[1] != step
            or kept[2].shape[0] < n_rows):
        rows = n_rows if kept is None else max(n_rows, kept[2].shape[0])
        offset = _scratch_buffer("fill", rows * cx.size).reshape(rows, cx.size)
        np.add(cx, (np.arange(rows) * step)[:, None], out=offset)
        kept = _fill_rows.kept = (cx, step, offset)
    return kept[2][:n_rows]


def _shuffled_source_rows(
    cx: np.ndarray,
    n_rows: int,
    rng: np.random.Generator,
    *,
    step: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """n_rows independent full-length permutations of the source codes,
    row j plus ``j * step``, written to ``out`` (n_rows x cx.size,
    C-contiguous) when it is given."""
    if out is None:
        out = np.empty((n_rows, cx.size), cx.dtype)
    out[...] = _offset_rows(cx, n_rows, step)
    rng.permuted(out, axis=1, out=out)
    return out


class _Parts(dict):
    """A dict that builds the value of a missing key as ``build(*key)``."""

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(*key) if type(key) is tuple else self.build(key)
        return value


@dataclass(frozen=True, eq=False)
class _Record:
    """What the TE link tests on one record share, each part built on first
    use: per variable, by position, its ``codes`` and its name key
    (``keys``); as a source, its ``fill``, the codes times m, which fills
    its shuffle banks, and ``h_past[i, lag]``, the entropy of
    ``codes[i][:-lag]``; as a target, per lag, the given side
    (``estimators._given``) of the MI ``gate``, ``Y_now``, and of the TE
    ``stage``, ``(Y_past, Y_now)``."""

    m: int
    codes: _Parts
    keys: _Parts
    fill: _Parts
    h_past: _Parts
    gate: _Parts
    stage: _Parts

    def test(self, i: int, j: int, lag: int, cfg: SurrogateConfig) -> TeLinkResult:
        """The gated TE link test from variable ``i`` to variable ``j``."""
        return _te_link_from_codes(self, i, j, lag, cfg)


def _record(spec: BinningSpec, series: Sequence[TimeSeries]) -> _Record:
    m = spec.bin_count
    codes = _Parts(lambda i: spec.digitize(series[i]))
    return _Record(
        m, codes,
        keys=_Parts(lambda i: _name_key(series[i].name)),
        fill=_Parts(lambda i: _read_only(codes[i] * m)),
        h_past=_Parts(lambda i, lag: _entropy_bits(_joint_counts([codes[i][:-lag]], m))),
        gate=_Parts(lambda j, lag: _given(None, codes[j][lag:], m)),
        stage=_Parts(lambda j, lag: _given(codes[j][:-lag], codes[j][lag:], m)),
    )


def _te_stage(
    a: np.ndarray, given: _Given, m: int, confidence: float, rows: list[np.ndarray]
) -> SignificanceResult:
    """Surrogate test of the transfer entropy from the aligned source past
    ``a`` given the target's (Y_past, Y_now) side.

    ``rows`` holds the chunks of shuffled-source realizations the MI gate
    counted, sliced to the aligned window; a gate that passed counted all.
    """
    n = sum(chunk.shape[0] for chunk in rows)
    return _surrogate_test(*_cmi(a, given, m), rows, n, confidence)


def _te_link_from_codes(
    record: _Record, i: int, j: int, lag: int, cfg: SurrogateConfig
) -> TeLinkResult:
    """Gated TE link decision from the ``record``'s variable ``i`` to its
    variable ``j``, on the codes and shared parts the record keeps.

    One shuffle ensemble of the full source is drawn per (pair, lag), chunk
    by chunk as the MI gate asks for it, and shared by the MI gate and the
    TE test. The chunks come from one stream in order, so the rows drawn
    are a prefix of the whole ensemble. They are drawn into this thread's
    scratch bank (``estimators._scratch_buffer``), which the next test on
    the thread overwrites; no result refers to it. Each chunk holds the
    source's ``fill`` plus m * m times the row's index in the chunk, the
    form ``_cmi``'s ``count`` takes. The result keeps the codes to compute
    its ``te`` on first read, so they are not written to afterwards.
    """
    n, m = cfg.n_surrogates, record.m
    cx, cy = record.codes[i], record.codes[j]
    keep = cx.size - lag
    rng = _rng(cfg.rng_seed, record.keys[i], record.keys[j], lag)
    fill = record.fill[i]
    rows = _scratch_buffer("bank", n * cx.size).reshape(n, cx.size)
    bank: list[np.ndarray] = []

    def draw():
        start = 0
        for stop in _checkpoints(n):
            out = rows[start:stop]
            shuffled = _shuffled_source_rows(fill, stop - start, rng, step=m * m, out=out)
            bank.append(shuffled[:, :keep])
            yield bank[-1]
            start = stop

    gate = _cmi(cx[:keep], record.gate[j, lag], m, record.h_past[i, lag])
    mi_res = _surrogate_test(*gate, draw(), n, cfg.confidence)
    inputs = (cx, cy, lag, m)
    if not mi_res.significant or not cfg.te_surrogate_test:
        return TeLinkResult(mi_res.significant, mi_res, None, inputs)
    te_res = _te_stage(cx[:keep], record.stage[j, lag], m, cfg.confidence, bank)
    return TeLinkResult(te_res.significant, mi_res, te_res, inputs)


def te_link_test(
    x: TimeSeries, y: TimeSeries, lag: int, spec: BinningSpec, cfg: SurrogateConfig
) -> TeLinkResult:
    """Decide whether a lagged TE link from ``x`` to ``y`` is significant.

    Stage 1 tests the MI between the lag-aligned pair ``(x[t - lag], y[t])``;
    failing the gate yields ``(link=False, te=0.0)`` without computing TE.
    When the gate passes, the gate alone decides and the TE is computed when
    ``te`` is first read, unless ``cfg.te_surrogate_test`` is on, in which
    case the same surrogate procedure is applied to the TE itself and that
    test decides. Input faults raise as ``timeseries._check_pair`` says.
    """
    _check_pair(x, y, lag)
    return _record(spec, (x, y)).test(0, 1, lag, cfg)
