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

Early stopping
--------------
A bank of n shuffles is drawn and counted in chunks that end after 3n//10
and 6n//10 rows (those in 2..n-1), then n. After each chunk but the last
the test asks whether the full bank could still pass. Surrogate values are
at least 0, and for a fixed sum of the rows not yet counted the t statistic
is largest when they are all equal, so its largest reachable value has a
closed form in the counted rows' mean and spread (``_t_ceiling``). Once
that is below the lower end of the critical value's bracket, by a margin
for rounding, the test stops and is not significant, as the full bank
would be: every decision, and with it every written output, is that of the
full-n test. No upper bound on the values is needed, and none is used: the
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
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar, Iterable

import numpy as np

from ._critical import t_bracket, t_exceeds
from .estimators import BinningSpec, _cmi, _scratch_buffer, _te_from_codes
from .timeseries import (TimeSeries, _check_count, _check_integer, _check_level, _check_pair,
                         _rng)

__all__ = [
    "SurrogateConfig",
    "SignificanceResult",
    "TeLinkResult",
    "te_link_test",
]

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
        _check_level("confidence", self.confidence)
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
    of the rows not yet counted can lift the full bank's t to the lower end
    ``lo`` of the critical value's bracket, when ``lo`` is positive; ``lo``
    is at most the critical value, so no test that could pass stops.
    Otherwise it is ``_decide`` on all ``n`` values.

    The bound is exact arithmetic on the counted values. The full bank's t
    in floats can exceed it only by its rounding, about ``eps * observed /
    s`` for a t near the critical value, and its spread s is at least
    ``s_k * sqrt((k - 1) / (n - 1))`` for the spread s_k of the first k. With
    s_k above ``_SPREAD_FLOOR * observed`` that stays below ``_T_MARGIN``
    for banks of up to 10**8 rows.
    """
    lo = t_bracket(confidence, n - 1)[0]
    values = np.empty(n)
    k = 0
    for rows in chunks:
        count(rows, values[k : k + rows.shape[0]])
        k += rows.shape[0]
        if k == n or lo <= 0.0:
            continue
        mean, m2 = _moments(values[:k])
        s = math.sqrt(m2 / (k - 1))
        if s > _SPREAD_FLOOR * observed and _t_ceiling(observed, mean, m2, k, n) < lo - _T_MARGIN:
            return SignificanceResult(observed, mean, s, (observed - mean) / s, False, k)
    return _decide(observed, values, confidence)


def _shuffled_source_rows(
    cx: np.ndarray, n_rows: int, rng: np.random.Generator, *, out: np.ndarray | None = None
) -> np.ndarray:
    """n_rows independent full-length permutations of the source codes,
    written to ``out`` (n_rows x cx.size, C-contiguous) when it is given."""
    if out is None:
        out = np.empty((n_rows, cx.size), cx.dtype)
    out[...] = cx
    rng.permuted(out, axis=1, out=out)
    return out


def _te_stage(
    cx: np.ndarray,
    cy: np.ndarray,
    lag: int,
    m: int,
    confidence: float,
    rows: list[np.ndarray],
) -> SignificanceResult:
    """Surrogate test of the transfer entropy at ``lag``.

    ``rows`` holds the chunks of shuffled-source realizations the MI gate
    counted, sliced to the aligned window; a gate that passed counted all.
    """
    keep = cx.size - lag
    n = sum(chunk.shape[0] for chunk in rows)
    return _surrogate_test(*_cmi(cx[:keep], cy[:keep], cy[lag:], m), rows, n, confidence)


def _te_link_from_codes(
    cx: np.ndarray,
    cy: np.ndarray,
    lag: int,
    m: int,
    cfg: SurrogateConfig,
    key_x: int,
    key_y: int,
) -> TeLinkResult:
    """Gated TE link decision on pre-digitized code arrays.

    One shuffle ensemble of the full source is drawn per (pair, lag), chunk
    by chunk as the MI gate asks for it, and shared by the MI gate and the
    TE test. The chunks come from one stream in order, so the rows drawn
    are a prefix of the whole ensemble. They are drawn into this thread's
    scratch bank (``estimators._scratch_buffer``), which the next test on
    the thread overwrites; no result refers to it. The result keeps ``cx``
    and ``cy`` to compute its ``te`` on first read, so they are not written
    to afterwards.
    """
    n = cfg.n_surrogates
    keep = cx.size - lag
    rng = _rng(cfg.rng_seed, key_x, key_y, lag)
    rows = _scratch_buffer("bank", n * cx.size).reshape(n, cx.size)
    bank: list[np.ndarray] = []

    def draw():
        start = 0
        for stop in _checkpoints(n):
            out = rows[start:stop]
            bank.append(_shuffled_source_rows(cx, stop - start, rng, out=out)[:, :keep])
            yield bank[-1]
            start = stop

    gate = _cmi(cx[:keep], None, cy[lag:], m)
    mi_res = _surrogate_test(*gate, draw(), n, cfg.confidence)
    inputs = (cx, cy, lag, m)
    if not mi_res.significant or not cfg.te_surrogate_test:
        return TeLinkResult(mi_res.significant, mi_res, None, inputs)
    te_res = _te_stage(cx, cy, lag, m, cfg.confidence, bank)
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
    return _te_link_from_codes(
        spec.digitize(x),
        spec.digitize(y),
        lag,
        spec.bin_count,
        cfg,
        _name_key(x.name),
        _name_key(y.name),
    )
